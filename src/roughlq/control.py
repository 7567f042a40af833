"""Prediction-corrected linear-quadratic control law.

The optimal law has the form ``u = -K (x + V(t))`` where ``K`` is the
classical Riccati feedback gain and ``V(t)`` offsets the effect of the
driving noise's future increments on the state trajectory.  ``V`` is the
weighted future-noise integral

    r(t) = integral_t^inf Phi(s, t)^T P dv(s)

expressed in state units through the normalisation ``V = P^{-1} r``,
which makes ``-K (x + V) = -R^{-1} B^T (P x + r)`` the exact
completion-of-squares minimiser.

V is read only as a series along a path, one entry point per mode:
:func:`gaussian_correction_series` replaces the future increments by their
conditional mean given a window of past ones (exact Gaussian conditioning
of fBm, the causal optimum of Duncan & Pasik-Duncan, SIAM J. Control
Optim. 2013) through the lag sums ``H[l] = sum_j Phi(j)^T P gamma(j + l)``
of the fGn autocovariance ``gamma``; at H = 1/2 it is 0, and the law is LQR.
:func:`pathwise_correction_series` evaluates the realised-path integral
against a fixed rough driver (it reads the future) by one backward
recursion with compensated (level-2 aware) Riemann sums.  Every linear
recursion here, and the blocks of closed-loop powers, is one banded solve
(``riccati._solve_steps``).  ``roughlq.sim`` decides which mode a run's
noise admits.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_solve, expm

from .lift import RoughPath, rough_integral_admissible
from .noise import SamplePath, _fgn_cholesky, fgn_autocovariance
from .riccati import ControlDesign, _solve_steps

__all__ = [
    "PredictorError",
    "default_horizon",
    "pathwise_correction_series",
    "gaussian_correction_series",
    "pathwise_cost",
    "completion_of_squares_gap",
]

#: Time-smooth integrands are Lipschitz in time; this is the regularity
#: fed into the admissibility predicate for the correction integral.
INTEGRAND_HOLDER = 1.0

#: powers of the closed-loop step whose norms are tested together
_HORIZON_BLOCK = 1024

#: Gaussian correction kernels built in this process, by what they depend
#: on; past ``_MEMO_ENTRIES`` the oldest entry goes
_MEMO: dict = {}
_MEMO_ENTRIES = 16


class PredictorError(ValueError):
    """Raised for invalid correction inputs."""


def _spectral_radius_floor(step: np.ndarray) -> float:
    """A certified lower bound on the spectral radius of ``step``, or 0.

    The computed eigenpairs give ``step = D + G`` with ``D = V diag(lam) V^-1``
    and ``||G||_2 <= ||R||_2 ||V^-1||_2`` for the residual
    ``R = step V - V diag(lam)``.  By Bauer & Fike (1960) every eigenvalue
    of ``step`` lies in a disc of radius ``r = kappa(V) ||G||_2`` about some
    ``lam_i``, and each connected union of discs holds as many eigenvalues
    as centres (grow G from 0).  So the union around the largest
    ``|lam_i|`` holds an eigenvalue of modulus at least its smallest
    ``|lam_i| - r``.  The residual's own rounding is added to ``R``, and
    ``r`` is doubled against the rounding of the norms.
    """
    n = step.shape[0]
    lam, vec = np.linalg.eig(step)
    sv = np.linalg.svd(vec, compute_uv=False)
    if not sv[-1] > 0.0:
        return 0.0
    residual = np.linalg.norm(step @ vec - vec * lam)
    residual += 4 * (n + 1) * np.finfo(float).eps * np.linalg.norm(np.abs(step) @ np.abs(vec) + np.abs(vec * lam))
    radius = 2.0 * sv[0] * residual / sv[-1] ** 2
    near = np.abs(lam[:, None] - lam[None, :]) <= 2.0 * radius
    joined = near[np.argmax(np.abs(lam))]
    for _ in range(n):
        joined = near[joined].any(axis=0)
    return max(float(np.min(np.abs(lam[joined]))) - radius, 0.0)


def default_horizon(design: ControlDesign, dt: float, max_steps: int = 2_000_000) -> float:
    """Shortest horizon with ``||exp(A_cl T)||_2 < 1e-6``.

    Hurwitz decay makes the discarded tail of the future-noise integral
    negligible beyond this point.

    Since ``||step^k||_2 >= rho(step)^k`` for ``step = exp(A_cl dt)``, no
    power up to ``k0 = floor(ln 1e-6 / ln rho_lo)`` can cross, with
    ``rho_lo`` a certified lower bound on the spectral radius
    (:func:`_spectral_radius_floor`; ``k0 = 0`` where it says nothing).  A
    ``max_steps`` within ``k0`` is refused before any power is formed.
    The scan starts at the last multiple of B = 1,024 (``_HORIZON_BLOCK``)
    at or below ``k0``, with the head ``step^(start+1)`` formed by binary
    powering, and tests the powers in blocks of B, each one batched
    product ``head @ base`` with ``base = step^0 .. step^(B-1)`` built once
    by one banded solve (:func:`riccati._solve_steps`) and ``head``
    advanced by ``step^B``.  Since
    ``||M||_2 <= ||M||_F <= sqrt(n) ||M||_2``, the Frobenius norm decides
    every power outside ``[1e-6, sqrt(n) 1e-6]``.  A power inside is
    first tested against ``||M v|| <= ||M||_2`` with ``v`` the top right
    singular vector of the block's first such power; only what that
    leaves open takes an SVD.  The first crossing wins, and ``max_steps``
    is honoured exactly.

    The block products round differently from sequential ``power @ step``
    products, so the step count equals that of a sequential scan unless
    some power's norm lies within that rounding of 1e-6.  Cost for m
    horizon steps: O(n^3 log m) for the skip and O((m - k0 + B) n^3) flops
    in O((m - k0) / B) numpy calls for the scan; memory O(B n^2), whatever
    m.
    """
    if not (np.isfinite(dt) and dt > 0.0):
        raise PredictorError(f"dt must be finite and positive, got {dt}")
    if max_steps < 1:
        raise PredictorError(f"max_steps must be at least 1, got {max_steps}")
    tol = 1e-6
    n = design.n
    # the margins keep rounding in the two norms from flipping a decision
    surely_below = tol * (1.0 - 1e-12)
    maybe_below = np.sqrt(n) * tol * (1.0 + 1e-12)
    step = expm(design.A_cl * dt)
    rho = _spectral_radius_floor(step)
    # rho^k >= 1e-6 for every k <= skip; the shave keeps the logarithms' rounding out
    skip = max_steps
    if rho < 1.0:
        skip = 0 if rho == 0.0 else int(np.log(tol) / np.log1p(rho - 1.0) * (1.0 - 1e-6))
    if skip >= max_steps:
        raise PredictorError("closed loop decays too slowly for a finite horizon")
    first = skip - skip % _HORIZON_BLOCK
    # step^k solves z[k] = step z[k-1] from z[0] = I
    base = _solve_steps(step, np.eye(_HORIZON_BLOCK * n, n).reshape(-1, n, n))
    stride = base[-1] @ step
    head = np.linalg.matrix_power(step, first + 1)
    for start in range(first, max_steps, _HORIZON_BLOCK):
        block = head @ base[: min(_HORIZON_BLOCK, max_steps - start)]
        fro = np.sqrt(np.einsum("kij,kij->k", block, block))
        below = fro < surely_below
        ambiguous = np.flatnonzero(~below & (fro < maybe_below))
        if ambiguous.size:
            top = np.linalg.svd(block[ambiguous[0]])[2][0]
            ambiguous = ambiguous[np.linalg.norm(block[ambiguous] @ top, axis=1) < tol * (1.0 + 1e-12)]
        if ambiguous.size:
            below[ambiguous] = np.linalg.svd(block[ambiguous], compute_uv=False)[:, 0] < tol
        if below.any():
            return (start + int(np.argmax(below)) + 1) * dt
        head = head @ stride
    raise PredictorError("closed loop decays too slowly for a finite horizon")


def _array_key(a: np.ndarray) -> tuple:
    a = np.asarray(a, dtype=float)
    return a.shape, a.tobytes()


# ---------------------------------------------------------------------------
# Gaussian conditioning: one lag-sum kernel
# ---------------------------------------------------------------------------

def _lag_sums(design: ControlDesign, hurst: float, dt: float, m: int, lags: int) -> np.ndarray:
    """``H[l] = sum_{j<m} Phi(j)^T P gamma(j + l)`` for l = 1 .. L = ``lags``,
    row l - 1 holding H[l] as a flat n x n block, with ``gamma`` the fGn
    autocovariance of index ``hurst``.

    With ``E^T = exp(A_cl^T dt)`` and ``Phi(j)^T P = (E^T)^j P``, the top lag
    is ``H[L] = (sum_b (E^T)^(B b) S_b) P``, summed by Horner over blocks of
    B = 1,024 powers (``_HORIZON_BLOCK``).  Each
    ``S_b = sum_{i<B} gamma(L + B b + i) (E^T)^i`` is one contraction of a
    block of ``gamma``, evaluated for that block alone, against the shared
    base ``(E^T)^0 .. (E^T)^(B-1)``, one banded solve.  Every lower lag
    follows from the backward step

        H[l] = E^T H[l + 1] + P gamma(l) - (E^T)^m P gamma(m + l),

    one backward banded solve (:func:`riccati._solve_steps`) with the n
    columns of ``H[l]`` as right-hand sides, and ``(E^T)^m`` formed by
    binary powering.  The multiplier ``E^T`` is stable, so rounding does
    not grow along the lags.  Cost O(m n^2 + (m/B + B + L) n^3) flops in
    O(m/B) numpy calls; memory O((B + L) n^2), whatever m.
    """
    n = design.n
    shift = expm(design.A_cl.T * dt)
    base = _solve_steps(shift, np.eye(_HORIZON_BLOCK * n, n).reshape(-1, n, n))
    jump = base[-1] @ shift
    top = np.zeros((n, n))
    for start in reversed(range(0, m, _HORIZON_BLOCK)):
        count = min(_HORIZON_BLOCK, m - start)
        gamma = fgn_autocovariance(np.arange(lags + start, lags + start + count), dt, hurst)
        top = np.tensordot(gamma, base[:count], axes=1) + jump @ top
    lower = np.arange(1, lags)
    far = np.linalg.matrix_power(shift, m) @ design.P
    out = np.empty((lags, n, n))
    out[:-1] = (
        design.P * fgn_autocovariance(lower, dt, hurst)[:, None, None]
        - far * fgn_autocovariance(m + lower, dt, hurst)[:, None, None]
    )
    out[-1] = top @ design.P
    return _solve_steps(shift, out, backward=True).reshape(lags, n * n)


def _gaussian_kernels(design: ControlDesign, hurst: float, dt: float, horizon: float | None, sizes: tuple) -> list:
    """Per window size s the taps ``T_s[w]``, shape (s, n, n), with
    ``V(t_k) = sum_{w<s} T_s[w] inc[k - s + w]``, over m = round(horizon /
    dt) steps (at least 1; ``None`` scans :func:`default_horizon`).

    The conditioning, the lag sums ``H[l]`` and ``P^{-1}`` collapse into
    ``T_s = P^{-1} Gamma_s^{-1} G_s`` with ``G_s[i] = H[s - i]``.  Each
    ``Gamma_s`` is a leading block of the sampler's fGn covariance, so two
    triangular solves, O(s^2 n^2), against the leading block of its
    Schur-built Cholesky factor (``noise._fgn_cholesky``) apply its
    inverse; a Gram matrix that is not positive definite raises the
    factor's ``NoiseError``.
    """
    if horizon is None:
        horizon = default_horizon(design, dt)
    m = max(1, int(round(horizon / dt)))
    n = design.n
    factor = _fgn_cholesky(sizes[-1], dt, hurst)
    lag_sums = _lag_sums(design, hurst, dt, m, sizes[-1])
    p_inv = np.linalg.inv(design.P)
    return [
        p_inv @ cho_solve((factor[:size, :size], True), lag_sums[size - 1 :: -1]).reshape(size, n, n)
        for size in sizes
    ]


def gaussian_correction_series(
    design: ControlDesign,
    hurst: float,
    path: SamplePath,
    window: int = 256,
    horizon: float | None = None,
) -> np.ndarray:
    """Conditional-mean V(t_k) along an fBm path of index ``hurst``, shape (N + 1, n).

    Identically zero at H = 1/2.  For other Hurst indices the
    conditioning window at step k is the largest power of two
    s not exceeding min(k, window), and V(t_k) is ``P^{-1}`` times the
    ``Phi^T P``-weighted sum of the conditional means of the next m
    increments (m horizon steps, default :func:`default_horizon`) given
    those last s increments.

    Per window size the conditioning, the lag sums ``H[l]`` and ``P^{-1}``
    collapse into s taps (:func:`_gaussian_kernels`), built once per
    process for each key ``(A_cl, P, dt, hurst, horizon, window sizes)``,
    with ``horizon`` as given, so the default horizon is scanned once per
    design and ``dt``.  The sweep adds one product per tap over all rows of
    that size, ``V[s + r] += T_s[w] inc[r + w]``, with no copy of the
    windows; each row sums only its own past increments, in a fixed
    order, so changing an increment never moves an earlier V by rounding.
    Cost: O(m n^2 + (m/1024 + 1024 + window) n^3) for the lag sums and
    O(window^2 n^2) for the factor and its solves, both once per key, and
    O(N window n^2) for the sweep.  Memory: O((1024 + window) n^2) for the
    build, whatever m, plus O(window^2) for the factor and O(N n) for the
    series.
    """
    if not (0.0 < hurst < 1.0 and window >= 1):
        raise PredictorError(f"need 0 < hurst < 1 and window >= 1, got {hurst} and {window}")
    if horizon is not None and not (np.isfinite(horizon) and horizon > 0.0):
        raise PredictorError(f"horizon must be finite and positive, got {horizon}")
    n_steps = path.n_steps
    if hurst == 0.5:
        return np.zeros((n_steps + 1, design.n))
    dt, hurst = float(path.dt), float(hurst)
    sizes = tuple(1 << i for i in range(min(window, n_steps).bit_length()))
    key = (_array_key(design.A_cl), _array_key(design.P), dt, hurst, horizon, sizes)
    if key not in _MEMO:
        if len(_MEMO) >= _MEMO_ENTRIES:
            del _MEMO[next(iter(_MEMO))]
        _MEMO[key] = _gaussian_kernels(design, hurst, dt, horizon, sizes)
    taps = _MEMO[key]

    # time runs along the rows of the transposed series: an n x n by n x rows
    # product runs about twice as fast as rows x n by n x n
    inc = path.increments.T.copy()
    out = np.zeros((design.n, n_steps + 1))
    for size, tap in zip(sizes, taps):
        # V[size .. 2 size - 1] conditions on size increments; the largest size takes the rest
        rows = n_steps + 1 - size if size == sizes[-1] else size
        block = out[:, size : size + rows]
        for w in range(size):
            block += tap[w] @ inc[:, w : w + rows]
    return out.T.copy()


# ---------------------------------------------------------------------------
# realised-path correction: one backward recursion
# ---------------------------------------------------------------------------

def _pathwise_sums(design: ControlDesign, dx: np.ndarray, dt: float) -> np.ndarray:
    """``raw[k] = sum_{j>=k} exp(A_cl^T (j - k) dt) W dx[j]``, shape (len(dx) + 1, n).

    The backward recursion ``raw[k] = W dx[k] + E raw[k + 1]`` from
    ``raw[-1] = 0``, with ``E = exp(A_cl^T dt)``, is one backward banded
    solve (:func:`riccati._solve_steps`).  The compensated weight
    ``W = P + dt/2 A_cl^T P`` contracts the integrand's time derivative
    against the lift's time-cross second-level block, which for the
    piecewise-linear geometric lift equals ``dt/2 * dX`` per step.
    """
    weight = design.P + 0.5 * dt * design.A_cl.T @ design.P
    raw = np.zeros((dx.shape[0] + 1, design.n))
    raw[:-1] = dx @ weight.T
    return _solve_steps(expm(design.A_cl.T * dt), raw, backward=True)


def pathwise_correction_series(
    design: ControlDesign,
    driver: RoughPath,
    horizon: float | None = None,
) -> np.ndarray:
    """V(t_k) for every grid point of the driver, shape (N + 1, n).

    One backward recursion over the whole grid; a finite positive
    horizon subtracts the re-weighted tail, so the cost stays O(N).
    """
    if horizon is not None and not (np.isfinite(horizon) and horizon > 0.0):
        raise PredictorError(f"horizon must be finite and positive, got {horizon}")
    if driver.holder is not None and not rough_integral_admissible(
        INTEGRAND_HOLDER, float(driver.holder)
    ):
        raise PredictorError(
            f"driver regularity {driver.holder} fails the (2+alpha)*beta > 1 "
            f"admissibility condition"
        )
    n_steps = driver.n_steps
    dt = float(driver.t[1] - driver.t[0])
    raw = _pathwise_sums(design, driver.dx, dt)
    if horizon is not None:
        w = max(1, int(round(horizon / dt)))
        if w < n_steps:
            shift = np.linalg.matrix_power(expm(design.A_cl.T * dt), w)
            raw[: n_steps + 1 - w] -= raw[w:] @ shift.T
    return np.linalg.solve(design.P, raw.T).T


# ---------------------------------------------------------------------------
# pathwise cost
# ---------------------------------------------------------------------------

def pathwise_cost(traj, q: np.ndarray, r: np.ndarray) -> float:
    """Trapezoidal integral of x'Qx + u'Ru along one trajectory."""
    t, x, u = traj.t, traj.x, traj.u_sat
    integrand = np.einsum("ki,ij,kj->k", x, q, x) + np.einsum("ki,ij,kj->k", u, r, u)
    return float(np.trapezoid(integrand, t))


def completion_of_squares_gap(traj_u, traj_ustar, design: ControlDesign, q, r):
    """Excess cost of ``traj_u`` versus the R-weighted control deviation.

    Returns ``(lhs, rhs)`` with ``lhs = J(u) - J(u*)`` and
    ``rhs = integral ||u(t) - u_law(t)||_R^2 dt`` where ``u_law`` is the
    corrected feedback evaluated along ``traj_u``'s own states.  The two
    trajectories must share the driver realisation and initial state.
    """
    if traj_u.v_increments is None or traj_ustar.v_increments is None:
        raise PredictorError("trajectories lack driver records")
    if not np.array_equal(traj_u.v_increments, traj_ustar.v_increments):
        raise PredictorError("trajectories were driven by different noise realisations")
    if not np.array_equal(traj_u.x[0], traj_ustar.x[0]):
        raise PredictorError("trajectories start from different states")
    v_series = traj_u.v_correction
    if v_series is None:
        v_series = traj_ustar.v_correction
    if v_series is None:
        raise PredictorError("no correction series recorded on either trajectory")

    lhs = pathwise_cost(traj_u, q, r) - pathwise_cost(traj_ustar, q, r)

    dev = traj_u.u_raw + (traj_u.x + v_series) @ design.K.T
    integrand = np.einsum("ki,ij,kj->k", dev, np.atleast_2d(r), dev)
    rhs = float(np.trapezoid(integrand, traj_u.t))
    return lhs, rhs
