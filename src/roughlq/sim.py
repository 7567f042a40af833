"""Closed-loop pathwise integration with input saturation.

The plant and the observer advance with first-order (Euler) steps,

    x[k+1]    = x[k] + (A x[k] + B u[k]) dt + dv[k],
    xhat[k+1] = xhat[k] + (A xhat[k] + B u[k]) dt + L (dy[k] - C xhat[k] dt),

on integrated measurements dy[k] = C x[k] dt + dw[k]; the estimation error
follows e[k+1] = e[k] + (A - LC) e[k] dt + dv[k] - L dw[k], the recursion
the observer design optimises.  Euler converges to the rough-differential-
equation solution because the noise enters additively: a constant
diffusion coefficient makes the second-level driver terms multiply a
vanishing derivative (a step-halving self-convergence test checks the rate).

No input enters e: a run given an observer design solves it before the
loop and forms xhat = x - e after it.  With u_raw[k] = -K x[k] +
K (e[k] - V[k]), e = 0 without the observer and V as the run's law
(``LAWS``) builds it, the loop is affine in w = (x, u_raw):

    w[k+1] = M clip(w[k]) + c[k],

where ``clip`` bounds the u_raw coordinates by the saturation level, and c
holds what does not depend on the state (dv and K (e - V)), built once
per run.

A mode says, for each input, whether it is free or railed at +saturation
or -saturation.  While the mode mu holds the loop is linear,

    w[k+1] = M_mu w[k] + c[k] + const_mu,

with M_mu the matrix M with the railed input columns zeroed and const_mu
their +-saturation contribution.  Stacked over a window of rows that is a
unit lower-triangular block-bidiagonal system, and one banded forward
substitution (LAPACK ``dtbtrs`` on ``riccati._step_band``, the solve
behind every linear recursion in the package) solves it in place.  One
rule steps the loop: band solves of 1024 rows run while a mode holds; the
first row in a new mode hands back to single steps, one explicit step
w[k+1] = M clip(w[k]) + c[k] each (one BLAS matrix-vector product), until
one mode has held for 64 rows, and from that row band solves run again.
A band solve is speculative: the loop keeps its rows through the first
row in a new mode and tests them, with the single steps that follow, for
divergence.  The band solve multiplies a NaN or inf by the band's
structural zeros, so the halt row, the first that fails the test, is
recomputed as one explicit step from the row before it, and xhat there
too.  No state takes the last row's input, so a non-finite one halts the
run at that row.  The clipped inputs and the running cost are formed
after the loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemv
from scipy.linalg.lapack import dtbtrs

from .control import gaussian_correction_series, pathwise_correction_series
from .lift import _dyadic_peaks, lift_piecewise_linear
from .noise import NoiseModel, SamplePath, _write_table, make_grid
from .observer import ObserverDesign, simulate_error_process
from .riccati import ControlDesign, _step_band

__all__ = [
    "LAWS",
    "SimError",
    "StateSpaceModel",
    "SimConfig",
    "Trajectory",
    "integrate",
    "average_cost",
    "continuity_probe",
    "trajectory_to_csv",
    "correction_to_csv",
]

#: state-norm threshold beyond which a run is declared diverged, well
#: before floating-point overflow can contaminate stored values
DIVERGENCE_NORM = 1e12

#: rows one mode holds under single steps before band solves take over,
#: and rows of one band solve
_HOLD, _WINDOW = 64, 1024

#: the laws u = -K (xhat + V): what V reads (``v``, the true process noise
#: in observer runs too, and how far ahead; ``none``: no V) and how a run
#: builds V from the path of v.  Each series is looked up when it is built,
#: so a rebinding of this module's names reaches every run.
LAWS = {
    "classical": ("none", lambda run, design, v: None),
    "glq:pathwise": ("v:anticipative", lambda run, design, v: pathwise_correction_series(design, lift_piecewise_linear(v))),
    "glq:gaussian": ("v:causal", lambda run, design, v: gaussian_correction_series(design, run.noise_v.hurst, v)),
}


class SimError(ValueError):
    """Raised for inconsistent simulation setups."""


@dataclass(frozen=True)
class StateSpaceModel:
    """Plant matrices with the quadratic cost weights."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.asarray(self.B, dtype=float)
        if b.ndim == 1:
            b = b[:, None]
        c = np.atleast_2d(np.asarray(self.C, dtype=float))
        q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        r = np.atleast_2d(np.asarray(self.R, dtype=float))
        n = a.shape[0]
        if a.shape != (n, n) or b.shape[0] != n or c.shape[1] != n or q.shape != (n, n):
            raise SimError("inconsistent state-space shapes")
        if r.shape[0] != r.shape[1] or r.shape[0] != b.shape[1]:
            raise SimError("R must be m x m")
        for name, mat in (("A", a), ("B", b), ("C", c), ("Q", q), ("R", r)):
            if not np.isfinite(mat).all():
                raise SimError(f"{name} must be finite")
            object.__setattr__(self, name, mat)
        # the weights are config: refuse them here; scipy's CARE wants them exactly symmetric
        for name, mat in (("Q", q), ("R", r)):
            if np.linalg.norm(mat - mat.T) > 1e-10 * max(1.0, np.linalg.norm(mat)):
                raise SimError(f"{name} must be symmetric")
            object.__setattr__(self, name, 0.5 * (mat + mat.T))
        q, r = self.Q, self.R
        if np.min(np.linalg.eigvalsh(r)) <= 0.0:
            raise SimError("R must be positive definite")
        w, u = np.linalg.eigh(q)
        if w[0] < -1e-10 * max(1.0, np.linalg.norm(q)):
            raise SimError("Q must be positive semidefinite")
        # PBH test: (A, Q^1/2) is detectable when no mode of A with
        # Re(lambda) >= 0 lies in the null space of Q^1/2; else the CARE
        # has no stabilising positive definite solution
        q_half = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.T
        scale = max(1.0, np.linalg.norm(a, 2), np.linalg.norm(q_half, 2))
        for lam in np.linalg.eigvals(a):
            if lam.real >= -1e-10 * scale:
                pencil = np.vstack([a - lam * np.eye(n), q_half])
                if np.linalg.svd(pencil, compute_uv=False)[-1] < 1e-10 * scale:
                    raise SimError(f"Q leaves the mode {lam:.4g} of A unweighted: (A, Q^1/2) is not detectable")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class SimConfig:
    """One closed-loop run: plant, noises, law and grid; see :func:`integrate` for observer runs."""

    model: StateSpaceModel
    noise_v: NoiseModel
    noise_w: NoiseModel
    law: str = "classical"  # a key of LAWS
    dt: float = 1e-3
    horizon: float = 10.0
    saturation: float = 1000.0
    x0: np.ndarray | None = None

    def __post_init__(self):
        if self.law not in LAWS:
            raise SimError(f"unknown law {self.law!r}")
        if self.law == "glq:gaussian" and self.noise_v.kind == "stable":
            raise SimError("the gaussian predictor needs Gaussian process noise, not stable")
        if not np.isfinite([self.dt, self.horizon]).all():
            raise SimError(f"dt and horizon must be finite, got {self.dt} and {self.horizon}")
        if self.dt <= 0.0 or self.horizon < 10.0 * self.dt:
            raise SimError("need dt > 0 and horizon >= 10 dt")
        if not self.saturation > 0.0:  # inf means no saturation
            raise SimError("saturation must be positive")
        n = self.model.n
        x0 = np.zeros(n) if self.x0 is None else np.asarray(self.x0, dtype=float)
        if x0.shape != (n,):
            raise SimError(f"x0 must have shape ({n},), got {x0.shape}")
        if not np.isfinite(x0).all():
            raise SimError(f"x0 must be finite, got {x0}")
        object.__setattr__(self, "x0", x0)

    def grid(self) -> np.ndarray:
        return make_grid(self.dt, self.horizon)

    @property
    def information(self) -> str:
        """What the run's correction reads (see ``LAWS``)."""
        return LAWS[self.law][0]


@dataclass
class Trajectory:
    """Record of one closed-loop run.

    Arrays stop at the divergence step when ``diverged`` is set; the
    running cost is a trapezoidal accumulation of x'Qx + u'Ru and is
    nondecreasing.
    """

    t: np.ndarray
    x: np.ndarray
    xhat: np.ndarray
    u_raw: np.ndarray
    u_sat: np.ndarray
    cost_running: np.ndarray
    diverged: bool = False
    t_diverge: float | None = None
    v_correction: np.ndarray | None = None
    v_increments: np.ndarray | None = None

    @property
    def final_cost(self) -> float:
        return float(self.cost_running[-1])


def _correction_series(config: SimConfig, design: ControlDesign, v_path: SamplePath):
    return LAWS[config.law][1](config, design, v_path)


def integrate(
    config: SimConfig,
    v_path: SamplePath,
    w_path: SamplePath | None,
    design: ControlDesign,
    observer: ObserverDesign | None = None,
    v_correction: np.ndarray | None = None,
) -> Trajectory:
    """Run one closed loop over the configured grid.

    Both paths must sit on the config grid.  A run given ``observer`` is an
    observer run: it feeds back xhat and reads ``w_path``, to solve its
    estimation error first; others may pass None.  A run whose law has a V
    may pass its correction series, as
    :func:`_correction_series` builds it from ``v_path``, so that runs
    which read the same series share one; by default it is built here.
    Divergence (non-finite values or state norm beyond 1e12) halts the
    run cleanly at the offending step and flags the trajectory.
    """
    model = config.model
    grid = config.grid()
    paths = [("v_path", v_path, "process", "state", model.n)]
    if observer is not None:
        if w_path is None:
            raise SimError("observer run requested without a measurement noise path")
        paths.append(("w_path", w_path, "measurement", "output", model.p))
    for name, path, noise, space, dim in paths:
        if path.t.shape != grid.shape or abs(path.t[-1] - grid[-1]) > 1e-9:
            raise SimError(f"{name} grid does not match the configured grid")
        if path.d != dim:
            raise SimError(f"{noise} noise dimension must equal the {space} dimension")

    n_steps, n, m, sat = grid.shape[0] - 1, model.n, model.m, config.saturation
    dv, v_corr = v_path.increments, v_correction
    if v_corr is None:
        v_corr = _correction_series(config, design, v_path)
    elif config.information == "none":
        raise SimError(f"a {config.law} run reads no correction series")
    elif v_corr.shape != (n_steps + 1, n):
        raise SimError(f"correction series must have shape {(n_steps + 1, n)}, got {v_corr.shape}")

    a_dt, b_dt = np.eye(n) + model.A * config.dt, model.B * config.dt
    bias = np.zeros((n_steps + 1, m)) if v_corr is None else -v_corr @ design.K.T
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite dv or dw spreads through e and c
        if observer is not None:  # -K xhat = -K x + K e, and no input enters e: solve it first
            dw = w_path.increments  # xhat starts at 0, so e starts at x0
            e = simulate_error_process(model.A, observer.L, model.C, dv[None], dw[None], config.dt, e0=config.x0)[0]
            bias += e @ design.K.T
        # u_raw[k] = bias[k] - K x[k], so M = [F G; -K F  -K G] and c = [dv, bias[1:] - K dv]
        c = np.hstack([dv, bias[1:] - dv @ design.K.T])
    top = np.hstack([a_dt, b_dt])
    m_step = np.asfortranarray(np.vstack([top, -design.K @ top]))
    hi = np.r_[np.full(n, np.inf), np.full(m, sat)]  # clip bounds on w
    lo = -hi
    w = np.empty((n_steps + 1, n + m))
    w[0] = np.r_[config.x0, bias[0] - design.K @ config.x0]

    def rails(rows):
        """Mode of each row: per input, +1 or -1 railed at that bound, 0 free."""
        u = rows[..., n:]
        return (u > sat).view(np.int8) - (u < -sat).view(np.int8)

    def step_rows(k0, k1):
        """Rows k0 + 1 .. k1, one explicit step each, up to the first row
        that ends ``_HOLD`` rows in one mode; returns the last row reached."""
        wk, since, last = w[k0], k0, None
        for k in range(k0, k1):
            mode = [(u > sat) - (u < -sat) for u in wk[n:].tolist()]
            if mode != last:
                since, last = k, mode
            elif k - since == _HOLD - 1:  # rows since .. k hold one mode
                return k
            if any(mode):
                wk = np.minimum(np.maximum(wk, lo), hi)
            w[k + 1] = wk = dgemv(1.0, m_step, wk, 1.0, c[k])  # M wk + c[k] in one BLAS call
        return k1

    bands = {}  # mode -> (band of the windowed system, constant input of the railed inputs)

    def solve_rows(k0, k1, mode):
        """Rows k0 + 1 .. k1, assuming rows k0 .. k1 - 1 all hold ``mode``."""
        key = mode.tobytes()
        if key not in bands:
            railed = n + np.flatnonzero(mode)
            m_mode = m_step.copy()
            m_mode[:, railed] = 0.0
            const = m_step[:, railed] @ (sat * mode[mode != 0])
            bands[key] = _step_band(m_mode, min(_WINDOW, n_steps) + 1), const
        band, const = bands[key]
        rows = w[k0 : k1 + 1]
        np.add(c[k0:k1], const, out=rows[1:])
        # overwrite_b: the solve runs in place on the contiguous rows
        dtbtrs(band[:, : rows.size], rows.reshape(-1, 1), uplo="L", diag="U", overwrite_b=1)

    halt, k0 = None, 0
    with np.errstate(over="ignore", invalid="ignore"):  # rows past a halt may overflow
        while k0 < n_steps:
            mode = rails(w[k0])
            k1 = min(k0 + _WINDOW, n_steps)
            solve_rows(k0, k1, mode)
            switched = np.flatnonzero((rails(w[k0 + 1 : k1 + 1]) != mode).any(axis=1))
            if switched.size:  # keep rows through the first in a new mode, then step from it
                k1 = step_rows(k0 + 1 + int(switched[0]), n_steps)
            # a non-finite state has a NaN or infinite norm and fails the test too
            bad = np.flatnonzero(~(np.linalg.norm(w[k0 + 1 : k1 + 1, :n], axis=1) <= DIVERGENCE_NORM))
            if bad.size:
                halt = k0 + 1 + int(bad[0])
                # the band solve spreads a NaN or inf through the band's zeros:
                # redo the halt row as one step from the row before it
                step_rows(halt - 1, halt)
                break
            k0 = k1
    if halt is None and not np.isfinite(w[n_steps, n:]).all():  # no state takes the last input
        halt = n_steps

    end = n_steps if halt is None else halt
    live = end if halt is not None else end + 1  # rows that carry a cost rate
    w = w[: end + 1]
    x = w[:, :n]
    u_raw = w[:, n:].copy()
    u_raw[live:] = 0.0  # the halt row records no input
    u_sat = np.clip(u_raw, -sat, sat)
    with np.errstate(over="ignore", invalid="ignore"):  # e may hold the non-finite noise
        xhat = x - e[: end + 1] if observer is not None else x
        if observer is not None and halt is not None:  # e[halt] took dv[halt - 1], maybe non-finite; xhat did not
            xhat[-1] = a_dt @ xhat[-2] + b_dt @ u_sat[-2] + observer.L @ (model.C @ e[halt - 1] * config.dt + dw[halt - 1])
    rate = np.einsum("ki,ki->k", x[:live] @ model.Q, x[:live])
    rate += np.einsum("ki,ki->k", u_sat[:live] @ model.R, u_sat[:live])
    cost = np.zeros(end + 1)
    cost[1:live] = np.cumsum(0.5 * config.dt * (rate[:-1] + rate[1:]))
    cost[live:] = cost[live - 1]  # the halt row carries the last accumulated cost
    return Trajectory(
        t=grid[: end + 1], x=x, xhat=xhat,
        u_raw=u_raw, u_sat=u_sat, cost_running=cost,
        diverged=halt is not None, t_diverge=None if halt is None else grid[halt],
        v_correction=None if v_corr is None else v_corr[: end + 1], v_increments=dv,
    )


def average_cost(traj: Trajectory) -> float:
    """Time-averaged quadratic cost; infinite for diverged runs."""
    if traj.diverged:
        return float("inf")
    return traj.final_cost / float(traj.t[-1])


# ---------------------------------------------------------------------------
# qualitative probes
# ---------------------------------------------------------------------------

def _smooth_bump(grid: np.ndarray) -> np.ndarray:
    """A fixed C-infinity perturbation shape, zero at both ends."""
    horizon = grid[-1]
    s = grid / horizon
    return np.sin(2.0 * np.pi * s) * (s * (1.0 - s)) * horizon


def _sawtooth(grid: np.ndarray, teeth: int = 64) -> np.ndarray:
    horizon = grid[-1]
    s = grid / horizon
    saw = 2.0 * np.abs(teeth * s - np.floor(teeth * s + 0.5)) - 0.5
    return saw * (s * (1.0 - s)) * horizon


#: the perturbation shapes of :func:`continuity_probe`
_BUMPS = {"smooth": _smooth_bump, "sawtooth": _sawtooth}


def continuity_probe(
    config: SimConfig,
    design: ControlDesign,
    base_v: SamplePath,
    etas,
    shape: str = "smooth",
):
    """Full-state trajectory deviation under driver perturbations of shrinking size.

    Perturbs every noise coordinate by ``eta`` times a fixed ``"smooth"``
    (or ``"sawtooth"``) path and reports ``(measured Holder size, sup-norm
    state deviation)`` pairs, ordered as given.
    """
    if shape not in _BUMPS:
        raise SimError(f"unknown shape {shape!r}; expected one of {sorted(_BUMPS)}")
    grid = config.grid()
    bump = _BUMPS[shape](grid)
    base_traj = integrate(config, base_v, None, design)
    out = []
    exponent = float(base_v.holder if base_v.holder is not None else 0.5)
    # discrete Holder constant of the bump, sup |f(t) - f(s)| / |t - s|^exponent over dyadic lags
    lags, peaks = _dyadic_peaks(bump, grid.shape[0] - 1)
    bump_size = max(peak / (lag * (grid[1] - grid[0])) ** exponent for lag, peak in zip(lags, peaks))
    for eta in etas:
        pert_values = base_v.values + eta * bump[:, None]
        pert = SamplePath(t=grid, values=pert_values, seed=base_v.seed, holder=base_v.holder)
        traj = integrate(config, pert, None, design)
        k = min(base_traj.x.shape[0], traj.x.shape[0])
        deviation = float(np.max(np.abs(traj.x[:k] - base_traj.x[:k])))
        out.append((eta * bump_size, deviation))
    return out


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def trajectory_to_csv(traj: Trajectory, file) -> None:
    """Columns ``t,x1..xn,xhat1..xhatn,u_raw,u_sat,cost`` at full precision."""
    n = traj.x.shape[1]
    m = traj.u_raw.shape[1]
    cols = ["t"]
    cols += [f"x{i + 1}" for i in range(n)]
    cols += [f"xhat{i + 1}" for i in range(n)]
    cols += [f"u_raw{i + 1}" if m > 1 else "u_raw" for i in range(m)]
    cols += [f"u_sat{i + 1}" if m > 1 else "u_sat" for i in range(m)]
    cols.append("cost")
    table = np.column_stack(
        [traj.t, traj.x, traj.xhat, traj.u_raw, traj.u_sat, traj.cost_running]
    )
    _write_table(file, ",".join(cols), table)


def correction_to_csv(traj: Trajectory, file) -> None:
    """The V(t) series alongside a trajectory, when recorded."""
    if traj.v_correction is None:
        raise SimError("trajectory has no correction series")
    n = traj.v_correction.shape[1]
    header = "t," + ",".join(f"v{i + 1}" for i in range(n))
    _write_table(file, header, np.column_stack([traj.t, traj.v_correction]))
