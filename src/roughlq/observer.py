"""Steady-state observer design under correlated rough noises.

Second moments of the per-step noise increments, given as
``(replications, N, d)`` arrays and normalised by the step ``dt``, give
the process moment Sigma_v, the measurement moment Sigma_w and the cross
moment R_vw.  The error second moment S solves the correlated-noise
filter algebraic Riccati equation

    A S + S A' + Sigma_v - (S C' + R_vw) inv(Sigma_w) (C S + R_vw') = 0,

and the gain is ``L = (S C' + R_vw) inv(Sigma_w)``.  The equation is the
dual of a control Riccati equation with a cross term, so S comes from one
Schur-method solve (``scipy.linalg.solve_continuous_are``).  With zero
cross moment it is the classical filter equation, ``L = S C' inv(Sigma_w)``.

The increment moments are grid-dependent quantities for long-memory
noise (the per-step variance of an fBm increment scales like
``dt^(2H)``, so the normalised moment carries ``dt^(2H-1)``): estimate
them on the same grid the simulation uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_continuous_are

from .riccati import _solve_steps, spectral_abscissa

__all__ = [
    "ObserverError",
    "NoiseSecondMoments",
    "ObserverDesign",
    "estimate_second_moments",
    "observer_gain",
    "modified_are_residual",
    "solve_observer_steady_state",
    "gain_stationarity_check",
    "simulate_error_process",
]

MIN_REPLICATIONS = 100


class ObserverError(ValueError):
    """Raised for invalid moments or a failed steady-state solve."""


@dataclass(frozen=True)
class NoiseSecondMoments:
    """Per-step increment second moments, normalised by the step."""

    sigma_v: np.ndarray
    sigma_w: np.ndarray
    r_vw: np.ndarray
    dt: float
    n_samples: int = 0
    truncation: float | None = None

    def __post_init__(self):
        for name in ("sigma_v", "sigma_w", "r_vw"):
            object.__setattr__(self, name, np.atleast_2d(np.asarray(getattr(self, name), dtype=float)))

    @classmethod
    def uncorrelated(cls, sigma_v, sigma_w, dt: float = 0.0) -> "NoiseSecondMoments":
        sigma_v = np.atleast_2d(np.asarray(sigma_v, dtype=float))
        sigma_w = np.atleast_2d(np.asarray(sigma_w, dtype=float))
        n, p = sigma_v.shape[0], sigma_w.shape[0]
        return cls(
            sigma_v=sigma_v,
            sigma_w=sigma_w,
            r_vw=np.zeros((n, p)),
            dt=dt,
        )


@dataclass(frozen=True)
class ObserverDesign:
    """Steady-state error moment S, gain L and the error matrix A - LC."""

    S: np.ndarray
    L: np.ndarray
    A_err: np.ndarray
    residual: float


def estimate_second_moments(
    inc_v,
    inc_w,
    dt: float,
    truncate_quantile: float | None = None,
) -> NoiseSecondMoments:
    """Sample second moments of jointly sampled (v, w) increments.

    ``inc_v`` and ``inc_w`` are ``(replications, N, d)`` increment arrays
    on a grid of step ``dt``, the step the moments are normalised by; at
    least 100 replications are required.  When ``truncate_quantile`` is
    set, both are symmetrically clipped at that quantile of their joint
    absolute values before the moments are formed (heavy-tailed noise has
    no finite raw second moment; the truncated surrogate is what the
    design consumes), and the clip level is recorded.  The inputs are not
    modified.
    """
    inc_v = np.asarray(inc_v, dtype=float)
    inc_w = np.asarray(inc_w, dtype=float)
    if inc_v.ndim != 3 or inc_w.ndim != 3:
        raise ObserverError(
            "v and w increments must be (replications, steps, dimension) arrays, "
            f"got {inc_v.ndim}-d and {inc_w.ndim}-d"
        )
    if not 0.0 < dt < np.inf:
        raise ObserverError(f"dt must be finite and positive, got {dt}")
    reps = inc_v.shape[0]
    if reps < MIN_REPLICATIONS:
        raise ObserverError(f"need at least {MIN_REPLICATIONS} replications, got {reps}")
    if inc_w.shape[:2] != inc_v.shape[:2]:
        raise ObserverError(f"v and w replication shapes disagree: {inc_v.shape[:2]} and {inc_w.shape[:2]}")

    clip_level = None
    if truncate_quantile is not None:
        both = np.empty(inc_v.size + inc_w.size)
        head, tail = both[: inc_v.size].reshape(inc_v.shape), both[inc_v.size :].reshape(inc_w.shape)
        np.abs(inc_v, out=head)
        np.abs(inc_w, out=tail)
        clip_level = float(np.quantile(both, truncate_quantile, overwrite_input=True))
        # the partitioned buffer is free again: the clipped copies go there
        inc_v = np.clip(inc_v, -clip_level, clip_level, out=head)
        inc_w = np.clip(inc_w, -clip_level, clip_level, out=tail)

    count = reps * inc_v.shape[1]
    norm = 1.0 / (count * dt)
    # one Gram per replication, each a BLAS product whatever the layout
    sigma_v = norm * np.sum(inc_v.transpose(0, 2, 1) @ inc_v, axis=0)
    sigma_w = norm * np.sum(inc_w.transpose(0, 2, 1) @ inc_w, axis=0)
    r_vw = norm * np.sum(inc_v.transpose(0, 2, 1) @ inc_w, axis=0)
    return NoiseSecondMoments(
        sigma_v=0.5 * (sigma_v + sigma_v.T),
        sigma_w=0.5 * (sigma_w + sigma_w.T),
        r_vw=r_vw,
        dt=dt,
        n_samples=count,
        truncation=clip_level,
    )


def observer_gain(s: np.ndarray, c: np.ndarray, moments: NoiseSecondMoments) -> np.ndarray:
    """Gain ``L = (S C' + R_vw) inv(Sigma_w)``."""
    s = np.atleast_2d(np.asarray(s, dtype=float))
    c = np.atleast_2d(np.asarray(c, dtype=float))
    numer = s @ c.T + moments.r_vw
    try:
        return np.linalg.solve(moments.sigma_w, numer.T).T
    except np.linalg.LinAlgError as exc:
        raise ObserverError("Sigma_w is singular; the gain needs its inverse") from exc


def modified_are_residual(s, a, c, moments: NoiseSecondMoments) -> float:
    """Frobenius norm of the correlated-noise filter Riccati equation at S."""
    s = np.atleast_2d(np.asarray(s, dtype=float))
    a = np.atleast_2d(np.asarray(a, dtype=float))
    c = np.atleast_2d(np.asarray(c, dtype=float))
    cross = s @ c.T + moments.r_vw
    expr = a @ s + s @ a.T + moments.sigma_v - cross @ np.linalg.solve(moments.sigma_w, cross.T)
    return float(np.linalg.norm(expr))


def solve_observer_steady_state(a, c, moments: NoiseSecondMoments) -> ObserverDesign:
    """Stabilising S of the filter Riccati equation, and its gain.

    One Schur-method solve of the dual control equation, with the cross
    moment as its cross-weight; a solver failure (no stabilising
    solution, singular Sigma_w) raises :class:`ObserverError`.  The
    symmetrised S must be positive semidefinite, give Hurwitz error
    dynamics and leave a residual below ``1e-8 (1 + ||S||^2)``.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    c = np.atleast_2d(np.asarray(c, dtype=float))
    try:
        s = solve_continuous_are(a.T, c.T, moments.sigma_v, moments.sigma_w, s=moments.r_vw)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise ObserverError(f"filter Riccati solve failed: {exc}") from exc
    s = 0.5 * (s + s.T)

    l_gain = observer_gain(s, c, moments)
    a_err = a - l_gain @ c
    residual = modified_are_residual(s, a, c, moments)
    eig = np.linalg.eigvalsh(s)
    if eig.min() < -1e-10 * max(1.0, eig.max()):
        raise ObserverError("steady-state moment is not positive semidefinite")
    if spectral_abscissa(a_err) >= 0.0:
        raise ObserverError("error dynamics not Hurwitz at the computed gain")
    if residual >= 1e-8 * (1.0 + float(np.linalg.norm(s)) ** 2):
        raise ObserverError(f"modified steady-state residual too large: {residual:.3e}")
    return ObserverDesign(S=s, L=l_gain, A_err=a_err, residual=residual)


def gain_stationarity_check(s, l_gain, c, moments: NoiseSecondMoments) -> float:
    """First-order condition ``||-2SC' + 2 L Sigma_w - 2 R_vw||``."""
    s = np.atleast_2d(np.asarray(s, dtype=float))
    c = np.atleast_2d(np.asarray(c, dtype=float))
    l_gain = np.atleast_2d(np.asarray(l_gain, dtype=float))
    expr = -2.0 * s @ c.T + 2.0 * l_gain @ moments.sigma_w - 2.0 * moments.r_vw
    return float(np.linalg.norm(expr))


def simulate_error_process(a, l_gain, c, v_incs, w_incs, dt: float, e0=None) -> np.ndarray:
    """Error trajectories for stacked increment batches.

    ``v_incs``/``w_incs`` have shape ``(reps, N, d)``; returns the error
    history ``(reps, N + 1, n)`` under the error recursion
    ``e[k+1] = (I + (A - LC) dt) e[k] + dv[k] - L dw[k]`` from ``e0``, of
    shape ``(n,)`` or ``(reps, n)`` (zero by default), on a step ``dt``
    that is finite and positive.  The recursion has no saturation, so the
    whole history is one banded solve (``riccati._solve_steps``) with the
    replications as right-hand sides.
    """
    l_gain = np.atleast_2d(l_gain)
    a_err = np.atleast_2d(a) - l_gain @ np.atleast_2d(c)
    v_incs, w_incs = np.asarray(v_incs, dtype=float), np.asarray(w_incs, dtype=float)
    if v_incs.ndim != 3 or w_incs.ndim != 3:
        raise ObserverError(
            "v and w increments must be (replications, steps, dimension) arrays, "
            f"got {v_incs.ndim}-d and {w_incs.ndim}-d"
        )
    if not 0.0 < dt < np.inf:
        raise ObserverError(f"dt must be finite and positive, got {dt}")
    reps, n_steps, _ = v_incs.shape
    n = a_err.shape[0]
    if w_incs.shape[:2] != (reps, n_steps):
        raise ObserverError(f"v and w replication shapes disagree: {v_incs.shape[:2]} and {w_incs.shape[:2]}")
    if v_incs.shape[2] != n or w_incs.shape[2] != l_gain.shape[1]:
        raise ObserverError(f"v and w dimensions {v_incs.shape[2]} and {w_incs.shape[2]} do not fit L {l_gain.shape}")
    e0 = np.zeros(n) if e0 is None else np.asarray(e0, dtype=float)
    if e0.shape not in ((n,), (reps, n)):
        raise ObserverError(f"e0 must have shape ({n},) or ({reps}, {n}), got {e0.shape}")
    e = np.empty((reps, n_steps + 1, n))
    e[:, 0] = e0
    e[:, 1:] = v_incs - w_incs @ l_gain.T
    # one column per replication, the rows along the steps
    return _solve_steps(np.eye(n) + a_err * dt, e.transpose(1, 2, 0)).transpose(2, 0, 1)
