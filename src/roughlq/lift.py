"""Level-2 rough-path lifts of sampled paths.

A lifted path stores per-step increments and derives its per-step
second-order tensors from them; values over any grid interval follow
from Chen's relation

    XX[s, t] = XX[s, u] + XX[u, t] + X[s, u] (x) X[u, t],

applied once to prefix sums from the start of the grid, so each
interval costs O(d^2) whatever its length.

Lifts built here interpolate the samples piecewise-linearly, so the
per-step tensor is the iterated integral of the interpolant,
``0.5 * dX (x) dX``, and the lift is geometric: the symmetric part of
``XX[s, t]`` equals ``0.5 * X[s, t] (x) X[s, t]`` on every interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .noise import SamplePath, _write_table

__all__ = [
    "LiftError",
    "OffGridError",
    "DegeneratePathError",
    "RoughPath",
    "lift_piecewise_linear",
    "reconstruct",
    "chen_gap",
    "chen_defect",
    "holder_estimate",
    "rough_integral_admissible",
    "lift_to_csv",
]


class LiftError(ValueError):
    """Raised for structurally invalid lift operations."""


class OffGridError(LiftError):
    """Raised when a query time does not sit on the lift's grid."""


class DegeneratePathError(LiftError):
    """Raised when an estimate is undefined, e.g. on a constant path."""


@dataclass(frozen=True)
class RoughPath:
    """Grid and per-step increments ``dx`` (N, d) of a piecewise-linear
    path, whose per-step tensors ``area`` (N, d, d) follow from ``dx``.

    Immutable after construction.  Wider intervals are reconstructed from
    the prefix sums ``x_k = X[t_0, t_k]`` and ``S_k = XX[t_0, t_k]``, built
    once on the first query (O(N d^2)); each query then costs O(d^2).
    """

    t: np.ndarray
    dx: np.ndarray
    holder: float | None = None

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        dx = np.asarray(self.dx, dtype=float)
        n = t.shape[0] - 1
        if n < 1:
            raise LiftError("a rough path needs at least one step")
        if dx.ndim != 2 or dx.shape[0] != n:
            raise LiftError("increments do not match the grid")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "dx", dx)

    @property
    def d(self) -> int:
        return self.dx.shape[1]

    @property
    def n_steps(self) -> int:
        return self.dx.shape[0]

    def index_of(self, time: float) -> int:
        """Grid index of ``time``; rejects off-grid queries."""
        dt = self.t[1] - self.t[0]
        k = int(round((time - self.t[0]) / dt))
        if k < 0 or k > self.n_steps or abs(self.t[0] + k * dt - time) > 1e-9 * max(dt, 1.0):
            raise OffGridError(f"time {time} is not on the lift grid")
        return k

    @cached_property
    def area(self) -> np.ndarray:
        """``0.5 * dx_k (x) dx_k`` per step, the iterated integral of the
        linear interpolant; built on first use."""
        return 0.5 * np.einsum("ki,kj->kij", self.dx, self.dx)

    @cached_property
    def _prefix_sums(self):
        """``(x, S)`` of shapes (N + 1, d) and (N + 1, d, d), from Chen:
        ``x_{k+1} = x_k + dx_k`` and ``S_{k+1} = S_k + area_k + x_k (x) dx_k``."""
        n, d = self.dx.shape
        x = np.zeros((n + 1, d))
        np.cumsum(self.dx, axis=0, out=x[1:])
        s = np.zeros((n + 1, d, d))
        np.cumsum(self.area + x[:-1, :, None] * self.dx[:, None, :], axis=0, out=s[1:])
        return x, s


def lift_piecewise_linear(path: SamplePath) -> RoughPath:
    """Lift a sampled path through its piecewise-linear interpolant.

    Level 1 keeps the raw increments; the per-step level-2 tensor is the
    iterated integral of the linear interpolant, ``0.5 * dX (x) dX``
    (:attr:`RoughPath.area`).
    """
    return RoughPath(t=path.t, dx=path.increments, holder=path.holder)


def reconstruct(rp: RoughPath, s: float, t: float):
    """``(X[s,t], XX[s,t])`` from the path's prefix sums, in O(d^2).

    Chen's relation over ``[t_0, s, t]`` gives ``X[s,t] = x_j - x_i`` and
    ``XX[s,t] = S_j - S_i - x_i (x) X[s,t]``.  ``s`` and ``t`` must be grid
    times with ``s <= t``.
    """
    i = rp.index_of(s)
    j = rp.index_of(t)
    if i > j:
        raise LiftError("need s <= t")
    x, xx = rp._prefix_sums
    x_st = x[j] - x[i]
    return x_st, xx[j] - xx[i] - np.outer(x[i], x_st)


def chen_gap(xx_st, xx_su, xx_ut, x_su, x_ut) -> float:
    """Raw Chen identity residual for explicitly supplied blocks.

    Lets callers check a *claimed* second-level value against the
    composition of its pieces, e.g. to exhibit a constructed violation.
    """
    defect = np.asarray(xx_st) - np.asarray(xx_su) - np.asarray(xx_ut) - np.outer(x_su, x_ut)
    return float(np.linalg.norm(defect))


def chen_defect(rp: RoughPath, s: float, u: float, t: float) -> float:
    """Frobenius norm of XX[s,t] - XX[s,u] - XX[u,t] - X[s,u] (x) X[u,t]."""
    x_su, xx_su = reconstruct(rp, s, u)
    x_ut, xx_ut = reconstruct(rp, u, t)
    _, xx_st = reconstruct(rp, s, t)
    return chen_gap(xx_st, xx_su, xx_ut, x_su, x_ut)


def holder_estimate(path: SamplePath) -> float:
    """Regularity exponent from max-increment scaling over dyadic lags.

    Fits ``log max_k |x(t_{k+l}) - x(t_k)|`` against ``log(l * dt)`` by
    least squares over lags l = 1, 2, 4, ... up to min(32, N / 8); the
    slope estimates the Holder exponent.  Raises
    :class:`DegeneratePathError` on constant paths, where the statistic is
    undefined.
    """
    n = path.n_steps
    if n < 64:
        raise LiftError("need at least 64 steps for a regularity estimate")
    max_lag = min(32, n // 8)
    values = path.values
    lags, peaks = [], []
    lag = 1
    while lag <= max_lag:
        inc = values[lag:] - values[:-lag]
        peak = float(np.max(np.abs(inc)))
        if peak == 0.0:
            raise DegeneratePathError("constant path: regularity undefined")
        lags.append(lag * path.dt)
        peaks.append(peak)
        lag *= 2
    slope = np.polyfit(np.log(lags), np.log(peaks), 1)[0]
    return float(slope)


def rough_integral_admissible(integrand_holder: float, driver_holder: float) -> bool:
    """Uniqueness predicate for controlled rough integrals.

    An alpha-Holder integrand against a beta-Holder driver is admissible
    when (2 + alpha) * beta > 1.
    """
    return (2.0 + integrand_holder) * driver_holder > 1.0


def lift_to_csv(rp: RoughPath, file) -> None:
    """Per-step triples ``k, dX..., XX...`` at full precision."""
    d = rp.d
    cols = ["k"]
    cols += [f"dx{i + 1}" for i in range(d)]
    cols += [f"xx{i + 1}{j + 1}" for i in range(d) for j in range(d)]
    table = np.column_stack([np.arange(rp.n_steps), rp.dx, rp.area.reshape(rp.n_steps, d * d)])
    _write_table(file, ",".join(cols), table)
