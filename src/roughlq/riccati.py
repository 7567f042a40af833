"""Continuous algebraic Riccati equation for the feedback design.

The stabilising solution P comes from one Schur-method solve
(``scipy.linalg.solve_continuous_are``, Arnold & Laub 1984), refined by
one Newton (Kleinman) step: with ``K0 = R^{-1} B^T P0``, P solves the
Lyapunov equation of ``A - B K0`` with weight ``Q + K0^T R K0``.  The
step moves P only at rounding level; on the pendulum with unit weights
it halves the CARE residual.

The module also holds the banded solve behind the package's linear
recursions ``z[k] = step z[k-1] + r[k]``: :func:`_step_band` lays one out
for LAPACK ``dtbtrs``, and :func:`_solve_steps` solves it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_continuous_are, solve_continuous_lyapunov
from scipy.linalg.lapack import dtbtrs

__all__ = [
    "RiccatiError",
    "ControlDesign",
    "spectral_abscissa",
    "solve_lyapunov",
    "solve_care",
    "care_residual",
]


class RiccatiError(ValueError):
    """Raised when a Riccati problem is ill-posed or has no stabilising solution."""


def spectral_abscissa(m: np.ndarray) -> float:
    """Largest real part of the eigenvalues of ``m``."""
    return float(np.max(np.real(np.linalg.eigvals(m))))


def _step_band(step: np.ndarray, blocks: int) -> np.ndarray:
    """LAPACK lower band storage of the recursion ``z[k+1] = step z[k] + r[k+1]``.

    The matrix is ``blocks`` x ``blocks`` d x d blocks: identity on the
    diagonal, ``-step`` below it.  Stacking the rows z[0], z[1], ... into
    one vector, the recursion from ``z[0] = r[0]`` is this unit
    lower-triangular system with ``2 d - 1`` subdiagonals, which ``dtbtrs``
    (lower, unit diagonal) solves by forward substitution.  Column ``b`` of
    a block holds ``-step[:, b]`` in band rows ``d - b`` to ``2 d - 1 - b``;
    the band is returned in Fortran order.
    """
    d = step.shape[0]
    column = np.zeros((d, 2 * d))  # the transpose of one block's band columns
    row, col = np.indices((d, d))
    column[col, d + row - col] = -step
    band = np.empty((blocks, d, 2 * d))
    band[:] = column
    return band.reshape(-1, 2 * d).T  # Fortran order: one band column per row of ``band``


def _solve_steps(step: np.ndarray, rows: np.ndarray, backward: bool = False) -> np.ndarray:
    """``z[k] = step z[k-1] + r[k]`` from ``z[0] = r[0]``, for ``r = rows``.

    ``rows`` has shape (K, d), or (K, d, c) for c right-hand sides, and
    the result has its shape, in C order.  ``backward`` runs from the last
    row, ``z[k] = step z[k+1] + r[k]`` from ``z[K-1] = r[K-1]``.  Either
    way it is one LAPACK ``dtbtrs`` call on a :func:`_step_band`: the band
    of ``step`` forward, or the transposed band of ``step^T``, whose blocks
    above the diagonal are ``-step``, backward.  O(K d^2 c) flops.
    """
    blocks, d = rows.shape[:2]
    band = _step_band(step.T if backward else step, blocks)
    # a unit diagonal cannot be singular, so info is 0
    z, _ = dtbtrs(band, rows.reshape(blocks * d, -1), uplo="L", trans="T" if backward else "N", diag="U")
    # LAPACK leaves the c columns apart; C order keeps a row's block together
    return np.ascontiguousarray(z.reshape(rows.shape))


def solve_lyapunov(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve ``a^T X + X a + q = 0`` (Bartels-Stewart, via scipy)."""
    return solve_continuous_lyapunov(a.T, -q)


@dataclass(frozen=True)
class ControlDesign:
    """Stabilising CARE solution and derived closed-loop data."""

    P: np.ndarray
    K: np.ndarray
    A_cl: np.ndarray
    care_residual: float

    @property
    def n(self) -> int:
        return self.P.shape[0]


def care_residual(p: np.ndarray, a: np.ndarray, b: np.ndarray, q: np.ndarray, r: np.ndarray) -> float:
    """Frobenius norm of ``A^T P + P A - P B R^{-1} B^T P + Q``."""
    rinv_btp = np.linalg.solve(r, b.T @ p)
    res = a.T @ p + p @ a - p @ b @ rinv_btp + q
    return float(np.linalg.norm(res))


def solve_care(a, b, q, r) -> ControlDesign:
    """Stabilising solution of ``A^T P + P A - P B R^{-1} B^T P + Q = 0``.

    One Schur-method solve gives P0; one Newton step from
    ``K0 = R^{-1} B^T P0`` solves the Lyapunov equation of ``A - B K0``
    with weight ``Q + K0^T R K0``, is symmetrised and sets
    ``K = R^{-1} B^T P``.  A solver failure (an unstabilisable pair, an
    asymmetric Q or R) raises :class:`RiccatiError`, as do an indefinite R,
    a P that is not positive definite, a non-Hurwitz closed loop and a
    residual at or above ``1e-9 (1 + ||P||^2)``.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float)
    if b.ndim == 1:
        b = b[:, None]
    q = np.atleast_2d(np.asarray(q, dtype=float))
    r = np.atleast_2d(np.asarray(r, dtype=float))
    if np.min(np.linalg.eigvalsh(r)) <= 0.0:
        raise RiccatiError("R must be positive definite")

    try:
        p0 = solve_continuous_are(a, b, q, r)
        gain = np.linalg.solve(r, b.T @ p0)
        p = solve_lyapunov(a - b @ gain, q + gain.T @ r @ gain)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise RiccatiError(f"CARE solve failed: {exc}") from exc
    p = 0.5 * (p + p.T)
    gain = np.linalg.solve(r, b.T @ p)

    residual = care_residual(p, a, b, q, r)
    a_cl = a - b @ gain
    if np.min(np.linalg.eigvalsh(p)) <= 0.0:
        raise RiccatiError("CARE solution is not positive definite")
    if spectral_abscissa(a_cl) >= 0.0:
        raise RiccatiError("closed-loop matrix is not Hurwitz")
    if residual >= 1e-9 * (1.0 + np.linalg.norm(p) ** 2):
        raise RiccatiError(f"CARE residual too large: {residual:.3e}")
    return ControlDesign(P=p, K=gain, A_cl=a_cl, care_residual=residual)
