"""Noise process samplers on uniform time grids.

Two process families are supported:

* fractional Brownian motion (fBm) with Hurst index ``hurst`` and scale
  ``sigma``, Brownian motion being fBm at ``hurst = 0.5``; exact sampling
  as cumulative sums of fractional Gaussian noise (fGn).  Grids of at most
  ``CHOLESKY_MAX_N`` steps use the Cholesky factor of the fGn Toeplitz
  covariance, built by the Schur algorithm in O(n^2); longer grids use
  circulant embedding (Davies & Harte 1987),
* symmetric/skewed alpha-stable Levy walks sampled step-by-step with the
  Chambers-Mallows-Stuck transform.

:func:`sample_paths` is the one sampler, a pure function of
``(model, grid, d, seeds)``; seeding is explicit everywhere and no global
RNG state is touched.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "NoiseError",
    "NoiseModel",
    "SamplePath",
    "make_grid",
    "fbm_covariance",
    "fgn_autocovariance",
    "sample_path",
    "sample_paths",
    "empirical_char_fn",
    "stable_char_fn",
    "path_to_csv",
    "path_from_csv",
]

#: fBm below this Hurst index needs more than two rough-path levels, which
#: the downstream lift does not provide.
MIN_HURST = 1.0 / 3.0

#: Grids at most this long take the Cholesky route, longer ones the circulant.
CHOLESKY_MAX_N = 2048


class NoiseError(ValueError):
    """Raised for invalid noise parameters or failed generation."""


@dataclass(frozen=True)
class NoiseModel:
    """Tagged union over the supported noise families.

    ``kind`` is ``"fbm"`` or ``"stable"``.  Only the fields relevant to the
    kind are meaningful; the constructors :meth:`fbm`, :meth:`stable` and
    :meth:`brownian` (fBm at ``hurst = 0.5``) are the intended way to build
    instances.
    """

    kind: str
    hurst: float | None = None
    sigma: float = 1.0
    alpha: float | None = None
    beta: float = 0.0
    gamma: float = 1.0
    delta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("fbm", "stable"):
            raise NoiseError(f"unknown noise kind {self.kind!r}")
        if self.kind == "fbm":
            if self.hurst is None or not (0.0 < self.hurst < 1.0):
                raise NoiseError("fbm requires hurst in (0, 1)")
            if self.hurst <= MIN_HURST:
                raise NoiseError(
                    f"fbm hurst must exceed {MIN_HURST:.4f} for a level-2 "
                    f"lift to suffice, got {self.hurst}"
                )
            if not self.sigma > 0.0:
                raise NoiseError("fbm sigma must be positive")
        else:
            if self.alpha is None or not (0.0 < self.alpha <= 2.0):
                raise NoiseError("stable requires alpha in (0, 2]")
            if not (-1.0 <= self.beta <= 1.0):
                raise NoiseError("stable beta must lie in [-1, 1]")
            if not self.gamma > 0.0:
                raise NoiseError("stable gamma must be positive")
            if not math.isfinite(self.delta):
                raise NoiseError("stable delta must be finite")

    @classmethod
    def fbm(cls, hurst: float, sigma: float = 1.0) -> "NoiseModel":
        return cls(kind="fbm", hurst=hurst, sigma=sigma)

    @classmethod
    def brownian(cls, sigma: float = 1.0) -> "NoiseModel":
        return cls.fbm(0.5, sigma)

    @classmethod
    def stable(
        cls,
        alpha: float,
        beta: float = 0.0,
        gamma: float = 1.0,
        delta: float = 0.0,
    ) -> "NoiseModel":
        return cls(kind="stable", alpha=alpha, beta=beta, gamma=gamma, delta=delta)

    @property
    def holder(self) -> float:
        """Nominal Holder regularity of sample paths.

        fBm paths are H-Holder (minus epsilon); an alpha-stable walk has
        finite p-variation for p > alpha, which plays the role of a
        1/alpha regularity index in the admissibility predicate.
        """
        if self.kind == "fbm":
            return float(self.hurst)
        return 1.0 / float(self.alpha)


@dataclass(frozen=True)
class SamplePath:
    """A d-dimensional sample path on a uniform grid, started at zero.

    ``values`` has shape ``(N + 1, d)`` with ``values[0] == 0``.
    """

    t: np.ndarray
    values: np.ndarray
    seed: int | None = None
    holder: float | None = None

    def __post_init__(self):
        t = np.ascontiguousarray(np.asarray(self.t, dtype=float))
        v = np.ascontiguousarray(np.atleast_2d(np.asarray(self.values, dtype=float)))
        if v.shape[0] != t.shape[0]:
            v = v.T
        if v.shape[0] != t.shape[0]:
            raise NoiseError("grid and values lengths disagree")
        if t.shape[0] < 2:
            raise NoiseError("a path needs at least two grid points")
        if not np.all(np.isfinite(t)):
            raise NoiseError("grid must be finite")
        if abs(t[0]) > 1e-12:
            raise NoiseError("grid must start at t = 0")
        steps = np.diff(t)
        if np.any(steps <= 0.0):
            raise NoiseError("grid must be strictly increasing")
        h = steps[0]
        if np.max(np.abs(steps - h)) > 1e-12 * max(h, 1.0):
            raise NoiseError("grid must be uniform to 1e-12 relative")
        if np.max(np.abs(v[0])) != 0.0:
            raise NoiseError("paths must start at the origin")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "values", v)

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @property
    def n_steps(self) -> int:
        return self.t.shape[0] - 1

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    @property
    def increments(self) -> np.ndarray:
        """Per-step increments, shape ``(N, d)``."""
        return np.diff(self.values, axis=0)


def make_grid(dt: float, horizon: float) -> np.ndarray:
    """Uniform grid 0, dt, 2*dt, ... covering [0, horizon]."""
    if not (0.0 < dt < np.inf and 0.0 < horizon < np.inf):
        raise NoiseError(f"dt and horizon must be finite and positive, got {dt} and {horizon}")
    n = int(round(horizon / dt))
    if n < 1:
        raise NoiseError("horizon shorter than one step")
    return dt * np.arange(n + 1)


# ---------------------------------------------------------------------------
# fractional Brownian motion
# ---------------------------------------------------------------------------

def fbm_covariance(s: float, t: float, hurst: float) -> float:
    """Covariance of standard fBm, (t^2H + s^2H - |t-s|^2H) / 2.

    Symmetric in (s, t).  Raises for H outside (0, 1) or negative times.
    """
    if not (0.0 < hurst < 1.0):
        raise NoiseError(f"hurst must lie in (0, 1), got {hurst}")
    if s < 0.0 or t < 0.0:
        raise NoiseError("times must be nonnegative")
    h2 = 2.0 * hurst
    return 0.5 * (t**h2 + s**h2 - abs(t - s) ** h2)


def fgn_autocovariance(lags, dt: float, hurst: float) -> np.ndarray:
    """Autocovariance of unit-scale fBm increments at integer lags.

    ``cov(B(t+dt) - B(t), B(t+(k+1)dt) - B(t+k dt))`` for each lag k.

    The second difference ``(k+1)^2H - 2 k^2H + (k-1)^2H`` keeps only a
    k^-2 share of its terms, so formed directly it loses about k^2 units
    of rounding (8e-8 relative at lag 10^4).  From lag 8 on it is summed as
    its binomial series ``2 k^2H sum_m C(2H, 2m) k^-2m`` instead, which is
    accurate to rounding and exactly zero at H = 1/2.
    """
    k = np.abs(np.asarray(lags, dtype=float))
    h2 = 2.0 * hurst
    # C(2H, 2m) for m = 1 .. 11: from lag 8 on the terms shrink by at least
    # 1/64 each, so 11 reach rounding; the series runs at every lag (lags
    # below 8 clamped to 8) and the direct form overwrites those lags
    coef = [0.5 * h2 * (h2 - 1.0)]
    for m in range(2, 12):
        coef.append(coef[-1] * (h2 - 2 * m + 2) * (h2 - 2 * m + 1) / ((2 * m - 1) * (2 * m)))
    inv2 = np.maximum(k, 8.0, out=np.empty_like(k))
    inv2 **= -2.0
    out = np.full_like(k, coef[-1])
    for c in reversed(coef[:-1]):
        out *= inv2
        out += c
    out *= inv2
    out *= np.power(k, h2, out=inv2)
    near = k < 8.0
    kn = k[near]
    out[near] = 0.5 * ((kn + 1.0) ** h2 + np.abs(kn - 1.0) ** h2 - 2.0 * kn**h2)
    return dt**h2 * out


@lru_cache(maxsize=4)
def _fgn_cholesky(n: int, dt: float, hurst: float) -> np.ndarray:
    """Lower Cholesky factor of the n x n Toeplitz covariance of unit-scale fGn.

    Schur algorithm, O(n^2), on the generators ``u = r / sqrt(r[0])`` and
    ``v = u`` with ``v[0] = 0`` of the autocovariance ``r``: each step takes
    ``u`` as the next row of the upper factor, shifts it one place against
    ``v`` and zeroes ``v[0]`` by one hyperbolic rotation in mixed form, as
    stable as Cholesky here (Bojanczyk, Brent, de Hoog & Sweet 1995).  A
    reflection coefficient of modulus >= 1 (not positive definite) raises
    :class:`NoiseError`.  ``cumsum(factor, axis=0)`` factors the covariance
    of the fBm values at dt, ..., n*dt.
    """
    r = fgn_autocovariance(np.arange(n), dt, hurst)
    upper = np.zeros((n, n))
    upper[0] = r / math.sqrt(r[0])
    v = upper[0].copy()
    v[0] = 0.0
    for k in range(1, n):
        # the shifted u is the previous row less its last entry; the
        # rotation writes the new u straight into row k
        u, v = upper[k - 1, k - 1 : -1], v[1:]
        rho = v[0] / u[0]
        if not abs(rho) < 1.0:
            raise NoiseError(f"fGn covariance not positive definite at step {k} (n={n}, hurst={hurst})")
        scale = math.sqrt((1.0 - rho) * (1.0 + rho))
        row = upper[k, k:]
        np.multiply(v, -rho, out=row)
        row += u
        row /= scale
        v *= scale
        v -= rho * row
    return upper.T


@lru_cache(maxsize=4)
def _fgn_circulant_sqrt(n: int, dt: float, hurst: float) -> np.ndarray:
    """Square roots of the circulant-embedding eigenvalues for fGn."""
    acf = fgn_autocovariance(np.arange(n), dt, hurst)
    ring = np.empty(2 * n)
    ring[:n] = acf
    ring[n] = fgn_autocovariance(np.array([n]), dt, hurst)[0]
    ring[n + 1 :] = acf[1:][::-1]
    lam = np.fft.fft(ring).real
    # tiny negative eigenvalues are roundoff; a genuinely indefinite
    # embedding would signal a bad kernel
    if lam.min() < -1e-8 * lam.max():
        raise NoiseError("circulant embedding not nonnegative definite")
    return np.sqrt(np.clip(lam, 0.0, None))


def _sample_fgn_circulant(n: int, dt: float, hurst: float, rng) -> np.ndarray:
    """One exact fGn vector of length n via Davies-Harte."""
    sq = _fgn_circulant_sqrt(n, dt, hurst)
    m = 2 * n
    z = np.zeros(m, dtype=complex)
    z[0] = rng.standard_normal()
    z[n] = rng.standard_normal()
    re = rng.standard_normal(n - 1)
    im = rng.standard_normal(n - 1)
    z[1:n] = (re + 1j * im) / math.sqrt(2.0)
    z[n + 1 :] = np.conj(z[1:n][::-1])
    return np.sqrt(m) * np.fft.ifft(sq * z).real[:n]


# ---------------------------------------------------------------------------
# alpha-stable Levy walks
# ---------------------------------------------------------------------------

def _cms_standard(alpha: float, beta: float, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Chambers-Mallows-Stuck samples of a standard stable variable.

    ``u`` uniform on (-pi/2, pi/2), ``w`` unit exponential.  Returns
    samples whose characteristic function is the continuous
    (location-0) parameterisation used throughout this package.
    """
    if alpha == 2.0:
        # tan(pi * alpha / 2) = 0: the transform collapses to 2 sin(U) sqrt(W)
        return 2.0 * np.sin(u) * np.sqrt(w)
    if alpha == 1.0:
        half_pi = 0.5 * math.pi
        a = half_pi + beta * u
        z = (a * np.tan(u) - beta * np.log((half_pi * w * np.cos(u)) / a)) / half_pi
        return z
    tb = beta * math.tan(0.5 * math.pi * alpha)
    b0 = math.atan(tb) / alpha
    s0 = (1.0 + tb * tb) ** (0.5 / alpha)
    z = (
        s0
        * np.sin(alpha * (u + b0))
        / np.cos(u) ** (1.0 / alpha)
        * (np.cos(u - alpha * (u + b0)) / w) ** ((1.0 - alpha) / alpha)
    )
    # shift into the continuous parameterisation so the characteristic
    # function formula holds verbatim for all (alpha, beta)
    return z - tb


# ---------------------------------------------------------------------------
# the sampler
# ---------------------------------------------------------------------------

def sample_path(model: NoiseModel, grid: np.ndarray, d: int = 1, seed: int = 0) -> SamplePath:
    """One path: ``sample_paths(model, grid, d, [seed])[0]``."""
    return sample_paths(model, grid, d, [seed])[0]


def sample_paths(model: NoiseModel, grid: np.ndarray, d: int, seeds) -> list:
    """One path of d independent coordinates per seed, each from its own
    ``PCG64(seed)`` stream; identical inputs give identical bytes.

    A stable walk sums i.i.d. increments of per-step scale
    ``gamma * dt^(1/alpha)`` and location ``delta * dt``, the self-similar
    scaling of a stable Levy walk.  fBm on N <= ``CHOLESKY_MAX_N`` steps is
    ``cumsum(chol @ Z)`` with one product for the normals of every seed;
    on longer grids each coordinate is one Davies-Harte draw.
    """
    if d < 1:
        raise NoiseError("dimension must be at least 1")
    if not seeds:
        return []
    grid = np.asarray(grid, dtype=float)
    n = grid.shape[0] - 1
    dt = float(grid[1] - grid[0])
    rngs = [np.random.Generator(np.random.PCG64(seed)) for seed in seeds]
    if model.kind == "stable":
        alpha = float(model.alpha)
        blocks = [np.zeros((n + 1, d)) for _ in seeds]
        for rng, block in zip(rngs, blocks):
            u = rng.uniform(-0.5 * math.pi, 0.5 * math.pi, size=(n, d))
            w = rng.exponential(1.0, size=(n, d))
            z = _cms_standard(alpha, float(model.beta), u, w)
            np.cumsum(model.gamma * dt ** (1.0 / alpha) * z + model.delta * dt, axis=0, out=block[1:])
    elif n <= CHOLESKY_MAX_N:
        chol = _fgn_cholesky(n, dt, float(model.hurst))
        values = np.zeros((n + 1, d * len(seeds)))
        np.cumsum(chol @ np.hstack([rng.standard_normal((n, d)) for rng in rngs]), axis=0, out=values[1:])
        values *= model.sigma
        blocks = np.hsplit(values, len(seeds))
    else:
        blocks = [np.zeros((n + 1, d)) for _ in seeds]
        for rng, block in zip(rngs, blocks):
            for j in range(d):
                np.cumsum(_sample_fgn_circulant(n, dt, float(model.hurst), rng), out=block[1:, j])
            block *= model.sigma
    return [
        SamplePath(t=grid, values=block, seed=seed, holder=model.holder) for seed, block in zip(seeds, blocks)
    ]


# ---------------------------------------------------------------------------
# characteristic functions
# ---------------------------------------------------------------------------

def empirical_char_fn(increments: np.ndarray, u: float) -> complex:
    """Empirical characteristic function (1/n) sum exp(i u x_k)."""
    x = np.asarray(increments, dtype=float).ravel()
    if x.size < 1:
        raise NoiseError("need at least one increment")
    return complex(np.mean(np.exp(1j * u * x)))


def stable_char_fn(u: float, alpha: float, beta: float, gamma: float, delta: float) -> complex:
    """Characteristic function of the stable law in the continuous form.

    For alpha != 1::

        exp(-gamma^a |u|^a [1 + i b sign(u) tan(pi a/2) ((gamma|u|)^(1-a) - 1)]
            + i delta u)

    and the log-corrected variant at alpha = 1.
    """
    if u == 0.0:
        return 1.0 + 0.0j
    au = abs(u)
    if alpha == 1.0:
        inner = 1.0 + 1j * beta * math.copysign(1.0, u) * (2.0 / math.pi) * math.log(gamma * au)
        expo = -gamma * au * inner + 1j * delta * u
    else:
        tb = math.tan(0.5 * math.pi * alpha)
        inner = 1.0 + 1j * beta * math.copysign(1.0, u) * tb * ((gamma * au) ** (1.0 - alpha) - 1.0)
        expo = -(gamma**alpha) * au**alpha * inner + 1j * delta * u
    return complex(np.exp(expo))


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def _write_table(file, header: str, table: np.ndarray) -> None:
    """Write a header line and ``%.17g`` comma-separated rows.

    ``file`` is a path or an open text file; a path is opened and closed
    here.  Every headed CSV the package exports goes through this writer;
    the CLI's matrix files (``P.csv``, ``S.csv`` and the like) are headerless
    and written by ``cli._write_matrix``.
    """
    if isinstance(file, (str, bytes, os.PathLike)):
        with open(file, "w") as fh:
            _write_table(fh, header, table)
        return
    file.write(header + "\n")
    np.savetxt(file, table, fmt="%.17g", delimiter=",")


def path_to_csv(path: SamplePath, file) -> None:
    """Write ``t,v1,...,vd`` rows at full double precision (17 digits)."""
    header = "t," + ",".join(f"v{j + 1}" for j in range(path.d))
    _write_table(file, header, np.column_stack([path.t, path.values]))


def path_from_csv(file) -> SamplePath:
    """Read a path written by :func:`path_to_csv`; every value must be a
    finite number (an unreadable cell reads as NaN)."""
    data = np.atleast_2d(np.genfromtxt(file, delimiter=",", skip_header=1))
    if not np.all(np.isfinite(data[:, 1:])):
        raise NoiseError("path values must be finite")
    return SamplePath(t=data[:, 0], values=data[:, 1:])
