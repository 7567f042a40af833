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

One private draw core, :func:`_sample_increments`, returns the increments
of every seed in one array; :func:`sample_paths` is its cumulative sum,
and the observer moments read the increments directly.  Both are pure
functions of ``(model, grid, d, seeds)``; seeding is explicit everywhere
and no global RNG state is touched.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg.blas import dtrmm

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

def _sample_increments(model: NoiseModel, grid: np.ndarray, d: int, seeds):
    """The draw core: the increments of one path per seed, in one array.

    Returns ``(increments, scale)``.  ``increments`` has shape
    ``(len(seeds), N, d)``, replication i drawn from its own
    ``PCG64(seeds[i])`` stream, and the model's increments are
    ``scale * increments`` (``scale`` is ``sigma`` for fBm and 1 for a
    stable walk; :func:`sample_paths` applies it after the cumulative sum).
    A stable walk's i.i.d. increments have per-step scale
    ``gamma * dt^(1/alpha)`` and location ``delta * dt``, the self-similar
    scaling of a stable Levy walk; each stream draws its uniforms, then
    its exponentials, for the Chambers-Mallows-Stuck transform.  fBm on N <= ``CHOLESKY_MAX_N`` steps is the
    fGn Cholesky factor times each stream's ``(N, d)`` normals, one
    triangular product (BLAS ``dtrmm``) for every seed on normals laid out
    so that it needs no copy; the result is a strided view.  On longer
    grids each coordinate is one Davies-Harte draw.
    """
    grid = np.asarray(grid, dtype=float)
    n = grid.shape[0] - 1
    dt = float(grid[1] - grid[0])
    rngs = [np.random.Generator(np.random.PCG64(seed)) for seed in seeds]
    if model.kind == "stable":
        alpha = float(model.alpha)
        increments = np.empty((len(seeds), n, d))
        # one replication at a time keeps the transform's temporaries in
        # cache: faster than one pass over all replications, same bits
        for rng, block in zip(rngs, increments):
            u = rng.uniform(-0.5 * math.pi, 0.5 * math.pi, size=(n, d))
            w = rng.exponential(1.0, size=(n, d))
            block[...] = model.gamma * dt ** (1.0 / alpha) * _cms_standard(alpha, float(model.beta), u, w)
            block += model.delta * dt
        return increments, 1.0
    if n <= CHOLESKY_MAX_N:
        chol = _fgn_cholesky(n, dt, float(model.hurst))
        # C-order (seed, coordinate, step) is the Fortran (step, column) matrix
        # dtrmm overwrites in place, column seed * d + coordinate
        normals = np.empty((len(seeds), d, n))
        for rng, block in zip(rngs, normals):
            block.T[...] = rng.standard_normal((n, d))
        product = dtrmm(1.0, chol, normals.reshape(-1, n).T, lower=1, overwrite_b=1)
        return product.T.reshape(len(seeds), d, n).transpose(0, 2, 1), model.sigma
    increments = np.empty((len(seeds), n, d))
    for rng, block in zip(rngs, increments):
        for j in range(d):
            block[:, j] = _sample_fgn_circulant(n, dt, float(model.hurst), rng)
    return increments, model.sigma


def sample_path(model: NoiseModel, grid: np.ndarray, d: int = 1, seed: int = 0) -> SamplePath:
    """One path: ``sample_paths(model, grid, d, [seed])[0]``."""
    return sample_paths(model, grid, d, [seed])[0]


def sample_paths(model: NoiseModel, grid: np.ndarray, d: int, seeds) -> list:
    """One path of d independent coordinates per seed, each from its own
    ``PCG64(seed)`` stream; identical inputs give identical bytes.

    Each path is the zero row and the cumulative sum of the draw core's
    increments, times the model's scale (see :func:`_sample_increments`).
    """
    if d < 1:
        raise NoiseError("dimension must be at least 1")
    if not seeds:
        return []
    grid = np.asarray(grid, dtype=float)
    increments, scale = _sample_increments(model, grid, d, seeds)
    paths = []
    for seed, inc in zip(seeds, increments):
        values = np.zeros((inc.shape[0] + 1, d))
        np.cumsum(inc, axis=0, out=values[1:])
        values *= scale
        paths.append(SamplePath(t=grid, values=values, seed=seed, holder=model.holder))
    return paths


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

#: magnitudes whose 17 digits the encoder decides itself
_EXACT_MIN, _EXACT_MAX = 1e-280, 1e280
#: exponents k of the tabulated 10^k, covering 10^(16 - E) for E in that range
_POW_MIN, _POW_MAX = -270, 300
#: a scaled value whose fraction is nearer 1/2 than this goes to ``%``
_TIE_MARGIN = 2.0**-24
#: Dekker's splitter 2^27 + 1 for doubles
_SPLIT = 134217729.0
#: values encoded per chunk, which bounds the encoder's working memory
_CHUNK_VALUES = 4096
#: every character any ``%.17g`` layout can hold, in output order: sign,
#: ``0.000`` for exponents -4 .. -1, the 17 digits with a point after each
#: of the first 16, then ``e``, the exponent's sign, its 3 digits and the
#: separator; a value's text keeps a subsequence of these columns
_SUPERSET = b"-0.000" + b"0." * 16 + b"0" + b"e+000,"
_WIDTH = len(_SUPERSET)
_FIRST_DIGIT, _EXP_SIGN, _SEPARATOR = 6, 40, 44


@lru_cache(maxsize=1)
def _pow10_table():
    """``hi + lo = 10^k`` to 2^-106 relative, and hi's Dekker halves.

    ``hi`` is 10^k rounded to double and ``lo`` the rounded remainder,
    both from exact integer arithmetic.
    """
    hi = np.empty(_POW_MAX - _POW_MIN + 1)
    lo = np.empty_like(hi)
    for i, k in enumerate(range(_POW_MIN, _POW_MAX + 1)):
        if k >= 0:
            hi[i] = float(10**k)
            lo[i] = float(10**k - int(hi[i]))
        else:
            n = 10**-k
            hi[i] = 1 / n
            num, den = hi[i].as_integer_ratio()
            lo[i] = (den - num * n) / (n * den)
    c = _SPLIT * hi
    head = c - (c - hi)
    return hi, head, hi - head, lo


@lru_cache(maxsize=1)
def _layout_tables():
    """Lookup tables of the encoder.

    * ``keep``: per class ``(sign * 23 + layout) * 17 + nz - 1`` the 0/0xFF
      mask of the ``_SUPERSET`` columns its text keeps.  ``layout`` is
      ``X + 4`` for the fixed form (exponent X in -4 .. 16), 21 for the
      exponent form with two exponent digits and 22 with three; ``nz`` is
      the number of digits left when trailing zeros are stripped.
    * ``quad``: the four ASCII digits of 0 .. 9999 as one uint32.
    * ``last``: ``last[k, g]`` is the 1-based index among the 17 digits of
      the last nonzero digit of 4-digit group k holding g (0 if g = 0).
    * ``exponent``: row X + 400 holds the sign and three digits of X.
    """
    keep = np.zeros((2, 23 * 17, _WIDTH), dtype=np.uint8)
    for layout in range(23):
        for nz in range(1, 18):
            digits = [_FIRST_DIGIT + 2 * i for i in range(nz)]
            x = layout - 4
            if layout < 4:
                cols = [1, 2] + list(range(3, 2 - x)) + digits
            elif layout < 21:
                cols = [_FIRST_DIGIT + 2 * i for i in range(max(x + 1, nz))]
                if nz > x + 1:
                    cols.append(_FIRST_DIGIT + 1 + 2 * x)
            else:
                cols = digits + ([_FIRST_DIGIT + 1] if nz > 1 else [])
                cols += [_EXP_SIGN - 1, _EXP_SIGN] + ([_EXP_SIGN + 1] if layout == 22 else [])
                cols += [_EXP_SIGN + 2, _EXP_SIGN + 3]
            keep[0, layout * 17 + nz - 1, cols + [_SEPARATOR]] = 0xFF
    keep[1] = keep[0]
    keep[1, :, 0] = 0xFF  # the minus sign
    g = np.arange(10000)
    quad = (np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1) + ord("0")).astype(np.uint8)
    length = 4 - (g % 10 == 0) - (g % 100 == 0) - (g % 1000 == 0)
    last = np.where(g > 0, 1 + 4 * np.arange(4)[:, None] + length, 0).astype(np.int8)
    exponent = np.frombuffer("".join(f"{x:+04d}" for x in range(-400, 401)).encode("ascii"), dtype=np.uint8)
    return keep.reshape(-1, _WIDTH), quad.view(np.uint32)[:, 0], last, exponent.reshape(-1, 4)


def _format_block(block: np.ndarray) -> str:
    """The ``%.17g`` CSV text of the rows of a 2-D float array."""
    nrow, ncol = block.shape
    values = block.ravel()
    mag = np.abs(values)
    fast = (mag >= _EXACT_MIN) & (mag <= _EXACT_MAX)
    mag[~fast] = 1.0
    hi, hi_head, hi_tail, lo = _pow10_table()
    exp10 = np.floor(np.log10(mag)).astype(np.int64)
    c = _SPLIT * mag
    head = c - (c - mag)
    tail = mag - head
    digits = np.empty(values.size, dtype=np.int64)
    tie = np.empty(values.size, dtype=bool)
    todo = np.arange(values.size)
    # log10 can misjudge E by one next to a power of ten: redo those values
    for _ in range(3):
        k = 16 - _POW_MIN - exp10[todo]
        x, xh, xt = mag[todo], head[todo], tail[todo]
        # x * 10^(16 - E) = p + err exactly (Dekker), plus x * lo
        p = x * hi[k]
        err = xh * hi_head[k] - p
        err += xh * hi_tail[k]
        err += xt * hi_head[k]
        err += xt * hi_tail[k]
        err += x * lo[k]
        whole = np.floor(p)
        frac = p - whole
        frac += err
        carry = np.floor(frac)
        frac -= carry
        integer = whole.astype(np.int64) + carry.astype(np.int64)
        rounded = integer + (frac > 0.5)
        digits[todo] = rounded
        tie[todo] = np.abs(frac - 0.5) < _TIE_MARGIN
        low, high = integer < 10**16, rounded > 10**17
        exp10[todo[low]] -= 1
        exp10[todo[high]] += 1
        todo = todo[low | high]
        if not todo.size:
            break
    fast[todo] = False
    fast &= ~tie
    digits[~fast] = 10**16
    exp10[~fast] = 0
    # 17 digits that round up to 10^17 carry into the exponent
    carry = digits == 10**17
    digits[carry] = 10**16
    exp10 += carry

    keep, quad, last, exponent = _layout_tables()
    lead, rest = np.divmod(digits, 10**16)
    groups = np.empty((values.size, 4), dtype=np.int64)
    groups[:, 0], groups[:, 1] = np.divmod(rest // 10**8, 10**4)
    groups[:, 2], groups[:, 3] = np.divmod(rest % 10**8, 10**4)
    nz = np.maximum(np.maximum(last[0, groups[:, 0]], last[1, groups[:, 1]]), last[2, groups[:, 2]])
    np.maximum(nz, last[3, groups[:, 3]], out=nz)
    np.maximum(nz, 1, out=nz)
    layout = np.where(np.abs(exp10) < 100, 21, 22)
    fixed = (exp10 >= -4) & (exp10 < 17)
    layout[fixed] = exp10[fixed] + 4

    chars = np.empty((values.size, _WIDTH), dtype=np.uint8)
    chars[:] = np.frombuffer(_SUPERSET, dtype=np.uint8)
    chars[:, _FIRST_DIGIT] = lead + ord("0")
    chars[:, _FIRST_DIGIT + 2 : _EXP_SIGN - 1 : 2] = quad[groups].view(np.uint8)
    chars[:, _EXP_SIGN : _EXP_SIGN + 4] = exponent[exp10 + 400]
    chars.reshape(nrow, ncol, _WIDTH)[:, -1, _SEPARATOR] = ord("\n")
    chars &= keep[(np.signbit(values) * 23 + layout) * 17 + nz - 1]
    for j in np.flatnonzero(~fast):
        text = ("%.17g" % values[j]).encode("ascii")
        chars[j, :_SEPARATOR] = 0
        chars[j, : len(text)] = np.frombuffer(text, dtype=np.uint8)
    return chars.tobytes().translate(None, b"\0").decode("ascii")


def _format_rows(table: np.ndarray):
    """Yield the ``%.17g`` CSV text of a 2-D table, a chunk of rows at a time."""
    table = np.asarray(table, dtype=float)
    step = max(1, _CHUNK_VALUES // table.shape[1])
    for start in range(0, table.shape[0], step):
        yield _format_block(table[start : start + step])


def _write_table(file, header: str, table: np.ndarray) -> None:
    """Write a header line and ``%.17g`` comma-separated rows.

    ``file`` is a path or an open text file; a path is opened and closed
    here.  Every headed CSV the package exports goes through this writer;
    the CLI's matrix files (``P.csv``, ``S.csv`` and the like) are headerless
    and call the encoder, :func:`_format_rows`, themselves.

    The text is exactly ``'%.17g' % v`` per value, ``,`` between values
    and ``\\n`` after each row, encoded in bulk.  For a finite v with
    1e-280 <= |v| <= 1e280 and E = floor(log10 |v|), the encoder forms
    |v| * 10^(16 - E) as a double-double: 10^k = hi + lo to 2^-106 relative
    from exact integers, and a Dekker two-product ``|v| * hi = p + err``
    exactly.  The scaled value is then known to within 1e-12 of a unit,
    far inside ``_TIE_MARGIN``, so rounding it to the nearest integer gives
    Python's correctly rounded 17 digits unless its fraction lies within
    the margin of 1/2.  Those near-ties, zeros, non-finite values and
    values outside the range go through ``'%.17g' %`` itself, so every
    value's bytes equal Python's by construction.  The fixed or exponent
    layout, with trailing zeros stripped, is a per-value mask over
    ``_SUPERSET``.
    """
    if isinstance(file, (str, bytes, os.PathLike)):
        with open(file, "w") as fh:
            _write_table(fh, header, table)
        return
    file.write(header + "\n")
    for text in _format_rows(table):
        file.write(text)


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
