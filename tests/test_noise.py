import io
import math

import numpy as np
import pytest
from scipy import stats
from scipy.linalg.blas import dtrmm

from roughlq.noise import (
    CHOLESKY_MAX_N,
    NoiseError,
    NoiseModel,
    SamplePath,
    empirical_char_fn,
    fbm_covariance,
    fgn_autocovariance,
    make_grid,
    path_from_csv,
    path_to_csv,
    sample_path,
    sample_paths,
    stable_char_fn,
)
from roughlq.bench import noise_paths, scenario_config, sim_template
from roughlq.noise import _cms_standard, _fgn_cholesky, _format_rows, _sample_fgn_circulant, _sample_increments
from roughlq.riccati import solve_care
from roughlq.sim import integrate, trajectory_to_csv


# ---------------------------------------------------------------------------
# model validation
# ---------------------------------------------------------------------------

def test_fbm_rejects_low_hurst():
    with pytest.raises(NoiseError):
        NoiseModel.fbm(hurst=0.3)
    with pytest.raises(NoiseError):
        NoiseModel.fbm(hurst=1.0 / 3.0)
    NoiseModel.fbm(hurst=0.35)  # fine


def test_fbm_rejects_bad_sigma():
    with pytest.raises(NoiseError):
        NoiseModel.fbm(hurst=0.5, sigma=0.0)


def test_stable_domain():
    with pytest.raises(NoiseError):
        NoiseModel.stable(alpha=0.0)
    with pytest.raises(NoiseError):
        NoiseModel.stable(alpha=2.5)
    with pytest.raises(NoiseError):
        NoiseModel.stable(alpha=1.5, gamma=-1.0)
    with pytest.raises(NoiseError):
        NoiseModel.stable(alpha=1.5, beta=2.0)


def test_sample_path_invariants():
    grid = make_grid(0.01, 1.0)
    with pytest.raises(NoiseError):
        SamplePath(t=grid, values=np.ones((grid.size, 1)))  # nonzero start
    bad = grid.copy()
    bad[3] += 1e-3
    with pytest.raises(NoiseError):
        SamplePath(t=bad, values=np.zeros((grid.size, 1)))


# ---------------------------------------------------------------------------
# fBm covariance kernel
# ---------------------------------------------------------------------------

def test_fbm_covariance_brownian_special_case():
    # H = 1/2 gives min(s, t)
    assert fbm_covariance(1.0, 4.0, 0.5) == pytest.approx(1.0, abs=1e-14)
    assert fbm_covariance(2.0, 2.0, 0.5) == pytest.approx(2.0, abs=1e-14)


def test_fbm_covariance_hand_value():
    # (s=1, t=2, H=0.35): 0.5 * (2^0.7 + 1 - 1)
    expected = 0.5 * 2.0**0.7
    assert fbm_covariance(1.0, 2.0, 0.35) == pytest.approx(expected, abs=1e-15)
    # symmetry
    assert fbm_covariance(2.0, 1.0, 0.35) == fbm_covariance(1.0, 2.0, 0.35)


def test_fbm_covariance_domain_errors():
    with pytest.raises(NoiseError):
        fbm_covariance(1.0, 2.0, 1.5)
    with pytest.raises(NoiseError):
        fbm_covariance(-1.0, 2.0, 0.5)


# ---------------------------------------------------------------------------
# fBm sampler
# ---------------------------------------------------------------------------

def test_fbm_brownian_case_statistics():
    grid = make_grid(1e-3, 1.0)
    path = sample_path(NoiseModel.brownian(), grid, d=1, seed=7)
    inc = path.increments.ravel()
    n = inc.size
    # zero-mean t-test at the 1% level
    tstat = abs(inc.mean()) / (inc.std(ddof=1) / math.sqrt(n))
    assert tstat < stats.t.ppf(0.995, n - 1)
    # Var[B(1)] is t within 3 standard errors over replications
    reps = 400
    finals = np.array(
        [sample_path(NoiseModel.brownian(), make_grid(0.25, 1.0), seed=s).values[-1, 0] for s in range(reps)]
    )
    var = finals.var(ddof=1)
    se = math.sqrt(2.0 / (reps - 1))  # SE of unit variance estimate
    assert abs(var - 1.0) < 3.0 * se


def test_fbm_empirical_covariance_matches_kernel():
    # Monte-Carlo oracle against fbm_covariance on a small grid
    model = NoiseModel.fbm(hurst=0.35)
    grid = make_grid(0.125, 1.0)
    reps = 500
    samples = np.stack(
        [sample_path(model, grid, d=1, seed=s).values[1:, 0] for s in range(reps)]
    )
    emp = samples.T @ samples / reps
    times = grid[1:]
    kernel = np.array([[fbm_covariance(s, t, 0.35) for t in times] for s in times])
    # SE of a covariance estimate: sqrt((Gii Gjj + Gij^2) / reps)
    se = np.sqrt(
        (np.outer(np.diag(kernel), np.diag(kernel)) + kernel**2) / reps
    )
    assert np.all(np.abs(emp - kernel) < 5.0 * se)


def test_fbm_determinism():
    model = NoiseModel.fbm(hurst=0.35)
    grid = make_grid(0.01, 1.0)
    a = sample_path(model, grid, d=3, seed=42)
    b = sample_path(model, grid, d=3, seed=42)
    assert a.values.tobytes() == b.values.tobytes()
    c = sample_path(model, grid, d=3, seed=43)
    assert a.values.tobytes() != c.values.tobytes()


@pytest.mark.parametrize(
    "model, n_steps",
    [
        (NoiseModel.fbm(hurst=0.35, sigma=2.0), 200),
        (NoiseModel.fbm(hurst=0.4), CHOLESKY_MAX_N + 8),
        (NoiseModel.stable(alpha=1.5, beta=0.0, gamma=1.0, delta=0.0), 200),
    ],
    ids=["fbm-cholesky", "fbm-circulant", "stable"],
)
def test_sample_paths_is_sample_path_per_seed(model, n_steps):
    # one stacked covariance product may round apart from the per-seed
    # products only at the last digit; the streams must be the same
    grid = make_grid(1e-3, n_steps * 1e-3)
    seeds = [3, 11, 4]
    batch = sample_paths(model, grid, 2, seeds)
    assert len(batch) == len(seeds) and sample_paths(model, grid, 2, []) == []
    for seed, path in zip(seeds, batch):
        single = sample_path(model, grid, d=2, seed=seed)
        assert path.seed == seed and path.holder == single.holder
        scale = np.max(np.abs(single.values))
        np.testing.assert_allclose(path.values, single.values, rtol=0.0, atol=1e-13 * scale)


@pytest.mark.parametrize(
    "model, n_steps",
    [
        (NoiseModel.stable(alpha=1.5, beta=0.3, gamma=2.0, delta=0.1), 300),
        (NoiseModel.fbm(hurst=0.4, sigma=1.5), CHOLESKY_MAX_N + 8),
    ],
    ids=["stable", "circulant"],
)
def test_sample_paths_are_cumulative_sums_of_the_draw_core(model, n_steps):
    # the draw core returns every seed's increments in one array; each path
    # is its zero row and cumulative sum, times the scale, bit for bit
    dt, seeds = 1e-3, [3, 11, 4]
    grid = make_grid(dt, n_steps * dt)
    increments, scale = _sample_increments(model, grid, 2, seeds)
    assert increments.shape == (len(seeds), n_steps, 2) and scale == model.sigma
    for seed, inc, path in zip(seeds, increments, sample_paths(model, grid, 2, seeds)):
        rng = np.random.Generator(np.random.PCG64(seed))
        if model.kind == "stable":
            # the per-seed draw order: all uniforms, then all exponentials
            u = rng.uniform(-0.5 * math.pi, 0.5 * math.pi, size=(n_steps, 2))
            w = rng.exponential(1.0, size=(n_steps, 2))
            drawn = model.gamma * dt ** (1.0 / model.alpha) * _cms_standard(model.alpha, model.beta, u, w)
            drawn += model.delta * dt
        else:
            drawn = np.column_stack([_sample_fgn_circulant(n_steps, dt, 0.4, rng) for _ in range(2)])
        assert inc.tobytes() == drawn.tobytes()
        expected = np.vstack([np.zeros((1, 2)), scale * np.cumsum(inc, axis=0)])
        assert path.values.tobytes() == expected.tobytes()


def _values_gram(n, dt, hurst):
    # covariance of standard fBm at dt, 2*dt, ..., n*dt
    times = dt * np.arange(1, n + 1)
    h2 = 2.0 * hurst
    p = times**h2
    return 0.5 * (p[:, None] + p[None, :] - np.abs(times[:, None] - times[None, :]) ** h2)


def _dense_values_cholesky(n, dt, hurst):
    # the oracle: LAPACK Cholesky of the dense covariance of the values
    return np.linalg.cholesky(_values_gram(n, dt, hurst))


@pytest.mark.parametrize("n", [1, 2, 64, 2048])
@pytest.mark.parametrize("hurst", [0.1, 0.35, 0.5, 0.7, 0.95])
def test_fgn_cholesky_cumsum_factors_values_gram(hurst, n):
    # the values are cumulative sums of the increments, so the cumulative
    # sum of the fGn factor is a lower factor of the values' covariance
    dt = 1e-3
    factor = np.cumsum(_fgn_cholesky.__wrapped__(n, dt, hurst), axis=0)
    gram = _values_gram(n, dt, hurst)
    assert np.all(np.triu(factor, 1) == 0.0) and np.all(np.diag(factor) > 0.0)
    assert np.max(np.abs(factor @ factor.T - gram)) <= 1e-12 * np.max(np.abs(gram))


def test_fgn_cholesky_brownian_is_scaled_cumsum():
    dt, n = 1e-3, 2048
    factor = np.cumsum(_fgn_cholesky.__wrapped__(n, dt, 0.5), axis=0)
    expected = math.sqrt(dt) * np.tril(np.ones((n, n)))
    np.testing.assert_allclose(factor, expected, rtol=0.0, atol=1e-15 * math.sqrt(dt))


def test_fgn_cholesky_rejects_singular_covariance():
    # H = 1 makes every increment the same variable: a rank-one covariance
    with pytest.raises(NoiseError, match="not positive definite"):
        _fgn_cholesky.__wrapped__(4, 1.0, 1.0)


def test_cholesky_route_matches_dense_oracle():
    # the lift-check grid: 2,000 steps of 2-d fBm at H = 0.35
    model = NoiseModel.fbm(hurst=0.35)
    grid = make_grid(1e-3, 2.0)
    n, d, seeds = grid.size - 1, 2, [0, 3]
    oracle = _dense_values_cholesky(n, 1e-3, 0.35)
    for seed, path in zip(seeds, sample_paths(model, grid, d, seeds)):
        rng = np.random.Generator(np.random.PCG64(seed))
        values = oracle @ rng.standard_normal((n, d))
        scale = np.max(np.abs(values))
        np.testing.assert_allclose(path.values[1:], values, rtol=0.0, atol=1e-10 * scale)


@pytest.mark.parametrize("n", [CHOLESKY_MAX_N, CHOLESKY_MAX_N + 1], ids=["cholesky", "circulant"])
def test_fbm_route_follows_grid_length(n):
    # up to CHOLESKY_MAX_N steps the Schur-Cholesky factor as one triangular
    # product, beyond it one Davies-Harte draw per coordinate, each bit for bit
    model = NoiseModel.fbm(hurst=0.4, sigma=1.5)
    grid = make_grid(1e-3, n * 1e-3)
    assert grid.size == n + 1
    rng = np.random.Generator(np.random.PCG64(7))
    if n <= CHOLESKY_MAX_N:
        product = dtrmm(1.0, _fgn_cholesky(n, 1e-3, 0.4), rng.standard_normal((n, 2)), lower=1)
        expected = model.sigma * np.cumsum(product, axis=0)
    else:
        expected = np.column_stack(
            [model.sigma * np.cumsum(_sample_fgn_circulant(n, 1e-3, 0.4, rng)) for _ in range(2)]
        )
    assert sample_path(model, grid, d=2, seed=7).values[1:].tobytes() == expected.tobytes()


def test_brownian_bit_identical_to_half_hurst_fbm():
    grid = make_grid(0.01, 1.0)
    bm = sample_path(NoiseModel.brownian(sigma=2.0), grid, d=2, seed=5)
    fb = sample_path(NoiseModel(kind="fbm", hurst=0.5, sigma=2.0), grid, d=2, seed=5)
    assert bm.values.tobytes() == fb.values.tobytes()
    assert NoiseModel.brownian(2.0) == NoiseModel.fbm(0.5, 2.0)


def test_fbm_circulant_matches_kernel():
    # the fast path is exact too: check its empirical covariance (8 steps
    # take the Cholesky route in sample_path, so draw the circulant directly)
    grid = make_grid(0.25, 2.0)
    reps = 600
    samples = np.stack(
        [
            np.cumsum(_sample_fgn_circulant(8, 0.25, 0.4, np.random.Generator(np.random.PCG64(s))))
            for s in range(reps)
        ]
    )
    emp = samples.T @ samples / reps
    times = grid[1:]
    kernel = np.array([[fbm_covariance(s, t, 0.4) for t in times] for s in times])
    se = np.sqrt((np.outer(np.diag(kernel), np.diag(kernel)) + kernel**2) / reps)
    assert np.all(np.abs(emp - kernel) < 5.0 * se)


def test_fbm_h_half_increments_uncorrelated():
    grid = make_grid(1e-3, 2.0)
    inc = sample_path(NoiseModel.brownian(), grid, seed=3).increments.ravel()
    n = inc.size
    rho = np.corrcoef(inc[:-1], inc[1:])[0, 1]
    assert abs(rho) < 3.0 / math.sqrt(n)


def test_fbm_self_similarity():
    # B(a t) / a^H has the law of B(t); KS on the marginal at t=1, a=4
    model = NoiseModel.fbm(hurst=0.35)
    reps = 10_000
    rng_grid_small = make_grid(1.0 / 16.0, 1.0)
    rng_grid_big = make_grid(0.25, 4.0)
    small = np.array(
        [sample_path(model, rng_grid_small, seed=s).values[-1, 0] for s in range(reps // 50)]
    )
    big = np.array(
        [
            sample_path(model, rng_grid_big, seed=10_000 + s).values[-1, 0] / 4.0**0.35
            for s in range(reps // 50)
        ]
    )
    stat, pval = stats.ks_2samp(small, big)
    assert pval > 0.01


# ---------------------------------------------------------------------------
# stable sampler
# ---------------------------------------------------------------------------

def test_stable_gaussian_case_ks():
    # alpha=2, gamma=1/sqrt(2) has unit-Gaussian increments
    model = NoiseModel.stable(alpha=2.0, beta=0.0, gamma=1.0 / math.sqrt(2.0))
    grid = make_grid(1.0, 100_000.0)
    inc = sample_path(model, grid, seed=11).increments.ravel()
    stat, pval = stats.kstest(inc, "norm")
    assert pval > 0.01


def test_stable_char_fn_match():
    model = NoiseModel.stable(alpha=1.5, beta=0.0, gamma=1.0)
    grid = make_grid(1.0, 100_000.0)
    inc = sample_path(model, grid, seed=2).increments.ravel()
    n = inc.size
    for u in (0.1, 0.5, 1.0):
        emp = empirical_char_fn(inc, u)
        theory = stable_char_fn(u, 1.5, 0.0, 1.0, 0.0)
        se_re = np.std(np.cos(u * inc), ddof=1) / math.sqrt(n)
        se_im = np.std(np.sin(u * inc), ddof=1) / math.sqrt(n)
        assert abs(emp.real - theory.real) < 5.0 * se_re
        assert abs(emp.imag - theory.imag) < 5.0 * se_im


def test_stable_skewed_char_fn_match():
    # the continuous-parameterisation shift is exercised only when beta != 0
    alpha, beta, gamma, delta = 1.3, 0.5, 0.8, 0.2
    model = NoiseModel.stable(alpha=alpha, beta=beta, gamma=gamma, delta=delta)
    grid = make_grid(1.0, 50_000.0)
    inc = sample_path(model, grid, seed=9).increments.ravel()
    n = inc.size
    for u in (0.2, 0.7):
        emp = empirical_char_fn(inc, u)
        theory = stable_char_fn(u, alpha, beta, gamma, delta)
        se_re = np.std(np.cos(u * inc), ddof=1) / math.sqrt(n)
        se_im = np.std(np.sin(u * inc), ddof=1) / math.sqrt(n)
        assert abs(emp.real - theory.real) < 5.0 * se_re
        assert abs(emp.imag - theory.imag) < 5.0 * se_im


def test_stable_alpha_one_char_fn_match():
    model = NoiseModel.stable(alpha=1.0, beta=0.3, gamma=1.2, delta=0.0)
    grid = make_grid(1.0, 50_000.0)
    inc = sample_path(model, grid, seed=4).increments.ravel()
    n = inc.size
    for u in (0.3, 1.0):
        emp = empirical_char_fn(inc, u)
        theory = stable_char_fn(u, 1.0, 0.3, 1.2, 0.0)
        se_re = np.std(np.cos(u * inc), ddof=1) / math.sqrt(n)
        se_im = np.std(np.sin(u * inc), ddof=1) / math.sqrt(n)
        assert abs(emp.real - theory.real) < 5.0 * se_re
        assert abs(emp.imag - theory.imag) < 5.0 * se_im


def test_stable_determinism():
    model = NoiseModel.stable(alpha=1.5)
    grid = make_grid(0.01, 1.0)
    a = sample_path(model, grid, d=2, seed=0)
    b = sample_path(model, grid, d=2, seed=0)
    assert a.values.tobytes() == b.values.tobytes()


def test_stable_step_scaling():
    # per-step scale follows gamma * dt^(1/alpha): sum of n increments,
    # rescaled by n^(-1/alpha), matches a single unit increment's law
    model = NoiseModel.stable(alpha=1.5, gamma=1.0)
    n_group = 64
    grid = make_grid(1.0, 64_000.0)
    inc = sample_path(model, grid, seed=21).increments.ravel()
    sums = inc.reshape(-1, n_group).sum(axis=1) / n_group ** (1.0 / 1.5)
    singles = sample_path(model, make_grid(1.0, 1000.0), seed=22).increments.ravel()
    stat, pval = stats.ks_2samp(sums, singles)
    assert pval > 0.01


# ---------------------------------------------------------------------------
# characteristic-function helpers
# ---------------------------------------------------------------------------

def test_empirical_char_fn_trivial_cases():
    assert empirical_char_fn(np.zeros(10), 3.0) == pytest.approx(1.0 + 0.0j)
    a = 0.7
    val = empirical_char_fn(np.array([-a, a]), 2.0)
    assert val == pytest.approx(complex(math.cos(2.0 * a), 0.0), abs=1e-15)


def test_fgn_autocovariance_consistency():
    # derived from the fBm kernel: cov of adjacent increments
    h, dt = 0.35, 0.1
    direct = (
        fbm_covariance(2 * dt, 3 * dt, h)
        - fbm_covariance(2 * dt, 2 * dt, h)
        - fbm_covariance(dt, 3 * dt, h)
        + fbm_covariance(dt, 2 * dt, h)
    )
    assert fgn_autocovariance([1], dt, h)[0] == pytest.approx(direct, abs=1e-14)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def test_csv_round_trip_and_precision():
    grid = make_grid(0.1, 0.5)
    path = sample_path(NoiseModel.fbm(hurst=0.4), grid, d=2, seed=1)
    buf = io.StringIO()
    path_to_csv(path, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "t,v1,v2"
    buf.seek(0)
    back = path_from_csv(buf)
    assert np.array_equal(back.values, path.values)
    assert np.array_equal(back.t, path.t)


def _percent_oracle(table) -> str:
    """The reference encoding: ``'%.17g' % v`` per value, one value at a time."""
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in np.asarray(table, dtype=float))


def _assert_encodes_like_percent(table):
    got = "".join(_format_rows(table))
    want = _percent_oracle(table)
    if got != want:
        # report the first differing row, not two multi-megabyte strings
        for row, (a, b) in enumerate(zip(got.splitlines(True), want.splitlines(True))):
            assert a == b, f"row {row}"
        assert len(got) == len(want)


def _ulp_neighbours(values, reach):
    """``values`` and their ``reach`` nearest doubles on either side."""
    values = np.abs(np.asarray(values, dtype=float))
    bits = values.view(np.int64)[:, None] + np.arange(-reach, reach + 1)
    return bits.clip(0, np.float64(np.finfo(float).max).view(np.int64)).view(np.float64).ravel()


def _column(values):
    return np.asarray(values, dtype=float)[:, None]


def test_encoder_matches_percent_on_random_bit_patterns():
    values = np.random.PCG64(0).random_raw(10**6).view(np.float64)
    _assert_encodes_like_percent(values.reshape(-1, 8))


def test_encoder_matches_percent_on_powers_of_ten_and_carry_boundaries():
    powers = np.array([float(f"1e{k}") for k in range(-320, 309)])
    neighbours = [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]
    _assert_encodes_like_percent(_column(np.concatenate(neighbours)))
    # 17 digits that round up to 10^17 (a carry into the exponent), and the
    # 10^16 and 10^17 ends of the scaled 17-digit integer, at every exponent
    marks = ["9.99999999999999995e{}", "9.9999999999999999e{}", "1.00000000000000005e{}", "9.999999999999999e{}"]
    boundary = [float(m.format(e)) for m in marks for e in range(-307, 308)]
    boundary = _ulp_neighbours(boundary, 4)
    _assert_encodes_like_percent(_column(np.concatenate([boundary, -boundary])))
    # the same boundaries where the scaling itself is exact
    _assert_encodes_like_percent(_column([1e16 - 2.0, 1e16, 1e16 + 2.0, 1e17 - 16.0, 1e17, 1e17 + 16.0]))


def test_encoder_matches_percent_on_integers_halves_and_subnormals():
    integers = np.concatenate(
        [
            np.arange(-1000.0, 1001.0),
            2.0 ** np.arange(54),
            [2.0**53 - 1.0, 2.0**53 + 2.0],
            np.random.Generator(np.random.PCG64(1)).integers(0, 2**53, 10**4).astype(float),
        ]
    )
    # exact decimal ties of the 17-digit rounding (2^-25 has 18 digits, the
    # last a 5) and odd multiples of 2^-j
    odd = np.arange(1.0, 200.0, 2.0)
    halves = np.concatenate(
        [integers + 0.5, np.ldexp(1.0, -np.arange(1075)), np.ldexp(odd[:, None], -np.arange(1, 80)).ravel()]
    )
    tiny = np.finfo(float).tiny
    subnormals = np.concatenate(
        [
            np.ldexp(np.arange(1.0, 1000.0), -1074),
            _ulp_neighbours([tiny], 8),
            (np.random.PCG64(2).random_raw(10**4) >> np.uint64(12)).view(np.float64),
        ]
    )
    for values in (integers, halves, subnormals):
        _assert_encodes_like_percent(_column(np.concatenate([values, -values])))


def test_encoder_matches_percent_on_specials_and_shapes():
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 0.1])
    _assert_encodes_like_percent(specials[None, :])  # 1 x n
    _assert_encodes_like_percent(specials[:, None])  # n x 1
    for v in specials:
        _assert_encodes_like_percent([[v]])  # 1 x 1
    # tables longer than one encoding chunk, with every shape of row
    rng = np.random.Generator(np.random.PCG64(3))
    for ncol in (1, 3, 12, 5000):
        scale = 10.0 ** rng.integers(-8, 9, ncol)
        _assert_encodes_like_percent(rng.standard_normal((9000 // ncol + 1, ncol)) * scale)
    assert "".join(_format_rows(np.empty((0, 3)))) == ""


def test_encoder_matches_percent_on_a_fbm035_trajectory():
    run = sim_template(scenario_config("fbm035", {"simulate": {"horizon": "0.5", "controller": "glq"}}))
    design = solve_care(run.model.A, run.model.B, run.model.Q, run.model.R)
    traj = integrate(run, *noise_paths(run, 0), design)
    for values in (traj.t, traj.x, traj.xhat, traj.u_raw, traj.u_sat, traj.cost_running, traj.v_correction):
        _assert_encodes_like_percent(np.reshape(values, (values.shape[0], -1)))
    buf = io.StringIO()
    trajectory_to_csv(traj, buf)
    header, body = buf.getvalue().split("\n", 1)
    table = np.column_stack([traj.t, traj.x, traj.xhat, traj.u_raw, traj.u_sat, traj.cost_running])
    assert header.startswith("t,x1,") and body == _percent_oracle(table)
