import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from roughlq.bench import build_state_space
from roughlq.control import (
    PredictorError,
    default_horizon,
    gaussian_correction_series,
    pathwise_correction_series,
)
from roughlq.control import _lag_sums, _pathwise_sums
from roughlq.lift import lift_piecewise_linear
from roughlq.noise import NoiseModel, SamplePath, fgn_autocovariance, make_grid, sample_path
from roughlq.pendulum import build_pendulum
from roughlq.riccati import ControlDesign, solve_care
from roughlq.sim import SimConfig, SimError


def scalar_design(a=0.0, q=1.0):
    return solve_care(np.array([[a]]), np.array([[1.0]]), np.array([[q]]), np.array([[1.0]]))


def two_dim_design():
    a = np.array([[0.0, 1.0], [-1.0, -1.5]])
    b = np.array([[0.0], [1.0]])
    return solve_care(a, b, np.eye(2), np.array([[1.0]]))


# ---------------------------------------------------------------------------
# independent references: dense conditioning and explicit expm powers
# ---------------------------------------------------------------------------

def _riemann_sum(design, dx, dt, weight):
    """``P^{-1} sum_j exp(A_cl^T j dt) weight dx_j`` with one expm per term."""
    raw = np.zeros(design.n)
    for j, inc in enumerate(dx):
        raw += expm(design.A_cl.T * (j * dt)) @ weight @ inc
    return np.linalg.solve(design.P, raw)


def _compensated_sum(design, dx, dt):
    return _riemann_sum(design, dx, dt, design.P + 0.5 * dt * design.A_cl.T @ design.P)


def _dense_gaussian_correction(design, hurst, increments, dt, horizon):
    """V from dense Gaussian conditioning of the next m increments on
    ``increments`` (oldest first): Toeplitz Gram, cross-covariance solve,
    then the Phi^T P - weighted sum of the predicted means."""
    s = increments.shape[0]
    m = max(1, int(round(horizon / dt)))
    lags = np.arange(s)
    gram = fgn_autocovariance(lags[:, None] - lags[None, :], dt, hurst)
    # future step k = 1..m sits k + s - 1 - i steps after history increment i
    lead = np.arange(1, m + 1)[:, None] + (s - 1 - lags)[None, :]
    mu = fgn_autocovariance(lead, dt, hurst) @ np.linalg.solve(gram, increments)
    return _riemann_sum(design, mu, dt, design.P)


# ---------------------------------------------------------------------------
# predictor validity
# ---------------------------------------------------------------------------

def test_gaussian_conditioning_rejected_for_stable():
    # a glq run may not condition stable noise as if it were Gaussian; a
    # classical run reads no predictor
    run = dict(model=build_state_space([1, 1, 1, 1], 1), noise_w=NoiseModel.brownian())
    with pytest.raises(SimError, match="Gaussian process noise"):
        SimConfig(noise_v=NoiseModel.stable(alpha=1.5), law="glq:gaussian", **run)
    SimConfig(noise_v=NoiseModel.stable(alpha=1.5), law="classical", **run)
    SimConfig(noise_v=NoiseModel.brownian(), law="glq:gaussian", **run)


@pytest.mark.parametrize("hurst, window", [(0.0, 8), (1.0, 8), (float("nan"), 8), (0.35, 0)])
def test_gaussian_series_rejects_bad_hurst_or_window(hurst, window):
    path = sample_path(NoiseModel.fbm(hurst=0.35), make_grid(0.1, 1.0), seed=0)
    with pytest.raises(PredictorError, match="need 0 < hurst < 1 and window >= 1"):
        gaussian_correction_series(scalar_design(), hurst, path, window=window, horizon=0.2)


# ---------------------------------------------------------------------------
# conditional-mean correction series
# ---------------------------------------------------------------------------

def _history_from_increments(increments, dt):
    increments = np.asarray(increments, dtype=float)
    if increments.ndim == 1:
        increments = increments[:, None]
    n = increments.shape[0]
    values = np.zeros((n + 1, increments.shape[1]))
    values[1:] = np.cumsum(increments, axis=0)
    return SamplePath(t=dt * np.arange(n + 1), values=values)


def test_brownian_prediction_is_zero():
    # at H = 1/2 the increments are independent: V = 0 without conditioning
    hist = _history_from_increments([0.3, -0.2, 0.5], dt=0.1)
    series = gaussian_correction_series(scalar_design(), 0.5, hist, horizon=0.4)
    assert series.shape == (4, 1)
    assert np.max(np.abs(series)) == 0.0


def test_single_increment_conditioning_hand_oracle():
    # one observed increment delta, one future step: the predicted mean is
    # rho * delta with rho = (2^(2H) - 2) / 2, by 2x2 Gaussian conditioning,
    # and with Phi(t, t) = I the correction V(t_1) is that mean
    h, delta, dt = 0.35, 0.7, 0.01
    hist = _history_from_increments([delta], dt=dt)
    series = gaussian_correction_series(scalar_design(), h, hist, horizon=dt)
    rho = (2.0 ** (2 * h) - 2.0) / 2.0
    assert rho < 0.0  # anti-persistent for H < 1/2
    assert series[0, 0] == 0.0
    assert series[1, 0] == pytest.approx(rho * delta, rel=1e-12)


def test_prediction_window_is_respected():
    # with window 2, V at the end of a 10-increment path sees only the last
    # two increments, so it equals V after those two alone
    h, dt = 0.35, 0.1
    design = scalar_design()
    rng = np.random.Generator(np.random.PCG64(1))
    inc = rng.standard_normal(10)
    full = gaussian_correction_series(design, h, _history_from_increments(inc, dt), window=2, horizon=3 * dt)
    tail = gaussian_correction_series(design, h, _history_from_increments(inc[-2:], dt), window=2, horizon=3 * dt)
    assert np.allclose(full[-1], tail[-1])
    assert not np.allclose(full[-1], 0.0)


def test_correction_zero_for_brownian():
    # fBm at H = 1/2 has independent increments: V = 0 under Gaussian conditioning
    design = two_dim_design()
    model = NoiseModel.fbm(hurst=0.5)
    hist = sample_path(model, make_grid(0.01, 1.0), d=2, seed=3)
    series = gaussian_correction_series(design, model.hurst, hist, horizon=0.5)
    assert np.max(np.abs(series)) == 0.0


def test_correction_single_step_hand_composition():
    # one history increment, one future step, Phi(t, t) = I: the raw
    # weighted sum is P rho delta; in state units that is rho delta
    h, delta, dt = 0.35, 0.4, 0.05
    design = two_dim_design()
    hist = _history_from_increments([[delta, -delta]], dt=dt)
    series = gaussian_correction_series(design, h, hist, horizon=dt)
    rho = (2.0 ** (2 * h) - 2.0) / 2.0
    assert np.allclose(series[1], [rho * delta, -rho * delta], rtol=1e-10)


def test_correction_horizon_insensitive_when_decayed():
    design = two_dim_design()
    model = NoiseModel.fbm(hurst=0.4)
    hist = sample_path(model, make_grid(0.01, 2.0), d=2, seed=5)
    t_h = default_horizon(design, 0.01)
    base = gaussian_correction_series(design, model.hurst, hist, horizon=t_h)
    double = gaussian_correction_series(design, model.hurst, hist, horizon=2.0 * t_h)
    rel = np.linalg.norm(double[-1] - base[-1]) / np.linalg.norm(base[-1])
    assert rel < 0.01


def test_correction_term_memory_stays_linear_in_horizon():
    # 20,000 horizon steps against a 256-increment window: one m x window
    # float array alone would take 39 MiB
    design = two_dim_design()
    model = NoiseModel.fbm(hurst=0.35)
    dt = 0.01
    hist = sample_path(model, make_grid(dt, 3.0), d=2, seed=7)
    tracemalloc.start()
    try:
        series = gaussian_correction_series(design, model.hurst, hist, window=256, horizon=20_000 * dt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(series))
    assert peak < 32 * 2**20


def test_gaussian_series_memory_independent_of_horizon(monkeypatch):
    # the light-cart design at dt = 0.001 scans 951,266 horizon steps: one
    # (m, 4, 4) power array alone would take 116 MiB
    from roughlq import control

    monkeypatch.setattr(control, "_MEMO", {})
    design = light_cart_design()
    path = sample_path(NoiseModel.fbm(hurst=0.35), make_grid(0.001, 10.0), d=4, seed=0)
    tracemalloc.start()
    try:
        series = gaussian_correction_series(design, 0.35, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(series))
    assert peak < 16 * 2**20


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(lambda d, p: default_horizon(d, 0.0), "dt must be finite and positive", id="dt-zero"),
        pytest.param(lambda d, p: default_horizon(d, float("nan")), "dt must be finite and positive", id="dt-nan"),
        pytest.param(lambda d, p: default_horizon(d, -0.01), "dt must be finite and positive", id="dt-negative"),
        pytest.param(lambda d, p: default_horizon(d, float("inf")), "dt must be finite and positive", id="dt-inf"),
        pytest.param(lambda d, p: default_horizon(d, 0.01, max_steps=0), "max_steps must be at least 1", id="max-steps-0"),
        pytest.param(
            lambda d, p: gaussian_correction_series(d, 0.35, p, horizon=float("nan")),
            "horizon must be finite and positive", id="horizon-nan",
        ),
        pytest.param(
            lambda d, p: gaussian_correction_series(d, 0.35, p, horizon=float("inf")),
            "horizon must be finite and positive", id="horizon-inf",
        ),
        pytest.param(
            lambda d, p: gaussian_correction_series(d, 0.35, p, horizon=-1.0),
            "horizon must be finite and positive", id="horizon-negative",
        ),
        pytest.param(
            lambda d, p: pathwise_correction_series(d, lift_piecewise_linear(p), horizon=float("nan")),
            "horizon must be finite and positive", id="pathwise-horizon-nan",
        ),
        pytest.param(
            lambda d, p: pathwise_correction_series(d, lift_piecewise_linear(p), horizon=float("inf")),
            "horizon must be finite and positive", id="pathwise-horizon-inf",
        ),
        pytest.param(
            lambda d, p: pathwise_correction_series(d, lift_piecewise_linear(p), horizon=-1.0),
            "horizon must be finite and positive", id="pathwise-horizon-negative",
        ),
        pytest.param(
            lambda d, p: pathwise_correction_series(d, lift_piecewise_linear(p), horizon=0.0),
            "horizon must be finite and positive", id="pathwise-horizon-zero",
        ),
    ],
)
def test_bad_horizon_arguments_are_refused(call, match):
    path = sample_path(NoiseModel.fbm(hurst=0.35), make_grid(0.01, 0.1), d=2, seed=0)
    with pytest.raises(PredictorError, match=match):
        call(two_dim_design(), path)


def _sequential_horizon(design, dt):
    # the plain scan over sequential powers of the step; the Frobenius norm
    # decides a power outside [1e-6, sqrt(n) 1e-6], and every power it
    # cannot decide takes one 2-norm
    tol = 1e-6
    step = expm(design.A_cl * dt)
    power = np.eye(design.n)
    k = 0
    while True:
        k += 1
        power = power @ step
        fro = np.linalg.norm(power)
        if fro >= math.sqrt(design.n) * tol * (1.0 + 1e-12):
            continue
        if fro < tol * (1.0 - 1e-12) or np.linalg.norm(power, 2) < tol:
            return k, k * dt


def pendulum_design():
    pm = build_pendulum()
    return solve_care(pm.A, pm.B, np.eye(4), np.array([[1.0]]))


def light_cart_design():
    # the cart weight lowered to 0.01 (--q-diag 0.01,1,1,1): ten times the
    # horizon of pendulum_design
    pm = build_pendulum()
    return solve_care(pm.A, pm.B, np.diag([0.01, 1.0, 1.0, 1.0]), np.array([[1.0]]))


def jordan_design(split=0.0, coupling=50.0):
    # a Jordan-like closed loop with eigenvalues -0.5 and -0.5 - split:
    # ||E^k||_2 is about coupling t e^(-t/2) at t = k dt, far above
    # rho^k = e^(-t/2) for many steps; at split 0 it is defective
    a_cl = np.array([[-0.5, coupling], [0.0, -0.5 - split]])
    return ControlDesign(P=np.eye(2), K=np.zeros((1, 2)), A_cl=a_cl, care_residual=0.0)


def _assert_horizon_scan(design, dt):
    k, expected = _sequential_horizon(design, dt)
    assert default_horizon(design, dt) == expected
    # the step budget is honoured exactly, across norm blocks too
    assert default_horizon(design, dt, max_steps=k) == expected
    with pytest.raises(PredictorError, match="decays too slowly"):
        default_horizon(design, dt, max_steps=k - 1)
    return k


@pytest.mark.parametrize(
    "make_design, dt, steps",
    [
        pytest.param(two_dim_design, 0.01, None, id="two_dim_design"),
        pytest.param(pendulum_design, 0.01, None, id="pendulum_design"),
        # the fbm035 design on its own grid, as the causal benchmark scans it
        pytest.param(pendulum_design, 0.001, 95_536, id="pendulum_design-dt0.001"),
        pytest.param(jordan_design, 0.01, None, id="jordan_design"),
        pytest.param(lambda: jordan_design(0.05), 0.01, None, id="near_jordan_design"),
        # a transient up to about 7e3 before the decay
        pytest.param(lambda: jordan_design(0.05, coupling=1e4), 0.01, None, id="high_transient_design"),
        pytest.param(light_cart_design, 0.01, 95_127, id="light_cart_design"),
    ],
)
def test_default_horizon_equals_sequential_scan(make_design, dt, steps):
    k = _assert_horizon_scan(make_design(), dt)
    assert steps in (None, k)


@pytest.mark.parametrize(
    "make_design, dt, max_steps",
    [
        # the fbm035 design crosses 1e-6 only at step 95,536
        pytest.param(pendulum_design, 0.001, 50_000, id="bound-past-budget"),
        # a loop that grows: its powers overflow near step 709,000
        pytest.param(
            lambda: ControlDesign(P=np.eye(1), K=np.zeros((1, 1)), A_cl=np.array([[0.1]]), care_residual=0.0),
            0.01, 2_000_000, id="growing",
        ),
    ],
)
def test_default_horizon_refuses_a_loop_too_slow_for_its_budget(make_design, dt, max_steps):
    with pytest.raises(PredictorError, match="decays too slowly"):
        default_horizon(make_design(), dt, max_steps=max_steps)


@pytest.mark.parametrize("k", [1024, 1025])
def test_default_horizon_crossing_on_block_boundary(k):
    # a scalar loop with rate c crosses 1e-6 at step ln(1e6) / (c dt), put
    # half a step before k: the last power of the first block of 1,024, or
    # the first power of the second
    dt = 0.01
    rate = math.log(1e6) / ((k - 0.5) * dt)
    assert _assert_horizon_scan(scalar_design(q=rate**2), dt) == k


def _correlated_lag_sums(design, gamma, m, dt):
    # H[l] = sum_{j<m} Phi(j)^T P gamma(j + l), one correlation with gamma
    # per entry of Phi(j)^T P, rows l = 1 .. len(gamma) - m
    n = design.n
    phi_p = np.empty((m, n, n))
    phi_p[0] = design.P
    shift = expm(design.A_cl.T * dt)
    filled = 1
    while filled < m:
        take = min(filled, m - filled)
        phi_p[filled : filled + take] = shift @ phi_p[:take]
        shift = shift @ shift
        filled += take
    phi_cols = np.ascontiguousarray(phi_p.reshape(m, n * n).T)
    return np.stack([np.correlate(gamma[1:], col, mode="valid") for col in phi_cols], axis=1)


@pytest.mark.parametrize(
    "make_design, dt, hurst, window",
    [
        (pendulum_design, 0.001, 0.35, 256),
        (pendulum_design, 0.001, 0.7, 256),
        (pendulum_design, 0.01, 0.35, 256),
        (pendulum_design, 0.01, 0.7, 256),
        (two_dim_design, 0.02, 0.35, 8),
        (light_cart_design, 0.01, 0.35, 256),
    ],
)
def test_lag_sums_match_correlations(make_design, dt, hurst, window):
    design = make_design()
    m = int(round(default_horizon(design, dt) / dt))
    gamma = fgn_autocovariance(np.arange(m + window), dt, hurst)
    oracle = _correlated_lag_sums(design, gamma, m, dt)
    got = _lag_sums(design, hurst, dt, m, window)
    assert got.shape == oracle.shape == (window, design.n**2)
    scale = np.max(np.abs(oracle), axis=1, keepdims=True)
    assert np.all(np.abs(got - oracle) <= 1e-12 * scale)


# ---------------------------------------------------------------------------
# pathwise (realised-driver) correction
# ---------------------------------------------------------------------------

def test_pathwise_zero_driver():
    design = two_dim_design()
    grid = make_grid(0.01, 1.0)
    driver = lift_piecewise_linear(SamplePath(t=grid, values=np.zeros((grid.size, 2))))
    corr = pathwise_correction_series(design, driver)
    assert np.max(np.abs(corr)) == 0.0


def test_pathwise_smooth_driver_matches_quadrature():
    # v(s) = c s: the integral is P^-1 * int Phi(s,0)' P c ds
    design = two_dim_design()
    c = np.array([0.8, -0.3])
    dt, horizon = 1e-4, 6.0
    grid = make_grid(dt, horizon)
    path = SamplePath(t=grid, values=grid[:, None] * c[None, :], holder=1.0)
    corr = pathwise_correction_series(design, lift_piecewise_linear(path), horizon=horizon)[0]

    from scipy.linalg import expm

    def integrand(s, i):
        return (expm(design.A_cl.T * s) @ design.P @ c)[i]

    raw = np.array([quad(integrand, 0.0, horizon, args=(i,), limit=400)[0] for i in range(2)])
    oracle = np.linalg.solve(design.P, raw)
    assert np.max(np.abs(corr - oracle)) < 1e-8


def test_pathwise_compensation_beats_plain_sums():
    design = two_dim_design()
    c = np.array([1.0, 0.5])
    dt, horizon = 5e-3, 4.0

    def integrand(s, i):
        return (expm(design.A_cl.T * s) @ design.P @ c)[i]

    raw = np.array([quad(integrand, 0.0, horizon, args=(i,), limit=400)[0] for i in range(2)])
    target = np.linalg.solve(design.P, raw)
    grid = make_grid(dt, horizon)
    path = SamplePath(t=grid, values=grid[:, None] * c[None, :], holder=1.0)
    compensated = pathwise_correction_series(design, lift_piecewise_linear(path), horizon=horizon)[0]
    # plain left-point sums: weight P, no level-2 compensation
    plain = _riemann_sum(design, path.increments, dt, design.P)
    errs = {True: np.max(np.abs(compensated - target)), False: np.max(np.abs(plain - target))}
    assert errs[True] < 0.02 * errs[False]


def test_pathwise_refinement_cauchy():
    # quadrupling the resolution at each level; contraction is asserted on
    # the median over seeds, since single fBm realisations fluctuate
    design = two_dim_design()
    model = NoiseModel.fbm(hurst=0.35)
    fine_grid = make_grid(1e-4, 1.0)
    ratios = []
    for seed in range(5):
        fine = sample_path(model, fine_grid, d=2, seed=seed)
        vals = []
        for stride in (16, 4, 1):
            idx = np.arange(0, fine_grid.size, stride)
            sub = SamplePath(t=fine.t[idx], values=fine.values[idx], holder=0.35)
            corr = pathwise_correction_series(design, lift_piecewise_linear(sub), horizon=1.0)[0]
            vals.append(corr)
        d1 = np.linalg.norm(vals[1] - vals[0])
        d2 = np.linalg.norm(vals[2] - vals[1])
        ratios.append(d2 / d1)
    assert np.median(ratios) < 0.8  # Cauchy contraction under refinement


def test_pathwise_correction_continuous_in_driver():
    # perturbing a fixed driver by a smooth path of shrinking Holder size
    # moves the correction by a monotonically shrinking amount
    design = two_dim_design()
    model = NoiseModel.fbm(hurst=0.35)
    grid = make_grid(2e-3, 1.0)
    base = sample_path(model, grid, d=2, seed=12)
    bump = np.sin(2.0 * np.pi * grid) * grid * (1.0 - grid)
    v0 = pathwise_correction_series(design, lift_piecewise_linear(base), horizon=1.0)[0]
    deltas = []
    for eta in (1e-1, 1e-2, 1e-3):
        pert = SamplePath(
            t=grid, values=base.values + eta * bump[:, None], holder=base.holder
        )
        v_eta = pathwise_correction_series(design, lift_piecewise_linear(pert), horizon=1.0)[0]
        deltas.append(np.linalg.norm(v_eta - v0))
    assert deltas[0] >= deltas[1] >= deltas[2]
    assert deltas[2] > 0.0  # the probe actually moved something


def test_pathwise_rejects_inadmissible_driver():
    design = two_dim_design()
    grid = make_grid(0.01, 1.0)
    rng = np.random.Generator(np.random.PCG64(0))
    values = np.zeros((grid.size, 2))
    values[1:] = np.cumsum(rng.standard_normal((grid.size - 1, 2)), axis=0)
    rough = lift_piecewise_linear(SamplePath(t=grid, values=values, holder=0.2))
    with pytest.raises(PredictorError):
        pathwise_correction_series(design, rough)


def test_pathwise_series_matches_single_calls():
    # the series at single times against compensated sums with explicit
    # expm powers over the increments from t_k on
    design = two_dim_design()
    model = NoiseModel.fbm(hurst=0.4)
    dt = 0.02
    grid = make_grid(dt, 1.0)
    driver = lift_piecewise_linear(sample_path(model, grid, d=2, seed=2))
    series = pathwise_correction_series(design, driver)
    for k in (0, 7, 25, 50):
        oracle = _compensated_sum(design, driver.dx[k:], dt)
        assert np.allclose(series[k], oracle, atol=1e-12)
    # horizon-capped variant: the 15 increments after t_10
    oracle_cap = _compensated_sum(design, driver.dx[10:25], dt)
    series_cap = pathwise_correction_series(design, driver, horizon=0.3)
    assert np.allclose(series_cap[10], oracle_cap, atol=1e-12)


def _loop_pathwise_sums(design, dx, dt):
    # the per-step backward recursion raw[k] = W dx[k] + E raw[k + 1]
    step_t = expm(design.A_cl.T * dt)
    weight = design.P + 0.5 * dt * design.A_cl.T @ design.P
    contrib = dx @ weight.T
    raw = np.zeros((dx.shape[0] + 1, design.n))
    for k in range(dx.shape[0] - 1, -1, -1):
        raw[k] = contrib[k] + step_t @ raw[k + 1]
    return raw


@pytest.mark.parametrize(
    "make_design, model, dt, n_steps",
    [
        # the fbm035 design and noise on the benchmark grid
        pytest.param(pendulum_design, NoiseModel.fbm(hurst=0.35, sigma=100.0), 1e-3, 10_000, id="fbm035"),
        # a single step, and lengths on either side of a power of two
        pytest.param(two_dim_design, NoiseModel.fbm(hurst=0.4), 0.01, 1, id="two_dim-1"),
        pytest.param(two_dim_design, NoiseModel.fbm(hurst=0.4), 0.01, 255, id="two_dim-255"),
        pytest.param(two_dim_design, NoiseModel.fbm(hurst=0.4), 0.01, 257, id="two_dim-257"),
    ],
)
def test_pathwise_scan_matches_loop(make_design, model, dt, n_steps):
    design = make_design()
    path = sample_path(model, make_grid(dt, n_steps * dt), d=design.n, seed=4)
    oracle = _loop_pathwise_sums(design, path.increments, dt)
    scale = np.max(np.abs(oracle))
    np.testing.assert_allclose(_pathwise_sums(design, path.increments, dt), oracle, rtol=0.0, atol=1e-12 * scale)


def test_pathwise_series_horizon_matches_loop():
    # a horizon of w steps keeps only dx[k : k + w], also where that runs
    # past the path end
    design = two_dim_design()
    dt, w = 0.01, 20
    path = sample_path(NoiseModel.fbm(hurst=0.4), make_grid(dt, 257 * dt), d=2, seed=4)
    series = pathwise_correction_series(design, lift_piecewise_linear(path), horizon=w * dt)
    truncated = np.array([_loop_pathwise_sums(design, path.increments[k : k + w], dt)[0] for k in range(258)])
    expected = np.linalg.solve(design.P, truncated.T).T
    np.testing.assert_allclose(series, expected, rtol=0.0, atol=1e-12 * np.max(np.abs(expected)))


def _assert_series_matches_single_calls(design, model, grid, window, horizon, seed):
    # the series conditions step k on the last 2^floor(log2 min(k, window))
    # increments; at every single time it must match dense conditioning of
    # those increments
    path = sample_path(model, grid, d=design.n, seed=seed)
    series = gaussian_correction_series(design, model.hurst, path, window=window, horizon=horizon)
    assert np.max(np.abs(series[0])) == 0.0
    dt = grid[1] - grid[0]
    for k in range(1, grid.size):
        size = 1 << (min(k, window).bit_length() - 1)
        oracle = _dense_gaussian_correction(
            design, model.hurst, path.increments[k - size : k], dt, horizon
        )
        np.testing.assert_allclose(series[k], oracle, rtol=1e-9, atol=1e-12)


def test_gaussian_series_matches_single_calls_at_pow2_windows():
    design = two_dim_design()
    grid = make_grid(0.02, 1.0)
    _assert_series_matches_single_calls(
        design, NoiseModel.fbm(hurst=0.35), grid, window=8, horizon=0.4, seed=6
    )


@pytest.mark.parametrize(
    "dt, path_horizon, window, horizon, hurst",
    [
        (0.05, 1.2, 32, 1.0, 0.35),  # path of 24 steps, shorter than the window
        (0.02, 2.0, 8, 0.08, 0.7),  # correction horizon of 4 steps, shorter than the window
        (0.01, 2.8, 256, 0.2, 0.35),  # the default window of 256 on a 280-step path
    ],
)
def test_gaussian_series_matches_single_calls_short_path_or_horizon(
    dt, path_horizon, window, horizon, hurst
):
    _assert_series_matches_single_calls(
        two_dim_design(), NoiseModel.fbm(hurst=hurst), make_grid(dt, path_horizon),
        window=window, horizon=horizon, seed=4,
    )


def test_gaussian_series_scans_default_horizon_once_per_design_and_dt(monkeypatch):
    from roughlq import control

    calls = []

    def counted(design, dt, *args):
        calls.append(dt)
        return default_horizon(design, dt, *args)

    monkeypatch.setattr(control, "_MEMO", {})
    monkeypatch.setattr(control, "default_horizon", counted)
    design = two_dim_design()
    model = NoiseModel.fbm(hurst=0.35)
    grid = make_grid(0.02, 1.0)
    explicit = gaussian_correction_series(
        design, model.hurst, sample_path(model, grid, d=2, seed=0), window=8, horizon=default_horizon(design, 0.02)
    )
    for seed in (0, 1):
        series = gaussian_correction_series(design, model.hurst, sample_path(model, grid, d=2, seed=seed), window=8)
        if seed == 0:
            assert np.array_equal(series, explicit)
    assert calls == [0.02]
    # another step size is another scan
    gaussian_correction_series(design, model.hurst, sample_path(model, make_grid(0.01, 1.0), d=2, seed=0), window=8)
    assert calls == [0.02, 0.01]


@pytest.mark.parametrize("k", [100, 256, 257, 598])
def test_gaussian_series_is_causal_bit_for_bit(k):
    # V(t_k) reads only the increments before step k: changing every
    # increment from step k on leaves series[:k + 1] unchanged to the bit,
    # with the default window of 256 and a 600-step path
    design = two_dim_design()
    path = sample_path(NoiseModel.fbm(hurst=0.35), make_grid(0.01, 6.0), d=2, seed=11)
    rng = np.random.Generator(np.random.PCG64(12))
    values = path.values.copy()
    values[k + 1 :] = values[k] + np.cumsum(rng.standard_normal((path.n_steps - k, 2)), axis=0)
    changed = SamplePath(t=path.t, values=values)
    assert np.array_equal(changed.increments[:k], path.increments[:k])
    assert not np.array_equal(changed.increments[k:], path.increments[k:])
    base = gaussian_correction_series(design, 0.35, path, horizon=0.5)
    after = gaussian_correction_series(design, 0.35, changed, horizon=0.5)
    assert np.array_equal(after[: k + 1], base[: k + 1])
    assert not np.array_equal(after[k + 1], base[k + 1])


def test_gaussian_kernels_built_once_per_key(monkeypatch):
    from roughlq import control

    builds = []

    def counted(*args):
        builds.append(1)
        return _lag_sums(*args)

    monkeypatch.setattr(control, "_MEMO", {})
    monkeypatch.setattr(control, "_lag_sums", counted)
    design = two_dim_design()
    model = NoiseModel.fbm(hurst=0.35)
    path = sample_path(model, make_grid(0.02, 1.0), d=2, seed=2)
    first = gaussian_correction_series(design, 0.35, path, window=8)
    assert len(builds) == 1
    # the same key builds nothing, whatever the path
    again = gaussian_correction_series(design, 0.35, path, window=8)
    gaussian_correction_series(design, 0.35, sample_path(model, make_grid(0.02, 1.0), d=2, seed=3), window=8)
    assert len(builds) == 1
    assert np.array_equal(again, first)
    control._MEMO.clear()
    assert np.array_equal(gaussian_correction_series(design, 0.35, path, window=8), first)
    assert len(builds) == 2
    # each part of the key rebuilds
    gaussian_correction_series(design, 0.4, path, window=8)
    assert len(builds) == 3
    gaussian_correction_series(design, 0.35, path, window=16)
    assert len(builds) == 4
    gaussian_correction_series(design, 0.35, path, window=8, horizon=0.3)
    assert len(builds) == 5
    gaussian_correction_series(design, 0.35, sample_path(model, make_grid(0.01, 1.0), d=2, seed=2), window=8)
    assert len(builds) == 6
    other = solve_care(np.array([[0.0, 1.0], [-1.0, -1.5]]), np.array([[0.0], [1.0]]), 2.0 * np.eye(2), np.array([[1.0]]))
    gaussian_correction_series(other, 0.35, path, window=8)
    assert len(builds) == 7
    # the memo stays bounded
    for steps in range(2, 2 + 2 * control._MEMO_ENTRIES):
        gaussian_correction_series(design, 0.35, path, window=2, horizon=steps * 0.02)
    assert len(control._MEMO) == control._MEMO_ENTRIES


def test_gaussian_series_zero_for_brownian():
    design = two_dim_design()
    model = NoiseModel.brownian()
    grid = make_grid(0.02, 1.0)
    path = sample_path(model, grid, d=2, seed=1)
    assert np.max(np.abs(gaussian_correction_series(design, model.hurst, path, horizon=0.4))) == 0.0
