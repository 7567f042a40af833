"""Acceptance gate.

One test per criterion, each run at its stated tolerance and printing a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Two known-red outcomes are left to fail honestly rather than loosened:

* criterion 1: the published two-decimal pendulum matrices are jointly
  inconsistent with the tabulated physical parameters at the +-0.005
  tolerance (see README, known-red items; the derivation agrees to +-0.03),
* criterion 9's angle clause: at noise scales that defeat the plain LQ
  loop (a calibrated requirement of the same criterion), every
  stabilising controller rides angle excursions far beyond 5 degrees;
  the divergence-rate and saturation clauses hold and are asserted
  first.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from roughlq.bench import run_comparison, saturation_onset_duty
from roughlq.control import completion_of_squares_gap, pathwise_correction_series
from roughlq.lift import chen_defect, holder_estimate, lift_piecewise_linear, reconstruct
from roughlq.noise import (
    NoiseModel,
    SamplePath,
    empirical_char_fn,
    fbm_covariance,
    make_grid,
    sample_path,
)
from roughlq.observer import (
    NoiseSecondMoments,
    estimate_second_moments,
    gain_stationarity_check,
    simulate_error_process,
    solve_observer_steady_state,
)
from roughlq.pendulum import build_pendulum
from roughlq.riccati import solve_care
from roughlq.sim import SimConfig, StateSpaceModel, Trajectory, continuity_probe, integrate


def _line(num, ok, detail):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")


def _budget(num, elapsed, budget):
    print(f"[criterion {num:02d}] runtime {elapsed:.1f}s (budget {budget:.0f}s)")
    assert elapsed < budget


# ---------------------------------------------------------------------------
# 1. pendulum matrices
# ---------------------------------------------------------------------------

def test_criterion_01_pendulum_matrices():
    t0 = time.time()
    pm = build_pendulum()
    diff_a = np.max(np.abs(pm.A - pm.A_reference))
    diff_b = np.max(np.abs(pm.B - pm.B_reference))
    ok = diff_a <= 0.005 and diff_b <= 0.005
    _line(1, ok, f"max|A-ref| = {diff_a:.4f}, max|B-ref| = {diff_b:.4f} vs +-0.005")
    _budget(1, time.time() - t0, 1.0)
    assert ok, (
        "published matrices are not reproducible from the tabulated parameters "
        f"at +-0.005 (worst A entry off by {diff_a:.4f}); see README known-red items"
    )


# ---------------------------------------------------------------------------
# 2. CARE correctness
# ---------------------------------------------------------------------------

def test_criterion_02_care():
    from test_riccati import riccati_ode_solution

    t0 = time.time()
    pm = build_pendulum()
    q, r = np.eye(4), np.array([[1.0]])
    design = solve_care(pm.A, pm.B, q, r)
    res_ok = design.care_residual < 1e-9 * (1.0 + np.linalg.norm(design.P) ** 2)
    oracle = riccati_ode_solution(pm.A, pm.B, q, r)
    oracle_diff = float(np.max(np.abs(design.P - oracle)))
    ok = res_ok and oracle_diff < 1e-6
    _line(2, ok, f"residual = {design.care_residual:.2e}, |P - ode oracle| = {oracle_diff:.2e}")
    _budget(2, time.time() - t0, 5.0)
    assert ok


# ---------------------------------------------------------------------------
# 3. Chen / geometricity suite
# ---------------------------------------------------------------------------

def test_criterion_03_chen_geometricity():
    t0 = time.time()
    rng = np.random.Generator(np.random.PCG64(100))
    grid = make_grid(1.0 / 64.0, 1.0)
    worst_chen = 0.0
    worst_geom = 0.0
    n_paths, n_triples = 100, 100
    for p in range(n_paths):
        hurst = float(rng.uniform(0.36, 0.9))
        path = sample_path(NoiseModel.fbm(hurst=hurst), grid, d=2, seed=p)
        rough = lift_piecewise_linear(path)
        for _ in range(n_triples):
            i, u, j = np.sort(rng.integers(0, 65, size=3))
            worst_chen = max(worst_chen, chen_defect(rough, grid[i], grid[u], grid[j]))
        i, j = np.sort(rng.integers(0, 65, size=2))
        if i < j:
            x, xx = reconstruct(rough, grid[i], grid[j])
            sym = 0.5 * (xx + xx.T)
            worst_geom = max(worst_geom, float(np.linalg.norm(sym - 0.5 * np.outer(x, x))))
    ok = worst_chen < 1e-9 and worst_geom < 1e-10
    _line(3, ok, f"{n_paths * n_triples} triples: max Chen defect {worst_chen:.2e}, "
          f"max geometricity defect {worst_geom:.2e}")
    _budget(3, time.time() - t0, 30.0)
    assert ok


# ---------------------------------------------------------------------------
# 4. fBm statistics
# ---------------------------------------------------------------------------

def test_criterion_04_fbm_statistics():
    t0 = time.time()
    hurst = 0.35
    model = NoiseModel.fbm(hurst=hurst)
    grid = make_grid(1.0 / 32.0, 1.0)
    reps = 2000
    samples = np.stack([sample_path(model, grid, d=1, seed=s).values[1:, 0] for s in range(reps)])
    emp = samples.T @ samples / reps
    times = grid[1:]
    kernel = np.array([[fbm_covariance(s, t, hurst) for t in times] for s in times])
    se = np.sqrt((np.outer(np.diag(kernel), np.diag(kernel)) + kernel**2) / reps)
    cov_ok = bool(np.all(np.abs(emp - kernel) < 5.0 * se))
    worst_z = float(np.max(np.abs(emp - kernel) / se))

    grid4k = make_grid(1.0 / 4096.0, 1.0)
    ests = np.array(
        [holder_estimate(sample_path(model, grid4k, seed=s)) for s in range(100)]
    )
    inside = int(np.sum((ests >= 0.25) & (ests <= 0.45)))
    ok = cov_ok and inside >= 95
    _line(4, ok, f"covariance worst z = {worst_z:.2f} (<5), Holder window hits {inside}/100 (>=95)")
    _budget(4, time.time() - t0, 300.0)
    assert ok


# ---------------------------------------------------------------------------
# 5. stable sampler
# ---------------------------------------------------------------------------

def test_criterion_05_stable_sampler():
    t0 = time.time()
    n = 100_000
    model = NoiseModel.stable(alpha=1.5, beta=0.0, gamma=1.0)
    inc = sample_path(model, make_grid(1.0, float(n)), seed=5).increments.ravel()
    cf_ok = True
    worst = 0.0
    from roughlq.noise import stable_char_fn

    for u in (0.1, 0.5, 1.0):
        empirical = empirical_char_fn(inc, u)
        theory = stable_char_fn(u, 1.5, 0.0, 1.0, 0.0)
        se_re = np.std(np.cos(u * inc), ddof=1) / math.sqrt(n)
        se_im = np.std(np.sin(u * inc), ddof=1) / math.sqrt(n)
        z = max(abs(empirical.real - theory.real) / se_re, abs(empirical.imag - theory.imag) / se_im)
        worst = max(worst, z)
        cf_ok = cf_ok and z < 5.0

    gauss = NoiseModel.stable(alpha=2.0, beta=0.0, gamma=1.0 / math.sqrt(2.0))
    ginc = sample_path(gauss, make_grid(1.0, float(n)), seed=6).increments.ravel()
    stat, pval = stats.kstest(ginc, "norm")
    ks_ok = pval > 0.01
    ok = cf_ok and ks_ok
    _line(5, ok, f"CF worst z = {worst:.2f} (<5), alpha=2 KS p = {pval:.3f} (>0.01)")
    _budget(5, time.time() - t0, 60.0)
    assert ok


# ---------------------------------------------------------------------------
# 6. Brownian reduction
# ---------------------------------------------------------------------------

def test_criterion_06_brownian_reduction():
    t0 = time.time()
    pm = build_pendulum()
    model = StateSpaceModel(A=pm.A, B=pm.B, C=pm.C, Q=np.eye(4), R=[[1.0]])
    design = solve_care(model.A, model.B, model.Q, model.R)
    noise = NoiseModel.brownian(sigma=0.5)
    grid = make_grid(1e-3, 3.0)
    v = sample_path(noise, grid, d=4, seed=40)
    w = sample_path(noise, grid, d=4, seed=41)
    base = dict(model=model, noise_v=noise, noise_w=noise, dt=1e-3, horizon=3.0,
                x0=np.array([0.05, 0.05, 0.0, 0.0]))
    classical = integrate(SimConfig(controller="classical", **base), v, w, design)
    glq = integrate(SimConfig(controller="glq", predictor="gaussian", **base), v, w, design)
    v_max = float(np.max(np.abs(glq.v_correction)))
    diff = float(np.max(np.abs(glq.x - classical.x)))
    udiff = float(np.max(np.abs(glq.u_sat - classical.u_sat)))
    ok = v_max < 1e-12 and diff < 1e-10 and udiff < 1e-10
    _line(6, ok, f"sup|V| = {v_max:.2e} (<1e-12), sup state diff = {diff:.2e} (<1e-10)")
    _budget(6, time.time() - t0, 10.0)
    assert ok


# ---------------------------------------------------------------------------
# 7. completion-of-squares identity
# ---------------------------------------------------------------------------

def _offset_run(cfg, v, w, design, offset):
    model = cfg.model
    grid = cfg.grid()
    dv = v.increments
    v_corr = pathwise_correction_series(design, lift_piecewise_linear(v))
    a_dt = np.eye(model.n) + model.A * cfg.dt
    b_dt = model.B * cfg.dt
    n_steps = grid.size - 1
    x = np.empty((n_steps + 1, model.n))
    u_raw = np.zeros((n_steps + 1, model.m))
    cost = np.zeros(n_steps + 1)
    x[0] = cfg.x0
    prev = None
    for k in range(n_steps + 1):
        u = -design.K @ (x[k] + v_corr[k]) + offset[k]
        u_raw[k] = u
        rate = float(x[k] @ model.Q @ x[k] + u @ model.R @ u)
        if k > 0:
            cost[k] = cost[k - 1] + 0.5 * cfg.dt * (prev + rate)
        prev = rate
        if k < n_steps:
            x[k + 1] = a_dt @ x[k] + b_dt @ u + dv[k]
    return Trajectory(t=grid, x=x, xhat=x, u_raw=u_raw, u_sat=u_raw.copy(),
                      cost_running=cost, v_correction=v_corr, v_increments=dv)


def test_criterion_07_completion_of_squares():
    t0 = time.time()
    pm = build_pendulum()
    model = StateSpaceModel(A=pm.A, B=pm.B, C=pm.C, Q=np.diag([10.0, 1.0, 1.0, 1.0]), R=[[1.0]])
    design = solve_care(model.A, model.B, model.Q, model.R)
    dt, horizon, active = 2e-4, 8.0, 2.0
    grid = make_grid(dt, horizon)
    raw = sample_path(NoiseModel.fbm(hurst=0.35, sigma=3e-3), grid, d=4, seed=70)
    inc = raw.increments * (grid[1:] <= active)[:, None]
    vals = np.zeros_like(raw.values)
    vals[1:] = np.cumsum(inc, axis=0)
    v = SamplePath(t=grid, values=vals, holder=0.35)
    w = SamplePath(t=grid, values=np.zeros((grid.size, 4)))

    cfg = SimConfig(model=model, noise_v=NoiseModel.fbm(hurst=0.35, sigma=3e-3),
                    noise_w=NoiseModel.brownian(), controller="glq", predictor="pathwise",
                    dt=dt, horizon=horizon)
    opt = _offset_run(cfg, v, w, design, np.zeros((grid.size, 1)))
    terminal = float(np.linalg.norm(opt.x[-1]))

    rng = np.random.Generator(np.random.PCG64(71))
    ratios = []
    ok = terminal < 1e-4
    window = (grid > 0.2) & (grid < active - 0.2)
    for trial in range(5):
        delta = np.zeros((grid.size, 1))
        freq = rng.uniform(0.4, 4.0)
        amp = rng.uniform(0.02, 0.08)
        delta[window, 0] = amp * np.sin(2.0 * np.pi * freq * grid[window])
        pert = _offset_run(cfg, v, w, design, delta)
        lhs, rhs = completion_of_squares_gap(pert, opt, design, model.Q, model.R)
        ratios.append(lhs / rhs)
        ok = ok and 0.95 < lhs / rhs < 1.05
    _line(7, ok, f"terminal |x(T)| = {terminal:.1e} (<1e-4), lhs/rhs in "
          f"[{min(ratios):.4f}, {max(ratios):.4f}] (within [0.95, 1.05])")
    _budget(7, time.time() - t0, 120.0)
    assert ok


# ---------------------------------------------------------------------------
# 8. observer reductions
# ---------------------------------------------------------------------------

def test_criterion_08_observer():
    t0 = time.time()
    pm = build_pendulum()

    # reduction: zero cross terms equal the classical filter ARE
    mom = NoiseSecondMoments.uncorrelated(5.0 * np.eye(4), 3.0 * np.eye(4), dt=1e-3)
    design = solve_observer_steady_state(pm.A, pm.C, mom)
    dual = solve_care(pm.A.T, pm.C.T, mom.sigma_v, mom.sigma_w)
    are_diff = float(np.max(np.abs(design.S - dual.P)))
    stat_res = gain_stationarity_check(design.S, design.L, pm.C, mom)

    # direct search: independent-increment noise, 100 matched seeds
    dt, horizon, reps = 1e-3, 3.0, 100
    grid = make_grid(dt, horizon)
    bm = NoiseModel.brownian()
    v_incs = np.stack([sample_path(bm, grid, d=4, seed=800 + 2 * s).increments for s in range(reps)])
    w_incs = np.stack([sample_path(bm, grid, d=4, seed=800 + 2 * s + 1).increments for s in range(reps)])
    mom_hat = estimate_second_moments(v_incs, w_incs, dt)
    design_hat = solve_observer_steady_state(pm.A, pm.C, mom_hat)
    err = simulate_error_process(pm.A, design_hat.L, pm.C, v_incs, w_incs, dt)
    half = err.shape[1] // 2
    base = np.einsum("rki,rki->r", err[:, half:], err[:, half:]) / (err.shape[1] - half)
    worst_z = np.inf
    delta = 1e-2
    for i in range(4):
        for j in range(4):
            for sign in (1.0, -1.0):
                pert = design_hat.L.copy()
                pert[i, j] += sign * delta
                err_p = simulate_error_process(pm.A, pert, pm.C, v_incs, w_incs, dt)
                trace_p = np.einsum("rki,rki->r", err_p[:, half:], err_p[:, half:]) / (
                    err.shape[1] - half
                )
                diff = trace_p - base
                z = diff.mean() / (diff.std(ddof=1) / math.sqrt(reps))
                worst_z = min(worst_z, z)
    search_ok = worst_z > -3.0
    ok = are_diff < 1e-8 and stat_res < 1e-10 and search_ok
    _line(8, ok, f"|S - filter ARE| = {are_diff:.1e} (<1e-8), stationarity = "
          f"{stat_res:.1e} (<1e-10), direct-search worst z = {worst_z:.2f} (>-3)")
    _budget(8, time.time() - t0, 600.0)
    assert ok


# ---------------------------------------------------------------------------
# 9. fractional-noise reproduction
# ---------------------------------------------------------------------------

def test_criterion_09_fbm_reproduction():
    t0 = time.time()
    report = run_comparison("fbm035", overrides={"run": {"observer": "fullstate"}},
                            seeds=range(20))
    cl = report.aggregates[("classical", "fullstate")]
    gl = report.aggregates[("glq", "fullstate")]
    cl_records = report.group("classical", "fullstate")
    duty_ok = all(r.sat_duty >= 0.8 for r in cl_records if r.diverged)
    rate_ok = cl["divergence_rate"] >= 0.9
    glq_ok = gl["divergence_rate"] == 0.0
    angle = gl["max_final_angle_deg"]
    angle_ok = angle < 5.0
    ok = rate_ok and duty_ok and glq_ok and angle_ok
    _line(9, ok, f"classical divergence {cl['divergence_rate']:.2f} (>=0.9), "
          f"post-onset duty >=0.8 {'held' if duty_ok else 'failed'}, "
          f"glq divergence {gl['divergence_rate']:.2f} (=0), "
          f"glq final angle {angle:.1f} deg (<5)")
    _budget(9, time.time() - t0, 600.0)
    assert rate_ok and duty_ok and glq_ok, "controller-failure clauses must hold"
    assert angle_ok, (
        "angle clause: every stabilising controller rides excursions >> 5 deg at "
        "noise scales that defeat the classical loop; see README known-red items"
    )


# ---------------------------------------------------------------------------
# 10. stable-noise reproduction
# ---------------------------------------------------------------------------

def test_criterion_10_stable_reproduction():
    t0 = time.time()
    report = run_comparison("stable15", overrides={"run": {"observer": "fullstate"}},
                            seeds=range(20))
    cl = report.aggregates[("classical", "fullstate")]
    gl = report.aggregates[("glq", "fullstate")]
    strict = gl["divergence_rate"] < cl["divergence_rate"]
    glq_rows = report.group("glq", "fullstate")
    bounded = all(np.isfinite(r.final_norm) for r in glq_rows if not r.diverged) and all(
        not r.diverged for r in glq_rows
    )
    ok = strict and bounded
    _line(10, ok, f"divergence classical {cl['divergence_rate']:.2f} vs glq "
          f"{gl['divergence_rate']:.2f} (strictly less), glq final norms bounded: {bounded}")
    _budget(10, time.time() - t0, 600.0)
    assert ok


# ---------------------------------------------------------------------------
# 11. continuity probe
# ---------------------------------------------------------------------------

def test_criterion_11_continuity_probe():
    t0 = time.time()
    pm = build_pendulum()
    model = StateSpaceModel(A=pm.A, B=pm.B, C=pm.C, Q=np.eye(4), R=[[1.0]])
    design = solve_care(model.A, model.B, model.Q, model.R)
    cfg = SimConfig(model=model, noise_v=NoiseModel.fbm(hurst=0.35, sigma=0.5),
                    noise_w=NoiseModel.brownian(), controller="glq", predictor="pathwise",
                    dt=1e-3, horizon=2.0)
    grid = cfg.grid()
    v = sample_path(NoiseModel.fbm(hurst=0.35, sigma=0.5), grid, d=4, seed=110)
    w = SamplePath(t=grid, values=np.zeros((grid.size, 4)))
    pairs = continuity_probe(cfg, design, v, w, etas=[1e-1, 1e-2, 1e-3])
    sizes = np.array([p[0] for p in pairs])
    devs = np.array([p[1] for p in pairs])
    monotone = bool(devs[0] >= devs[1] >= devs[2])
    slope = float(np.polyfit(np.log(sizes), np.log(devs), 1)[0])
    ok = monotone and slope > 0.0
    _line(11, ok, f"deviations {devs[0]:.2e} >= {devs[1]:.2e} >= {devs[2]:.2e}, "
          f"log-log slope {slope:.2f} (>0)")
    _budget(11, time.time() - t0, 120.0)
    assert ok


# ---------------------------------------------------------------------------
# 12. determinism of compare
# ---------------------------------------------------------------------------

def test_criterion_12_compare_determinism(tmp_path):
    import filecmp

    t0 = time.time()
    overrides = {
        "run": {"seeds": "0:3", "observer": "both"},
        "simulate": {"horizon": "2.0"},
    }
    dirs = []
    for name in ("first", "second"):
        out = tmp_path / name
        run_comparison("fbm035", overrides=overrides, out_dir=out)
        dirs.append(out)

    def tree_equal(c):
        if c.diff_files or c.left_only or c.right_only or c.funny_files:
            return False
        return all(tree_equal(sub) for sub in c.subdirs.values())

    same = tree_equal(filecmp.dircmp(*dirs, ignore=[]))
    # byte-level check on every file, not just metadata
    byte_same = True
    for f in sorted(dirs[0].rglob("*")):
        if f.is_file():
            other = dirs[1] / f.relative_to(dirs[0])
            if not other.exists() or f.read_bytes() != other.read_bytes():
                byte_same = False
                break
    ok = same and byte_same
    _line(12, ok, f"identical trees: {same}, byte-identical files: {byte_same}")
    _budget(12, time.time() - t0, 600.0)
    assert ok
