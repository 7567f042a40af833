import io
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from roughlq import sim
from roughlq.bench import SCENARIOS, _parse_floats, noise_paths, scenario_config, sim_template
from roughlq.control import completion_of_squares_gap, pathwise_cost
from roughlq.noise import NoiseModel, SamplePath, make_grid, sample_path
from roughlq.observer import NoiseSecondMoments, simulate_error_process, solve_observer_steady_state
from roughlq.pendulum import build_pendulum
from roughlq.riccati import solve_care
from roughlq.sim import (
    _BLOCK,
    _WINDOW,
    DIVERGENCE_NORM,
    SimConfig,
    SimError,
    StateSpaceModel,
    Trajectory,
    average_cost,
    continuity_probe,
    correction_to_csv,
    integrate,
    trajectory_to_csv,
    _correction_series,
)


def pendulum_model(q=None, r=1.0):
    pm = build_pendulum()
    q = np.eye(4) if q is None else np.diag(q)
    return StateSpaceModel(A=pm.A, B=pm.B, C=pm.C, Q=q, R=np.array([[r]]))


def pendulum_design(model):
    return solve_care(model.A, model.B, model.Q, model.R)


def zero_paths(grid, n, p):
    v = SamplePath(t=grid, values=np.zeros((grid.size, n)))
    w = SamplePath(t=grid, values=np.zeros((grid.size, p)))
    return v, w


# ---------------------------------------------------------------------------
# deterministic behaviour
# ---------------------------------------------------------------------------

def test_zero_noise_lqr_stabilizes_pendulum():
    # cart weighting > 1 keeps the slow recentring mode fast enough to
    # reach 1e-3 within the 10 s window
    model = pendulum_model(q=[10.0, 1.0, 1.0, 1.0])
    design = pendulum_design(model)
    cfg = SimConfig(
        model=model,
        noise_v=NoiseModel.brownian(),
        noise_w=NoiseModel.brownian(),
        controller="classical",
        dt=1e-3,
        horizon=10.0,
        x0=np.array([0.02, 0.02, 0.0, 0.0]),
    )
    grid = cfg.grid()
    v, w = zero_paths(grid, 4, 4)
    traj = integrate(cfg, v, w, design)
    assert not traj.diverged
    assert np.linalg.norm(traj.x[-1]) < 1e-3
    # cross-check midpoint state against the exact closed-loop flow
    k = grid.size // 2
    exact = expm(design.A_cl * grid[k]) @ cfg.x0
    assert np.linalg.norm(traj.x[k] - exact) < 5e-3 * max(1.0, np.linalg.norm(cfg.x0))


def test_scalar_decay_against_exponential():
    model = StateSpaceModel(
        A=[[-1.0]], B=[[1.0]], C=[[1.0]], Q=[[1.0]], R=[[1.0]]
    )
    design = solve_care(model.A, model.B, model.Q, model.R)
    cfg = SimConfig(
        model=model,
        noise_v=NoiseModel.brownian(),
        noise_w=NoiseModel.brownian(),
        controller="classical",
        dt=1e-3,
        horizon=5.0,
        x0=np.array([1.0]),
        saturation=1e-12,  # clamp control to zero: pure open-loop decay
    )
    grid = cfg.grid()
    v, w = zero_paths(grid, 1, 1)
    traj = integrate(cfg, v, w, design)
    assert traj.x[-1, 0] == pytest.approx(math.exp(-5.0), abs=5e-3)


def test_brownian_reduction_glq_equals_classical():
    model = pendulum_model()
    design = pendulum_design(model)
    grid = make_grid(1e-3, 2.0)
    v = sample_path(NoiseModel.brownian(sigma=0.5), grid, d=4, seed=13)
    w = sample_path(NoiseModel.brownian(sigma=0.5), grid, d=4, seed=14)
    base = dict(
        model=model,
        noise_v=NoiseModel.brownian(sigma=0.5),
        noise_w=NoiseModel.brownian(sigma=0.5),
        dt=1e-3,
        horizon=2.0,
        x0=np.array([0.1, 0.05, 0.0, 0.0]),
    )
    classical = integrate(SimConfig(controller="classical", **base), v, w, design)
    glq = integrate(
        SimConfig(controller="glq", predictor="gaussian", **base), v, w, design
    )
    assert np.max(np.abs(glq.v_correction)) < 1e-12
    assert np.max(np.abs(glq.x - classical.x)) < 1e-10
    assert np.max(np.abs(glq.u_sat - classical.u_sat)) < 1e-10


def test_saturation_exact_and_raw_logged():
    model = pendulum_model()
    design = pendulum_design(model)
    cfg = SimConfig(
        model=model,
        noise_v=NoiseModel.brownian(),
        noise_w=NoiseModel.brownian(),
        controller="classical",
        dt=1e-3,
        horizon=1.0,
        saturation=5.0,
        x0=np.array([0.0, 0.5, 0.0, 0.0]),
    )
    grid = cfg.grid()
    v, w = zero_paths(grid, 4, 4)
    traj = integrate(cfg, v, w, design)
    assert np.max(np.abs(traj.u_sat)) <= 5.0
    assert np.max(np.abs(traj.u_raw)) > 5.0  # the demanded control is logged


def test_divergence_detection_halts_cleanly():
    model = pendulum_model()
    design = pendulum_design(model)
    cfg = SimConfig(
        model=model,
        noise_v=NoiseModel.brownian(),
        noise_w=NoiseModel.brownian(),
        controller="classical",
        dt=1e-3,
        horizon=10.0,
        saturation=1e-9,  # effectively uncontrolled: the upright mode escapes
        x0=np.array([0.0, 1.0, 0.0, 0.0]),
    )
    grid = cfg.grid()
    v, w = zero_paths(grid, 4, 4)
    traj = integrate(cfg, v, w, design)
    assert traj.diverged
    assert traj.t_diverge is not None and traj.t_diverge < 10.0
    assert np.all(np.isfinite(traj.x))
    assert average_cost(traj) == float("inf")


def test_running_cost_nondecreasing():
    model = pendulum_model()
    design = pendulum_design(model)
    grid = make_grid(1e-3, 1.0)
    v = sample_path(NoiseModel.fbm(hurst=0.35, sigma=0.2), grid, d=4, seed=3)
    w = zero_paths(grid, 4, 4)[1]
    cfg = SimConfig(
        model=model,
        noise_v=NoiseModel.fbm(hurst=0.35, sigma=0.2),
        noise_w=NoiseModel.brownian(),
        controller="glq",
        predictor="pathwise",
        dt=1e-3,
        horizon=1.0,
    )
    traj = integrate(cfg, v, w, design)
    assert np.all(np.diff(traj.cost_running) >= -1e-15)


def test_average_cost_constant_state():
    traj = Trajectory(
        t=np.linspace(0.0, 2.0, 21),
        x=np.tile([1.0, 0.0], (21, 1)),
        xhat=np.tile([1.0, 0.0], (21, 1)),
        u_raw=np.zeros((21, 1)),
        u_sat=np.zeros((21, 1)),
        cost_running=np.linspace(0.0, 2.0, 21),
    )
    assert average_cost(traj) == pytest.approx(1.0, abs=1e-12)


def test_average_cost_ergodic_under_doubled_horizon():
    # the time average stabilises as the horizon grows; per-seed values
    # mix on the slowest closed-loop time constant, so the check runs on
    # the seed mean
    model = pendulum_model(q=[10.0, 1.0, 1.0, 1.0])
    design = pendulum_design(model)
    noise = NoiseModel.brownian(sigma=0.3)
    means = {}
    for horizon in (8.0, 16.0):
        grid = make_grid(1e-3, horizon)
        cfg = SimConfig(
            model=model, noise_v=noise, noise_w=noise, controller="classical",
            dt=1e-3, horizon=horizon,
        )
        costs = [
            average_cost(
                integrate(
                    cfg,
                    sample_path(noise, grid, d=4, seed=s),
                    sample_path(noise, grid, d=4, seed=100 + s),
                    design,
                )
            )
            for s in range(16)
        ]
        means[horizon] = float(np.mean(costs))
    assert abs(means[16.0] - means[8.0]) / means[8.0] < 0.1


def test_determinism_byte_identical_csv():
    model = pendulum_model()
    design = pendulum_design(model)
    cfg = SimConfig(
        model=model,
        noise_v=NoiseModel.fbm(hurst=0.4, sigma=0.3),
        noise_w=NoiseModel.brownian(),
        controller="glq",
        predictor="pathwise",
        dt=1e-3,
        horizon=1.0,
    )
    grid = cfg.grid()
    outputs = []
    for _ in range(2):
        v = sample_path(cfg.noise_v, grid, d=4, seed=5)
        w = sample_path(cfg.noise_w, grid, d=4, seed=6)
        traj = integrate(cfg, v, w, design)
        buf = io.StringIO()
        trajectory_to_csv(traj, buf)
        vbuf = io.StringIO()
        correction_to_csv(traj, vbuf)
        outputs.append(buf.getvalue() + vbuf.getvalue())
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# observer in the loop
# ---------------------------------------------------------------------------

def test_observer_loop_tracks_state():
    model = pendulum_model()
    design = pendulum_design(model)
    mom = NoiseSecondMoments.uncorrelated(0.04 * np.eye(4), 0.04 * np.eye(4), dt=1e-3)
    obs = solve_observer_steady_state(model.A, model.C, mom)
    grid = make_grid(1e-3, 4.0)
    v = sample_path(NoiseModel.brownian(sigma=0.2), grid, d=4, seed=21)
    w = sample_path(NoiseModel.brownian(sigma=0.2), grid, d=4, seed=22)
    cfg = SimConfig(
        model=model,
        noise_v=NoiseModel.brownian(sigma=0.2),
        noise_w=NoiseModel.brownian(sigma=0.2),
        controller="classical",
        observer_enabled=True,
        dt=1e-3,
        horizon=4.0,
        x0=np.array([0.2, 0.1, 0.0, 0.0]),
        xhat0=np.zeros(4),
    )
    traj = integrate(cfg, v, w, design, observer=obs)
    assert not traj.diverged
    err = traj.x - traj.xhat
    # estimation error settles near the designed steady scale
    late = np.linalg.norm(err[-1000:], axis=1)
    assert np.median(late) < 5.0 * math.sqrt(np.trace(obs.S))
    # the measurement update earns its keep against a pure predictor
    from roughlq.observer import ObserverDesign

    open_loop = ObserverDesign(S=obs.S, L=np.zeros_like(obs.L), A_err=model.A, residual=0.0)
    blind = integrate(cfg, v, w, design, observer=open_loop)
    blind_late = np.linalg.norm((blind.x - blind.xhat)[-1000:], axis=1)
    assert np.median(late) < np.median(blind_late)


def test_observer_requires_design():
    model = pendulum_model()
    design = pendulum_design(model)
    cfg = SimConfig(
        model=model,
        noise_v=NoiseModel.brownian(),
        noise_w=NoiseModel.brownian(),
        observer_enabled=True,
        dt=1e-3,
        horizon=1.0,
    )
    grid = cfg.grid()
    v, w = zero_paths(grid, 4, 4)
    with pytest.raises(SimError):
        integrate(cfg, v, w, design, observer=None)
    # a full-state run needs no measurement noise; an observer run does
    observer = _observer_for(model)
    with pytest.raises(SimError, match="without a measurement noise path"):
        integrate(cfg, v, None, design, observer=observer)
    assert np.array_equal(
        integrate(replace(cfg, observer_enabled=False), v, None, design).x,
        integrate(replace(cfg, observer_enabled=False), v, w, design).x,
    )


@pytest.mark.parametrize(
    "path, dt, horizon, d, message",
    [
        ("v", 2e-3, 2.0, 4, "v_path grid does not match"),
        ("w", 2e-3, 2.0, 4, "w_path grid does not match"),
        ("w", 1e-3, 0.5, 4, "w_path grid does not match"),
        ("w", 1e-3, 1.0, 3, "measurement noise dimension"),
    ],
    ids=["v-2s-at-2e-3", "w-2s-at-2e-3", "w-short", "w-dimension"],
)
def test_integrate_rejects_paths_off_the_grid(path, dt, horizon, d, message):
    # a 2 s path at dt 2e-3 has as many points as the 1 s grid at dt 1e-3
    model = pendulum_model()
    cfg = SimConfig(
        model=model,
        noise_v=NoiseModel.brownian(),
        noise_w=NoiseModel.brownian(),
        observer_enabled=True,
        dt=1e-3,
        horizon=1.0,
    )
    v, w = zero_paths(cfg.grid(), 4, 4)
    grid = make_grid(dt, horizon)
    off = SamplePath(t=grid, values=np.zeros((grid.size, d)))
    paths = {"v": off, "w": w} if path == "v" else {"v": v, "w": off}
    with pytest.raises(SimError, match=message):
        integrate(cfg, paths["v"], paths["w"], pendulum_design(model), observer=_observer_for(model))


def test_estimation_error_is_the_same_under_every_controller():
    # separation: no input enters e = x - xhat, so classical and glq runs of
    # one seed share it, and it is the error recursion of the seed's
    # increments.  The runs saturate and the glq input chatters between the
    # rails; x - xhat is a difference of states up to ~1e8, so it is compared
    # at 1e-12 of the largest of x, xhat and e.
    cfg = scenario_config("fbm035", {"simulate": {"horizon": "2.0"}})
    run = replace(sim_template(cfg), observer_enabled=True)
    model = run.model
    design = pendulum_design(model)
    observer = _observer_for(model)
    for seed in (0, 1, 2):
        v, w = noise_paths(run, seed)
        e = simulate_error_process(
            model.A, observer.L, model.C, v.increments[None], w.increments[None], run.dt, e0=run.x0 - run.xhat0
        )[0]
        trajs = [integrate(replace(run, controller=c), v, w, design, observer=observer) for c in ("classical", "glq")]
        rows = min(t.x.shape[0] - t.diverged for t in trajs)  # the rows before either halts
        for traj in trajs:
            railed = np.abs(traj.u_raw[:rows, 0]) > run.saturation
            assert 0 < railed.sum() < rows
            x, xhat = traj.x[:rows], traj.xhat[:rows]
            scale = max(1.0, float(np.max(np.abs(x))), float(np.max(np.abs(xhat))), float(np.max(np.abs(e[:rows]))))
            np.testing.assert_allclose(x - xhat, e[:rows], rtol=0.0, atol=1e-12 * scale, err_msg=f"seed {seed}")
        glq_switches = np.count_nonzero(np.diff(np.abs(trajs[1].u_raw[:rows, 0]) > run.saturation))
        assert glq_switches > 16


# ---------------------------------------------------------------------------
# integrate against a step-by-step oracle
# ---------------------------------------------------------------------------

def _reference_integrate(cfg, v, w, design, observer=None, offset=None):
    """The closed loop advanced one Euler step at a time, as written in the
    sim module docstring: the oracle that ``integrate`` must reproduce.

    ``offset`` (shape ``(N + 1, m)``) adds an open-loop input to the
    feedback, u = -K (xhat + V) + offset, before saturation.
    """
    model = cfg.model
    grid = cfg.grid()
    n_steps = grid.size - 1
    dv, dw = v.increments, w.increments
    v_corr = _correction_series(cfg, design, v)
    a_dt = np.eye(model.n) + model.A * cfg.dt
    b_dt = model.B * cfg.dt
    c_dt = model.C * cfg.dt
    x = np.empty((n_steps + 1, model.n))
    xhat = np.empty((n_steps + 1, model.n))
    u_raw = np.zeros((n_steps + 1, model.m))
    u_sat = np.zeros((n_steps + 1, model.m))
    cost = np.zeros(n_steps + 1)
    x[0] = cfg.x0
    xhat[0] = cfg.xhat0 if cfg.observer_enabled else cfg.x0
    halt, prev = None, None
    for k in range(n_steps + 1):
        fb = xhat[k] if cfg.observer_enabled else x[k]
        if v_corr is not None:
            fb = fb + v_corr[k]
        u_raw[k] = -design.K @ fb + (0.0 if offset is None else offset[k])
        if k == n_steps and not np.all(np.isfinite(u_raw[k])):
            # no state takes the last input: a non-finite one halts the run here
            halt = k
            u_raw[k] = 0.0
            cost[k] = cost[k - 1]
            break
        u_sat[k] = np.clip(u_raw[k], -cfg.saturation, cfg.saturation)
        rate = float(x[k] @ model.Q @ x[k] + u_sat[k] @ model.R @ u_sat[k])
        if k > 0:
            cost[k] = cost[k - 1] + 0.5 * cfg.dt * (prev + rate)
        prev = rate
        if k == n_steps:
            break
        x[k + 1] = a_dt @ x[k] + b_dt @ u_sat[k] + dv[k]
        if cfg.observer_enabled:
            innovation = c_dt @ x[k] + dw[k] - c_dt @ xhat[k]
            xhat[k + 1] = a_dt @ xhat[k] + b_dt @ u_sat[k] + observer.L @ innovation
        else:
            xhat[k + 1] = x[k + 1]
        if not np.all(np.isfinite(x[k + 1])) or np.linalg.norm(x[k + 1]) > DIVERGENCE_NORM:
            halt = k + 1
            cost[halt] = cost[k]  # the halt row carries the last accumulated cost
            break
    end = n_steps + 1 if halt is None else halt + 1
    return Trajectory(
        t=grid[:end],
        x=x[:end],
        xhat=xhat[:end],
        u_raw=u_raw[:end],
        u_sat=u_sat[:end],
        cost_running=cost[:end],
        diverged=halt is not None,
        t_diverge=None if halt is None else grid[halt],
        v_correction=None if v_corr is None else v_corr[:end],
        v_increments=dv,
    )


def _assert_same_run(traj, ref):
    """Exact divergence flag, time and length; every array within 1e-12
    of its own scale, max(1, max |finite entry|); NaN where the oracle has NaN."""
    assert traj.diverged == ref.diverged
    assert traj.t_diverge == ref.t_diverge
    assert np.array_equal(traj.t, ref.t)
    for name in ("x", "xhat", "u_raw", "u_sat", "cost_running", "v_correction"):
        got, want = getattr(traj, name), getattr(ref, name)
        if want is None:
            assert got is None
            continue
        finite = want[np.isfinite(want)]
        scale = max(1.0, float(np.max(np.abs(finite)))) if finite.size else 1.0
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * scale, err_msg=name)


def _observer_for(model):
    mom = NoiseSecondMoments.uncorrelated(0.04 * np.eye(model.n), 0.04 * np.eye(model.p), dt=1e-3)
    return solve_observer_steady_state(model.A, model.C, mom)


@pytest.mark.parametrize("observer_enabled", [False, True], ids=["fullstate", "observer"])
@pytest.mark.parametrize("controller", ["classical", "glq"])
def test_integrate_matches_reference_loop(controller, observer_enabled):
    model = pendulum_model()
    design = pendulum_design(model)
    noise_v = NoiseModel.fbm(hurst=0.35, sigma=2.0)
    cfg = SimConfig(
        model=model,
        noise_v=noise_v,
        noise_w=NoiseModel.brownian(sigma=0.2),
        controller=controller,
        observer_enabled=observer_enabled,
        dt=1e-3,
        horizon=1.5,
        saturation=20.0,
        x0=np.array([0.0, 0.3, 0.0, 0.0]),
        xhat0=np.array([0.0, 0.2, 0.0, 0.0]),
    )
    grid = cfg.grid()
    v = sample_path(noise_v, grid, d=4, seed=3)
    w = sample_path(NoiseModel.brownian(sigma=0.2), grid, d=4, seed=4)
    observer = _observer_for(model) if observer_enabled else None
    traj = integrate(cfg, v, w, design, observer=observer)
    ref = _reference_integrate(cfg, v, w, design, observer=observer)
    _assert_same_run(traj, ref)
    # the run takes both kinds of step: railed and free
    railed = np.abs(ref.u_raw).max(axis=1) > cfg.saturation
    assert 0 < railed.sum() < railed.size


def test_integrate_matches_reference_with_one_input_railed():
    pm = build_pendulum()
    b = np.column_stack([pm.B, [0.0, 0.0, 0.0, 1.0]])
    model = StateSpaceModel(A=pm.A, B=b, C=pm.C, Q=np.eye(4), R=np.diag([1.0, 100.0]))
    design = pendulum_design(model)
    noise_v = NoiseModel.fbm(hurst=0.35, sigma=0.1)
    cfg = SimConfig(
        model=model,
        noise_v=noise_v,
        noise_w=NoiseModel.brownian(),
        controller="glq",
        dt=1e-3,
        horizon=1.0,
        saturation=10.0,
        x0=np.array([0.0, 0.3, 0.0, 0.0]),
    )
    grid = cfg.grid()
    v = sample_path(noise_v, grid, d=4, seed=8)
    w = zero_paths(grid, 4, 4)[1]
    traj = integrate(cfg, v, w, design)
    ref = _reference_integrate(cfg, v, w, design)
    _assert_same_run(traj, ref)
    railed = np.abs(ref.u_raw) > cfg.saturation
    # the first input rails on some steps while the second stays inside the bound
    assert 0 < railed[:, 0].sum() < railed.shape[0] and not railed[:, 1].any()


@pytest.mark.parametrize("observer_enabled", [False, True], ids=["fullstate", "observer"])
def test_integrate_matches_reference_when_saturation_diverges(observer_enabled):
    model = pendulum_model()
    design = pendulum_design(model)
    cfg = SimConfig(
        model=model,
        noise_v=NoiseModel.brownian(),
        noise_w=NoiseModel.brownian(),
        observer_enabled=observer_enabled,
        dt=1e-3,
        horizon=10.0,
        saturation=1e-9,  # effectively uncontrolled: the upright mode escapes
        x0=np.array([0.0, 1.0, 0.0, 0.0]),
    )
    v, w = zero_paths(cfg.grid(), 4, 4)
    observer = _observer_for(model) if observer_enabled else None
    traj = integrate(cfg, v, w, design, observer=observer)
    ref = _reference_integrate(cfg, v, w, design, observer=observer)
    assert ref.diverged
    _assert_same_run(traj, ref)


@pytest.mark.parametrize(
    "row",
    [_WINDOW, _WINDOW + 1, 1000],
    ids=["last-row-of-a-window", "first-row-of-a-window", "last-step"],
)
def test_integrate_matches_reference_when_a_kick_rails_the_input(row):
    # noise-free but for one kick in dv[row - 1]: the input rails first at
    # exactly ``row`` and returns to its bound afterwards
    model = pendulum_model()
    design = pendulum_design(model)
    cfg = SimConfig(
        model=model,
        noise_v=NoiseModel.brownian(),
        noise_w=NoiseModel.brownian(),
        dt=1e-3,
        horizon=1.0,
        saturation=20.0,
    )
    grid = cfg.grid()
    v, w = zero_paths(grid, 4, 4)
    values = v.values.copy()
    values[row:, 1] = 1.0
    v = SamplePath(t=grid, values=values)
    traj = integrate(cfg, v, w, design)
    ref = _reference_integrate(cfg, v, w, design)
    _assert_same_run(traj, ref)
    railed = np.flatnonzero(np.abs(ref.u_raw[:, 0]) > cfg.saturation)
    assert railed[0] == row and (row == grid.size - 1 or railed[-1] < grid.size - 1)


def test_integrate_matches_reference_without_saturation():
    # saturation = inf: one mode for the whole run, so every window is a band solve
    model = pendulum_model()
    design = pendulum_design(model)
    noise_v = NoiseModel.fbm(hurst=0.35, sigma=2.0)
    cfg = SimConfig(
        model=model,
        noise_v=noise_v,
        noise_w=NoiseModel.brownian(),
        controller="glq",
        dt=1e-3,
        horizon=3.0,
        saturation=float("inf"),
        x0=np.array([0.0, 0.3, 0.0, 0.0]),
    )
    grid = cfg.grid()
    v = sample_path(noise_v, grid, d=4, seed=12)
    w = zero_paths(grid, 4, 4)[1]
    traj = integrate(cfg, v, w, design)
    ref = _reference_integrate(cfg, v, w, design)
    assert not ref.diverged
    _assert_same_run(traj, ref)


def test_integrate_matches_reference_on_a_chattering_observer_run(monkeypatch):
    # the fbm035 noise and saturation on a 2 s glq observer run: its input
    # switches between rails every few steps in places and holds elsewhere,
    # so the loop takes both the band solve and the per-row step
    cfg = scenario_config("fbm035", {"simulate": {"horizon": "2.0"}})
    run = replace(sim_template(cfg), controller="glq", observer_enabled=True)
    model = run.model
    design = pendulum_design(model)
    observer = _observer_for(model)
    v, w = noise_paths(run, 0)
    calls = {"dtbtrs": 0, "dgemv": 0}

    def counted(name):
        inner = getattr(sim, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(sim, name, counted(name))
    traj = integrate(run, v, w, design, observer=observer)
    assert calls["dtbtrs"] > 0 and calls["dgemv"] >= _BLOCK
    ref = _reference_integrate(run, v, w, design, observer=observer)
    _assert_same_run(traj, ref)


_NAN_ROWS = {
    "block-boundary": _BLOCK,
    "inside-a-block": _BLOCK + 45,
    "last-step": 1000,
    "window-edge": _WINDOW,
    "inside-a-long-free-segment": 700,
}


@pytest.mark.parametrize(
    "noise, observer_enabled, row",
    [
        pytest.param("v", enabled, row, id=f"{mode}-{name}")
        for mode, enabled in (("fullstate", False), ("observer", True))
        for name, row in _NAN_ROWS.items()
    ]
    # a NaN in dw[row - 1] reaches x through xhat one step later; in
    # dw[999] it reaches only the last row's input, which halts the run
    + [pytest.param("w", True, row, id=f"observer-dw-{name}") for name, row in _NAN_ROWS.items()],
)
def test_nan_increment_halts_at_its_step(noise, observer_enabled, row):
    model = pendulum_model()
    design = pendulum_design(model)
    noise_model = NoiseModel.brownian(sigma=0.1)
    cfg = SimConfig(
        model=model,
        noise_v=noise_model,
        noise_w=noise_model,
        observer_enabled=observer_enabled,
        dt=1e-3,
        horizon=1.0,
    )
    grid = cfg.grid()
    paths = {"v": sample_path(noise_model, grid, d=4, seed=5), "w": sample_path(noise_model, grid, d=4, seed=6)}
    values = paths[noise].values.copy()
    values[row, 2] = np.nan  # dv[row - 1] or dw[row - 1] is NaN in one coordinate
    paths[noise] = SamplePath(t=grid, values=values)
    v, w = paths["v"], paths["w"]
    last_input = noise == "w" and row == grid.size - 1
    halt = row if noise == "v" or last_input else row + 1
    observer = _observer_for(model) if observer_enabled else None
    traj = integrate(cfg, v, w, design, observer=observer)
    ref = _reference_integrate(cfg, v, w, design, observer=observer)
    assert traj.diverged and traj.t_diverge == grid[halt]
    assert traj.x.shape[0] == halt + 1
    if last_input:  # the state never takes the NaN; the estimate does
        assert np.all(np.isfinite(traj.x)) and np.isnan(traj.xhat[-1]).any()
    else:
        assert np.isnan(traj.x[-1, 2]) and np.all(np.isfinite(traj.x[:-1]))
    assert np.all(traj.u_raw[-1] == 0.0) and np.all(traj.u_sat[-1] == 0.0)
    if noise == "v" or last_input:
        assert traj.cost_running[-1] == traj.cost_running[-2]
    else:  # the row before the halt already took the NaN input, and its cost rate with it
        assert np.isnan(traj.cost_running[-2:]).all()
    _assert_same_run(traj, ref)


# ---------------------------------------------------------------------------
# completion of squares on the full loop
# ---------------------------------------------------------------------------

def test_completion_identity_on_pendulum():
    # cart weighting keeps the slowest closed-loop mode fast enough for the
    # terminal state to settle below 1e-4 once the driver support ends
    model = pendulum_model(q=[10.0, 1.0, 1.0, 1.0])
    design = pendulum_design(model)
    dt, horizon, active = 2e-4, 8.0, 2.0
    grid = make_grid(dt, horizon)
    # driver supported on [0, active] so trajectories settle by T
    rng_path = sample_path(NoiseModel.fbm(hurst=0.35, sigma=3e-3), grid, d=4, seed=9)
    mask = (grid <= active).astype(float)
    inc = np.diff(rng_path.values, axis=0) * mask[1:, None]
    vals = np.zeros_like(rng_path.values)
    vals[1:] = np.cumsum(inc, axis=0)
    v = SamplePath(t=grid, values=vals, holder=0.35)
    w = zero_paths(grid, 4, 4)[1]

    base = dict(
        model=model,
        noise_v=NoiseModel.fbm(hurst=0.35, sigma=3e-3),
        noise_w=NoiseModel.brownian(),
        controller="glq",
        predictor="pathwise",
        dt=dt,
        horizon=horizon,
    )
    cfg = SimConfig(**base)
    opt = integrate(cfg, v, w, design)
    assert np.linalg.norm(opt.x[-1]) < 1e-4

    # perturbed controller: optimal feedback plus a bounded open-loop bump
    rng = np.random.Generator(np.random.PCG64(17))
    for trial in range(3):
        delta = np.zeros((grid.size, 1))
        window = (grid > 0.2) & (grid < active - 0.2)
        freq = rng.uniform(0.5, 3.0)
        delta[window, 0] = 0.05 * np.sin(2 * np.pi * freq * grid[window])
        pert = _reference_integrate(cfg, v, w, design, offset=delta)
        assert np.linalg.norm(pert.x[-1]) < 1e-3
        lhs, rhs = completion_of_squares_gap(pert, opt, design, model.Q, model.R)
        assert rhs > 0.0
        assert 0.95 < lhs / rhs < 1.05
        assert lhs > -1e-9  # nonnegativity of the excess cost


def test_completion_gap_rejects_mismatched_drivers():
    model = pendulum_model()
    design = pendulum_design(model)
    grid = make_grid(1e-3, 1.0)
    cfg = SimConfig(
        model=model,
        noise_v=NoiseModel.fbm(hurst=0.4),
        noise_w=NoiseModel.brownian(),
        controller="glq",
        predictor="pathwise",
        dt=1e-3,
        horizon=1.0,
    )
    v1 = sample_path(NoiseModel.fbm(hurst=0.4, sigma=0.1), grid, d=4, seed=1)
    v2 = sample_path(NoiseModel.fbm(hurst=0.4, sigma=0.1), grid, d=4, seed=2)
    w = zero_paths(grid, 4, 4)[1]
    t1 = integrate(cfg, v1, w, design)
    t2 = integrate(cfg, v2, w, design)
    from roughlq.control import PredictorError

    with pytest.raises(PredictorError):
        completion_of_squares_gap(t1, t2, design, model.Q, model.R)


def test_identity_case_zero_gap():
    model = pendulum_model()
    design = pendulum_design(model)
    grid = make_grid(1e-3, 1.0)
    v = sample_path(NoiseModel.fbm(hurst=0.4, sigma=0.1), grid, d=4, seed=1)
    w = zero_paths(grid, 4, 4)[1]
    cfg = SimConfig(
        model=model,
        noise_v=NoiseModel.fbm(hurst=0.4),
        noise_w=NoiseModel.brownian(),
        controller="glq",
        predictor="pathwise",
        dt=1e-3,
        horizon=1.0,
    )
    traj = integrate(cfg, v, w, design)
    lhs, rhs = completion_of_squares_gap(traj, traj, design, model.Q, model.R)
    assert abs(lhs) < 1e-12
    assert rhs < 1e-20


# ---------------------------------------------------------------------------
# pathwise cost
# ---------------------------------------------------------------------------

def test_pathwise_cost_constant_and_refined():
    traj = Trajectory(
        t=np.linspace(0.0, 2.0, 41),
        x=np.tile([1.0, 0.0], (41, 1)),
        xhat=np.tile([1.0, 0.0], (41, 1)),
        u_raw=np.zeros((41, 1)),
        u_sat=np.zeros((41, 1)),
        cost_running=np.zeros(41),
    )
    assert pathwise_cost(traj, np.eye(2), np.eye(1)) == pytest.approx(2.0, abs=1e-12)

    # random trajectory against a finer re-quadrature of the same samples
    rng = np.random.Generator(np.random.PCG64(2))
    t = np.linspace(0.0, 1.0, 2001)
    x = rng.standard_normal((2001, 2)).cumsum(axis=0) * 0.01
    u = rng.standard_normal((2001, 1)) * 0.1
    smooth = Trajectory(t=t, x=x, xhat=x, u_raw=u, u_sat=u, cost_running=np.zeros(2001))
    val = pathwise_cost(smooth, np.eye(2), np.eye(1))
    integrand = np.einsum("ki,ki->k", x, x) + np.einsum("ki,ki->k", u, u)
    fine = np.trapezoid(integrand, t)
    assert val == pytest.approx(fine, rel=1e-12)


# ---------------------------------------------------------------------------
# continuity and refinement probes
# ---------------------------------------------------------------------------

def test_continuity_probe_monotone_with_positive_slope():
    model = pendulum_model()
    design = pendulum_design(model)
    cfg = SimConfig(
        model=model,
        noise_v=NoiseModel.fbm(hurst=0.35, sigma=0.5),
        noise_w=NoiseModel.brownian(),
        controller="glq",
        predictor="pathwise",
        dt=1e-3,
        horizon=2.0,
    )
    grid = cfg.grid()
    v = sample_path(NoiseModel.fbm(hurst=0.35, sigma=0.5), grid, d=4, seed=31)
    w = zero_paths(grid, 4, 4)[1]
    pairs = continuity_probe(cfg, design, v, w, etas=[1e-1, 1e-2, 1e-3])
    sizes = [p[0] for p in pairs]
    devs = [p[1] for p in pairs]
    assert devs[0] >= devs[1] >= devs[2]
    slope = np.polyfit(np.log(sizes), np.log(devs), 1)[0]
    assert slope > 0.0
    # eta = 0 leaves the trajectory untouched
    zero = continuity_probe(cfg, design, v, w, etas=[0.0])
    assert zero[0][1] == 0.0


def test_continuity_probe_metric_relevance():
    # paired runs at matched sup-norm: the sup-norm cannot rank the two
    # perturbations (deviations differ several-fold), while the Holder
    # metric bound dev <= C * size covers both shapes with one constant
    from roughlq.sim import _sawtooth, _smooth_bump

    model = pendulum_model()
    design = pendulum_design(model)
    cfg = SimConfig(
        model=model,
        noise_v=NoiseModel.fbm(hurst=0.35, sigma=0.5),
        noise_w=NoiseModel.brownian(),
        controller="classical",
        dt=1e-3,
        horizon=1.0,
    )
    grid = cfg.grid()
    v = sample_path(NoiseModel.fbm(hurst=0.35, sigma=0.5), grid, d=4, seed=7)
    w = zero_paths(grid, 4, 4)[1]
    sup_ratio = np.max(np.abs(_smooth_bump(grid))) / np.max(np.abs(_sawtooth(grid)))
    smooth = continuity_probe(cfg, design, v, w, etas=[1e-2], shape="smooth")[0]
    saw = continuity_probe(cfg, design, v, w, etas=[1e-2 * sup_ratio], shape="sawtooth")[0]
    assert saw[0] > smooth[0]  # rougher shape, larger Holder size
    # sup-norm is not the relevant metric: matched sup-norms, deviations apart
    assert not 0.5 < saw[1] / smooth[1] < 2.0
    # one Holder-metric constant covers both runs
    assert saw[1] / saw[0] <= smooth[1] / smooth[0] * 1.001


def _refinement_convergence(config, design, seed, levels=(1, 2, 4)):
    """Self-convergence under step halving with a shared noise realisation.

    Samples the driver of run seed ``seed`` on the finest grid, from the
    streams ``noise_paths`` draws, aggregates its
    increments for the coarser grids, and compares trajectories on
    common times.  Returns the list of successive sup-norm differences
    and the fitted order ``log2(d[i] / d[i+1])`` averaged over pairs.
    """
    finest = max(levels)
    fine_cfg = replace(config, dt=config.dt / finest)
    fine_grid = fine_cfg.grid()
    v_fine, w_fine = noise_paths(fine_cfg, seed)

    trajs = {}
    for level in sorted(levels):
        stride = finest // level
        idx = np.arange(0, fine_grid.shape[0], stride)
        grid = fine_grid[idx]
        v = SamplePath(t=grid, values=v_fine.values[idx], holder=v_fine.holder)
        w = SamplePath(t=grid, values=w_fine.values[idx], holder=w_fine.holder)
        cfg = replace(config, dt=config.dt / level)
        trajs[level] = (integrate(cfg, v, w, design), stride)

    diffs = []
    lv = sorted(levels)
    for a, b in zip(lv[:-1], lv[1:]):
        ta, _ = trajs[a]
        tb, _ = trajs[b]
        ratio = b // a
        k = min(ta.x.shape[0], (tb.x.shape[0] - 1) // ratio + 1)
        diffs.append(float(np.max(np.abs(ta.x[:k] - tb.x[: (k - 1) * ratio + 1 : ratio]))))
    orders = [np.log2(diffs[i] / diffs[i + 1]) for i in range(len(diffs) - 1)]
    return {"diffs": diffs, "order": float(np.mean(orders)) if orders else float("nan")}


def test_refinement_convergence_orders():
    model = pendulum_model()
    base = dict(
        model=model,
        noise_w=NoiseModel.brownian(),
        controller="classical",
        dt=4e-3,
        horizon=2.0,
        x0=np.array([0.1, 0.05, 0.0, 0.0]),
    )
    design = pendulum_design(model)

    # deterministic run: classical Euler order ~ 1
    cfg = SimConfig(noise_v=NoiseModel.brownian(sigma=1e-12), **base)
    out = _refinement_convergence(cfg, design, 11, levels=(1, 2, 4))
    assert 0.7 <= out["order"] <= 1.3

    # Brownian additive noise: still ~ first order
    cfg = SimConfig(noise_v=NoiseModel.brownian(sigma=0.3), **base)
    out = _refinement_convergence(cfg, design, 11, levels=(1, 2, 4))
    assert out["order"] >= 0.7

    # fBm: monotone Cauchy differences
    cfg = SimConfig(noise_v=NoiseModel.fbm(hurst=0.35, sigma=0.3), **base)
    out = _refinement_convergence(cfg, design, 11, levels=(1, 2, 4))
    assert out["diffs"][1] < out["diffs"][0]
    assert out["order"] >= min(1.0, 0.7) - 0.3


# ---------------------------------------------------------------------------
# config validation and CSV
# ---------------------------------------------------------------------------

def test_config_validation():
    model = pendulum_model()
    with pytest.raises(SimError):
        SimConfig(model=model, noise_v=NoiseModel.brownian(), noise_w=NoiseModel.brownian(), controller="bogus")
    with pytest.raises(SimError):
        SimConfig(model=model, noise_v=NoiseModel.brownian(), noise_w=NoiseModel.brownian(), dt=1.0, horizon=2.0)
    with pytest.raises(SimError):
        SimConfig(model=model, noise_v=NoiseModel.brownian(), noise_w=NoiseModel.brownian(), saturation=-1.0)


@pytest.mark.parametrize(
    "q, r, message",
    [
        (np.eye(4), [[0.0]], "R must be positive definite"),
        (np.eye(4), [[-1.0]], "R must be positive definite"),
        (np.eye(4), [[1.0, 0.5], [0.0, 1.0]], "R must be symmetric"),
        (np.diag([-1.0, 1.0, 1.0, 1.0]), [[1.0]], "Q must be positive semidefinite"),
        # the cart position is the pendulum's eigenvalue-0 mode
        (np.diag([0.0, 1.0, 1.0, 1.0]), [[1.0]], "not detectable"),
    ],
    ids=["r-zero", "r-negative", "r-not-symmetric", "q-negative-eigenvalue", "q-undetectable"],
)
def test_state_space_rejects_bad_weights(q, r, message):
    pm = build_pendulum()
    b = np.column_stack([pm.B] * len(r))
    with pytest.raises(SimError, match=message):
        StateSpaceModel(A=pm.A, B=b, C=pm.C, Q=q, R=r)


def test_state_space_accepts_semidefinite_q():
    model = pendulum_model(q=[1.0, 0.0, 1.0, 1.0])
    assert np.array_equal(model.Q, np.diag([1.0, 0.0, 1.0, 1.0]))


@pytest.mark.parametrize(
    "q_diag, r",
    # the weightings of test_riccati.py, then each scenario's own
    [((1, 1, 1, 1), 1.0), ((10, 100, 1, 1), 0.01), ((1, 1, 1, 1), 100.0), ((1e3, 1e3, 1, 1), 1e-3)]
    + [(_parse_floats(cfg["model"]["q_diag"]), float(cfg["model"]["r"])) for cfg in SCENARIOS.values()],
)
def test_state_space_accepts_detectable_weights(q_diag, r):
    model = pendulum_model(q=q_diag, r=r)
    assert np.min(np.linalg.eigvalsh(solve_care(model.A, model.B, model.Q, model.R).P)) > 0.0


def test_trajectory_csv_columns():
    model = pendulum_model()
    design = pendulum_design(model)
    cfg = SimConfig(
        model=model,
        noise_v=NoiseModel.brownian(),
        noise_w=NoiseModel.brownian(),
        dt=1e-2,
        horizon=0.1,
    )
    grid = cfg.grid()
    v, w = zero_paths(grid, 4, 4)
    traj = integrate(cfg, v, w, design)
    buf = io.StringIO()
    trajectory_to_csv(traj, buf)
    header = buf.getvalue().splitlines()[0]
    assert header == "t,x1,x2,x3,x4,xhat1,xhat2,xhat3,xhat4,u_raw,u_sat,cost"
