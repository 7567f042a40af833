import numpy as np
import pytest

from roughlq.noise import NoiseModel, make_grid, sample_path
from roughlq.observer import (
    NoiseSecondMoments,
    ObserverError,
    estimate_second_moments,
    gain_stationarity_check,
    modified_are_residual,
    observer_gain,
    simulate_error_process,
    solve_observer_steady_state,
)
from roughlq.pendulum import build_pendulum
from roughlq.riccati import solve_care, spectral_abscissa


def _increments(model, grid, d, seeds):
    return np.stack([sample_path(model, grid, d=d, seed=s).increments for s in seeds])


def _joint_increments(model_v, model_w, grid, reps, d=4, seed0=0):
    v = _increments(model_v, grid, d, [2 * s + seed0 for s in range(reps)])
    w = _increments(model_w, grid, d, [2 * s + 1 + seed0 for s in range(reps)])
    return v, w


# ---------------------------------------------------------------------------
# moment estimation
# ---------------------------------------------------------------------------

def test_independent_brownian_moments():
    grid = make_grid(0.01, 2.0)
    v, w = _joint_increments(NoiseModel.brownian(), NoiseModel.brownian(), grid, reps=120, d=2)
    mom = estimate_second_moments(v, w, 0.01)
    count = mom.n_samples
    se = 3.0 / np.sqrt(count)
    assert np.max(np.abs(mom.sigma_v - np.eye(2))) < 3.0 * np.sqrt(2.0 / count) + se
    assert np.max(np.abs(mom.r_vw)) < 3.0 / np.sqrt(count)


def test_fully_correlated_moments():
    grid = make_grid(0.01, 1.0)
    v = _increments(NoiseModel.brownian(), grid, 2, range(110))
    mom = estimate_second_moments(v, v, 0.01)
    assert np.allclose(mom.r_vw, mom.sigma_v, atol=1e-12)


def test_fbm_moment_scaling():
    # per-step variance of fBm increments is dt^(2H); normalised by dt the
    # diagonal reads dt^(2H-1)
    h, dt = 0.35, 1e-3
    grid = make_grid(dt, 0.2)
    v, w = _joint_increments(NoiseModel.fbm(hurst=h), NoiseModel.fbm(hurst=h), grid, reps=150, d=2)
    mom = estimate_second_moments(v, w, dt)
    target = dt ** (2 * h - 1.0)
    count = mom.n_samples
    se = target * np.sqrt(2.0 / count)
    assert np.max(np.abs(np.diag(mom.sigma_v) - target)) < 5.0 * se


def test_insufficient_replications_error():
    grid = make_grid(0.01, 0.5)
    v, w = _joint_increments(NoiseModel.brownian(), NoiseModel.brownian(), grid, reps=10, d=1)
    with pytest.raises(ObserverError):
        estimate_second_moments(v, w, 0.01)


_V = np.zeros((100, 50, 2))


@pytest.mark.parametrize(
    "inc_v, inc_w, dt, message",
    [
        (_V[:99], _V[:99], 0.01, "at least 100 replications, got 99"),
        (_V, _V[:-1], 0.01, "replication shapes disagree"),
        (_V, _V[:, :-1], 0.01, "replication shapes disagree"),
        (_V[:, :, 0], _V[:, :, 0], 0.01, "got 2-d and 2-d"),
        (_V, _V[None], 0.01, "got 3-d and 4-d"),
        (_V, _V, 0.0, "dt must be finite and positive"),
        (_V, _V, -0.01, "dt must be finite and positive"),
        (_V, _V, float("nan"), "dt must be finite and positive"),
        (_V, _V, float("inf"), "dt must be finite and positive"),
    ],
    ids=["99-reps", "reps-mismatch", "steps-mismatch", "2-d", "4-d", "dt-zero", "dt-negative", "dt-nan", "dt-inf"],
)
def test_estimator_rejects_malformed_input(inc_v, inc_w, dt, message):
    with pytest.raises(ObserverError, match=message):
        estimate_second_moments(inc_v, inc_w, dt)


_E = np.zeros((3, 50, 4))
_L4 = np.eye(4)


@pytest.mark.parametrize(
    "v_incs, w_incs, e0, dt, message",
    [
        (_E[0], _E[0], None, 1e-3, "got 2-d and 2-d"),
        (_E, _E[None], None, 1e-3, "got 3-d and 4-d"),
        (_E, _E[:1], None, 1e-3, "replication shapes disagree"),
        (_E, _E[:, :-1], None, 1e-3, "replication shapes disagree"),
        (_E[:, :, :3], _E, None, 1e-3, "dimensions 3 and 4 do not fit"),
        (_E, _E[:, :, :3], None, 1e-3, "dimensions 4 and 3 do not fit"),
        (_E, _E, np.zeros(3), 1e-3, "e0 must have shape"),
        (_E, _E, np.zeros((2, 4)), 1e-3, "e0 must have shape"),
        (_E, _E, None, float("nan"), "dt must be finite and positive"),
        (_E, _E, None, float("inf"), "dt must be finite and positive"),
        (_E, _E, None, 0.0, "dt must be finite and positive"),
        (_E, _E, None, -1.0, "dt must be finite and positive"),
    ],
    ids=[
        "2-d", "4-d", "one-w-rep-for-three", "steps-mismatch", "v-dimension", "w-dimension", "e0-length", "e0-reps",
        "dt-nan", "dt-inf", "dt-zero", "dt-negative",
    ],
)
def test_error_process_rejects_malformed_input(v_incs, w_incs, e0, dt, message):
    with pytest.raises(ObserverError, match=message):
        simulate_error_process(np.zeros((4, 4)), _L4, _L4, v_incs, w_incs, dt, e0=e0)


def test_error_process_takes_one_start_per_replication():
    rng = np.random.Generator(np.random.PCG64(5))
    v_incs, w_incs, e0 = rng.standard_normal((3, 20, 4)), rng.standard_normal((3, 20, 4)), rng.standard_normal((3, 4))
    a = np.array([[0.0, 1.0, 0.0, 0.0], [-2.0, -1.0, 0.0, 0.0], [0.0, 0.0, -1.0, 0.5], [0.0, 0.0, 0.0, -3.0]])
    batch = simulate_error_process(a, 0.5 * _L4, _L4, v_incs, w_incs, 1e-2, e0=e0)
    for r in range(3):
        one = simulate_error_process(a, 0.5 * _L4, _L4, v_incs[r : r + 1], w_incs[r : r + 1], 1e-2, e0=e0[r])
        np.testing.assert_allclose(batch[r], one[0], rtol=0.0, atol=1e-12 * max(1.0, float(np.max(np.abs(one)))))


def test_truncation_is_recorded_and_tames_tails():
    grid = make_grid(1e-3, 0.5)
    model = NoiseModel.stable(alpha=1.5)
    v, w = _joint_increments(model, model, grid, reps=120, d=2)
    kept = v.copy(), w.copy()
    mom = estimate_second_moments(v, w, 1e-3, truncate_quantile=0.999)
    assert mom.truncation is not None and mom.truncation > 0.0
    assert np.array_equal(v, kept[0]) and np.array_equal(w, kept[1])  # the inputs are not clipped
    raw = estimate_second_moments(v, w, 1e-3)
    assert raw.truncation is None
    assert np.trace(mom.sigma_v) < np.trace(raw.sigma_v)


# ---------------------------------------------------------------------------
# gain formula
# ---------------------------------------------------------------------------

def test_gain_reductions():
    mom = NoiseSecondMoments.uncorrelated(np.eye(2), 2.0 * np.eye(2), dt=0.01)
    s = np.array([[2.0, 0.5], [0.5, 1.0]])
    c = np.array([[1.0, 0.0], [0.3, 1.0]])
    assert np.allclose(observer_gain(s, c, mom), s @ c.T @ np.linalg.inv(2.0 * np.eye(2)))

    m = np.array([[0.4, 0.1], [0.0, 0.2]])
    mom2 = NoiseSecondMoments(sigma_v=np.eye(2), sigma_w=2.0 * np.eye(2), r_vw=m, dt=0.01)
    assert np.allclose(
        observer_gain(np.zeros((2, 2)), c, mom2), m @ np.linalg.inv(2.0 * np.eye(2))
    )


def test_gain_scalar_arithmetic():
    mom = NoiseSecondMoments.uncorrelated([[1.0]], [[4.0]], dt=0.01)
    assert observer_gain([[2.0]], [[1.0]], mom)[0, 0] == pytest.approx(0.5, abs=1e-14)


def test_singular_sigma_w_rejected():
    mom = NoiseSecondMoments.uncorrelated(np.eye(2), np.zeros((2, 2)), dt=0.01)
    with pytest.raises(ObserverError, match="Sigma_w"):
        observer_gain(np.eye(2), np.eye(2), mom)


# ---------------------------------------------------------------------------
# steady state
# ---------------------------------------------------------------------------

def test_scalar_steady_state_closed_forms():
    mom = NoiseSecondMoments.uncorrelated([[1.0]], [[1.0]], dt=0.01)
    d = solve_observer_steady_state([[0.0]], [[1.0]], mom)
    assert d.S[0, 0] == pytest.approx(1.0, abs=1e-9)
    assert d.L[0, 0] == pytest.approx(1.0, abs=1e-9)

    mom2 = NoiseSecondMoments.uncorrelated([[3.0]], [[1.0]], dt=0.01)
    d2 = solve_observer_steady_state([[-1.0]], [[1.0]], mom2)
    assert d2.S[0, 0] == pytest.approx(1.0, abs=1e-9)
    assert d2.L[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_zero_cross_reduces_to_filter_are():
    pm = build_pendulum()
    mom = NoiseSecondMoments.uncorrelated(5.0 * np.eye(4), 3.0 * np.eye(4), dt=1e-3)
    design = solve_observer_steady_state(pm.A, pm.C, mom)
    dual = solve_care(pm.A.T, pm.C.T, mom.sigma_v, mom.sigma_w)
    assert np.max(np.abs(design.S - dual.P)) < 1e-8
    assert spectral_abscissa(design.A_err) < 0.0


def test_correlated_steady_state_vs_ode_oracle():
    # independent oracle: RK4 on the covariance flow with the gain
    # re-optimised each step, run to stationarity
    pm = build_pendulum()
    rng = np.random.Generator(np.random.PCG64(7))
    g = 0.6 * np.eye(4) + 0.05 * rng.standard_normal((4, 4))
    mom = NoiseSecondMoments(sigma_v=5.0 * np.eye(4), sigma_w=3.0 * np.eye(4), r_vw=g, dt=1e-3)
    design = solve_observer_steady_state(pm.A, pm.C, mom)

    def rate(s):
        l_gain = observer_gain(s, pm.C, mom)
        a_err = pm.A - l_gain @ pm.C
        return (
            a_err @ s
            + s @ a_err.T
            + mom.sigma_v
            + l_gain @ mom.sigma_w @ l_gain.T
            - l_gain @ mom.r_vw.T
            - mom.r_vw @ l_gain.T
        )

    s = np.eye(4)
    dt = 2e-3
    for _ in range(int(60.0 / dt)):
        k1 = rate(s)
        k2 = rate(s + 0.5 * dt * k1)
        k3 = rate(s + 0.5 * dt * k2)
        k4 = rate(s + dt * k3)
        s = s + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        s = 0.5 * (s + s.T)
    assert np.max(np.abs(design.S - s)) < 1e-5
    assert modified_are_residual(s, pm.A, pm.C, mom) < 1e-6


def test_undetectable_pair_rejected():
    # the unstable mode is invisible to a zero output map, so no gain can
    # stabilise the error dynamics
    mom = NoiseSecondMoments.uncorrelated(np.eye(2), np.eye(1), dt=1e-3)
    a = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(ObserverError):
        solve_observer_steady_state(a, np.zeros((1, 2)), mom)


def test_stationarity_residual_at_optimum_and_perturbed():
    pm = build_pendulum()
    mom = NoiseSecondMoments.uncorrelated(5.0 * np.eye(4), 3.0 * np.eye(4), dt=1e-3)
    design = solve_observer_steady_state(pm.A, pm.C, mom)
    assert gain_stationarity_check(design.S, design.L, pm.C, mom) < 1e-10
    bumped = design.L.copy()
    bumped[0, 0] += 0.1
    res = gain_stationarity_check(design.S, bumped, pm.C, mom)
    # the bound is attained with equality for a diagonal Sigma_w
    assert res >= 0.2 * np.min(np.linalg.eigvalsh(mom.sigma_w)) - 1e-12


# ---------------------------------------------------------------------------
# error dynamics
# ---------------------------------------------------------------------------

def test_cost_separation_across_seeds():
    # J(u) decomposes into the estimate's LQR cost plus the error cost;
    # the cross term integral x_hat' Q e averages to zero over seeds
    from roughlq.riccati import solve_care
    from roughlq.sim import SimConfig, StateSpaceModel, integrate

    pm = build_pendulum()
    model = StateSpaceModel(A=pm.A, B=pm.B, C=pm.C, Q=np.eye(4), R=[[1.0]])
    design = solve_care(model.A, model.B, model.Q, model.R)
    dt, horizon, reps = 1e-3, 2.0, 100
    mom = NoiseSecondMoments.uncorrelated(0.09 * np.eye(4), 0.09 * np.eye(4), dt=dt)
    obs = solve_observer_steady_state(model.A, model.C, mom)
    grid = make_grid(dt, horizon)
    noise = NoiseModel.brownian(sigma=0.3)
    cfg = SimConfig(
        model=model, noise_v=noise, noise_w=noise, controller="classical",
        observer_enabled=True, dt=dt, horizon=horizon,
    )
    cross_terms, residuals = [], []
    for seed in range(reps):
        v = sample_path(noise, grid, d=4, seed=3000 + 2 * seed)
        w = sample_path(noise, grid, d=4, seed=3000 + 2 * seed + 1)
        traj = integrate(cfg, v, w, design, observer=obs)
        err = traj.x - traj.xhat
        j_total = np.trapezoid(
            np.einsum("ki,ij,kj->k", traj.x, model.Q, traj.x)
            + np.einsum("ki,ij,kj->k", traj.u_sat, model.R, traj.u_sat),
            traj.t,
        )
        j_lqr = np.trapezoid(
            np.einsum("ki,ij,kj->k", traj.xhat, model.Q, traj.xhat)
            + np.einsum("ki,ij,kj->k", traj.u_sat, model.R, traj.u_sat),
            traj.t,
        )
        j_err = np.trapezoid(np.einsum("ki,ij,kj->k", err, model.Q, err), traj.t)
        cross = np.trapezoid(np.einsum("ki,ij,kj->k", traj.xhat, model.Q, err), traj.t)
        cross_terms.append(cross)
        residuals.append(j_total - (j_lqr + j_err) - 2.0 * cross)
    # the decomposition is exact up to the cross term (algebraic identity)
    assert np.max(np.abs(residuals)) < 1e-10 * max(1.0, j_total)
    cross_terms = np.asarray(cross_terms)
    se = cross_terms.std(ddof=1) / np.sqrt(reps)
    assert abs(cross_terms.mean()) < 3.0 * se


def _error_step(a, l_gain, c, e, dv, dw, dt):
    # one step of the error recursion, as a batch of one
    out = simulate_error_process(a, l_gain, c, dv[None, None], dw[None, None], dt, e0=e)
    return out[0, 1]


def test_error_process_matches_step_formula():
    # the banded solve against e[k+1] = (I + (A - LC) dt) e[k] + dv[k] - L dw[k],
    # stepped one row at a time, on three replications with a nonzero start
    pm = build_pendulum()
    mom = NoiseSecondMoments.uncorrelated(0.04 * np.eye(4), 0.04 * np.eye(4), dt=1e-3)
    l_gain = solve_observer_steady_state(pm.A, pm.C, mom).L
    dt, reps, n_steps = 1e-3, 3, 5000
    rng = np.random.Generator(np.random.PCG64(11))
    v_incs = 0.05 * rng.standard_normal((reps, n_steps, 4))
    w_incs = 0.05 * rng.standard_normal((reps, n_steps, 4))
    e0 = np.array([0.2, -0.1, 0.0, 0.3])
    err = simulate_error_process(pm.A, l_gain, pm.C, v_incs, w_incs, dt, e0=e0)
    step = np.eye(4) + (pm.A - l_gain @ pm.C) * dt
    ref = np.empty((reps, n_steps + 1, 4))
    ref[:, 0] = e0
    for k in range(n_steps):
        ref[:, k + 1] = ref[:, k] @ step.T + v_incs[:, k] - w_incs[:, k] @ l_gain.T
    scale = max(1.0, float(np.max(np.abs(ref))))
    np.testing.assert_allclose(err, ref, rtol=0.0, atol=1e-12 * scale)


def test_error_step_equilibrium_and_open_loop():
    a = np.array([[0.0, 1.0], [-2.0, -1.0]])
    zero = np.zeros(2)
    assert np.allclose(_error_step(a, np.zeros((2, 2)), np.eye(2), zero, zero, zero, 0.01), zero)
    e = np.array([1.0, -1.0])
    dv = np.array([0.1, 0.2])
    out = _error_step(a, np.zeros((2, 2)), np.eye(2), e, dv, zero, 0.01)
    assert np.allclose(out, e + a @ e * 0.01 + dv)


def test_error_step_richardson_order():
    # half-step/full-step comparison on smooth forcing: O(dt^2) locally
    a = np.array([[0.0, 1.0], [-2.0, -1.0]])
    l_gain = 0.5 * np.eye(2)
    c = np.eye(2)
    e0 = np.array([0.3, -0.2])
    errs = []
    for dt in (0.02, 0.01):
        full = simulate_error_process(a, l_gain, c, np.zeros((1, 1, 2)), np.zeros((1, 1, 2)), dt, e0=e0)
        half = simulate_error_process(a, l_gain, c, np.zeros((1, 2, 2)), np.zeros((1, 2, 2)), dt / 2, e0=e0)
        errs.append(np.linalg.norm(full[0, -1] - half[0, -1]))
    order = np.log2(errs[0] / errs[1])
    assert order > 1.8


def test_empirical_orthogonality_and_gain_optimality_smoke():
    # under independent-increment noise the design is the exact minimum-MSE
    # filter: the error is orthogonal to strictly-past innovation
    # increments, and entrywise gain perturbations cannot reduce the
    # steady error trace beyond Monte-Carlo noise
    pm = build_pendulum()
    dt, horizon, reps = 1e-3, 2.0, 120
    grid = make_grid(dt, horizon)
    model = NoiseModel.brownian()
    v_incs, w_incs = _joint_increments(model, model, grid, reps=reps, d=4)
    mom = estimate_second_moments(v_incs, w_incs, dt)
    design = solve_observer_steady_state(pm.A, pm.C, mom)

    err = simulate_error_process(pm.A, design.L, pm.C, v_incs, w_incs, dt)
    half = err.shape[1] // 2
    steady = err[:, half:-1]

    # projection property: E[e_{k+1} (x) dnu_k] ~ 0 entrywise within 3 SE,
    # where dnu_k = C e_k dt + dw_k is the innovation increment
    e_next = err[:, half + 1 :]
    dnu = steady @ pm.C.T * dt + w_incs[:, half:]
    outer = np.einsum("rki,rkj->rij", e_next, dnu) / steady.shape[1]
    mean = outer.mean(axis=0)
    se = outer.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(mean) < 3.0 * se + 1e-12)

    base = np.einsum("rki,rki->r", steady, steady) / steady.shape[1]
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(4):
        i, j = rng.integers(0, 4, size=2)
        for sign in (1.0, -1.0):
            pert = design.L.copy()
            pert[i, j] += sign * 1e-2
            err_p = simulate_error_process(pm.A, pert, pm.C, v_incs, w_incs, dt)
            steady_p = err_p[:, half:-1]
            diff = np.einsum("rki,rki->r", steady_p, steady_p) / steady_p.shape[1] - base
            se_diff = diff.std(ddof=1) / np.sqrt(reps)
            assert diff.mean() > -3.0 * se_diff
