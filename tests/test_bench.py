import numpy as np
import pytest

from roughlq import bench
from roughlq.noise import CHOLESKY_MAX_N, make_grid, sample_paths
from roughlq.observer import MIN_REPLICATIONS, estimate_second_moments
from roughlq.sim import SimError, integrate

#: one classical full-state run of 100 steps
SMALL = {"run": {"observer": "fullstate"}, "simulate": {"horizon": "0.1"}}


def _raising(exc):
    def integrate(*args, **kwargs):
        raise exc

    return integrate


def test_programming_error_in_a_run_propagates(monkeypatch):
    monkeypatch.setattr(bench, "integrate", _raising(TypeError("shape bug")))
    with pytest.raises(TypeError, match="shape bug"):
        bench.run_comparison("fbm035", controllers=["classical"], seeds=[0], overrides=SMALL)


@pytest.mark.parametrize(
    "exc", [np.linalg.LinAlgError("singular matrix"), FloatingPointError("overflow")]
)
def test_numeric_failure_in_a_run_is_booked_as_divergence(monkeypatch, exc):
    monkeypatch.setattr(bench, "integrate", _raising(exc))
    report = bench.run_comparison("fbm035", controllers=["classical"], seeds=[0], overrides=SMALL)
    (record,) = report.records
    assert record.diverged
    assert record.t_diverge == 0.0
    assert record.mean_cost == float("inf")


def test_runs_csv_round_trips_through_load_report(monkeypatch, tmp_path):
    # seed 1 fails numerically and is booked as the failure row
    real = bench.integrate

    def fail_seed_1(run, *args, **kwargs):
        if args[0].seed == 1:  # the process-noise path of run seed 1
            raise FloatingPointError("overflow")
        return real(run, *args, **kwargs)

    monkeypatch.setattr(bench, "integrate", fail_seed_1)
    report = bench.run_comparison("fbm035", seeds=[0, 1], overrides=SMALL, out_dir=tmp_path)
    failed = [r for r in report.records if r.seed == 1]
    assert failed and all(r.t_diverge == 0.0 and r.mean_cost == float("inf") for r in failed)
    # dataclass equality compares the records field for field
    assert bench.load_report(tmp_path).records == report.records


@pytest.mark.parametrize("predictor, glq_reads", [("pathwise", "v:anticipative"), ("gaussian", "v:causal")])
def test_runs_record_what_each_correction_reads(tmp_path, predictor, glq_reads):
    # observer-mode glq reads the true v as well, so both modes name v
    overrides = {"simulate": {"horizon": "0.1", "predictor": predictor}}
    report = bench.run_comparison("fbm035", seeds=[0], overrides=overrides, out_dir=tmp_path)
    expected = {"classical": "none", "glq": glq_reads}
    assert {(r.controller, r.mode): r.information for r in report.records} == {
        (controller, mode): expected[controller] for controller in expected for mode in ("fullstate", "observer")
    }
    assert bench.load_report(tmp_path).records == report.records
    summary = (tmp_path / "summary.txt").read_text().splitlines()
    for controller, mode in report.aggregates:
        assert f"{controller}.{mode}.information = {expected[controller]}" in summary


def test_repeated_seed_is_a_config_error(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(bench.ConfigError, match="seed 1 is listed more than once"):
        bench.run_comparison("fbm035", seeds=[1, 1], out_dir=out)
    assert not out.exists()


@pytest.mark.parametrize(
    "kwargs, error, message",
    [
        pytest.param({"seeds": [-1]}, bench.ConfigError, "seeds must be non-negative, got -1", id="negative-seed"),
        pytest.param(
            {"seeds": [0], "controllers": ["glq", "glq"]},
            bench.ConfigError,
            "controller glq is listed more than once",
            id="repeated-controller",
        ),
        pytest.param(
            {"seeds": [0], "controllers": ["bogus"]}, SimError, "unknown controller 'bogus'", id="unknown-controller"
        ),
        pytest.param(
            {"scenario": "stable15", "seeds": [0], "overrides": {"simulate": {"predictor": "gaussian"}}},
            SimError,
            "the gaussian predictor needs Gaussian process noise",
            id="gaussian-predictor-on-stable-noise",
        ),
    ],
)
def test_run_list_is_checked_before_out_is_created(tmp_path, kwargs, error, message):
    out = tmp_path / "out"
    with pytest.raises(error, match=message):
        bench.run_comparison(**{"scenario": "fbm035", "out_dir": out, **kwargs})
    assert not out.exists()


def test_classical_run_ignores_the_predictor():
    # only glq reads the predictor, so a classical-only stable15 run with
    # the gaussian predictor configured still runs
    overrides = {"run": {"observer": "fullstate"}, "simulate": {"horizon": "0.1", "predictor": "gaussian"}}
    report = bench.run_comparison("stable15", controllers=["classical"], seeds=[0], overrides=overrides)
    assert [(r.controller, r.mode, r.seed) for r in report.records] == [("classical", "fullstate", 0)]


@pytest.mark.parametrize("scenario", sorted(bench.SCENARIOS))
def test_shipped_scenarios_clip_as_their_process_noise_decides(monkeypatch, scenario):
    # each shipped scenario's two noises are of one kind, so clipping when
    # either noise is heavy-tailed forms the moments the process noise
    # alone decided before, bit for bit
    drawn = []

    def capture(inc_v, inc_w, dt, **kwargs):
        drawn.append((inc_v, inc_w, dt))
        return estimate_second_moments(inc_v, inc_w, dt, **kwargs)

    monkeypatch.setattr(bench, "estimate_second_moments", capture)
    run = bench.sim_template(bench.scenario_config(scenario))
    _, moments = bench._observer_design_for(run.model, run.noise_v, run.noise_w, bench._moment_grid(run.dt))
    heavy = run.noise_v.kind == "stable" and run.noise_v.alpha < 2.0
    assert heavy == (scenario == "stable15")
    expected = estimate_second_moments(*drawn[0], truncate_quantile=bench.HEAVY_TAIL_QUANTILE if heavy else None)
    assert moments.truncation == expected.truncation
    for name in ("sigma_v", "sigma_w", "r_vw"):
        assert np.array_equal(getattr(moments, name), getattr(expected, name))


def _noises(scenario):
    run = bench.sim_template(bench.scenario_config(scenario))
    return run.noise_v, run.noise_w


@pytest.mark.parametrize(
    "noise_v, noise_w, steps, reps",
    [
        (*_noises("fbm035"), 2000, bench.MOMENT_REPLICATIONS),
        (*_noises("stable15"), 2000, bench.MOMENT_REPLICATIONS),
        (_noises("stable15")[0], _noises("fbm035")[1], 2000, bench.MOMENT_REPLICATIONS),
        (*_noises("fbm035"), CHOLESKY_MAX_N + 52, MIN_REPLICATIONS),
    ],
    ids=["fbm035", "stable15", "stable-v-fbm-w", "davies-harte"],
)
def test_observer_moments_match_stacked_path_increments(noise_v, noise_w, steps, reps):
    # the oracle: the moments of the increments of the sampled paths, which
    # differ from the draw core's increments by the cumsum and diff rounding
    model = bench.build_state_space([1, 1, 1, 1], 1)
    grid = make_grid(1e-3, steps * 1e-3)
    seed = bench.MOMENT_SEED
    _, moments = bench._observer_design_for(model, noise_v, noise_w, grid, replications=reps)
    paths_v = sample_paths(noise_v, grid, 4, [seed + 2 * j for j in range(reps)])
    paths_w = sample_paths(noise_w, grid, 4, [seed + 2 * j + 1 for j in range(reps)])
    heavy = "stable" in (noise_v.kind, noise_w.kind)
    oracle = estimate_second_moments(
        np.stack([p.increments for p in paths_v]),
        np.stack([p.increments for p in paths_w]),
        1e-3,
        truncate_quantile=bench.HEAVY_TAIL_QUANTILE if heavy else None,
    )
    assert (moments.truncation is not None) == heavy
    if noise_v.kind == noise_w.kind:
        assert moments.truncation == oracle.truncation
    else:
        # the clip level interpolates two order statistics of |increments|:
        # where the oracle's cumsum and diff rounded one of them, the level
        # moves by that rounding (one ulp for the mix)
        assert moments.truncation == pytest.approx(oracle.truncation, rel=1e-13, abs=0.0)
    assert moments.n_samples == oracle.n_samples == reps * steps
    for name in ("sigma_v", "sigma_w", "r_vw"):
        got, want = getattr(moments, name), getattr(oracle, name)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), name


def test_full_state_runs_draw_no_measurement_noise(monkeypatch):
    seeds = []
    real = bench.sample_path

    def counted(model, grid, d, seed):
        seeds.append(seed)
        return real(model, grid, d=d, seed=seed)

    monkeypatch.setattr(bench, "sample_path", counted)
    report = bench.run_comparison("fbm035", controllers=["classical"], seeds=[0, 1], overrides=SMALL)
    assert seeds == [0, 1]  # the process streams only
    # the runs equal those given the measurement noise as well
    run = bench.sim_template(bench.scenario_config("fbm035", SMALL))
    design = bench.solve_care(run.model.A, run.model.B, run.model.Q, run.model.R)
    for record, seed in zip(report.records, [0, 1]):
        traj = integrate(run, *bench.noise_paths(run, seed), design)
        assert record.mean_cost == bench.average_cost(traj)


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("scenario", ["fbm035", "stable15"])
def test_one_correction_series_per_seed(monkeypatch, tmp_path, scenario):
    # the glq runs of both modes read the same series: built once per seed,
    # the report and every file under --out equal those of a series per run
    from roughlq import sim

    calls = []
    real_series = sim.pathwise_correction_series

    def counted(*args, **kwargs):
        calls.append(1)
        return real_series(*args, **kwargs)

    monkeypatch.setattr(sim, "pathwise_correction_series", counted)
    shared = bench.run_comparison(scenario, seeds=[0, 1, 2], out_dir=tmp_path / "shared")
    assert len(calls) == 3

    # no shared series: each run's integrate builds its own
    monkeypatch.setattr(bench, "_correction_series", lambda *args: None)
    alone = bench.run_comparison(scenario, seeds=[0, 1, 2], out_dir=tmp_path / "alone")
    assert len(calls) == 3 + 6
    assert shared.records == alone.records
    assert repr(shared.aggregates) == repr(alone.aggregates)  # NaN where no run diverged
    assert _tree(tmp_path / "shared") == _tree(tmp_path / "alone")


def test_integrate_checks_a_given_correction_series():
    run = bench.sim_template(bench.scenario_config("fbm035", SMALL))
    design = bench.solve_care(run.model.A, run.model.B, run.model.Q, run.model.R)
    v, w = bench.noise_paths(run, 0)
    series = np.zeros((run.grid().size, 4))
    with pytest.raises(SimError, match="classical run reads no correction series"):
        integrate(run, v, w, design, v_correction=series)
    glq = bench.replace(run, controller="glq")
    with pytest.raises(SimError, match="correction series must have shape"):
        integrate(glq, v, w, design, v_correction=series[1:])
    given = integrate(glq, v, w, design, v_correction=series)
    assert np.array_equal(given.v_correction, series)
