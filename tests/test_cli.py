import filecmp
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from roughlq import bench
from roughlq.bench import SCENARIOS, run_comparison, scenario_config
from roughlq.cli import main
from roughlq.config import ConfigError, format_config, parse_config
from roughlq.observer import ObserverError


def test_config_parser_round_trip():
    text = "\n".join(
        [
            "[run]",
            "scenario = fbm035",
            "seeds = 0:4",
            "",
            "[simulate]",
            "dt = 0.002  # comment",
            "horizon = 5.0",
        ]
    )
    cfg = parse_config(text)
    assert cfg["run"]["scenario"] == "fbm035"
    assert cfg["simulate"]["dt"] == "0.002"
    again = parse_config(format_config(cfg))
    assert again == cfg


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[simulate]\ntypo_key = 3\n")
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[nope]\ndt = 3\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("[simulate]\ndt = 1\ndt = 2\n")


@pytest.mark.parametrize("key", ["seed", "workers"])
def test_config_unread_run_keys_rejected(key):
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(f"[run]\n{key} = 4\n")


@pytest.mark.parametrize("key", ["xhat0", "observer", "correction_horizon", "predictor_window"])
def test_config_unread_simulate_keys_rejected(key):
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(f"[simulate]\n{key} = 4\n")


def test_scenario_key_must_match_scenario():
    assert scenario_config("fbm035", {"run": {"scenario": "fbm035"}})["run"]["scenario"] == "fbm035"
    with pytest.raises(ConfigError, match="contradicts"):
        scenario_config("fbm035", {"run": {"scenario": "stable15"}})


def test_compare_rejects_simulate_controller():
    with pytest.raises(ConfigError, match="controller"):
        run_comparison("fbm035", seeds=[], overrides={"simulate": {"controller": "glq"}})


def test_cli_simulate_rejects_run_section(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nseeds = 0:2\n")
    assert main(["simulate", "--config", str(cfg), "--horizon", "0.5", "--out", str(tmp_path / "out")]) == 2
    assert "[run]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["care", "--seed", "5", "--dt", "7", "--horizon", "3", "--config", "/nonexistent"],
        ["plot-data", "--report", "r", "--out", "o", "--seed", "1"],
        ["plot-data", "--report", "r", "--out", "o", "--config", "c.cfg"],
        ["observer", "--horizon", "3"],
        ["observer", "--config", "c.cfg"],
        ["compare", "--scenario", "fbm035", "--out", "o", "--seed", "1"],
        ["noise-gen", "--out", "o", "--config", "c.cfg"],
        ["lift-check", "--config", "c.cfg"],
        ["observer", "--r", "2"],
        ["observer", "--q-diag", "1,1,1,1"],
    ],
)
def test_cli_flags_a_subcommand_does_not_read_are_rejected(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["simulate", "--controller", "glq", "--predictor", "zero_mean", "--horizon", "0.1"], 2),
        (["simulate", "--controller", "glq", "--predictor", "gaussian", "--kind", "stable", "--horizon", "0.1"], 2),
        (["observer", "--replications", "100", "--moment-horizon", "0.1", "--dt", "0.01"], 3),
        (["observer", "--replications", "50", "--moment-horizon", "0.1", "--dt", "0.01"], 2),
        (["simulate", "--horizon", "0.1", "--sat", "nan"], 2),
        (["simulate", "--dt", "nan"], 2),
        (["simulate", "--horizon", "inf"], 2),
        (["simulate", "--horizon", "0.1", "--x0", "0,0"], 2),
        (["simulate", "--horizon", "0.1", "--sigma", "nan"], 2),
        (["simulate", "--horizon", "0.1", "--kind", "stable", "--gamma", "nan"], 2),
        (["simulate", "--horizon", "0.1", "--kind", "stable", "--delta", "inf"], 2),
        (["noise-gen", "--dt", "nan"], 2),
        (["observer", "--dt", "nan"], 2),
        (["lift-check", "--horizon", "inf"], 2),
        (["care", "--r", "nan"], 2),
        (["simulate", "--horizon", "0.1", "--x0", "nan,0,0,0"], 2),
        (["lift-check", "--triples", "-5"], 2),
        (["compare", "--scenario", "fbm035", "--seeds", "5:2"], 2),
        pytest.param(["compare", "--scenario", "fbm035", "--seeds", "0,0"], 2, id="compare-repeated-seed"),
        pytest.param(["compare", "--scenario", "fbm035", "--seeds", "-1"], 2, id="compare-negative-seed"),
        pytest.param(["compare", "--scenario", "fbm035", "--seeds=-3:-1"], 2, id="compare-negative-seed-range"),
        pytest.param(
            ["compare", "--scenario", "fbm035", "--seeds", "0", "--controllers", "glq,glq"],
            2,
            id="compare-repeated-controller",
        ),
        pytest.param(["compare", "--scenario", "fbm035", "--controllers", "bogus"], 2, id="compare-unknown-controller"),
        pytest.param(["compare", "--scenario", "fbm035", "--controllers", "glq,"], 2, id="compare-empty-controller"),
        pytest.param(
            ["compare", "--scenario", "fbm035", "--seeds", "0", "--controllers", ","],
            2,
            id="compare-only-empty-controllers",
        ),
        pytest.param(["simulate", "--seed", "-1"], 2, id="simulate-negative-seed"),
        pytest.param(["noise-gen", "--seed", "-1"], 2, id="noise-gen-negative-seed"),
        pytest.param(["lift-check", "--seed", "-1"], 2, id="lift-check-negative-seed"),
        pytest.param(["observer", "--seed", "-1"], 2, id="observer-negative-seed"),
        pytest.param(
            ["compare", "--scenario", "stable15", "--seeds", "0", "--horizon", "0.1", "--config", "gaussian.cfg"],
            2,
            id="compare-gaussian-predictor-on-stable-noise",
        ),
        pytest.param(["care", "--r", "0"], 2, id="care-r-not-positive-definite"),
        pytest.param(["care", "--q-diag=-1,1,1,1"], 2, id="care-q-not-semidefinite"),
        pytest.param(["care", "--q-diag", "1,x,1,1"], 2, id="care-q-diag-not-a-number"),
        pytest.param(["care", "--q-diag", "0,1,1,1"], 2, id="care-q-undetectable"),
        pytest.param(["simulate", "--horizon", "0.1", "--q-diag", "0,1,1,1"], 2, id="simulate-q-undetectable"),
        pytest.param(["simulate", "--horizon", "0.1", "--x0", "0,,0,0,0"], 2, id="simulate-x0-empty-entry"),
        pytest.param(
            ["compare", "--scenario", "fbm035", "--seeds", "0", "--horizon", "0.1", "--r", "0"],
            2,
            id="compare-r-not-positive-definite",
        ),
        pytest.param(
            ["compare", "--scenario", "fbm035", "--seeds", "0", "--horizon", "0.1", "--q-diag", "0,1,1,1"],
            2,
            id="compare-q-undetectable",
        ),
    ],
)
def test_cli_package_errors_map_to_exit_codes(tmp_path, monkeypatch, argv, code):
    # an unknown predictor or one the noise does not admit, a SimError, a
    # NoiseError, too few observer replications, a non-finite grid, plant
    # weight or initial state, an indefinite or undetectable plant weight,
    # a malformed number list, a negative triple count, an empty seed
    # range, a repeated or negative seed and a repeated, unknown or empty
    # controller (an empty entry is refused before the repeat check, so
    # "," is not reported as a repeat) are config errors; an ObserverError
    # from the observer solve, made to fail here, is a numeric failure
    def failing_solve(*args, **kwargs):
        raise ObserverError("no stabilising solution")

    monkeypatch.setattr(bench, "solve_observer_steady_state", failing_solve)
    monkeypatch.chdir(tmp_path)
    Path("gaussian.cfg").write_text("[simulate]\npredictor = gaussian\n")
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == code
    if argv[0] == "compare":
        # a rejected run list is caught before --out is created
        assert not out.exists()


@pytest.mark.parametrize("entries", [",", "glq,", ",classical"])
def test_cli_compare_names_an_empty_controller_entry(tmp_path, capsys, entries):
    out = tmp_path / "out"
    argv = ["compare", "--scenario", "fbm035", "--seeds", "0", "--controllers", entries, "--out", str(out)]
    assert main(argv) == 2
    assert "config error: [run] controllers has an empty entry" in capsys.readouterr().err
    assert not out.exists()


def test_cli_unknown_config_key_exits_2(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[simulate]\nnot_a_key = 1\n")
    code = main(
        [
            "simulate",
            "--config",
            str(bad),
            "--out",
            str(tmp_path / "out"),
            "--horizon",
            "0.5",
        ]
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--horizon", "0.5", "--config", "MISSING", "--out", "OUT"],
        ["compare", "--scenario", "fbm035", "--seeds", "0", "--config", "MISSING", "--out", "OUT"],
        ["lift-check", "--in", "MISSING"],
        ["plot-data", "--report", "MISSING", "--out", "OUT"],
    ],
    ids=["simulate", "compare", "lift-check", "plot-data"],
)
def test_cli_missing_config_file_exits_2(tmp_path, capsys, argv):
    where = {"MISSING": str(tmp_path / "missing.cfg"), "OUT": str(tmp_path / "out")}
    assert main([where.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "missing.cfg" in err
    assert not (tmp_path / "out").exists()


_RUNS_HEADER = (
    "scenario,controller,mode,information,seed,diverged,t_diverge,mean_cost,"
    "final_norm,final_angle_deg,sat_duty,max_u_raw,trajectory_file\n"
)


@pytest.mark.parametrize(
    "argv, files, where",
    [
        (["lift-check", "--in", "BAD/f.csv"], {"f.csv": "t,v1\n0,0\nabc,1\n"}, "grid must be finite"),
        (
            ["lift-check", "--in", "BAD/f.csv", "--triples", "50"],
            {"f.csv": "t,v1\n0,0\n0.1,abc\n0.2,1\n"},
            "path values must be finite",
        ),
        (
            ["plot-data", "--report", "BAD", "--out", "OUT"],
            {"runs.csv": _RUNS_HEADER + "fbm035,glq\n"},
            "runs.csv line 2: expected 13 fields, got 2",
        ),
        (
            ["plot-data", "--report", "BAD", "--out", "OUT"],
            {"runs.csv": _RUNS_HEADER + "fbm035,glq,fullstate,v:anticipative,0,0,,1,1,1,1,1,a.csv\n"
             + "fbm035,glq,fullstate,v:anticipative,x,0,,1,1,1,1,1,b.csv\n"},
            "runs.csv line 3:",
        ),
    ],
    ids=["lift-check-nan-grid", "lift-check-nan-value", "plot-data-short-row", "plot-data-non-numeric"],
)
def test_cli_malformed_input_file_exits_2(tmp_path, capsys, argv, files, where):
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "config_echo.cfg").write_text("[run]\nscenario = fbm035\n")
    for name, text in files.items():
        (bad / name).write_text(text)
    argv = [a.replace("BAD", str(bad)).replace("OUT", str(tmp_path / "out")) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and where in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, text, where",
    [
        (["compare", "--scenario", "fbm035"], "[run]\nobserver = bogus\n", "[run] observer = 'bogus'"),
        (["compare", "--scenario", "fbm035"], "[noise]\nhurst = abc\n", "[noise] hurst = 'abc'"),
        (["simulate", "--horizon", "0.5"], "[noise]\nhurst = abc\n", "[noise] hurst = 'abc'"),
    ],
    ids=["compare-observer", "compare-hurst", "simulate-hurst"],
)
def test_cli_bad_config_value_exits_2(tmp_path, capsys, argv, text, where):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and where in err
    assert not (tmp_path / "out").exists()  # nothing is written before the config is checked


def test_zero_work_calls_stay_legal(capsys):
    # no triples and no seeds are empty runs, not config errors
    assert main(["lift-check", "--dt", "0.1", "--horizon", "1.0", "--triples", "0"]) == 0
    assert "over 0 random triples" in capsys.readouterr().out
    report = run_comparison("fbm035", controllers=["glq"], seeds=[], overrides={"run": {"observer": "fullstate"}})
    assert report.records == []


def test_cli_lift_check_short_path_has_no_holder_estimate(capsys):
    # 10 steps: too short for the regularity estimate, which is reported
    assert main(["lift-check", "--dt", "0.1", "--horizon", "1.0", "--triples", "5"]) == 0
    assert "holder_estimate unavailable: need at least 64 steps" in capsys.readouterr().out


def test_cli_lift_check_writes_the_lift(tmp_path, capsys):
    # a 2-d path of 10 steps: one row per step, and each area is half the
    # outer product of its increment, exactly on the values read back
    out = tmp_path / "out"
    assert main(["lift-check", "--dt", "0.1", "--horizon", "1.0", "--dim", "2", "--triples", "0", "--out", str(out)]) == 0
    assert f"wrote {out / 'lift.csv'}" in capsys.readouterr().out
    lines = (out / "lift.csv").read_text().splitlines()
    assert lines[0] == "k,dx1,dx2,xx11,xx12,xx21,xx22"
    table = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    assert table.shape == (10, 7)
    assert np.array_equal(table[:, 0], np.arange(10))
    dx, xx = table[:, 1:3], table[:, 3:].reshape(10, 2, 2)
    assert np.array_equal(xx, 0.5 * dx[:, :, None] * dx[:, None, :])


def test_cli_lift_check_reports_a_nan_defect(monkeypatch, capsys):
    import roughlq.cli

    real = roughlq.cli.chen_defect
    calls = []

    def one_nan(rough, s, u, t):
        calls.append(None)
        return float("nan") if len(calls) == 2 else real(rough, s, u, t)

    monkeypatch.setattr(roughlq.cli, "chen_defect", one_nan)
    assert main(["lift-check", "--dt", "0.01", "--horizon", "1.0", "--triples", "5"]) == 0
    assert "max_chen_defect = nan over 5 random triples" in capsys.readouterr().out


def test_cli_lift_check_programming_error_propagates(monkeypatch):
    import roughlq.cli

    def broken(path):
        raise TypeError("broken estimator")

    monkeypatch.setattr(roughlq.cli, "holder_estimate", broken)
    with pytest.raises(TypeError, match="broken estimator"):
        main(["lift-check", "--dt", "0.01", "--horizon", "1.0", "--triples", "5"])


def test_cli_care_writes_design(tmp_path, capsys):
    code = main(["care", "--out", str(tmp_path)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "care_residual" in printed
    p = np.loadtxt(tmp_path / "P.csv", delimiter=",")
    assert p.shape == (4, 4)
    assert np.allclose(p, p.T)


def test_cli_noise_gen_deterministic(tmp_path):
    args = [
        "noise-gen", "--kind", "fbm", "--hurst", "0.4", "--dim", "2",
        "--dt", "0.01", "--horizon", "0.5", "--seed", "3",
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a/noise.csv").read_bytes() == (tmp_path / "b/noise.csv").read_bytes()


def test_cli_simulate_exit_codes(tmp_path):
    ok = main(
        [
            "simulate", "--controller", "glq", "--kind", "fbm", "--hurst", "0.35",
            "--sigma", "0.2", "--horizon", "1.0", "--out", str(tmp_path / "ok"),
        ]
    )
    assert ok == 0
    assert (tmp_path / "ok/trajectory.csv").exists()
    assert (tmp_path / "ok/correction.csv").exists()

    # heavy noise with a tiny saturation bound cannot hold the plant
    bad = main(
        [
            "simulate", "--controller", "classical", "--kind", "fbm", "--hurst", "0.35",
            "--sigma", "50", "--sat", "1", "--horizon", "10.0", "--out", str(tmp_path / "bad"),
        ]
    )
    assert bad == 3
    summary = (tmp_path / "bad/summary.txt").read_text()
    assert "diverged = 1" in summary


def test_cli_simulate_config_echo_round_trip(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "[model]\nq_diag = 1,1,1,1\nr = 1\n[simulate]\ndt = 0.002\nhorizon = 1.0\ncontroller = glq\n"
    )
    code = main(
        [
            "simulate", "--config", str(cfg_file), "--kind", "fbm", "--hurst", "0.4",
            "--sigma", "0.1", "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 0
    echoed = (tmp_path / "out/summary.txt").read_text().split("# config echo\n", 1)[1]
    echo_cfg = parse_config(echoed)
    want = parse_config(cfg_file.read_text())

    def same(a, b):
        try:
            return [float(p) for p in a.split(",")] == [float(p) for p in b.split(",")]
        except ValueError:
            return a == b

    for section, kv in want.items():
        for key, value in kv.items():
            assert same(echo_cfg[section][key], value)


def test_cli_simulate_noise_section_applies_and_flags_override_it(tmp_path):
    base = ["simulate", "--seed", "1", "--horizon", "0.5"]
    cfg = tmp_path / "noise.cfg"
    cfg.write_text("[noise]\nkind = stable\nalpha = 1.1\ngamma = 500\n")
    assert main(base + ["--out", str(tmp_path / "default")]) == 0
    main(base + ["--config", str(cfg), "--out", str(tmp_path / "file")])
    main(base + ["--config", str(cfg), "--kind", "fbm", "--out", str(tmp_path / "flag")])
    default = (tmp_path / "default/trajectory.csv").read_bytes()
    assert (tmp_path / "file/trajectory.csv").read_bytes() != default
    assert "kind = stable" in (tmp_path / "file/summary.txt").read_text()
    # --kind fbm wins over the file; alpha and gamma do not act on fBm
    assert (tmp_path / "flag/trajectory.csv").read_bytes() == default


@pytest.mark.parametrize("controller, mode", [("classical", "fullstate"), ("glq", "observer")])
def test_cli_simulate_seed_reproduces_compare_seed(tmp_path, controller, mode):
    cfg = tmp_path / "fbm035.cfg"
    cfg.write_text(format_config({s: kv for s, kv in SCENARIOS["fbm035"].items() if s != "run"}))
    grid = ["--horizon", "0.5"]
    assert main(
        ["compare", "--scenario", "fbm035", "--seeds", "3", "--controllers", controller,
         "--observer", mode, "--out", str(tmp_path / "cmp")] + grid
    ) == 0
    observer = ["--observer"] if mode == "observer" else []
    assert main(
        ["simulate", "--config", str(cfg), "--seed", "3", "--controller", controller,
         "--out", str(tmp_path / "sim")] + grid + observer
    ) == 0
    tag = tmp_path / f"cmp/trajectories/fbm035_{controller}_{mode}_seed003"
    assert (tmp_path / "sim/trajectory.csv").read_bytes() == Path(f"{tag}.csv").read_bytes()
    if controller == "glq":
        assert (tmp_path / "sim/correction.csv").read_bytes() == Path(f"{tag}_correction.csv").read_bytes()


def test_cli_compare_and_plot_data(tmp_path):
    out = tmp_path / "cmp"
    code = main(
        [
            "compare", "--scenario", "stable15", "--seeds", "0:2",
            "--observer", "fullstate", "--out", str(out),
        ]
    )
    assert code == 0
    assert (out / "runs.csv").exists()
    assert (out / "summary.txt").exists()
    assert (out / "config_echo.cfg").exists()

    # every aggregate is recomputable from the stored per-seed CSVs:
    # re-derive one run's saturation duty from its trajectory file
    runs = (out / "runs.csv").read_text().splitlines()
    header = runs[0].split(",")
    row = dict(zip(header, runs[1].split(",")))
    data = np.genfromtxt(out / row["trajectory_file"], delimiter=",", names=True)
    railed = np.abs(np.atleast_1d(data["u_raw"])) >= 1000.0
    norms = np.linalg.norm(
        np.column_stack([np.atleast_1d(data[f"x{i}"]) for i in range(1, 5)]), axis=1
    )
    below = np.nonzero(norms <= 1e3)[0]
    onset = below[-1] if below.size else 0
    duty = float(railed[onset:].mean())
    assert duty == pytest.approx(float(row["sat_duty"]), abs=1e-12)

    code = main(["plot-data", "--report", str(out), "--out", str(out / "figs")])
    assert code == 0
    manifest = (out / "figs/manifest.csv").read_text()
    assert manifest.startswith("file,sha256")
    # 2 controllers x 1 mode x 2 seeds, two files each
    assert len(list((out / "figs").glob("*_states.csv"))) == 4
    assert len(list((out / "figs").glob("*_control.csv"))) == 4

    # reporting convention: figure angles read 180 + deviation degrees
    fig = np.genfromtxt(
        out / "figs" / (Path(row["trajectory_file"]).stem + "_states.csv"),
        delimiter=",",
        names=True,
    )
    dev_deg = np.degrees(np.atleast_1d(data["x2"]))
    assert np.allclose(np.atleast_1d(fig["angle_deg"]), 180.0 + dev_deg, atol=1e-9)


def test_cli_observer_exports(tmp_path, capsys):
    code = main(
        [
            "observer", "--kind", "fbm", "--hurst", "0.35", "--sigma", "1.0",
            "--w-kind", "brownian", "--w-sigma", "1.0",
            "--dt", "0.001", "--moment-horizon", "0.5",
            "--replications", "100", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "replications = 100" in printed  # estimation metadata echoed
    assert "modified_are_residual" in printed
    s = np.loadtxt(tmp_path / "S.csv", delimiter=",")
    sw = np.loadtxt(tmp_path / "sigma_w.csv", delimiter=",")
    assert s.shape == (4, 4) and sw.shape == (4, 4)
    assert np.min(np.linalg.eigvalsh(0.5 * (s + s.T))) > -1e-12
    assert (tmp_path / "L.csv").exists() and (tmp_path / "r_vw.csv").exists()


def test_cli_observer_matches_compare_observer(tmp_path, monkeypatch):
    # `observer` with the fbm035 noise, the compare moment seed, replication
    # count and grid builds the very observer `compare` runs with
    from roughlq import bench

    designs = []
    solve = bench.solve_observer_steady_state

    def capture(*args, **kwargs):
        designs.append(solve(*args, **kwargs))
        return designs[-1]

    monkeypatch.setattr(bench, "solve_observer_steady_state", capture)
    bench.run_comparison("fbm035", seeds=[], overrides={"run": {"observer": "observer"}})
    assert len(designs) == 1
    code = main(
        [
            "observer", "--kind", "fbm", "--hurst", "0.35", "--sigma", "100.0",
            "--w-kind", "fbm", "--w-hurst", "0.35", "--w-sigma", "1.0",
            "--seed", "10000019", "--replications", "120", "--moment-horizon", "2.0",
            "--dt", "0.001", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    assert len(designs) == 2
    s = np.loadtxt(tmp_path / "S.csv", delimiter=",")
    assert np.array_equal(s, designs[0].S)


def test_cli_observer_clips_heavy_tailed_measurement_noise(tmp_path, capsys):
    # Gaussian process noise with stable measurement noise: the raw second
    # moment of the measurement increments does not exist, so both are clipped
    code = main(
        [
            "observer", "--kind", "fbm", "--hurst", "0.35", "--sigma", "100",
            "--w-kind", "stable", "--w-alpha", "1.5", "--moment-horizon", "2", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    (line,) = [line for line in printed.splitlines() if line.startswith("truncation_level = ")]
    level = float(line.split(" = ")[1])
    assert 0.0 < level < np.inf
    # no clipped increment exceeds the level, so neither does a sample second moment
    sigma_w = np.loadtxt(tmp_path / "sigma_w.csv", delimiter=",")
    assert np.max(np.diag(sigma_w)) <= level**2 / 0.001


def test_plot_data_empty_report(tmp_path):
    from roughlq.bench import ExperimentReport, emit_plot_data
    from roughlq.config import parse_config

    report = ExperimentReport(
        scenario="fbm035",
        records=[],
        config=parse_config("[run]\nscenario = fbm035\n"),
        out_dir=str(tmp_path),
    )
    rows = emit_plot_data(report, tmp_path / "figs")
    assert rows == []
    manifest = (tmp_path / "figs/manifest.csv").read_text()
    assert manifest.startswith("file,sha256")  # header only, no data files


def test_plot_data_manifest_hash_stable(tmp_path):
    out = tmp_path / "cmp"
    assert main(
        [
            "compare", "--scenario", "stable15", "--seeds", "0:2",
            "--observer", "fullstate", "--horizon", "2.0", "--out", str(out),
        ]
    ) == 0
    assert main(["plot-data", "--report", str(out), "--out", str(tmp_path / "f1")]) == 0
    assert main(["plot-data", "--report", str(out), "--out", str(tmp_path / "f2")]) == 0
    m1 = (tmp_path / "f1/manifest.csv").read_bytes()
    m2 = (tmp_path / "f2/manifest.csv").read_bytes()
    assert m1 == m2


def test_cli_compare_determinism_small(tmp_path):
    args = [
        "compare", "--scenario", "fbm035", "--seeds", "0:2", "--observer",
        "fullstate", "--horizon", "2.0",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    cmp = filecmp.dircmp(a, b)

    def tree_equal(c):
        if c.diff_files or c.left_only or c.right_only or c.funny_files:
            return False
        return all(tree_equal(sub) for sub in c.subdirs.values())

    assert tree_equal(cmp)


def test_console_entry_point_runs():
    # pytest's `pythonpath` setting does not reach a subprocess
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "roughlq.cli", "care"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "care_residual" in proc.stdout
