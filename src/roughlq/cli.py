"""Command-line front end.

Subcommands: ``care``, ``noise-gen``, ``lift-check``, ``observer``,
``simulate``, ``compare``, ``plot-data``.  Exit codes: 0 on success, 2
for configuration errors, 3 for a numeric failure in single-run mode.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .bench import (
    SCENARIOS,
    ExperimentReport,
    RunRecord,
    _moment_grid,
    _noise_from,
    _observer_design_for,
    _parse_floats,
    build_state_space,
    emit_plot_data,
    run_comparison,
)
from .config import ConfigError, format_config, merge, parse_config
from .lift import chen_defect, holder_estimate, lift_piecewise_linear, lift_to_csv
from .noise import NoiseError, make_grid, path_from_csv, path_to_csv, sample_path
from .riccati import RiccatiError, solve_care
from .sim import (
    SimConfig,
    SimError,
    correction_to_csv,
    integrate,
    trajectory_to_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _write_matrix(path: Path, mat: np.ndarray) -> None:
    np.savetxt(path, np.atleast_2d(mat), fmt="%.17g", delimiter=",")


def _add_noise_args(parser, prefix="", default_kind="fbm"):
    flag_prefix = "--" + prefix.replace("_", "-")

    def add(base, **kw):
        parser.add_argument(flag_prefix + base, dest=prefix + base, **kw)

    add("kind", default=default_kind, choices=["fbm", "brownian", "stable"])
    add("hurst", type=float, default=0.35)
    add("sigma", type=float, default=1.0)
    add("alpha", type=float, default=1.5)
    add("beta", type=float, default=0.0)
    add("gamma", type=float, default=1.0)
    add("delta", type=float, default=0.0)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_care(args) -> int:
    model = build_state_space(_parse_floats(args.q_diag), args.r)
    design = solve_care(model.A, model.B, model.Q, model.R)
    print(f"care_residual = {design.care_residual:.17g}")
    print(f"closed_loop_abscissa = {np.max(np.linalg.eigvals(design.A_cl).real):.17g}")
    if args.out:
        out = _out_dir(args)
        _write_matrix(out / "P.csv", design.P)
        _write_matrix(out / "K.csv", design.K)
        _write_matrix(out / "A_cl.csv", design.A_cl)
        print(f"wrote P.csv, K.csv, A_cl.csv under {out}")
    return EXIT_OK


def cmd_noise_gen(args) -> int:
    model = _noise_from(vars(args))
    grid = make_grid(args.dt, args.horizon)
    path = sample_path(model, grid, d=args.dim, seed=args.seed)
    out = _out_dir(args)
    path_to_csv(path, str(out / "noise.csv"))
    print(f"wrote {out / 'noise.csv'} ({path.n_steps} steps, d={path.d})")
    return EXIT_OK


def cmd_lift_check(args) -> int:
    if args.infile:
        path = path_from_csv(args.infile)
    else:
        model = _noise_from(vars(args))
        grid = make_grid(args.dt, args.horizon)
        path = sample_path(model, grid, d=args.dim, seed=args.seed)
    rough = lift_piecewise_linear(path)
    rng = np.random.Generator(np.random.PCG64(args.seed))
    worst = 0.0
    n = rough.n_steps
    for _ in range(args.triples):
        i, u, j = np.sort(rng.integers(0, n + 1, size=3))
        worst = max(worst, chen_defect(rough, rough.t[i], rough.t[u], rough.t[j]))
    print(f"max_chen_defect = {worst:.3e} over {args.triples} random triples")
    try:
        est = holder_estimate(path)
        print(f"holder_estimate = {est:.4f}")
    except Exception as exc:  # short or degenerate paths
        print(f"holder_estimate unavailable: {exc}")
    if args.out:
        out = _out_dir(args)
        lift_to_csv(rough, str(out / "lift.csv"))
        print(f"wrote {out / 'lift.csv'}")
    return EXIT_OK


def cmd_observer(args) -> int:
    model = build_state_space(_parse_floats(args.q_diag), args.r)
    design, moments = _observer_design_for(
        model,
        _noise_from(vars(args)),
        _noise_from(vars(args), prefix="w_"),
        make_grid(args.dt, args.moment_horizon),
        replications=args.replications,
        seed=args.seed,
    )
    print(f"replications = {args.replications}, dt = {args.dt:.17g}, samples = {moments.n_samples}")
    if moments.truncation is not None:
        print(f"truncation_level = {moments.truncation:.17g}")
    print(f"modified_are_residual = {design.residual:.3e}")
    print(f"error_abscissa = {np.max(np.linalg.eigvals(design.A_err).real):.17g}")
    if args.out:
        out = _out_dir(args)
        _write_matrix(out / "S.csv", design.S)
        _write_matrix(out / "L.csv", design.L)
        _write_matrix(out / "sigma_v.csv", moments.sigma_v)
        _write_matrix(out / "sigma_w.csv", moments.sigma_w)
        _write_matrix(out / "r_vw.csv", moments.r_vw)
        print(f"wrote S.csv, L.csv, sigma blocks under {out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    file_cfg = {}
    if args.config:
        file_cfg = parse_config(Path(args.config).read_text())
    q_diag = _parse_floats(file_cfg.get("model", {}).get("q_diag", args.q_diag))
    r = float(file_cfg.get("model", {}).get("r", args.r))
    model = build_state_space(q_diag, r)
    noise_v = _noise_from(vars(args))
    noise_w = _noise_from(vars(args), prefix="w_")
    sim_over = file_cfg.get("simulate", {})
    cfg = SimConfig(
        model=model,
        noise_v=noise_v,
        noise_w=noise_w,
        controller=sim_over.get("controller", args.controller),
        predictor=sim_over.get("predictor", args.predictor),
        observer_enabled=args.observer,
        dt=float(sim_over.get("dt", args.dt)),
        horizon=float(sim_over.get("horizon", args.horizon)),
        saturation=float(sim_over.get("saturation", args.sat)),
        x0=np.array(_parse_floats(sim_over.get("x0", args.x0))),
        seed=args.seed,
    )
    grid = cfg.grid()
    v = sample_path(noise_v, grid, d=model.n, seed=2 * args.seed)
    w = sample_path(noise_w, grid, d=model.p, seed=2 * args.seed + 1)
    observer = None
    if args.observer:
        observer, _ = _observer_design_for(model, noise_v, noise_w, _moment_grid(cfg.dt))
    design = solve_care(model.A, model.B, model.Q, model.R)
    traj = integrate(cfg, v, w, design, observer=observer)
    out = _out_dir(args)
    trajectory_to_csv(traj, str(out / "trajectory.csv"))
    if traj.v_correction is not None:
        correction_to_csv(traj, str(out / "correction.csv"))
    summary = {
        "final_cost": f"{traj.final_cost:.17g}",
        "average_cost": f"{traj.final_cost / float(traj.t[-1]):.17g}",
        "diverged": str(int(traj.diverged)),
        "t_diverge": "" if traj.t_diverge is None else f"{traj.t_diverge:.17g}",
    }
    echo = {
        "model": {"q_diag": ",".join(f"{v:.17g}" for v in q_diag), "r": f"{r:.17g}"},
        "simulate": {
            "controller": cfg.controller,
            "predictor": cfg.predictor,
            "dt": f"{cfg.dt:.17g}",
            "horizon": f"{cfg.horizon:.17g}",
            "saturation": f"{cfg.saturation:.17g}",
        },
    }
    lines = [f"{k} = {v}" for k, v in summary.items()]
    lines += ["", "# config echo", format_config(echo)]
    (out / "summary.txt").write_text("\n".join(lines))
    print(f"diverged = {traj.diverged}; final_cost = {traj.final_cost:.6g}")
    if traj.diverged:
        print(f"t_diverge = {traj.t_diverge}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_compare(args) -> int:
    overrides = {}
    if args.config:
        overrides = parse_config(Path(args.config).read_text())
    flag_over = {}
    if args.q_diag is not None:
        flag_over.setdefault("model", {})["q_diag"] = args.q_diag
    if args.r is not None:
        flag_over.setdefault("model", {})["r"] = str(args.r)
    if args.seeds is not None:
        flag_over.setdefault("run", {})["seeds"] = args.seeds
    if args.controllers is not None:
        flag_over.setdefault("run", {})["controllers"] = args.controllers
    if args.observer is not None:
        flag_over.setdefault("run", {})["observer"] = args.observer
    if args.dt is not None:
        flag_over.setdefault("simulate", {})["dt"] = f"{args.dt:.17g}"
    if args.horizon is not None:
        flag_over.setdefault("simulate", {})["horizon"] = f"{args.horizon:.17g}"
    overrides = merge(overrides, flag_over)
    report = run_comparison(args.scenario, overrides=overrides, out_dir=_out_dir(args))
    for (controller, mode), agg in sorted(report.aggregates.items()):
        print(
            f"{controller:>9s}/{mode:<9s} divergence {agg['divergence_rate']:.2f}"
            f"  median t_div {agg['median_t_diverge']:.3g}"
            f"  survivors' cost {agg['mean_cost_survivors']:.4g}"
        )
    return EXIT_OK


def _load_report(report_dir: Path) -> ExperimentReport:
    cfg = parse_config((report_dir / "config_echo.cfg").read_text())
    rows = (report_dir / "runs.csv").read_text().splitlines()
    records = []
    for line in rows[1:]:
        parts = line.split(",")
        records.append(
            RunRecord(
                scenario=parts[0],
                controller=parts[1],
                mode=parts[2],
                seed=int(parts[3]),
                diverged=bool(int(parts[4])),
                t_diverge=None if parts[5] == "" else float(parts[5]),
                mean_cost=float(parts[6]),
                final_norm=float(parts[7]),
                final_angle_deg=float(parts[8]),
                sat_duty=float(parts[9]),
                max_u_raw=float(parts[10]),
                trajectory_file=parts[11],
            )
        )
    return ExperimentReport(
        scenario=records[0].scenario if records else cfg["run"]["scenario"],
        records=records,
        config=cfg,
        out_dir=str(report_dir),
    )


def cmd_plot_data(args) -> int:
    report = _load_report(Path(args.report))
    rows = emit_plot_data(report, args.out)
    print(f"wrote {len(rows)} figure files + manifest under {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="roughlq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=False, grid_defaults=True):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--dt", type=float, default=1e-3 if grid_defaults else None)
        p.add_argument("--horizon", type=float, default=10.0 if grid_defaults else None)
        p.add_argument("--config", default=None, help="flat key-value config file")
        p.add_argument("--out", default=None, required=out_required, help="output directory")

    p = sub.add_parser("care", help="solve the pendulum Riccati design")
    common(p)
    p.add_argument("--q-diag", default="1,1,1,1")
    p.add_argument("--r", type=float, default=1.0)
    p.set_defaults(func=cmd_care)

    p = sub.add_parser("noise-gen", help="sample a noise path to CSV")
    common(p, out_required=True)
    _add_noise_args(p)
    p.add_argument("--dim", type=int, default=1)
    p.set_defaults(func=cmd_noise_gen)

    p = sub.add_parser("lift-check", help="lift a path and verify its algebra")
    common(p)
    _add_noise_args(p)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--in", dest="infile", default=None, help="CSV path to lift")
    p.add_argument("--triples", type=int, default=200)
    p.set_defaults(func=cmd_lift_check)

    p = sub.add_parser("observer", help="estimate moments and solve the observer design")
    common(p)
    _add_noise_args(p)
    _add_noise_args(p, prefix="w_", default_kind="fbm")
    p.add_argument("--q-diag", default="1,1,1,1")
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--replications", type=int, default=120)
    p.add_argument("--moment-horizon", type=float, default=2.0)
    p.set_defaults(func=cmd_observer)

    p = sub.add_parser("simulate", help="one closed-loop pendulum run")
    common(p, out_required=True)
    _add_noise_args(p)
    _add_noise_args(p, prefix="w_", default_kind="brownian")
    p.add_argument("--q-diag", default="1,1,1,1")
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--controller", default="classical", choices=["classical", "glq"])
    p.add_argument("--predictor", default="pathwise", choices=["pathwise", "gaussian", "zero_mean"])
    p.add_argument("--observer", action="store_true")
    p.add_argument("--sat", type=float, default=1000.0)
    p.add_argument("--x0", default="0,0,0,0")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="run a named comparison scenario")
    common(p, out_required=True, grid_defaults=False)
    p.add_argument("--scenario", required=True, choices=sorted(SCENARIOS))
    p.add_argument("--seeds", default=None, help="e.g. 0:20 or 1,2,3")
    p.add_argument("--controllers", default=None)
    p.add_argument("--observer", default=None, choices=["both", "fullstate", "observer"])
    p.add_argument("--q-diag", default=None)
    p.add_argument("--r", type=float, default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("plot-data", help="emit per-figure CSVs from a report")
    common(p, out_required=True)
    p.add_argument("--report", required=True, help="directory written by compare")
    p.set_defaults(func=cmd_plot_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad flags, matching our config-error code
        return int(exc.code) if exc.code is not None else EXIT_CONFIG
    try:
        return args.func(args)
    except (ConfigError, NoiseError, SimError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RiccatiError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
