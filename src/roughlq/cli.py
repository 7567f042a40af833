"""Command-line front end.

Subcommands: ``care``, ``noise-gen``, ``lift-check``, ``observer``,
``simulate``, ``compare``, ``plot-data``.  Exit codes: 0 on success, 2
for configuration errors, 3 for a numeric failure in single-run mode.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bench import (
    BASE_CONFIG,
    MOMENT_REPLICATIONS,
    SCENARIOS,
    _moment_grid,
    _noise_from,
    _observer_design_for,
    _parse_floats,
    _read,
    build_state_space,
    emit_plot_data,
    load_report,
    noise_paths,
    run_comparison,
    sim_template,
)
from .config import ALLOWED_KEYS, ConfigError, format_config, merge, parse_config
from .control import PredictorError
from .lift import LiftError, chen_defect, holder_estimate, lift_piecewise_linear, lift_to_csv
from .noise import NoiseError, _format_rows, make_grid, path_from_csv, path_to_csv, sample_path
from .observer import MIN_REPLICATIONS, ObserverError
from .pendulum import build_pendulum
from .riccati import RiccatiError, solve_care
from .sim import CONTROLLERS, PREDICTORS, SimError, average_cost, correction_to_csv, integrate, trajectory_to_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

#: what ``simulate`` runs where neither a flag nor the ``--config`` file
#: sets a key (omitted noise keys take the ``bench._noise_from`` defaults)
SIMULATE_BASE = merge(
    BASE_CONFIG, {"noise": {"kind": "fbm", "w_kind": "brownian"}, "simulate": {"controller": "classical"}}
)


def _write_matrix(path: Path, mat: np.ndarray) -> None:
    path.write_text("".join(_format_rows(np.atleast_2d(mat))))


def _add_noise_args(parser, prefix="", default_kind=None):
    """Noise flags; an omitted one takes the ``bench._noise_from`` default."""
    flag_prefix = "--" + prefix.replace("_", "-")
    parser.add_argument(
        flag_prefix + "kind", dest=prefix + "kind", default=default_kind, choices=["fbm", "brownian", "stable"]
    )
    for name in ("hurst", "sigma", "alpha", "beta", "gamma", "delta"):
        parser.add_argument(flag_prefix + name, dest=prefix + name, type=float, default=argparse.SUPPRESS)


def _seed(text: str) -> int:
    """A ``--seed`` value: numpy's seed streams take non-negative integers."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _read_input(flag: str, path: Path, read):
    """``read(path)``, with a file that cannot be read as a :class:`ConfigError`."""
    try:
        return read(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {flag} {path}: {exc.strerror or exc}") from None


def _overrides(args) -> dict:
    """The ``--config`` file, overlaid by the flags given on the command line.

    A flag that sets a config key has the key as its argparse dest and
    defaults to None; ``--scenario`` is checked against ``[run] scenario``.
    """
    cfg = parse_config(_read_input("--config", Path(args.config), Path.read_text)) if args.config else {}
    given = {}
    for section, keys in ALLOWED_KEYS.items():
        for key in keys - {"scenario"}:
            value = getattr(args, key, None)
            if value is not None:
                given.setdefault(section, {})[key] = str(value)
    return merge(cfg, given)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_care(args) -> int:
    model = build_state_space(_read(vars(args), "model", "q_diag", _parse_floats), args.r)
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
    if args.triples < 0:
        raise ConfigError(f"--triples must be at least 0, got {args.triples}")
    if args.infile:
        path = _read_input("--in", Path(args.infile), path_from_csv)
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
        # np.maximum keeps a NaN defect, where max() would drop it
        worst = float(np.maximum(worst, chen_defect(rough, rough.t[i], rough.t[u], rough.t[j])))
    print(f"max_chen_defect = {worst:.3e} over {args.triples} random triples")
    try:
        est = holder_estimate(path)
        print(f"holder_estimate = {est:.4f}")
    except LiftError as exc:  # short or degenerate paths
        print(f"holder_estimate unavailable: {exc}")
    if args.out:
        out = _out_dir(args)
        lift_to_csv(rough, str(out / "lift.csv"))
        print(f"wrote {out / 'lift.csv'}")
    return EXIT_OK


def cmd_observer(args) -> int:
    if args.replications < MIN_REPLICATIONS:
        raise ConfigError(f"--replications must be at least {MIN_REPLICATIONS}, got {args.replications}")
    design, moments = _observer_design_for(
        build_pendulum(),
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
    overrides = _overrides(args)
    if "run" in overrides:
        raise ConfigError("simulate reads no [run] section; its seed is --seed")
    cfg = merge(SIMULATE_BASE, overrides)
    run = replace(sim_template(cfg), observer_enabled=args.observer_enabled)
    model = run.model
    v, w = noise_paths(run, args.seed, measured=run.observer_enabled)
    observer = None
    if run.observer_enabled:
        observer, _ = _observer_design_for(model, run.noise_v, run.noise_w, _moment_grid(run.dt))
    design = solve_care(model.A, model.B, model.Q, model.R)
    traj = integrate(run, v, w, design, observer=observer)
    out = _out_dir(args)
    trajectory_to_csv(traj, str(out / "trajectory.csv"))
    if traj.v_correction is not None:
        correction_to_csv(traj, str(out / "correction.csv"))
    summary = {
        "final_cost": f"{traj.final_cost:.17g}",
        "average_cost": f"{average_cost(traj):.17g}",
        "diverged": str(int(traj.diverged)),
        "t_diverge": "" if traj.t_diverge is None else f"{traj.t_diverge:.17g}",
    }
    lines = [f"{k} = {v}" for k, v in summary.items()]
    lines += ["", "# config echo", format_config(cfg)]
    (out / "summary.txt").write_text("\n".join(lines))
    print(f"diverged = {traj.diverged}; final_cost = {traj.final_cost:.6g}")
    if traj.diverged:
        print(f"t_diverge = {traj.t_diverge}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_compare(args) -> int:
    report = run_comparison(args.scenario, overrides=_overrides(args), out_dir=args.out)
    for (controller, mode), agg in sorted(report.aggregates.items()):
        print(
            f"{controller:>9s}/{mode:<9s} divergence {agg['divergence_rate']:.2f}"
            f"  median t_div {agg['median_t_diverge']:.3g}"
            f"  survivors' cost {agg['mean_cost_survivors']:.4g}"
        )
    return EXIT_OK


def cmd_plot_data(args) -> int:
    report = _read_input("--report", Path(args.report), load_report)
    rows = emit_plot_data(report, args.out)
    print(f"wrote {len(rows)} figure files + manifest under {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="roughlq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, flags, out_required=False, grid=BASE_CONFIG["simulate"]):
        """Add the shared flags named in ``flags`` plus ``--out``; grid flags default from ``grid``."""
        if "seed" in flags:
            p.add_argument("--seed", type=_seed, default=0)
        if "dt" in flags:
            p.add_argument("--dt", type=float, default=grid.get("dt"))
        if "horizon" in flags:
            p.add_argument("--horizon", type=float, default=grid.get("horizon"))
        if "config" in flags:
            p.add_argument("--config", default=None, help="flat key-value config file")
        p.add_argument("--out", default=None, required=out_required, help="output directory")

    # no flag abbreviations: each subcommand takes only the flags it reads,
    # so `compare --seed` is an error, not `--seeds`
    p = sub.add_parser("care", help="solve the pendulum Riccati design", allow_abbrev=False)
    common(p, ())
    p.add_argument("--q-diag", default=BASE_CONFIG["model"]["q_diag"])
    p.add_argument("--r", type=float, default=BASE_CONFIG["model"]["r"])
    p.set_defaults(func=cmd_care)

    p = sub.add_parser("noise-gen", help="sample a noise path to CSV", allow_abbrev=False)
    common(p, ("seed", "dt", "horizon"), out_required=True)
    _add_noise_args(p, default_kind="fbm")
    p.add_argument("--dim", type=int, default=1)
    p.set_defaults(func=cmd_noise_gen)

    p = sub.add_parser("lift-check", help="lift a path and verify its algebra", allow_abbrev=False)
    common(p, ("seed", "dt", "horizon"))
    _add_noise_args(p, default_kind="fbm")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--in", dest="infile", default=None, help="CSV path to lift")
    p.add_argument("--triples", type=int, default=200)
    p.set_defaults(func=cmd_lift_check)

    p = sub.add_parser("observer", help="estimate moments and solve the observer design", allow_abbrev=False)
    common(p, ("seed", "dt"))
    _add_noise_args(p, default_kind="fbm")
    _add_noise_args(p, prefix="w_", default_kind="fbm")
    p.add_argument("--replications", type=int, default=MOMENT_REPLICATIONS)
    p.add_argument("--moment-horizon", type=float, default=2.0)
    p.set_defaults(func=cmd_observer)

    # simulate and compare flags default to None: a flag given on the command
    # line overrides the --config file, which overrides the base
    p = sub.add_parser("simulate", help="one closed-loop pendulum run", allow_abbrev=False)
    common(p, ("seed", "dt", "horizon", "config"), out_required=True, grid={})
    _add_noise_args(p)
    _add_noise_args(p, prefix="w_")
    p.add_argument("--q-diag", default=None)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--controller", default=None, choices=CONTROLLERS)
    p.add_argument("--predictor", default=None, choices=PREDICTORS)
    p.add_argument("--observer", dest="observer_enabled", action="store_true")
    p.add_argument("--sat", dest="saturation", type=float, default=None)
    p.add_argument("--x0", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="run a named comparison scenario", allow_abbrev=False)
    common(p, ("dt", "horizon", "config"), out_required=True, grid={})
    p.add_argument("--scenario", required=True, choices=sorted(SCENARIOS))
    p.add_argument("--seeds", default=None, help="e.g. 0:20 or 1,2,3")
    p.add_argument("--controllers", default=None)
    p.add_argument("--observer", default=None, choices=["both", "fullstate", "observer"])
    p.add_argument("--q-diag", default=None)
    p.add_argument("--r", type=float, default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("plot-data", help="emit per-figure CSVs from a report", allow_abbrev=False)
    common(p, (), out_required=True)
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
    except (ConfigError, NoiseError, SimError, PredictorError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RiccatiError, ObserverError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
