"""Benchmark harness: pendulum comparison scenarios and reporting.

Two named scenarios drive the cart-pendulum with the two controller
families over a common bank of seeds:

* ``fbm035``  - fractional noise with Hurst index 0.35,
* ``stable15`` - heavy-tailed stable jump noise with index 1.5.

Noise scales were calibrated on this plant so the plain LQ loop shows
its characteristic failure (saturation followed by exponential escape)
while the prediction-corrected loop survives the same realisations; the
corrected controller evaluates its correction on the realised driver
path (the pathwise mode).  Angles are simulated as deviations; reports
quote ``180 + theta`` degrees so the upright equilibrium reads 180.

Every aggregate in a report is recomputable from the stored per-seed
trajectory CSVs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .config import ConfigError, format_config, merge, parse_config
from .noise import NoiseModel, _sample_increments, _write_table, make_grid, sample_path
from .observer import estimate_second_moments, solve_observer_steady_state
from .pendulum import build_pendulum
from .riccati import solve_care
from .sim import (
    SimConfig,
    StateSpaceModel,
    Trajectory,
    _correction_series,
    average_cost,
    correction_to_csv,
    integrate,
    trajectory_to_csv,
)

__all__ = [
    "BASE_CONFIG",
    "SCENARIOS",
    "RunRecord",
    "ExperimentReport",
    "scenario_config",
    "build_state_space",
    "sim_template",
    "noise_paths",
    "run_comparison",
    "load_report",
    "emit_plot_data",
    "saturation_onset_duty",
    "ANGLE_EQUILIBRIUM_DEG",
]

ANGLE_EQUILIBRIUM_DEG = 180.0

#: replications used to estimate observer moments, the base seed of their
#: streams, and the quantile at which heavy-tailed increments are clipped
#: before the moments form
MOMENT_REPLICATIONS = 120
MOMENT_SEED = 10_000_019
HEAVY_TAIL_QUANTILE = 0.999

#: run seed s draws its process noise from stream s and its measurement
#: noise from stream ``MEASUREMENT_SEED_OFFSET + s``
MEASUREMENT_SEED_OFFSET = 1_000_003

#: the feedback modes each ``[run] observer`` setting runs
_OBSERVER_MODES = {"both": ["fullstate", "observer"], "fullstate": ["fullstate"], "observer": ["observer"]}

#: what every run uses where neither its scenario, the ``--config`` file
#: nor a flag sets a key
BASE_CONFIG = {
    "model": {"q_diag": "1,1,1,1", "r": "1"},
    "simulate": {
        "dt": "0.001",
        "horizon": "10.0",
        "saturation": "1000.0",
        "x0": "0,0,0,0",
        "predictor": "pathwise",
    },
}

SCENARIOS = {
    "fbm035": merge(BASE_CONFIG, {
        "run": {"scenario": "fbm035", "controllers": "classical,glq", "seeds": "0:20", "observer": "both"},
        "noise": {
            "kind": "fbm",
            "hurst": "0.35",
            "sigma": "100.0",
            "w_kind": "fbm",
            "w_hurst": "0.35",
            "w_sigma": "1.0",
        },
    }),
    "stable15": merge(BASE_CONFIG, {
        "run": {"scenario": "stable15", "controllers": "classical,glq", "seeds": "0:20", "observer": "both"},
        "noise": {
            "kind": "stable",
            "alpha": "1.5",
            "beta": "0",
            "gamma": "20.0",
            "delta": "0",
            "w_kind": "stable",
            "w_alpha": "1.5",
            "w_beta": "0",
            "w_gamma": "1.0",
            "w_delta": "0",
        },
    }),
}


@dataclass(frozen=True)
class RunRecord:
    """Per-(controller, mode, seed) outcome row; its fields, in order, are
    the columns of ``runs.csv``.  ``information`` is what the run's
    correction reads (``sim.INFORMATION``)."""

    scenario: str
    controller: str
    mode: str
    information: str
    seed: int
    diverged: bool
    t_diverge: float | None
    mean_cost: float
    final_norm: float
    final_angle_deg: float
    sat_duty: float
    max_u_raw: float
    trajectory_file: str


@dataclass
class ExperimentReport:
    """All run records plus per-(controller, mode) aggregates."""

    scenario: str
    records: list
    config: dict
    out_dir: str | None = None
    aggregates: dict = field(default_factory=dict)

    def group(self, controller: str, mode: str):
        return [r for r in self.records if r.controller == controller and r.mode == mode]


def _parse_floats(text: str):
    return [float(part) for part in text.split(",")]


def _parse_seeds(text: str):
    text = text.strip()
    if ":" in text:
        lo, hi = text.split(":", 1)
        seeds = list(range(int(lo), int(hi)))
        if not seeds:
            raise ConfigError(f"[run] seeds = {text!r} is an empty range")
        return seeds
    return [int(part) for part in text.split(",")]


def _read(kv: dict, section: str, key: str, parse=float, default=None):
    """``parse`` of ``[section] key``; a value that does not parse is a
    :class:`ConfigError` naming the section and the key."""
    text = kv[key] if default is None else kv.get(key, default)
    try:
        return parse(text)
    except ConfigError:
        raise
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {text!r} is not a number") from None


def _noise_from(cfg: dict, prefix: str = "") -> NoiseModel:
    """The noise of ``[noise]`` keys (or CLI noise flags) with ``prefix``;
    an omitted key takes the default written here."""
    kind = cfg.get(prefix + "kind", "brownian")

    def number(name, default):
        return _read(cfg, "noise", prefix + name, default=default)

    if kind == "fbm":
        return NoiseModel.fbm(hurst=number("hurst", "0.35"), sigma=number("sigma", "1"))
    if kind == "brownian":
        return NoiseModel.brownian(sigma=number("sigma", "1"))
    if kind == "stable":
        return NoiseModel.stable(
            alpha=number("alpha", "1.5"),
            beta=number("beta", "0"),
            gamma=number("gamma", "1"),
            delta=number("delta", "0"),
        )
    raise ConfigError(f"unknown noise kind {kind!r}")


def scenario_config(name: str, overrides: dict | None = None) -> dict:
    if name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}; have {sorted(SCENARIOS)}")
    cfg = {s: dict(kv) for s, kv in SCENARIOS[name].items()}
    if overrides:
        cfg = merge(cfg, overrides)
    if cfg["run"]["scenario"] != name:
        raise ConfigError(f"[run] scenario = {cfg['run']['scenario']} contradicts scenario {name!r}")
    return cfg


def build_state_space(q_diag, r) -> StateSpaceModel:
    pm = build_pendulum()
    return StateSpaceModel(A=pm.A, B=pm.B, C=pm.C, Q=np.diag(q_diag), R=[[float(r)]])


def sim_template(cfg: dict) -> SimConfig:
    """The run that every seed, controller and mode of ``cfg`` shares.

    Reads the ``[model]``, ``[noise]`` and ``[simulate]`` sections; callers
    derive each run with ``dataclasses.replace``.
    """
    sim_cfg, model_cfg = cfg["simulate"], cfg["model"]
    return SimConfig(
        model=build_state_space(
            _read(model_cfg, "model", "q_diag", _parse_floats), _read(model_cfg, "model", "r")
        ),
        noise_v=_noise_from(cfg["noise"]),
        noise_w=_noise_from(cfg["noise"], prefix="w_"),
        controller=sim_cfg.get("controller", "classical"),
        predictor=sim_cfg.get("predictor", "pathwise"),
        dt=_read(sim_cfg, "simulate", "dt"),
        horizon=_read(sim_cfg, "simulate", "horizon"),
        saturation=_read(sim_cfg, "simulate", "saturation"),
        x0=np.array(_read(sim_cfg, "simulate", "x0", _parse_floats)),
    )


def noise_paths(run: SimConfig, seed: int, measured: bool = True):
    """Process and measurement noise of run seed ``seed`` on the run's grid.

    The process stream is the seed itself, so the runs of one seed are
    matched across controllers and modes; measurement noise draws from
    the disjoint stream ``MEASUREMENT_SEED_OFFSET + seed``, and only when
    ``measured`` (else it is None), which moves no other draw.
    """
    grid = run.grid()
    v = sample_path(run.noise_v, grid, d=run.model.n, seed=seed)
    if not measured:
        return v, None
    w = sample_path(run.noise_w, grid, d=run.model.p, seed=MEASUREMENT_SEED_OFFSET + seed)
    return v, w


def saturation_onset_duty(traj: Trajectory, saturation: float) -> float:
    """Fraction of steps at the saturation limit after divergence onset.

    Onset is the last time the state norm sat below 1e3 (the stabilised
    regime lives well under it; the kill threshold is far above).  Returns
    the duty over the whole run when the norm never reached that level.
    """
    railed = np.abs(traj.u_raw).max(axis=1) >= saturation
    norms = np.linalg.norm(traj.x, axis=1)
    below = np.nonzero(norms <= 1e3)[0]
    onset = below[-1] if below.size else 0
    tail = railed[onset:]
    return float(tail.mean()) if tail.size else 0.0


def _final_window(traj: Trajectory, grid_size: int):
    """Slice covering the last 20% of the nominal horizon (if reached)."""
    k0 = int(0.8 * grid_size)
    if traj.t.shape[0] <= k0:
        return None
    return slice(k0, traj.t.shape[0])


def _moment_grid(dt: float) -> np.ndarray:
    """Grid the observer moments are estimated on: 2000 steps, at least 0.5 s."""
    return make_grid(dt, max(0.5, 2000 * dt))


def _observer_design_for(
    model,
    noise_v,
    noise_w,
    grid,
    replications: int = MOMENT_REPLICATIONS,
    seed: int = MOMENT_SEED,
):
    """Estimate the noise moments on ``grid`` and solve the observer of
    ``model``, which supplies only ``A`` and ``C``.

    Replication j draws its process noise from ``seed + 2j`` and its
    measurement noise from ``seed + 2j + 1``.  When either noise is
    heavy-tailed (stable with alpha < 2) both are clipped at the
    ``HEAVY_TAIL_QUANTILE`` of their joint absolute increments.  Returns
    ``(design, moments)``.
    """
    increments = []
    for noise, d, stream in ((noise_v, model.A.shape[0], 0), (noise_w, model.C.shape[0], 1)):
        inc, scale = _sample_increments(noise, grid, d, [seed + 2 * j + stream for j in range(replications)])
        inc *= scale
        increments.append(inc)
    heavy = any(noise.kind == "stable" and noise.alpha < 2.0 for noise in (noise_v, noise_w))
    quantile = HEAVY_TAIL_QUANTILE if heavy else None
    moments = estimate_second_moments(*increments, float(grid[1] - grid[0]), truncate_quantile=quantile)
    return solve_observer_steady_state(model.A, model.C, moments), moments


def run_comparison(
    scenario: str,
    controllers=None,
    seeds=None,
    overrides: dict | None = None,
    out_dir=None,
) -> ExperimentReport:
    """Run the scenario grid and aggregate an :class:`ExperimentReport`.

    Writes per-seed trajectory CSVs (plus correction series for the
    corrected controller), a per-run ``runs.csv``, an aggregate
    ``summary.txt`` and a config echo when ``out_dir`` is given.  A
    numeric failure inside one run (``LinAlgError`` or ``ArithmeticError``)
    is recorded as that run's divergence and never aborts the batch; any
    other exception propagates.
    """
    cfg = scenario_config(scenario, overrides)
    run_cfg = cfg["run"]
    if controllers is None:
        controllers = [c.strip() for c in run_cfg["controllers"].split(",")]
    if seeds is None:
        seeds = _read(run_cfg, "run", "seeds", _parse_seeds)
    if not all(controllers):
        raise ConfigError("[run] controllers has an empty entry")
    # a repeated seed or controller would be counted twice and overwrite its own files
    for kind, items in (("seed", seeds), ("controller", controllers)):
        repeated = [item for i, item in enumerate(items) if item in items[:i]]
        if repeated:
            raise ConfigError(f"{kind} {repeated[0]} is listed more than once")
    if any(seed < 0 for seed in seeds):
        raise ConfigError(f"seeds must be non-negative, got {min(seeds)}")
    observer_setting = run_cfg.get("observer", "both")
    if observer_setting not in _OBSERVER_MODES:
        raise ConfigError(f"[run] observer = {observer_setting!r}; expected one of {sorted(_OBSERVER_MODES)}")
    modes = _OBSERVER_MODES[observer_setting]

    if "controller" in cfg["simulate"]:
        raise ConfigError("compare reads [run] controllers; [simulate] controller is not read")
    base = sim_template(cfg)
    # SimConfig rejects an unknown controller or inadmissible predictor before anything is written
    by_controller = {controller: replace(base, controller=controller) for controller in controllers}
    model = base.model
    design = solve_care(model.A, model.B, model.Q, model.R)

    observer = None
    if "observer" in modes:
        observer, _ = _observer_design_for(model, base.noise_v, base.noise_w, _moment_grid(base.dt))

    grid = base.grid()
    out_path = None
    if out_dir is not None:
        out_path = Path(out_dir)
        (out_path / "trajectories").mkdir(parents=True, exist_ok=True)
        (out_path / "config_echo.cfg").write_text(format_config(cfg))

    records = []
    for seed in seeds:
        v, w = noise_paths(base, seed, measured=observer is not None)
        series = {}  # the seed's correction series, by what it reads
        for controller in controllers:
            for mode in modes:
                run = replace(by_controller[controller], observer_enabled=(mode == "observer"))
                tag = f"{scenario}_{controller}_{mode}_seed{seed:03d}"
                reads = (run.predictor, run.information)
                try:
                    if reads not in series:
                        series[reads] = _correction_series(run, design, v)
                    traj = integrate(run, v, w, design, observer=observer, v_correction=series[reads])
                except (np.linalg.LinAlgError, ArithmeticError):
                    # a numeric failure counts as that run's divergence
                    inf = float("inf")
                    row = (scenario, controller, mode, run.information, seed, True, 0.0, inf, inf, inf, 1.0, inf, "")
                    records.append(RunRecord(*row))
                    continue
                window = _final_window(traj, grid.shape[0])
                if traj.diverged or window is None:
                    final_norm = float("inf")
                    final_angle = float("inf")
                else:
                    final_norm = float(np.max(np.linalg.norm(traj.x[window], axis=1)))
                    final_angle = float(np.degrees(np.max(np.abs(traj.x[window, 1]))))
                fname = ""
                if out_path is not None:
                    fname = f"trajectories/{tag}.csv"
                    trajectory_to_csv(traj, str(out_path / fname))
                    if traj.v_correction is not None:
                        correction_to_csv(traj, str(out_path / f"trajectories/{tag}_correction.csv"))
                records.append(
                    RunRecord(
                        scenario=scenario,
                        controller=controller,
                        mode=mode,
                        information=run.information,
                        seed=seed,
                        diverged=traj.diverged,
                        t_diverge=traj.t_diverge,
                        mean_cost=average_cost(traj),
                        final_norm=final_norm,
                        final_angle_deg=final_angle,
                        sat_duty=saturation_onset_duty(traj, base.saturation),
                        max_u_raw=float(np.max(np.abs(traj.u_raw))),
                        trajectory_file=fname,
                    )
                )

    report = ExperimentReport(scenario=scenario, records=records, config=cfg, out_dir=str(out_dir) if out_dir else None)
    report.aggregates = _aggregate(report, controllers, modes)
    if out_path is not None:
        _write_runs_csv(report, out_path / "runs.csv")
        _write_summary(report, out_path / "summary.txt")
    return report


def _aggregate(report: ExperimentReport, controllers, modes) -> dict:
    out = {}
    for controller in controllers:
        for mode in modes:
            rows = report.group(controller, mode)
            if not rows:
                continue
            diverged = [r for r in rows if r.diverged]
            alive = [r for r in rows if not r.diverged]
            out[(controller, mode)] = {
                "runs": len(rows),
                "information": rows[0].information,
                "divergence_rate": len(diverged) / len(rows),
                "median_t_diverge": float(np.median([r.t_diverge for r in diverged])) if diverged else float("nan"),
                "median_sat_duty_diverged": float(np.median([r.sat_duty for r in diverged])) if diverged else float("nan"),
                "mean_cost_survivors": float(np.mean([r.mean_cost for r in alive])) if alive else float("nan"),
                "median_final_norm": float(np.median([r.final_norm for r in alive])) if alive else float("nan"),
                "max_final_angle_deg": float(np.max([r.final_angle_deg for r in alive])) if alive else float("nan"),
                "max_u_raw": float(np.max([r.max_u_raw for r in rows])),
            }
    return out


#: how a ``runs.csv`` cell is written and read, by the type of its
#: :class:`RunRecord` field
_CELL = {
    "str": (str, str),
    "int": (str, int),
    "bool": (lambda v: str(int(v)), lambda text: bool(int(text))),
    "float": (lambda v: f"{v:.17g}", float),
    "float | None": (lambda v: "" if v is None else f"{v:.17g}", lambda text: float(text) if text else None),
}


def _write_runs_csv(report: ExperimentReport, path: Path) -> None:
    columns = fields(RunRecord)
    lines = [",".join(f.name for f in columns)]
    lines += [",".join(_CELL[f.type][0](getattr(r, f.name)) for f in columns) for r in report.records]
    path.write_text("\n".join(lines) + "\n")


def load_report(report_dir) -> ExperimentReport:
    """Read back the report :func:`run_comparison` wrote under ``report_dir``.

    A ``runs.csv`` row that does not parse is a :class:`ConfigError` naming
    its line; the aggregates are not recomputed.
    """
    report_dir = Path(report_dir)
    cfg = parse_config((report_dir / "config_echo.cfg").read_text())
    runs = report_dir / "runs.csv"
    columns = fields(RunRecord)
    records = []
    for lineno, line in enumerate(runs.read_text().splitlines()[1:], start=2):
        cells = line.split(",")
        try:
            if len(cells) != len(columns):
                raise ValueError(f"expected {len(columns)} fields, got {len(cells)}")
            records.append(RunRecord(*(_CELL[f.type][1](cell) for f, cell in zip(columns, cells))))
        except ValueError as exc:
            raise ConfigError(f"{runs} line {lineno}: {exc}") from None
    return ExperimentReport(
        scenario=records[0].scenario if records else cfg["run"]["scenario"],
        records=records,
        config=cfg,
        out_dir=str(report_dir),
    )


def _write_summary(report: ExperimentReport, path: Path) -> None:
    lines = [f"scenario = {report.scenario}"]
    for (controller, mode), agg in sorted(report.aggregates.items()):
        for key in sorted(agg):
            value = agg[key] if isinstance(agg[key], str) else f"{agg[key]:.17g}"
            lines.append(f"{controller}.{mode}.{key} = {value}")
    lines.append("")
    lines.append("# config echo")
    lines.append(format_config(report.config))
    path.write_text("\n".join(lines))


# ---------------------------------------------------------------------------
# figure data
# ---------------------------------------------------------------------------

def emit_plot_data(report: ExperimentReport, out_dir) -> list:
    """Per-run figure CSVs (states with the 180-degree angle offset, and
    pre/post-saturation control) plus a hashed manifest.

    Returns the manifest rows ``(filename, sha256)``.
    """
    if report.out_dir is None:
        raise ConfigError("report was produced without an output directory")
    src = Path(report.out_dir)
    dst = Path(out_dir)
    dst.mkdir(parents=True, exist_ok=True)
    manifest = []
    for rec in report.records:
        if not rec.trajectory_file:
            continue
        data = np.genfromtxt(src / rec.trajectory_file, delimiter=",", names=True)
        tag = f"{rec.scenario}_{rec.controller}_{rec.mode}_seed{rec.seed:03d}"
        t = np.atleast_1d(data["t"])
        states = np.column_stack(
            [
                t,
                np.atleast_1d(data["x1"]),
                ANGLE_EQUILIBRIUM_DEG + np.degrees(np.atleast_1d(data["x2"])),
                np.atleast_1d(data["x3"]),
                np.degrees(np.atleast_1d(data["x4"])),
            ]
        )
        state_file = f"{tag}_states.csv"
        _write_table(dst / state_file, "t,cart_m,angle_deg,cart_rate,angle_rate_deg", states)
        control = np.column_stack([t, np.atleast_1d(data["u_raw"]), np.atleast_1d(data["u_sat"])])
        ctrl_file = f"{tag}_control.csv"
        _write_table(dst / ctrl_file, "t,u_raw,u_sat", control)
        manifest.append(state_file)
        manifest.append(ctrl_file)

    rows = [(name, hashlib.sha256((dst / name).read_bytes()).hexdigest()) for name in manifest]
    lines = ["file,sha256"] + [f"{name},{digest}" for name, digest in rows]
    lines.append("# generating config")
    lines.append(format_config(report.config))
    (dst / "manifest.csv").write_text("\n".join(lines))
    return rows
