"""The benchmark's workloads: what each one calls, at which size, and how
its outcome is checked.

Every workload is one batch job driven through a public entry point of
the package (``roughlq.bench.run_comparison`` or ``roughlq.cli.main``).
This module imports nothing from the package or from numpy at import
time, so a process can import it before it starts the set-up clock.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

#: the seed whose checksums are compared with ``reference/<workload>.json``
DEFAULT_SEED = 0

#: relative tolerance on survivors' mean cost between two checksums
COST_RTOL = 1e-9

#: the Chen identity holds exactly for the piecewise-linear lift, so any
#: defect above round-off means the lift algebra broke
CHEN_DEFECT_MAX = 1e-10

# spans a traced call must record; a name with no call means its call site
# was renamed or bypassed, which would otherwise read as zero time
_COMPARE_SPANS = (
    "bench.run_comparison",
    "sim.integrate",
    "noise.sample_path",
    "riccati.solve_care",
    "riccati.solve_lyapunov",
)
_OBSERVER_SPANS = (
    "observer.estimate_second_moments",
    "observer.solve_observer_steady_state",
    "observer.observer_gain",
)
_PATHWISE_SPANS = ("control.pathwise_correction_series", "lift.lift_piecewise_linear")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``units`` is the work per call at full size (seeds for a comparison,
    random Chen triples for ``lift-check``); ``smoke_units`` and
    ``smoke_overrides`` shrink it for the self-test.
    """

    name: str
    why: str
    kind: str  # "compare" or "lift"
    units: int
    smoke_units: int
    spans: tuple
    scenario: str = ""
    controllers: tuple | None = None
    overrides: dict = field(default_factory=dict)
    smoke_overrides: dict = field(default_factory=dict)
    export: bool = False
    lift_args: tuple = ()
    smoke_lift_args: tuple = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fbm035-export",
            why=(
                "shipped fbm035 compare with CSV export: the only workload that "
                "writes trajectories, so sim, fBm sampling and bench export all show"
            ),
            kind="compare",
            scenario="fbm035",
            units=3,
            smoke_units=1,
            smoke_overrides={"simulate": {"horizon": "0.5"}},
            export=True,
            spans=_COMPARE_SPANS + _OBSERVER_SPANS + _PATHWISE_SPANS
            + ("bench.trajectory_to_csv", "bench.correction_to_csv"),
        ),
        Workload(
            name="stable15-inmem",
            why=(
                "stable15 compare kept in memory, 5 s horizon: same sim loop with more survivors, "
                "CMS sampler and heavy-tail observer solve; an export change predicts no change here"
            ),
            kind="compare",
            scenario="stable15",
            # half the shipped horizon keeps a call near 6 s, so a run holds
            # several cold calls; some classical runs still diverge before 5 s
            overrides={"simulate": {"horizon": "5.0"}},
            units=5,
            smoke_units=1,
            smoke_overrides={"simulate": {"horizon": "0.5"}},
            spans=_COMPARE_SPANS + _OBSERVER_SPANS + _PATHWISE_SPANS,
        ),
        Workload(
            name="fbm035-causal",
            why=(
                "causal gaussian-predictor GLQ on fbm035, full state: the only workload "
                "reaching default_horizon and the Gaussian correction kernel, rebuilt per run"
            ),
            kind="compare",
            scenario="fbm035",
            controllers=("glq",),
            overrides={"simulate": {"predictor": "gaussian"}, "run": {"observer": "fullstate"}},
            units=2,
            smoke_units=2,
            smoke_overrides={"simulate": {"dt": "0.01", "horizon": "1.0"}},
            spans=_COMPARE_SPANS
            + ("control.gaussian_correction_series", "control.default_horizon"),
        ),
        Workload(
            name="lift-check",
            why=(
                "lift-check CLI on a 2-d fBm path: the only workload where the O(N) "
                "Python Chen reconstruction and the Holder estimate do the work"
            ),
            kind="lift",
            units=400,
            smoke_units=20,
            lift_args=("--kind", "fbm", "--hurst", "0.35", "--dim", "2", "--dt", "0.001", "--horizon", "2.0"),
            smoke_lift_args=("--kind", "fbm", "--hurst", "0.35", "--dim", "2", "--dt", "0.001", "--horizon", "0.256"),
            spans=(
                "cli.main",
                "noise.sample_path",
                "lift.lift_piecewise_linear",
                "lift.chen_defect",
                "lift.reconstruct",
                "lift.holder_estimate",
            ),
        ),
    )
}


def _merge(base: dict, extra: dict) -> dict:
    out = {section: dict(kv) for section, kv in base.items()}
    for section, kv in extra.items():
        out.setdefault(section, {}).update(kv)
    return out


@dataclass
class Call:
    """One prepared call of a workload; ``invoke`` does the timed work."""

    workload: Workload
    seed: int
    units: int
    smoke: bool
    out_dir: str | None

    def compare_seeds(self) -> list:
        # disjoint banks: seed s runs compare seeds [s*units, (s+1)*units)
        return list(range(self.seed * self.units, (self.seed + 1) * self.units))

    def overrides(self) -> dict:
        wl = self.workload
        return _merge(wl.overrides, wl.smoke_overrides) if self.smoke else dict(wl.overrides)

    def lift_argv(self) -> list:
        wl = self.workload
        args = wl.smoke_lift_args if self.smoke else wl.lift_args
        return ["lift-check", *args, "--seed", str(self.seed), "--triples", str(self.units)]

    def invoke(self):
        """Run the workload once; returns what :func:`outcome` reads."""
        import roughlq.bench
        import roughlq.cli

        wl = self.workload
        if wl.kind == "compare":
            return roughlq.bench.run_comparison(
                wl.scenario,
                controllers=list(wl.controllers) if wl.controllers else None,
                seeds=self.compare_seeds(),
                overrides=self.overrides(),
                out_dir=self.out_dir if wl.export else None,
            )
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = roughlq.cli.main(self.lift_argv())
        return code, buf.getvalue()


def make_call(name: str, seed: int, smoke: bool, zero: bool, out_dir: str | None) -> Call:
    """A call of workload ``name``; ``zero`` gives the zero-work set-up call."""
    wl = WORKLOADS[name]
    units = 0 if zero else (wl.smoke_units if smoke else wl.units)
    return Call(workload=wl, seed=seed, units=units, smoke=smoke, out_dir=out_dir)


# ---------------------------------------------------------------------------
# outcome checksums
# ---------------------------------------------------------------------------

def outcome(call: Call, result) -> dict:
    """Checksum, operation counts and problems found in one call's result.

    Comparisons: per (controller, mode, seed) the outcome ``ok``/``div``/
    ``fail`` and the divergence step, plus survivors' mean cost per
    (controller, mode).  ``run_comparison`` books an exception inside a
    run as a divergence at ``t_diverge == 0.0``; a real divergence can
    only be flagged after the first step, so such rows are failures.
    ``lift-check``: exit code, triple count, Holder estimate, and a Chen
    defect that must stay below round-off.
    """
    if call.workload.kind == "compare":
        return _compare_outcome(call, result)
    return _lift_outcome(call, result)


def _compare_outcome(call: Call, report) -> dict:
    dt = float(report.config["simulate"]["dt"])
    runs, failed = [], 0
    for r in report.records:
        if r.diverged and r.t_diverge == 0.0:
            failed += 1
            runs.append([r.controller, r.mode, r.seed, "fail", 0])
        elif r.diverged:
            runs.append([r.controller, r.mode, r.seed, "div", int(round(r.t_diverge / dt))])
        else:
            runs.append([r.controller, r.mode, r.seed, "ok", -1])
    costs = {}
    for (controller, mode), agg in sorted(report.aggregates.items()):
        value = agg["mean_cost_survivors"]
        costs[f"{controller}/{mode}"] = value if math.isfinite(value) else None
    run_cfg = report.config["run"]
    controllers = call.workload.controllers or run_cfg["controllers"].split(",")
    modes = 2 if run_cfg["observer"] == "both" else 1
    expected = len(call.compare_seeds()) * len(controllers) * modes
    problems = []
    if len(runs) != expected:
        problems.append(f"{len(runs)} run records where {expected} were expected")
    if call.workload.export:
        problems += _export_problems(call, report)
    return {
        "checksum": {"runs": runs, "mean_cost": costs},
        "attempted": len(runs),
        "failed": failed,
        "problems": problems,
    }


def _export_problems(call: Call, report) -> list:
    """The export tree must hold every file the report points to."""
    out = Path(call.out_dir)
    problems = []
    for name in ("runs.csv", "summary.txt", "config_echo.cfg"):
        if not (out / name).is_file():
            problems.append(f"export is missing {name}")
    if (out / "runs.csv").is_file():
        rows = (out / "runs.csv").read_text().splitlines()
        if len(rows) != len(report.records) + 1:
            problems.append(f"runs.csv has {len(rows) - 1} rows for {len(report.records)} runs")
    for r in report.records:
        if r.trajectory_file and not (out / r.trajectory_file).is_file():
            problems.append(f"export is missing {r.trajectory_file}")
    return problems


_DEFECT = re.compile(r"max_chen_defect = (\S+) over (\d+) random triples")
_HOLDER = re.compile(r"holder_estimate = (\S+)")


def _lift_outcome(call: Call, result) -> dict:
    code, text = result
    defect = _DEFECT.search(text)
    holder = _HOLDER.search(text)
    problems = []
    if code != 0:
        problems.append(f"lift-check exited with {code}")
    if defect is None or holder is None:
        problems.append(f"unexpected lift-check output: {text!r}")
        checksum = {"exit": code}
    else:
        worst = float(defect.group(1))
        if not worst < CHEN_DEFECT_MAX:
            problems.append(f"max Chen defect {worst:.3e} is not below {CHEN_DEFECT_MAX:g}")
        checksum = {"exit": code, "triples": int(defect.group(2)), "holder_estimate": float(holder.group(1))}
    return {
        "checksum": checksum,
        "attempted": call.units,
        "failed": call.units if code != 0 else 0,
        "problems": problems,
    }


def checksum_mismatch(a: dict, b: dict) -> str | None:
    """Why two checksums differ, or None when they agree.

    Everything must match exactly except survivors' mean cost, which may
    differ by a relative ``COST_RTOL``.
    """
    if a.keys() != b.keys():
        return f"checksum keys differ: {sorted(a)} vs {sorted(b)}"
    for key in a:
        if key != "mean_cost":
            if a[key] != b[key]:
                return f"{key} differs"
            continue
        if a[key].keys() != b[key].keys():
            return "mean_cost groups differ"
        for group, x in a[key].items():
            y = b[key][group]
            if (x is None) != (y is None):
                return f"survivors differ for {group}"
            if x is not None and abs(x - y) > COST_RTOL * max(abs(x), abs(y)):
                return f"mean cost of {group} differs: {x!r} vs {y!r}"
    return None
