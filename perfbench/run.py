"""roughlq benchmark: four batch workloads timed end to end, or traced per layer.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --workload NAME|all --write-reference

Run from the repository root; the package is imported from ``src/``.
Each workload is one batch job in a closed loop with one client: every
sample is one call in a fresh process, one process at a time, with BLAS
threads capped at the number of usable CPUs.

``--trace 0`` repeats set-up and cold-call samples for about ``--seconds``
and reports end-to-end metrics as medians.
``--trace 1`` runs untraced/traced pairs and reports per-layer metrics
from spans recorded around the package's public names.  Both check each
call's outcome checksum; on the default seed it must match
``reference/<workload>.json``.  The last line of standard output is the
result as JSON; the line before it is the run record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, checksum_mismatch

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference"

#: set-up samples per end-to-end run; set-up is the noisiest metric, so
#: it is reported as a median of several fresh processes
SETUP_SAMPLES = 3

#: every run, including its last sample, must end within this many seconds
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """A sample could not be taken; the run reports no result."""


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict:
    env = dict(os.environ)
    threads = str(_nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(OUT)
    # one string-hash seed for every child, so that dict and set layouts,
    # and the time spent probing them, do not differ from process to process
    env["PYTHONHASHSEED"] = "0"
    return env


class Sampler:
    """Runs ``sample.py`` children one at a time within the run's time limit."""

    def __init__(self, workload: str, seed: int, size: str):
        self.workload, self.seed, self.size = workload, seed, size
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = _child_env()
        OUT.mkdir(exist_ok=True)

    def take(self, kind: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run limit reached before all samples were taken")
        out_dir = tempfile.mkdtemp(prefix="export-", dir=OUT)
        spans = OUT / f"spans-{self.workload}-seed{self.seed}.json"
        cmd = [sys.executable, str(HERE / "sample.py"), kind, self.workload, str(self.seed),
               self.size, out_dir, str(spans)]
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{kind} sample of {self.workload} exceeded the run limit") from exc
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if proc.returncode != 0:
            raise BenchError(f"{kind} sample of {self.workload} failed:\n{proc.stderr}")
        try:
            sample = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError) as exc:
            raise BenchError(f"{kind} sample printed no result:\n{proc.stdout}\n{proc.stderr}") from exc
        sample["elapsed"] = time.monotonic() - start
        sample["kind"] = kind
        return sample


def _mean_elapsed(samples) -> float:
    return statistics.fmean(s["elapsed"] for s in samples) if samples else 0.0


def _check(samples, problems, reference) -> None:
    """Collect outcome problems: per-sample ones, disagreement between
    the calls of one run (traced and untraced alike), and a mismatch with
    the reference checksum."""
    for s in samples:
        problems.extend(s["problems"])
    calls = [s for s in samples if s["attempted"]]
    for s in calls[1:]:
        why = checksum_mismatch(calls[0]["checksum"], s["checksum"])
        if why:
            problems.append(f"calls of one seed disagree ({s['kind']} call): {why}")
    if reference is not None and calls:
        why = checksum_mismatch(reference, calls[0]["checksum"])
        if why:
            problems.append(f"checksum differs from the reference: {why}")


def end_to_end(sampler: Sampler, seconds: float, setup_samples: int):
    """Interleave set-up and cold-call samples until ``seconds`` is used."""
    start = time.monotonic()
    setup, wall = [], []
    while True:
        if len(setup) < setup_samples:
            setup.append(sampler.take("setup"))
        wall.append(sampler.take("wall"))
        left = setup_samples - len(setup)
        projected = time.monotonic() - start + _mean_elapsed(wall) + left * _mean_elapsed(setup)
        if projected > seconds:
            break
    while len(setup) < setup_samples:
        setup.append(sampler.take("setup"))
    # a run holds too few cold calls for any percentile above the median
    # to have ten samples beyond it, so the record gives the count instead
    metrics = {
        "wall_s": (statistics.median(s["seconds"] for s in wall), "s"),
        "setup_s": (statistics.median(s["seconds"] for s in setup), "s"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in wall), "MB"),
    }
    counts = {"setup_samples": len(setup), "wall_samples": len(wall)}
    return setup + wall, metrics, counts


def per_layer(sampler: Sampler, seconds: float):
    """Untraced/traced pairs until ``seconds`` is used; medians per metric."""
    start = time.monotonic()
    pairs = []
    while True:
        # alternate which side of a pair runs first, so that a drift in
        # machine speed does not bias the overhead
        if (sampler.seed + len(pairs)) % 2:
            traced = sampler.take("trace")
            plain = sampler.take("wall")
        else:
            plain = sampler.take("wall")
            traced = sampler.take("trace")
        pairs.append((plain, traced))
        if time.monotonic() - start + (plain["elapsed"] + traced["elapsed"]) > seconds:
            break
    problems = []
    for _, traced in pairs:
        if traced["missing_spans"]:
            problems.append(
                "traced run recorded no call of " + ", ".join(traced["missing_spans"])
                + "; a call site was renamed or bypassed"
            )
    metrics = {}
    for name, (_, unit) in pairs[0][1]["layers"].items():
        metrics[name] = (statistics.median(t["layers"][name][0] for _, t in pairs), unit)
    overhead = statistics.median(t["seconds"] - p["seconds"] for p, t in pairs)
    metrics["trace.overhead_s"] = (overhead, "s")
    samples = [s for pair in pairs for s in pair]
    return samples, metrics, {"trace_pairs": len(pairs)}, problems


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _load_reference(workload: str):
    path = REFERENCE / f"{workload}.json"
    return json.loads(path.read_text()) if path.is_file() else None


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full"):
    """One benchmark run; returns ``(result, record)``."""
    sampler = Sampler(workload, seed, size)
    problems = []
    if trace:
        samples, metrics, counts, problems = per_layer(sampler, seconds)
    else:
        samples, metrics, counts = end_to_end(sampler, seconds, SETUP_SAMPLES if size == "full" else 1)
    reference = None
    if size == "full" and seed == DEFAULT_SEED:
        reference = _load_reference(workload)
        if reference is None:
            problems.append(f"no reference checksum for {workload}")
    _check(samples, problems, reference)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    checksum = next((s["checksum"] for s in samples if s["attempted"]), {})
    result = {
        "correct": not problems,
        "attempted": sum(s["attempted"] for s in samples),
        "failed": sum(s["failed"] for s in samples),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "trace": int(trace),
        "git_sha": _git_sha(),
        "nproc": _nproc(),
        "blas_threads": _nproc(),
        **samples[0]["versions"],
        **counts,
        "checksum_sha256": hashlib.sha256(json.dumps(checksum, sort_keys=True).encode()).hexdigest(),
    }
    return result, record


def smoke() -> int:
    """Tiny run of every workload in both modes; checks the output schema
    against BENCHMARK.json.  Not a timing gate."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((HERE / "layers.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors = []
    mapped = {name for row in layer_map["layers"] for name in row["metrics"]}
    if mapped != set(expected[1]):
        errors.append(f"layers.json and BENCHMARK.json name different per-layer metrics: "
                      f"{sorted(mapped ^ set(expected[1]))}")
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        errors.append("BENCHMARK.json and workloads.py list different workloads")
    for workload in WORKLOADS:
        for trace in (0, 1):
            before = len(errors)
            result, _ = measure(workload, 1, 0.0, bool(trace), size="smoke")
            where = f"{workload} --trace {trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{where}: correct={result['correct']} attempted={result['attempted']} "
                              f"failed={result['failed']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                              f"{sorted(set(got.items()) ^ set(expected[trace].items()))}")
            print(f"smoke {where}: {'ok' if len(errors) == before else 'FAILED'}", file=sys.stderr)
    for error in errors:
        print(f"smoke: {error}", file=sys.stderr)
    return 1 if errors else 0


def write_reference(workload: str) -> int:
    """Record the default seed's checksum as the workload's reference."""
    sample = Sampler(workload, DEFAULT_SEED, "full").take("wall")
    problems = list(sample["problems"])
    if sample["failed"]:
        problems.append(f"{sample['failed']} failed operations")
    if problems:
        for problem in problems:
            print(f"not recorded: {problem}", file=sys.stderr)
        return 1
    REFERENCE.mkdir(exist_ok=True)
    path = REFERENCE / f"{workload}.json"
    path.write_text(json.dumps(sample["checksum"], indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*sorted(WORKLOADS), "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="schema self-test at tiny sizes")
    parser.add_argument("--write-reference", action="store_true",
                        help="record the default seed's checksum for --workload")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "roughlq" / "__init__.py").is_file():
        print(f"no roughlq package under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if args.smoke:
            return smoke()
        if args.write_reference:
            return max(write_reference(name) for name in names)
        for name in names:
            result, record = measure(name, args.seed, args.seconds, bool(args.trace))
            (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
                json.dumps({"record": record, "result": result}, indent=1)
            )
            print(json.dumps({"record": record}))
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
