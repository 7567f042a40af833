"""The benchmark's self-test: every workload at a tiny size, untraced and
traced, against the metric schema of ``BENCHMARK.json``.  A traced run
fails it when a hooked call site moves out from under its name."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr[-4000:]
