"""One measurement of one workload, in a fresh process.

    python3 perfbench/sample.py {setup|wall|trace} WORKLOAD SEED {full|smoke} OUT_DIR SPANS_FILE

``setup`` times ``import roughlq`` plus the workload's zero-work call;
``wall`` imports the package untimed and times one cold call; ``trace``
does the same with spans installed and writes them to SPANS_FILE.  The
last line of standard output is a JSON object for ``run.py``.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
from pathlib import Path

from workloads import make_call, outcome


def main(argv) -> int:
    kind, workload, seed, size, out_dir, spans_file = argv
    call = make_call(workload, int(seed), smoke=size == "smoke", zero=kind == "setup", out_dir=out_dir)

    if kind == "setup":
        start = time.perf_counter()
        import roughlq  # noqa: F401  (import time is part of set-up)

        result = call.invoke()
    else:
        import roughlq  # noqa: F401

        if kind == "trace":
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        result = call.invoke()
    seconds = time.perf_counter() - start

    import numpy
    import scipy

    record = {
        "seconds": seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        **outcome(call, result),
    }
    if kind == "trace":
        from tracing import layer_metrics

        tracer.write(Path(spans_file))
        totals = tracer.span_totals()
        record["layers"] = layer_metrics(tracer, seconds, out_dir if call.workload.export else None)
        record["missing_spans"] = [name for name in call.workload.spans if name not in totals]
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
