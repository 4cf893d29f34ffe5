#!/usr/bin/env python3
"""Run one benchmark workload in this (fresh) process.

``run.py`` starts this script once per measurement so that the process-wide
parse and analysis caches never carry over between workloads.  The last
stdout line is a JSON document with the raw measurements; with
``--setup-only`` the script sets the workload up, prints ``ready`` and the
monotonic clock, and exits (``run.py`` times that as the set-up cost).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import explore  # noqa: E402
import service_load  # noqa: E402
import sweep  # noqa: E402
import tracing  # noqa: E402
from common import TRACE_DIR  # noqa: E402

WORKLOADS = {"sweep": sweep, "explore": explore, "service": service_load}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    module = WORKLOADS[args.workload]
    state = module.setup()
    if args.setup_only:
        print(f"ready {time.clock_gettime(time.CLOCK_MONOTONIC)!r}",
              flush=True)
        if hasattr(state, "close"):
            state.close()
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    try:
        report = module.run(state, args.seed, args.seconds)
    finally:
        if hasattr(state, "close"):
            state.close()

    if tracer is not None:
        report.layers.update(tracing.span_metrics(
            tracer, len(report.latencies), report.windows))
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.dump(str(TRACE_DIR / f"spans-{args.workload}-seed"
                                    f"{args.seed}.json"))

    document = report.as_dict()
    document["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(document), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
