#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the TeamPlay reproduction.

Usage (from the repository root)::

    python3 e2e_bench/run.py --workload {sweep,explore,service} \\
        --seed N --seconds S --trace {0,1}

Each workload runs in its own fresh Python process (``workload.py``): the
parse cache and the shared analysis cache are process-wide, so a shared
process would make the numbers depend on workload order.  ``--trace 0``
measures the unmodified program and prints the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs the workload twice for half the time
each, untraced and then with every layer's entry points wrapped in spans,
and prints the per-layer metrics plus the tracing overhead (traced minus
untraced median operation time).  Set-up time is the median of several
fresh processes that import the workload's modules (and, for ``service``,
build the service and bind its server) and exit.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  Every operation's
output is checked against a reference; a wrong output makes the command
exit 1.  Failed or refused operations are counted, not retried.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "explore", "service")
SETUP_PROBES = 5
#: The whole command must finish within 180 s, the workload's checks
#: (which run after its timed phase) included.
DEADLINE_S = 175.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child(arguments, timeout: float) -> subprocess.CompletedProcess:
    command = [sys.executable, str(HERE / "workload.py")] + arguments
    try:
        done = subprocess.run(command, cwd=ROOT, text=True,
                              capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired as error:  # run() kills and reaps it
        raise BenchError(f"workload process timed out after "
                         f"{error.timeout:.0f} s") from None
    if done.returncode != 0:
        raise BenchError(f"workload process exited {done.returncode}:\n"
                         f"{done.stderr[-3000:]}")
    return done


def setup_seconds(workload: str, timeout: float) -> float:
    """Process start until the workload is ready, in one fresh process."""
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = _child(["--workload", workload, "--setup-only"], timeout)
    ready = done.stdout.split()
    if len(ready) != 2 or ready[0] != "ready":
        raise BenchError(f"set-up probe printed {done.stdout!r}")
    return float(ready[1]) - started


def measure(workload: str, seed: int, seconds: float, trace: int,
            timeout: float) -> dict:
    done = _child(["--workload", workload, "--seed", str(seed),
                   "--seconds", repr(seconds), "--trace", str(trace)],
                  timeout)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - started)

    try:
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(f"no source tree at {ROOT / 'src' / 'repro'}")
        with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
            definition = json.load(handle)
        if args.trace:
            runs = [measure(args.workload, args.seed, args.seconds / 2, 0,
                            remaining()),
                    measure(args.workload, args.seed, args.seconds / 2, 1,
                            remaining())]
            untraced, traced = runs
            layers = dict(traced["layers"])
            layers["trace.overhead_pct"] = 100.0 * (
                traced["op_p50_s"] / untraced["op_p50_s"] - 1.0)
            values = {metric["name"]: layers.get(metric["name"], 0.0)
                      for metric in definition["per_layer"]}
            units = {metric["name"]: metric["unit"]
                     for metric in definition["per_layer"]}
        else:
            setups = [setup_seconds(args.workload, remaining())
                      for _ in range(SETUP_PROBES)]
            run = measure(args.workload, args.seed, args.seconds, 0,
                          remaining())
            runs = [run]
            values = {
                "setup_s": statistics.median(setups),
                "peak_rss_mb": run["peak_rss_mb"],
                "ok_frac": 1.0 - run["failed"] / max(run["attempted"], 1),
                "op_p50_s": run["op_p50_s"],
                "ops_per_s": run["ops_per_s"],
                "energy_gain": run["energy_gain"],
                "time_gain": run["time_gain"],
            }
            units = {metric["name"]: metric["unit"]
                     for metric in definition["end_to_end"]}
            print(f"samples: setup_s={len(setups)} "
                  f"op_p50_s={run['op_samples']} peak_rss_mb=1 "
                  f"ops_per_s={run['completed']} "
                  f"energy_gain/time_gain=deterministic")
    except (BenchError, OSError, ValueError, KeyError) as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 2

    for run in runs:
        print(f"{args.workload} mix: {json.dumps(run['mix'])}")
        print(f"{args.workload} notes: {json.dumps(run['notes'])}")
        for message in run["errors"]:
            print(f"{args.workload} error: {message}")
    wrong = sum(run["wrong"] for run in runs)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
