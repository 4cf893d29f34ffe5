"""Workload ``sweep``: every registered scenario, once per operation.

This is the paper's evaluation (E1-E6 plus two extra scenarios) at default
budgets with postprocess hooks on, through ``run_scenario``.  It is the only
workload dominated by E5's fixed-config builds (``parking-dl-m0``), E6's
workload model (building the parking CNN) and the scenario hooks; its
searches are small (3 generations x 6).  The scenario set is the one the
output checks hold references for (every scenario registered at this
commit); the seed only shuffles the scenario order of each pass.  The first
timed run makes the registry's lazy first load, as an untraced caller would.
"""

from __future__ import annotations

import gc
import random
import time

from checks import SWEEP_REFERENCES, SweepChecker
from common import WorkloadReport, engine_hit_ratios, gains, median, \
    parse_cache_hit_ratio, parse_cache_snapshot, report_pair


def setup():
    """Imports only: the scenario registry stays lazy until the first run."""
    from repro.scenarios.runner import run_scenario
    return run_scenario


def run(run_scenario, seed: int, seconds: float) -> WorkloadReport:
    rng = random.Random(seed)
    checker = SweepChecker()
    report = WorkloadReport()
    order_by_pass = []
    cache_stats = []
    parse_before = parse_cache_snapshot()
    started = time.perf_counter()
    while True:
        names = list(SWEEP_REFERENCES)
        rng.shuffle(names)
        order_by_pass.append(names)
        pairs = []
        pass_s = 0.0
        # Each pass starts from a collected heap, outside the timed window.
        gc.collect()
        for name in names:
            report.attempted += 1
            run_started = time.perf_counter()
            try:
                result = run_scenario(name)
            except Exception as error:  # a failed run counts, the pass goes on
                report.fail(f"{name}: {type(error).__name__}: {error}")
                continue
            run_ended = time.perf_counter()
            report.windows.append((run_started, run_ended))
            pass_s += run_ended - run_started
            report.completed += 1
            # Check each result outside the timed window, then drop it, so
            # no pass holds more than one result.
            problem = checker.check(result)
            if problem:
                report.fail(f"wrong output: {problem}", wrong=True)
            if result.cache_stats is not None:
                cache_stats.append(result.cache_stats)
            if result.report is not None:
                pairs.append(report_pair(result.report))
            del result
        report.latencies.append(pass_s)
        if len(report.latencies) == 1:
            report.energy_gain, report.time_gain = gains(pairs)
        if time.perf_counter() - started >= seconds:
            break
    report.wall_s = sum(report.latencies)
    report.layers["frontend.parse_cache.hit_ratio"] = \
        parse_cache_hit_ratio(parse_before)
    report.mix = {"passes": len(order_by_pass),
                  "scenarios_per_pass": len(order_by_pass[0]),
                  "first_order": order_by_pass[0]}
    report.notes = {"sweep_s": median(report.latencies),
                    "sweep_samples": len(report.latencies)}
    report.layers.update(engine_hit_ratios(cache_stats))
    return report
