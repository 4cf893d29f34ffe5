"""Workload ``explore``: design-space explorations at a larger budget.

Every pass runs the full factorial {camera-pill, space-spacewire,
smart-meter, ecg-wearable} x {fpa, nsga2} x extended search {off, on}, in
an order drawn from the seed, each at 4 generations x 8 individuals on a
fresh ``ScenarioRunner`` with postprocess off.  The staged engine caches
and analysis-table lookups dominate; custom scenarios, profiling and the
service are absent.  All 16 run in every pass because their costs differ
tenfold: a seeded subset would make the pass time depend on the draw.

Checks: every pass must reproduce each exploration's baseline and Pareto
front bit for bit as captured in ``expected/explore.json`` (regenerate with
``capture_expected.py``), so a change to what the search finds is a wrong
output; on the first pass every front member is also re-evaluated on a
fresh ``EvaluationEngine`` with private caches and must reproduce its
objectives bit for bit.
"""

from __future__ import annotations

import gc
import json
import random
import time

from checks import EXPECTED_DIR, first_difference, front_members, normalise
from common import WorkloadReport, engine_hit_ratios, gains, median, \
    parse_cache_hit_ratio, parse_cache_snapshot

SCENARIOS = ("camera-pill", "space-spacewire", "smart-meter", "ecg-wearable")
OPTIMIZERS = ("fpa", "nsga2")
GENERATIONS = 4
POPULATION = 8
EXPECTED_FILE = EXPECTED_DIR / "explore.json"


def setup():
    """Imports only: the scenario registry stays lazy until the run."""
    from repro.compiler.engine import EvaluationEngine
    from repro.scenarios.runner import ScenarioRunner
    return ScenarioRunner, EvaluationEngine


def explorations(seed: int):
    """The seeded exploration order: (scenario, optimizer, extended)."""
    combos = [(scenario, optimizer, extended)
              for scenario in SCENARIOS for optimizer in OPTIMIZERS
              for extended in (False, True)]
    random.Random(seed).shuffle(combos)
    return combos


def _spec(scenario: str, optimizer: str, extended: bool):
    from repro.scenarios.registry import get_scenario
    spec = get_scenario(scenario)
    return spec.with_(teamplay=spec.teamplay.with_(
        optimizer=optimizer, extended_search=extended,
        generations=GENERATIONS, population_size=POPULATION))


def verify_front(engine_class, spec, front) -> str:
    """Re-evaluate ``front`` on a fresh engine; returns a mismatch or ''."""
    from repro.csl.parser import parse_csl
    from repro.frontend import parse
    from repro.toolchain.predictable import PredictableToolchain

    module = parse(spec.source)
    platform = spec.make_platform()
    entries = PredictableToolchain._task_entries(parse_csl(spec.csl), module)
    engine = engine_class(module, platform, list(entries.values()),
                          core=platform.predictable_cores[0], aggregate=True)
    fresh = [engine.evaluate(variant.config) for variant in front]
    expected = front_members(front)
    actual = front_members(fresh)
    for want, got in zip(expected, actual):
        if want != got:
            return f"front member {want} re-evaluates to {got}"
    return ""


def label(scenario: str, optimizer: str, extended: bool) -> str:
    return f"{scenario}/{optimizer}/{'ext' if extended else 'base'}"


def outputs(result) -> dict:
    """What an exploration found: its baseline and its Pareto front."""
    return normalise({
        "baseline": front_members([result.baseline.build.variant]),
        "front": front_members(result.teamplay.build.pareto_front)})


def run(state, seed: int, seconds: float) -> WorkloadReport:
    runner_class, engine_class = state
    with open(EXPECTED_FILE, "r", encoding="utf-8") as handle:
        expected = json.load(handle)
    combos = explorations(seed)
    labels = [label(*combo) for combo in combos]
    # Built on first use, inside the first pass's timed windows, so the
    # registry's lazy load is measured as in an untraced program.
    specs = {}
    report = WorkloadReport()
    cache_stats = []
    pairs = []
    parse_before = parse_cache_snapshot()
    started = time.perf_counter()
    while True:
        first_pass = not report.latencies
        pass_s = 0.0
        # Each pass starts from a collected heap, outside the timed window.
        gc.collect()
        for name, combo in zip(labels, combos):
            report.attempted += 1
            run_started = time.perf_counter()
            try:
                if name not in specs:
                    specs[name] = _spec(*combo)
                result = runner_class().run(specs[name], postprocess=False)
            except Exception as error:
                report.fail(f"{name}: {type(error).__name__}: {error}")
                continue
            run_ended = time.perf_counter()
            report.windows.append((run_started, run_ended))
            pass_s += run_ended - run_started
            report.completed += 1
            # Checked outside the timed window, then dropped.
            front = result.teamplay.build.pareto_front
            problem = first_difference(outputs(result),
                                       expected.get(name, {}))
            if first_pass:
                problem = problem or verify_front(engine_class, specs[name],
                                                  front)
                baseline = result.baseline.build.variant
                pairs.append((baseline.energy_j,
                              min(v.energy_j for v in front),
                              baseline.wcet_time_s,
                              min(v.wcet_time_s for v in front)))
                cache_stats.append(result.cache_stats)
            if problem:
                report.fail(f"wrong output: {name}: {problem}", wrong=True)
            del result, front
        report.latencies.append(pass_s)
        if time.perf_counter() - started >= seconds:
            break
    report.wall_s = sum(report.latencies)
    report.layers["frontend.parse_cache.hit_ratio"] = \
        parse_cache_hit_ratio(parse_before)
    report.energy_gain, report.time_gain = gains(pairs)
    report.mix = {
        "passes": len(report.latencies),
        "explorations_per_pass": len(combos),
        "per_scenario": {s: sum(c[0] == s for c in combos)
                         for s in SCENARIOS},
        "per_optimizer": {o: sum(c[1] == o for c in combos)
                          for o in OPTIMIZERS},
        "per_search_space": {"base": sum(not c[2] for c in combos),
                             "extended": sum(c[2] for c in combos)},
        "order": labels,
    }
    report.notes = {"explore_s": median(report.latencies),
                    "explore_samples": len(report.latencies)}
    report.layers.update(engine_hit_ratios(cache_stats))
    return report
