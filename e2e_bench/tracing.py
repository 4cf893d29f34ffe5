"""In-memory span tracing for the traced benchmark run.

The program itself carries no tracing: :func:`instrument` wraps the public
entry points of each layer (``src/repro/...``) from the outside, records one
span per call (id, parent span, name, start, end) in memory,
and :meth:`Tracer.layer_times` folds the spans into per-layer inclusive and
self times.  A layer's self time is its span's duration minus the time its
direct child spans cover.

Only the traced run installs the wrappers, so the untraced run measures the
unmodified program.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

#: One recorded span: (id, parent id or 0, name, start, end, nested) --
#: ``nested`` marks a span opened inside a span of the same name, which
#: inclusive totals skip so recursion is not counted twice.
Span = Tuple[int, int, str, float, float, bool]


#: Pipeline stage methods and the passes whose time the benchmark reports.
PIPELINE_STAGES = ("pre_unroll", "unroll_and_lower", "ir_passes",
                   "backend_passes")
PIPELINE_PASSES = ("unroll-loops", "lower-to-ir", "dead-code-elimination",
                   "strength-reduction", "constant-folding")


class Tracer:
    """Collects spans from every thread; spans stay in memory until dumped."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    # ----------------------------------------------------------- recording --
    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else 0
        nested = any(entry[1] == name for entry in stack)
        stack.append((span_id, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end, nested))

    def wrap(self, function: Callable, name) -> Callable:
        """``function`` recording a span per call.

        ``name`` is a span name or a callable deriving it from the call's
        arguments (e.g. the pass name handed to ``PassManager.run``).
        """
        tracer = self

        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with tracer.span(label):
                return function(*args, **kwargs)

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", "traced")
        return traced

    # ------------------------------------------------------------ patching --
    def patch(self, owner: type, attribute: str, name) -> None:
        """Replace the method ``owner.attribute`` by a traced wrapper."""
        setattr(owner, attribute, self.wrap(owner.__dict__[attribute], name))

    def patch_function(self, module, attribute: str, name) -> None:
        """Trace a module-level function everywhere it was imported by name.

        Modules imported later pick the wrapper up from ``module`` itself.
        """
        original = getattr(module, attribute)
        traced = self.wrap(original, name)
        for loaded in list(sys.modules.values()):
            if (getattr(loaded, "__name__", "").startswith("repro")
                    and getattr(loaded, attribute, None) is original):
                setattr(loaded, attribute, traced)

    # ------------------------------------------------------------- folding --
    def in_windows(self, windows: List[Tuple[float, float]]) -> List[Span]:
        """The spans that started inside one of the measured windows."""
        return [span for span in self.spans
                if any(start <= span[3] < end for start, end in windows)]

    @staticmethod
    def layer_times(spans: List[Span]) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``s`` and ``self_s``."""
        child_time: Dict[int, float] = {}
        for _sid, parent, _name, start, end, _nested in spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        layers: Dict[str, Dict[str, float]] = {}
        for sid, _parent, name, start, end, nested in spans:
            row = layers.setdefault(name, {"calls": 0, "s": 0.0,
                                           "self_s": 0.0})
            duration = end - start
            row["calls"] += 1
            if not nested:
                row["s"] += duration
            row["self_s"] += duration - child_time.get(sid, 0.0)
        return layers

    @staticmethod
    def top_level_union_s(spans: List[Span], start: float,
                          end: float) -> float:
        """Wall time inside [start, end] covered by some top-level span."""
        intervals = sorted((max(s, start), min(e, end))
                           for _sid, parent, _name, s, e, _nested in spans
                           if not parent and e > start and s < end)
        covered = 0.0
        current_start = current_end = None
        for s, e in intervals:
            if current_end is None or s > current_end:
                if current_end is not None:
                    covered += current_end - current_start
                current_start, current_end = s, e
            else:
                current_end = max(current_end, e)
        if current_end is not None:
            covered += current_end - current_start
        return covered

    def dump(self, path: str) -> None:
        """Write every span as one JSON document (called once, at the end)."""
        keys = ("id", "parent", "name", "start", "end", "nested")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": [dict(zip(keys, span))
                                 for span in self.spans]}, handle)


class _TracedHook:
    """A traced spec hook that still pickles as the original callable.

    The service journal pickles each result, spec included; the wrapper
    reduces to the hook it wraps so tracing never changes what is stored.
    """

    def __init__(self, tracer: Tracer, function: Callable, name: str):
        self._call = tracer.wrap(function, name)
        self.function = function

    def __call__(self, *args, **kwargs):
        return self._call(*args, **kwargs)

    def __reduce__(self):
        return (_identity, (self.function,))


def _identity(value):
    return value


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry point of every layer the benchmark reports."""
    from repro.compiler.engine.cache import AnalysisCache
    from repro.compiler.engine.evaluator import EvaluationEngine
    from repro.compiler.fpa import FlowerPollinationOptimizer
    from repro.compiler.nsga2 import Nsga2Optimizer
    from repro.compiler.pipeline.compile import CompilationPipeline
    from repro.compiler.pipeline.manager import PassManager
    from repro.contracts.checker import ContractChecker
    from repro.coordination import schedulers
    import repro.csl.parser
    from repro.scenarios.registry import get_scenario
    from repro.scenarios.runner import ScenarioRunner
    from repro.service.http import ServiceRequestHandler
    from repro.service.journal import JobJournal
    from repro.toolchain.complexflow import ComplexToolchain
    from repro.toolchain.predictable import PredictableToolchain
    from repro.wcet.paths import PathSensitiveMixin

    tracer.patch(CompilationPipeline, "parse", "frontend.parse")
    tracer.patch_function(repro.csl.parser, "parse_csl", "csl.parse")
    for stage in PIPELINE_STAGES:
        tracer.patch(CompilationPipeline, stage, f"pipeline.{stage}")
    tracer.patch(PassManager, "run",
                 lambda manager, name, *rest, **kw: f"pipeline.{name}")
    tracer.patch(EvaluationEngine, "evaluate", "engine.evaluate")
    tracer.patch(AnalysisCache, "wcet", "analysis.wcet")
    tracer.patch(AnalysisCache, "wcec", "analysis.wcec")
    # The engines' path-sensitive analysis enumerates each loop-free unit
    # here (``PathStats.wall_s`` times the same call).
    tracer.patch(PathSensitiveMixin, "_unit_cost",
                 "analysis.path_feasibility")
    tracer.patch(FlowerPollinationOptimizer, "optimize", "search.optimize")
    tracer.patch(Nsga2Optimizer, "optimize", "search.optimize")
    tracer.patch(PredictableToolchain, "build", "toolchain.predictable_build")
    tracer.patch(ComplexToolchain, "build", "toolchain.complex_build")
    for scheduler in (schedulers.SequentialScheduler,
                      schedulers.TimeGreedyScheduler,
                      schedulers.EnergyAwareScheduler):
        tracer.patch(scheduler, "schedule", "coordination.schedule")
    tracer.patch(ContractChecker, "check", "contracts.check")
    tracer.patch(ServiceRequestHandler, "do_POST", "service.http.submit")
    for record in ("record_submit", "record_finish", "record_cancel"):
        tracer.patch(JobJournal, record, "service.journal.append")

    # Scenario hooks: the runner calls ``spec.workload``,
    # ``spec.custom_run``, ``spec.postprocess`` and each side's ``custom``
    # hook; run each scenario on a copy of its spec whose hooks are traced.
    # The registry lookup happens exactly where the untraced runner would
    # make it.
    original_run = ScenarioRunner.__dict__["run"]

    def run(runner, scenario, generations=None, population_size=None,
            profiling_runs=None, postprocess=True):
        spec = get_scenario(scenario) if isinstance(scenario, str) \
            else scenario
        hooks = {}
        if spec.custom_run is not None:
            hooks["custom_run"] = _TracedHook(tracer, spec.custom_run,
                                              "scenarios.custom_run")
        if spec.postprocess is not None:
            hooks["postprocess"] = _TracedHook(tracer, spec.postprocess,
                                               "scenarios.postprocess")
        if spec.workload is not None:
            hooks["workload"] = _TracedHook(tracer, spec.workload,
                                            "scenarios.workload")
        for side in ("baseline", "teamplay"):
            options = getattr(spec, side)
            if options.custom is not None:
                hooks[side] = options.with_(custom=_TracedHook(
                    tracer, options.custom, "scenarios.custom_build"))
        return original_run(runner, spec.with_(**hooks) if hooks else spec,
                            generations, population_size, profiling_runs,
                            postprocess)

    ScenarioRunner.run = run


def span_metrics(tracer: Tracer, operations: int,
                 windows: List[Tuple[float, float]]) -> Dict[str, float]:
    """Per-operation layer times and call counts from the recorded spans.

    Only spans of the measured ``windows`` count (the output checks run
    between them).  ``unattributed.s`` is the part of the windows that no
    top-level span covers; spans of concurrent threads are merged, not
    summed.
    """
    spans = tracer.in_windows(windows)
    layers = tracer.layer_times(spans)
    operations = max(operations, 1)
    attributed = sum(tracer.top_level_union_s(spans, start, end)
                     for start, end in windows)

    def per_op(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0.0) / operations

    metrics = {
        "frontend.parse.s": per_op("frontend.parse", "s"),
        "csl.parse.s": per_op("csl.parse", "s"),
        "engine.evaluate.calls": per_op("engine.evaluate", "calls"),
        "engine.evaluate.self_s": per_op("engine.evaluate", "self_s"),
        "analysis.wcet.calls": per_op("analysis.wcet", "calls"),
        "analysis.wcec.calls": per_op("analysis.wcec", "calls"),
        "analysis.self_s": (per_op("analysis.wcet", "self_s")
                            + per_op("analysis.wcec", "self_s")),
        "analysis.path_feasibility.s": per_op("analysis.path_feasibility",
                                              "s"),
        "search.optimize.self_s": per_op("search.optimize", "self_s"),
        "toolchain.predictable_build.self_s":
            per_op("toolchain.predictable_build", "self_s"),
        "toolchain.complex_build.self_s":
            per_op("toolchain.complex_build", "self_s"),
        "coordination.schedule.s": per_op("coordination.schedule", "s"),
        "contracts.check.self_s": per_op("contracts.check", "self_s"),
        "scenarios.custom_run.self_s": per_op("scenarios.custom_run",
                                              "self_s"),
        "scenarios.postprocess.self_s": per_op("scenarios.postprocess",
                                               "self_s"),
        "scenarios.custom_build.self_s": per_op("scenarios.custom_build",
                                                "self_s"),
        "scenarios.workload.self_s": per_op("scenarios.workload", "self_s"),
        "service.journal.append_s": per_op("service.journal.append", "s"),
        "unattributed.s": (sum(end - start for start, end in windows)
                           - attributed) / operations,
    }
    for stage in PIPELINE_STAGES:
        metrics[f"pipeline.{stage}.s"] = per_op(f"pipeline.{stage}", "s")
        metrics[f"pipeline.{stage}.calls"] = per_op(f"pipeline.{stage}",
                                                    "calls")
    for name in PIPELINE_PASSES:
        metrics[f"pipeline.{name}.s"] = per_op(f"pipeline.{name}", "s")
    return metrics
