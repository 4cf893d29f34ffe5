"""Shared pieces of the benchmark workloads: statistics and result shape."""

from __future__ import annotations

import math
import pathlib
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Scratch space inside the checkout (journals, cache dirs, trace files).
TMP_DIR = ROOT / ".bench_tmp"
TRACE_DIR = ROOT / ".bench_out"


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: List[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive interpolation), 0 when empty."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) \
        if values else 0.0


def ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


@dataclass
class WorkloadReport:
    """What one workload process measured, checked and traced."""

    #: Operations attempted and the ones that failed, were refused or
    #: produced a wrong output (``wrong`` is the subset that was wrong).
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    errors: List[str] = field(default_factory=list)
    #: Per-operation latencies (s) and the measured wall time (s).
    latencies: List[float] = field(default_factory=list)
    completed: int = 0
    wall_s: float = 0.0
    #: The timed (start, end) windows; output checks run outside them.
    windows: List[Tuple[float, float]] = field(default_factory=list)
    energy_gain: float = 0.0
    time_gain: float = 0.0
    #: Per-layer metrics (traced run only), already per operation.
    layers: Dict[str, float] = field(default_factory=dict)
    #: The measured traffic mix, printed for the reader.
    mix: Dict[str, object] = field(default_factory=dict)
    #: Extra human-readable figures (printed, not part of the result line).
    notes: Dict[str, object] = field(default_factory=dict)

    def fail(self, message: str, wrong: bool = False) -> None:
        self.failed += 1
        if wrong:
            self.wrong += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def as_dict(self) -> Dict[str, object]:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "wrong": self.wrong,
            "errors": self.errors,
            "op_p50_s": median(self.latencies),
            "op_samples": len(self.latencies),
            "ops_per_s": (self.completed / self.wall_s
                          if self.wall_s else 0.0),
            "completed": self.completed,
            "energy_gain": self.energy_gain,
            "time_gain": self.time_gain,
            "layers": self.layers,
            "mix": self.mix,
            "notes": self.notes,
        }


def gains(pairs) -> tuple:
    """Geometric means of baseline/TeamPlay energy and time ratios.

    ``pairs`` holds ``(baseline_energy, teamplay_energy, baseline_time,
    teamplay_time)`` tuples.
    """
    pairs = list(pairs)
    return (geomean([be / te for be, te, _bt, _tt in pairs]),
            geomean([bt / tt for _be, _te, bt, tt in pairs]))


def report_pair(report) -> tuple:
    """The :func:`gains` tuple of an ``ImprovementReport``."""
    return (report.baseline_energy_j, report.teamplay_energy_j,
            report.baseline_time_s, report.teamplay_time_s)


def engine_hit_ratios(cache_stats: List[dict]) -> Dict[str, float]:
    """Hit ratios of the staged engine caches over several runs.

    ``cache_stats`` are ``ScenarioResult.cache_stats`` documents; counters
    of private caches are summed.  (A run on the process-wide analysis
    cache reports cumulative counters; callers replace that ratio.)
    """
    out: Dict[str, float] = {}
    for stage in ("variant", "lowering", "ir_stage", "analysis"):
        hits = sum(stats[stage]["hits"] for stats in cache_stats)
        misses = sum(stats[stage]["misses"] for stats in cache_stats)
        out[f"engine.{stage}.hit_ratio"] = ratio(hits, hits + misses)
    return out


def parse_cache_snapshot() -> Dict[str, int]:
    from repro.frontend import parse_cache_stats
    return parse_cache_stats()


def parse_cache_hit_ratio(before: Dict[str, int]) -> float:
    """Hit ratio of the process-wide parse cache since ``before``."""
    after = parse_cache_snapshot()
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return ratio(hits, hits + misses)
