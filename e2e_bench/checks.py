"""Output checks: every benchmark operation's result against a reference.

Sweep results are compared field by field with the golden fixtures in
``tests/golden/`` (read only) or, for the scenarios that have none, with
the expected files in ``e2e_bench/expected/`` (regenerate those with
``capture_expected.py``).  Floats must match bit for bit: JSON stores them
by ``repr``, which round-trips exactly.
"""

from __future__ import annotations

import importlib.util
import json
from typing import Callable, Dict, List, Optional

from common import ROOT

GOLDEN_DIR = ROOT / "tests" / "golden"
EXPECTED_DIR = ROOT / "e2e_bench" / "expected"


def _golden_capture():
    """``tests/golden/capture.py``, imported read only by its path.

    Its ``report_dict`` and ``front_dict`` define the shape of the golden
    documents; the adapters below reuse them so the benchmark's documents
    cannot drift from the goldens.
    """
    spec = importlib.util.spec_from_file_location(
        "golden_capture", GOLDEN_DIR / "capture.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_capture = _golden_capture()
report_dict = _capture.report_dict
front_dict = _capture.front_dict


# The golden captures run each use case themselves; these adapters build the
# same documents from a ``ScenarioResult`` of the sweep.
def _camera_pill(result) -> dict:
    comparison = result.detail
    return {
        "report": report_dict(comparison.report),
        "radio_energy_per_frame_j": comparison.radio_energy_per_frame_j,
        "certificate_valid": comparison.certificate_valid,
        "selected_config": comparison.teamplay.variant.config.short_name(),
        "pareto_front": front_dict(comparison.teamplay.pareto_front),
    }


def _space(result) -> dict:
    comparison = result.detail
    return {
        "report": report_dict(comparison.report),
        "baseline_energy_per_period_j":
            comparison.baseline_energy_per_period_j,
        "teamplay_energy_per_period_j":
            comparison.teamplay_energy_per_period_j,
        "spacewire_energy_per_period_j":
            comparison.spacewire_energy_per_period_j,
        "deadline_misses": comparison.executive_log.deadline_misses,
        "all_deadlines_met": comparison.all_deadlines_met,
        "selected_config": comparison.teamplay.variant.config.short_name(),
        "pareto_front": front_dict(comparison.teamplay.pareto_front),
    }


def _uav_sar(result) -> dict:
    comparison = result.detail
    return {
        "report": report_dict(comparison.report),
        "baseline_software_power_w": comparison.baseline_software_power_w,
        "teamplay_software_power_w": comparison.teamplay_software_power_w,
        "baseline_flight_time_s": comparison.baseline_flight_time_s,
        "teamplay_flight_time_s": comparison.teamplay_flight_time_s,
        "flight_time_gain_s": comparison.flight_time_gain_s,
    }


def _parking_tk1(result) -> dict:
    comparison = result.detail
    return {
        "report": report_dict(comparison.report),
        "teamplay_energy_j": comparison.teamplay_energy_j,
        "manual_energy_j": comparison.manual_energy_j,
        "energy_ratio": comparison.energy_ratio,
        "time_ratio": comparison.time_ratio,
    }


def _ecg_wearable(result) -> dict:
    analysis = result.cache_stats["analysis"]
    return {
        "report": report_dict(result.report),
        "selected_config": result.teamplay.build.variant.config.short_name(),
        "baseline_config": result.baseline.build.variant.config.short_name(),
        "path_counters": {key: analysis[key] for key in (
            "path_units", "paths_enumerated", "paths_pruned",
            "path_cap_fallbacks", "path_irregular_fallbacks")},
    }


def _smart_meter(result) -> dict:
    return {
        "report": report_dict(result.report),
        "selected_config": result.teamplay.build.variant.config.short_name(),
        "baseline_config": result.baseline.build.variant.config.short_name(),
        "pareto_front": front_dict(result.teamplay.build.pareto_front),
    }


def _uav_pa(result) -> dict:
    return {"detail": result.summary()["detail"]}


def _parking_m0(result) -> dict:
    return {"rows": [row.as_dict() for row in result.detail],
            "detail": result.summary()["detail"]}


#: scenario name -> (reference file, extractor); ``golden`` marks files
#: under ``tests/golden/``, the rest live in the benchmark's expected dir.
SWEEP_REFERENCES: Dict[str, tuple] = {
    "camera-pill": ("golden", "camera_pill_e1.json", _camera_pill),
    "space-spacewire": ("golden", "space_e2.json", _space),
    "uav-sar": ("golden", "uav_sar_e3.json", _uav_sar),
    "parking-dl-tk1": ("golden", "parking_tk1_e6.json", _parking_tk1),
    "ecg-wearable": ("golden", "ecg_wearable.json", _ecg_wearable),
    "smart-meter": ("expected", "smart_meter.json", _smart_meter),
    "uav-pa": ("expected", "uav_pa.json", _uav_pa),
    "parking-dl-m0": ("expected", "parking_dl_m0.json", _parking_m0),
}


def normalise(document):
    """The document as JSON would store it (tuples become lists etc.)."""
    return json.loads(json.dumps(document))


def first_difference(actual, expected, path: str = "") -> Optional[str]:
    """Where two JSON documents first differ, or ``None`` when equal."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in actual or key not in expected:
                return f"{path}/{key}: missing"
            found = first_difference(actual[key], expected[key],
                                     f"{path}/{key}")
            if found:
                return found
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        if len(actual) != len(expected):
            return f"{path}: {len(actual)} items, expected {len(expected)}"
        for index, (a, e) in enumerate(zip(actual, expected)):
            found = first_difference(a, e, f"{path}[{index}]")
            if found:
                return found
        return None
    if actual != expected or type(actual) is not type(expected):
        return f"{path}: {actual!r} != expected {expected!r}"
    return None


class SweepChecker:
    """Checks sweep results against the loaded reference documents."""

    def __init__(self):
        self.references: Dict[str, dict] = {}
        self.extractors: Dict[str, Callable] = {}
        for name, (where, filename, extract) in SWEEP_REFERENCES.items():
            directory = GOLDEN_DIR if where == "golden" else EXPECTED_DIR
            with open(directory / filename, "r", encoding="utf-8") as handle:
                self.references[name] = json.load(handle)
            self.extractors[name] = extract

    def check(self, result) -> Optional[str]:
        """``None`` when ``result`` matches its reference, else the reason."""
        name = result.spec.name
        if name not in self.references:
            return f"{name}: no reference output"
        actual = normalise(self.extractors[name](result))
        found = first_difference(actual, self.references[name])
        return None if found is None else f"{name}{found}"


def summary_for_comparison(summary: dict) -> dict:
    """A service result summary without its run-dependent counters.

    ``cache_stats`` depends on which cache tier answered and
    ``pipeline_stats`` holds wall times; everything else is the computed
    result and must match a direct run bit for bit.
    """
    return normalise({key: value for key, value in summary.items()
                      if key not in ("cache_stats", "pipeline_stats")})


def front_members(front) -> List[tuple]:
    """The objectives of a front, as compared bit for bit."""
    return [(variant.config.short_name(), variant.wcet_cycles,
             variant.wcet_time_s, variant.energy_j, variant.code_size_bytes)
            for variant in front]
