"""Self-test of the benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    python -m pytest e2e_bench -q

A tiny run of every workload must print exactly the metrics that
``BENCHMARK.json`` names, each with its unit; a deliberately corrupted
expected value (a sweep output, an exploration front) must come out as a
wrong output; and without the source tree the command must fail without
printing a result.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

import checks
import explore
import sweep

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*arguments, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *arguments],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result_line(done) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         [w["name"] for w in DEFINITION["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    done = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = result_line(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = DEFINITION["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in wanted}
    if not trace:
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())


def corrupt(tmp_path, filename: str, change) -> None:
    """Copy ``expected/`` to ``tmp_path`` and change one value there."""
    for source in (HERE / "expected").glob("*.json"):
        shutil.copy(source, tmp_path)
    path = tmp_path / filename
    document = json.loads(path.read_text())
    change(document)
    path.write_text(json.dumps(document))


def test_corrupted_expected_value_is_reported_as_wrong(tmp_path,
                                                       monkeypatch):
    def change(document):
        document["detail"]["adaptive_flight_time_s"] += 1.0

    corrupt(tmp_path, "uav_pa.json", change)
    monkeypatch.setattr(checks, "EXPECTED_DIR", tmp_path)
    report = sweep.run(sweep.setup(), 7, 0.0)
    assert report.wrong >= 1 and report.failed >= report.wrong
    assert any("uav-pa/detail/adaptive_flight_time_s" in message
               for message in report.errors)


def test_changed_exploration_front_is_reported_as_wrong(tmp_path,
                                                        monkeypatch):
    def change(document):
        document["smart-meter/fpa/base"]["front"][0][3] *= 1.0 + 1e-12

    corrupt(tmp_path, "explore.json", change)
    monkeypatch.setattr(explore, "EXPECTED_FILE", tmp_path / "explore.json")
    report = explore.run(explore.setup(), 7, 0.0)
    assert report.wrong == 1
    assert "smart-meter/fpa/base: /front[0][3]" in report.errors[0]


def test_without_the_source_tree_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "sweep", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
