#!/usr/bin/env python3
"""Regenerate the benchmark's expected outputs in ``e2e_bench/expected/``.

Run from the repo root
(``PYTHONPATH=src python e2e_bench/capture_expected.py``) only when a
change is *meant* to alter these outputs: the sweep workload compares every
run of smart-meter, uav-pa and parking-dl-m0 against these files bit for
bit (the other scenarios compare against ``tests/golden/``), and the
explore workload compares every exploration's baseline and Pareto front
against ``explore.json``.
"""

from __future__ import annotations

import json

import explore
from checks import EXPECTED_DIR, SWEEP_REFERENCES, normalise


def write(path, document) -> None:
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def main() -> None:
    from repro.scenarios.runner import ScenarioRunner, run_scenario

    for name, (where, filename, extract) in SWEEP_REFERENCES.items():
        if where == "expected":
            write(EXPECTED_DIR / filename,
                  normalise(extract(run_scenario(name))))
    write(explore.EXPECTED_FILE, {
        explore.label(*combo): explore.outputs(ScenarioRunner().run(
            explore._spec(*combo), postprocess=False))
        for combo in sorted(explore.explorations(0))})


if __name__ == "__main__":
    main()
