"""Schedule gate over the fixed engine micro-sweep.

``test_schedule_matches_baseline`` compares the (deterministic)
simulated cycles/steps of each micro case against
``benchmarks/baseline_micro.json``, catching accidental schedule drift
regardless of machine load.  The wall-clock half of the gate is
``python -m repro.bench micro``, which CI runs with ``--record``.
"""

import json

from repro.bench import micro
from repro.core.diggerbees import run_diggerbees


def test_schedule_matches_baseline():
    recorded = json.loads(micro.default_baseline_path().read_text())
    baseline = {c["name"]: c for c in recorded["cases"]}
    for name, build, cfg in micro.MICRO_CASES:
        assert name in baseline, f"case {name} missing from baseline"
        res = run_diggerbees(build(), 0, config=cfg)
        assert res.cycles == baseline[name]["cycles"], (
            f"{name}: schedule drift (cycles {res.cycles} vs baseline "
            f"{baseline[name]['cycles']}) — determinism contract broken")
        assert res.engine.steps == baseline[name]["steps"]

