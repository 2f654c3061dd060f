"""Bit-identity and eligibility coverage for the fused turbo loop.

The fused loop (``repro.core.turbo``) is the DFS driver of every
eligible run, and its contract is *schedule identity*, not mere
correctness: it must reproduce the generic engine running the
``fastpath=False`` reference expand — cycles, steps, traversal output
and counters — bit-for-bit.  These tests sweep that contract across
every fuzz graph family and pin down exactly when the fused loop
engages.
"""

import numpy as np
import pytest

from repro.check.cases import FAMILIES, FuzzCase
from repro.core.config import DiggerBeesConfig
from repro.core.diggerbees import run_diggerbees
from repro.core.turbo import turbo_eligible


def _family_case(family: str) -> FuzzCase:
    """A small high-contention case (tiny rings, adversarial victims)."""
    return FuzzCase(
        seed=0, family=family, n_vertices=96, graph_seed=7,
        n_blocks=2, warps_per_block=2, hot_size=8, hot_cutoff=2,
        cold_cutoff=2, flush_batch=2, refill_batch=2,
        adversarial_victims=True,
    )


@pytest.mark.parametrize("family", FAMILIES)
def test_turbo_bit_identical_across_families(family):
    """fused == reference on cycles/steps/parent/visited/counters."""
    case = _family_case(family)
    graph = case.build_graph()
    cfg = case.build_config()
    assert turbo_eligible(cfg)  # the fused loop actually engages
    fused = run_diggerbees(graph, case.root, config=cfg)
    ref = run_diggerbees(graph, case.root,
                         config=case.build_config(fastpath=False))
    assert fused.cycles == ref.cycles
    assert fused.engine.steps == ref.engine.steps
    assert np.array_equal(fused.traversal.parent, ref.traversal.parent)
    assert np.array_equal(fused.traversal.visited, ref.traversal.visited)
    assert fused.counters == ref.counters


class TestEligibility:
    def test_default_config_fuses(self):
        assert turbo_eligible(DiggerBeesConfig())

    @pytest.mark.parametrize("overrides", [
        {"fastpath": False},
        {"two_level": False},
        {"perturb_seed": 3},
        {"perturb_seed": 0},  # a falsy seed still perturbs
    ])
    def test_fallback_conditions(self, overrides):
        assert not turbo_eligible(DiggerBeesConfig(**overrides))
