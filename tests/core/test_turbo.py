"""Bit-identity and eligibility coverage for the fused turbo loop.

The fused loop (``repro.core.turbo``) is the DFS driver of every
eligible run, and its contract is *schedule identity*, not mere
correctness: it must reproduce its oracle, ``run_reference`` (the
generic engine running the reference expand) — cycles, steps, traversal
output and counters — bit-for-bit.  These tests sweep that contract across
every fuzz graph family, with and without adversarial victims, and
across grid shapes that reach each branch of the inline victim search,
and pin down exactly when the fused loop engages.
"""

import numpy as np
import pytest

from repro.check.cases import FAMILIES, FuzzCase
from repro.core import inter_steal
from repro.core.config import DiggerBeesConfig
from repro.core.diggerbees import run_diggerbees, run_reference
from repro.core.turbo import turbo_eligible


def _family_case(family: str, adversarial_victims: bool) -> FuzzCase:
    """A small high-contention case (tiny rings, low steal cutoffs)."""
    return FuzzCase(
        seed=0, family=family, n_vertices=96, graph_seed=7,
        n_blocks=2, warps_per_block=2, hot_size=8, hot_cutoff=2,
        cold_cutoff=2, flush_batch=2, refill_batch=2,
        adversarial_victims=adversarial_victims,
    )


def _assert_fused_matches_reference(graph, root, cfg):
    """fused == reference on cycles/steps/parent/visited/counters."""
    assert turbo_eligible(cfg)  # the fused loop actually engages
    fused = run_diggerbees(graph, root, config=cfg)
    ref = run_reference(graph, root, config=cfg)
    assert fused.cycles == ref.cycles
    assert fused.engine.steps == ref.engine.steps
    assert np.array_equal(fused.traversal.parent, ref.traversal.parent)
    assert np.array_equal(fused.traversal.visited, ref.traversal.visited)
    assert fused.counters == ref.counters
    return fused


@pytest.mark.parametrize("family,adversarial_victims", [
    *(pytest.param(f, True, id=f) for f in FAMILIES),
    *(pytest.param(f, False, id=f"{f}-deterministic") for f in FAMILIES),
])
def test_turbo_bit_identical_across_families(family, adversarial_victims):
    """Adversarial runs keep calling ``WarpAgent._idle``; deterministic
    ones pick steal victims inside the fused loop."""
    case = _family_case(family, adversarial_victims)
    _assert_fused_matches_reference(case.build_graph(), case.root,
                                    case.build_config())


@pytest.mark.parametrize("victim_policy", ["two_choice", "random"])
@pytest.mark.parametrize("n_blocks,warps_per_block",
                         [(3, 4), (5, 2), (8, 4)])
def test_inline_victim_search_grid_shapes(n_blocks, warps_per_block,
                                          victim_policy, monkeypatch):
    """The inline search on grids whose block draws span 3, 5 and 8
    values, with both leader policies: intra and inter steals happen,
    and the two-choice leader compares two sampled blocks (on the 5 x 2
    grid two of them tie on workload, where the first must win)."""
    sizes = []
    sample = inter_steal._sample_active_blocks

    def counting_sample(*args, **kwargs):
        found = sample(*args, **kwargs)
        sizes.append(len(found))
        return found

    monkeypatch.setattr(inter_steal, "_sample_active_blocks",
                        counting_sample)
    case = FuzzCase(
        seed=0, family="grid2d", n_vertices=300, graph_seed=7,
        n_blocks=n_blocks, warps_per_block=warps_per_block, hot_size=8,
        hot_cutoff=2, cold_cutoff=2, flush_batch=2, refill_batch=2,
        victim_policy=victim_policy,
    )
    fused = _assert_fused_matches_reference(
        case.build_graph(), case.root, case.build_config())
    assert fused.counters.intra_steal_successes > 0
    assert fused.counters.inter_steal_successes > 0
    if victim_policy == "two_choice":
        assert 2 in sizes
    else:
        assert not sizes  # one uniform draw, no sampler


class TestEligibility:
    def test_default_config_fuses(self):
        assert turbo_eligible(DiggerBeesConfig())

    @pytest.mark.parametrize("overrides", [
        {"perturb_seed": 3, "jitter": 2},
        {"two_level": False},
        {"perturb_seed": 3},
        {"perturb_seed": 0},  # a falsy seed still perturbs
    ])
    def test_fallback_conditions(self, overrides):
        assert not turbo_eligible(DiggerBeesConfig(**overrides))
