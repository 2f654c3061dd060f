"""Bit-identity and eligibility coverage for the fused turbo loop.

The fused loop (``repro.core.turbo``) is the DFS driver of every
eligible run, and its contract is *schedule identity*, not mere
correctness: it must reproduce its oracle, ``run_reference`` (the
generic engine running the reference expand) — cycles, steps, traversal
output and counters — bit-for-bit.  These tests sweep that contract across
every fuzz graph family, with and without adversarial victims, and
across grid shapes that reach each branch of the victim search, check
that the fused loop searches through the shared ``select_victim``
functions without ever stepping ``WarpAgent._idle``, check that a traced
run (which takes the generic loop) keeps the untraced schedule, and pin
down exactly when the fused loop engages.
"""

import numpy as np
import pytest

from repro.check.cases import FAMILIES, FuzzCase
from repro.core import inter_steal
from repro.core.config import DiggerBeesConfig
from repro.core.diggerbees import run_diggerbees, run_reference
from repro.core.turbo import turbo_eligible
from repro.core.warp_dfs import WarpAgent
from repro.graphs import generators as gen


def _family_case(family: str, adversarial_victims: bool) -> FuzzCase:
    """A small high-contention case (tiny rings, low steal cutoffs)."""
    return FuzzCase(
        seed=0, family=family, n_vertices=96, graph_seed=7,
        n_blocks=2, warps_per_block=2, hot_size=8, hot_cutoff=2,
        cold_cutoff=2, flush_batch=2, refill_batch=2,
        adversarial_victims=adversarial_victims,
    )


def _assert_same_run(a, b):
    """a == b on cycles/steps/parent/visited/counters."""
    assert a.cycles == b.cycles
    assert a.engine.steps == b.engine.steps
    assert np.array_equal(a.traversal.parent, b.traversal.parent)
    assert np.array_equal(a.traversal.visited, b.traversal.visited)
    assert a.counters == b.counters


def _assert_fused_matches_reference(graph, root, cfg):
    """fused == reference on cycles/steps/parent/visited/counters."""
    assert turbo_eligible(cfg)  # the fused loop actually engages
    fused = run_diggerbees(graph, root, config=cfg)
    _assert_same_run(fused, run_reference(graph, root, config=cfg))
    return fused


@pytest.mark.parametrize("family,adversarial_victims", [
    *(pytest.param(f, True, id=f) for f in FAMILIES),
    *(pytest.param(f, False, id=f"{f}-deterministic") for f in FAMILIES),
])
def test_turbo_bit_identical_across_families(family, adversarial_victims):
    """Adversarial runs draw random qualifying victims from ``fuzz_rng``
    and deterministic ones take the largest rest, through the same
    ``select_victim`` calls on both loops."""
    case = _family_case(family, adversarial_victims)
    _assert_fused_matches_reference(case.build_graph(), case.root,
                                    case.build_config())


@pytest.mark.parametrize("family", FAMILIES)
def test_trace_changes_no_schedule(family):
    """Turning the trace on moves a run from the fused loop to the
    generic one and changes nothing else; the trace holds one ``visit``
    event per claim after the root's."""
    case = _family_case(family, adversarial_victims=False)
    graph, cfg = case.build_graph(), case.build_config()
    traced_cfg = cfg.with_overrides(trace=True)
    assert turbo_eligible(cfg) and not turbo_eligible(traced_cfg)
    fused = run_diggerbees(graph, case.root, config=cfg)
    traced = run_diggerbees(graph, case.root, config=traced_cfg)
    assert fused.trace is None
    _assert_same_run(fused, traced)
    assert not traced.trace.truncated
    assert (len(traced.trace.filter(kind="visit"))
            == traced.counters.vertices_visited - 1)


@pytest.mark.parametrize("victim_policy", ["two_choice", "random"])
@pytest.mark.parametrize("n_blocks,warps_per_block",
                         [(3, 4), (5, 2), (8, 4)])
def test_victim_search_grid_shapes(n_blocks, warps_per_block,
                                   victim_policy, monkeypatch):
    """The victim search on grids whose block draws span 3, 5 and 8
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


def _adversarial_case():
    case = _family_case("grid2d", True)
    return case.build_graph(), case.root, case.build_config()


def _two_gpu_case():
    """A 2-GPU grid that runs one GPU dry (remote steals happen)."""
    return gen.road_network(6000, seed=5), 0, DiggerBeesConfig(
        n_blocks=8, warps_per_block=4, n_gpus=2, hot_size=32,
        hot_cutoff=8, cold_cutoff=8, flush_batch=8, refill_batch=8,
        cold_reserve=32, seed=5)


@pytest.mark.parametrize("build", [_adversarial_case, _two_gpu_case],
                         ids=["adversarial", "two-gpu"])
def test_fused_loop_never_calls_idle(build, monkeypatch):
    """The two kinds of run that draw victims from ``fuzz_rng`` or fall
    back to remote steals search inside the fused loop too: it never
    steps ``WarpAgent._idle``, which the generic loop calls, and both
    loops still agree bit for bit."""
    graph, root, cfg = build()

    def refuse(self, now):
        raise AssertionError("the fused loop called WarpAgent._idle")

    assert turbo_eligible(cfg)
    with monkeypatch.context() as m:
        m.setattr(WarpAgent, "_idle", refuse)
        fused = run_diggerbees(graph, root, config=cfg)
    idle = WarpAgent._idle
    calls = []

    def counting(self, now):
        calls.append(now)
        return idle(self, now)

    monkeypatch.setattr(WarpAgent, "_idle", counting)
    _assert_same_run(fused, run_reference(graph, root, config=cfg))
    assert calls
    assert (fused.counters.intra_steal_successes
            + fused.counters.inter_steal_successes) > 0
    if cfg.n_gpus > 1:
        assert fused.counters.remote_steal_successes > 0


class TestEligibility:
    def test_default_config_fuses(self):
        assert turbo_eligible(DiggerBeesConfig())

    @pytest.mark.parametrize("overrides", [
        {"perturb_seed": 3, "jitter": 2},
        {"two_level": False},
        {"perturb_seed": 3},
        {"perturb_seed": 0},  # a falsy seed still perturbs
        {"trace": True},
    ])
    def test_fallback_conditions(self, overrides):
        assert not turbo_eligible(DiggerBeesConfig(**overrides))
