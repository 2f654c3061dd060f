"""Coverage for the vectorized steal protocol in the hive engine.

``repro.core.hive`` executes refills, intra-block steals and inter-block
leader steals as batched NumPy passes.  The contract is unchanged from
the scalar protocol: every run must stay bit-identical to the scalar
engines, including the protocol counters.  These tests drive the vector
passes with real steal traffic (skewed trees and hub graphs on tight
stack geometry) and check them against the scalar (fused) engine, plus
the execution-path accounting in the ``stats`` dict.

The scenarios deliberately include the protocol's racy corners: every
live lane bailing out in the same tick, two thieves reserving the same
victim across consecutive ticks (token CAS failure), and steals landing
on rings that a refill repopulated one tick earlier.
"""

import numpy as np
import pytest

from repro.core import intra_steal
from repro.core.config import DiggerBeesConfig
from repro.core.diggerbees import run_diggerbees
from repro.core.hive import run_hive
from repro.graphs import generators as gen


def _steal_heavy_config(**overrides) -> DiggerBeesConfig:
    """Tight rings and low cutoffs: frequent refills, steals and CAS
    races, but honest (non-adversarial) victim choice so the vector
    protocol stays engaged."""
    kwargs = dict(
        n_blocks=4, warps_per_block=4, hot_size=16, hot_cutoff=4,
        cold_cutoff=8, flush_batch=4, refill_batch=4, cold_reserve=64,
        seed=5,
    )
    kwargs.update(overrides)
    return DiggerBeesConfig(**kwargs)


def _assert_same(ref, res, label):
    assert res.cycles == ref.cycles, label
    assert res.engine.steps == ref.engine.steps, label
    assert np.array_equal(res.traversal.parent, ref.traversal.parent), label
    assert np.array_equal(res.traversal.visited, ref.traversal.visited), label
    assert res.counters == ref.counters, label
    assert res.engine.exact_cycles, label


GRAPHS = {
    "skewed_tree": lambda: gen.skewed_tree(2000, seed=3),
    "hub": lambda: gen.preferential_attachment(1500, m=4, seed=6),
    "road": lambda: gen.road_network(1200, seed=1),
}


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_vector_bit_identical_and_nonvacuous(graph_name):
    """Vector hive == scalar engine, with real steal traffic (refills,
    intra + inter successes, CAS failures all nonzero) and no lanes
    routed through the scalar fallback."""
    graph = GRAPHS[graph_name]()
    cfg = _steal_heavy_config()
    scalar = run_diggerbees(graph, 0, config=cfg)

    stats = {}
    vec = run_hive(graph, [(0, cfg)] * 4, stats=stats)
    for i, v in enumerate(vec):
        _assert_same(scalar, v, f"{graph_name} vector run {i}")

    c = scalar.counters
    assert c.refills > 0 and c.refill_entries > 0
    assert c.intra_steal_successes > 0
    assert c.inter_steal_successes > 0
    assert c.cas_failures > 0  # two thieves hit one victim at least once
    assert stats["fallback_lane_fraction"] == 0.0
    assert stats["vector_refills"] > 0
    assert stats["vector_steal_selects"] > 0
    assert stats["vector_reserves_intra"] > 0
    assert stats["vector_reserves_inter"] > 0


@pytest.mark.parametrize("batch", [1, 64])
def test_batch_one_and_batch_exceeding_tasks(batch):
    """batch=1 (every run its own lockstep batch) and batch far larger
    than the task list both reproduce the scalar result."""
    graph = GRAPHS["skewed_tree"]()
    cfg = _steal_heavy_config()
    scalar = run_diggerbees(graph, 0, config=cfg)
    results = run_hive(graph, [(0, cfg)] * 3, batch=batch)
    assert len(results) == 3
    for i, res in enumerate(results):
        _assert_same(scalar, res, f"batch={batch} run {i}")


def test_all_lanes_steal_same_tick_lockstep():
    """Identical seeds keep every lane in perfect lockstep, so whenever
    one lane bails out to steal, *all* live lanes do — the vector passes
    must handle a full-width reservation wave."""
    graph = GRAPHS["hub"]()
    cfg = _steal_heavy_config(seed=9)
    stats = {}
    results = run_hive(graph, [(0, cfg)] * 8, stats=stats)
    first = results[0]
    assert first.counters.intra_steal_successes > 0
    for i, res in enumerate(results[1:], start=1):
        _assert_same(first, res, f"lockstep lane {i}")
    assert stats["vector_reserves_intra"] >= 8
    assert stats["fallback_lane_fraction"] == 0.0


def test_steal_racing_refill():
    """Refill traffic interleaved with steals on the same warps: the
    deep skewed spine starves rings while the cold segments stay loaded,
    so the same drain alternates refills and steals tick by tick."""
    graph = gen.skewed_tree(3000, skew=0.9, seed=4)
    cfg = _steal_heavy_config(hot_cutoff=6, refill_batch=6)
    scalar = run_diggerbees(graph, 0, config=cfg)
    assert scalar.counters.refills > 0
    assert scalar.counters.intra_steal_successes > 0
    for i, res in enumerate(run_hive(graph, [(0, cfg)] * 4)):
        _assert_same(scalar, res, f"refill-race run {i}")


def test_heterogeneous_seeds_cas_validation():
    """Different seeds desynchronize the lanes; thieves whose observed
    token went stale must fail their CAS exactly as the scalar protocol
    does, with identical per-run counters."""
    graph = GRAPHS["road"]()
    cfg = _steal_heavy_config()
    tasks = [(0, cfg.with_overrides(seed=s)) for s in (1, 2, 3, 4, 5)]
    refs = [run_diggerbees(graph, 0, config=c) for _, c in tasks]
    results = run_hive(graph, tasks)
    assert any(r.counters.cas_failures > 0 for r in refs)
    for i, (ref, res) in enumerate(zip(refs, results)):
        _assert_same(ref, res, f"hetero-seed run {i}")


def test_patched_protocol_routes_to_fallback(monkeypatch):
    """Monkeypatching a protocol function (as repro.check's mutation
    harness does) must disable the vector passes for the whole drain and
    route every event through the scalar per-agent step — same results,
    nonzero fallback fraction."""
    graph = GRAPHS["skewed_tree"]()
    cfg = _steal_heavy_config()
    scalar = run_diggerbees(graph, 0, config=cfg)

    orig = intra_steal.select_victim

    def wrapper(state, block, warp_id):
        return orig(state, block, warp_id)

    monkeypatch.setattr(intra_steal, "select_victim", wrapper)
    stats = {}
    results = run_hive(graph, [(0, cfg)] * 2, stats=stats)
    for i, res in enumerate(results):
        _assert_same(scalar, res, f"patched run {i}")
    assert stats["fallback_lane_fraction"] > 0.0
    assert stats["vector_refills"] == 0
    assert stats["vector_reserves_intra"] == 0
