"""Tests for the discovery-order extension (record_order=True)."""

import numpy as np
import pytest

from repro.core import DiggerBeesConfig, run_diggerbees
from repro.core.diggerbees import run_reference
from repro.core import state as state_mod
from repro.graphs import generators as gen
from repro.sim.trace import TraceLog

CFG = DiggerBeesConfig(n_blocks=2, warps_per_block=2, hot_size=16,
                       hot_cutoff=4, cold_cutoff=4, flush_batch=4,
                       refill_batch=4, cold_reserve=16, seed=2)


class TestRecordOrder:
    def test_order_covers_visited_exactly_once(self, small_road):
        res = run_diggerbees(small_road, 0, config=CFG, record_order=True)
        order = res.traversal.order
        assert order.size == res.n_visited
        assert len(set(order.tolist())) == order.size
        assert np.all(res.traversal.visited[order])

    def test_root_first(self, small_road):
        res = run_diggerbees(small_road, 7, config=CFG, record_order=True)
        assert res.traversal.order[0] == 7

    def test_parents_precede_children(self, small_road):
        """A discovery order is valid iff every vertex appears after its
        tree parent."""
        res = run_diggerbees(small_road, 0, config=CFG, record_order=True)
        order = res.traversal.order
        rank = np.full(small_road.n_vertices, -1, dtype=np.int64)
        rank[order] = np.arange(order.size)
        parent = res.traversal.parent
        for v in order:
            p = parent[v]
            if p >= 0:
                assert rank[p] < rank[v]

    def test_off_by_default(self, small_road):
        res = run_diggerbees(small_road, 0, config=CFG)
        assert res.traversal.order.size == 0

    def test_keeps_no_trace(self, small_road):
        """The order is kept by the run state, not read back from a
        trace: the caller's config is untouched."""
        res = run_diggerbees(small_road, 0, config=CFG, record_order=True)
        assert res.trace is None
        assert res.config.trace is False

    def test_fused_run_matches_reference_and_plain_run(self, small_road):
        """A ``record_order`` run stays on the fused loop with the same
        schedule: its order equals the reference loop's, and its cycles,
        steps and counters equal a run that keeps no order."""
        fused = run_diggerbees(small_road, 0, config=CFG, record_order=True)
        ref = run_reference(small_road, 0, config=CFG, record_order=True)
        plain = run_diggerbees(small_road, 0, config=CFG)
        assert np.array_equal(fused.traversal.order, ref.traversal.order)
        for other in (ref, plain):
            assert fused.cycles == other.cycles
            assert fused.engine.steps == other.engine.steps
            assert fused.counters == other.counters
            assert np.array_equal(fused.traversal.parent,
                                  other.traversal.parent)

    def test_deterministic(self, small_road):
        a = run_diggerbees(small_road, 0, config=CFG, record_order=True)
        b = run_diggerbees(small_road, 0, config=CFG, record_order=True)
        assert np.array_equal(a.traversal.order, b.traversal.order)

    def test_order_is_complete_past_the_trace_limit(self, monkeypatch):
        # Runs build their traces with a 500-event default limit here; a
        # 3000-vertex run records several events per vertex.
        monkeypatch.setattr(state_mod, "TraceLog", lambda: TraceLog(limit=500))
        g = gen.road_network(3000, seed=1)
        res = run_diggerbees(g, 0, config=CFG, record_order=True)
        order = res.traversal.order
        assert order.size == res.n_visited == g.n_vertices
        assert len(set(order.tolist())) == order.size
        # A diagnostic trace keeps its bound.
        traced = run_diggerbees(g, 0, config=CFG.with_overrides(trace=True))
        assert traced.trace.truncated and len(traced.trace) == 500
