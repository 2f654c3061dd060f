"""Unit tests for counters, tracing, and performance metrics."""

import pytest

from repro.sim.metrics import PerfSample, mteps
from repro.sim.trace import SimCounters, TraceLog


class TestCounters:
    def test_record_task(self):
        c = SimCounters()
        c.record_task(0, 1)
        c.record_task(0, 1)
        c.record_task(2, 0, count=3)
        assert c.tasks_per_block == {0: 2, 2: 3}
        assert c.tasks_per_warp == {(0, 1): 2, (2, 0): 3}

    def test_block_task_array_dense(self):
        c = SimCounters()
        c.record_task(1, 0)
        assert c.block_task_array(3) == [0, 1, 0]

    def test_fail_rates(self):
        c = SimCounters()
        assert c.intra_steal_fail_rate == 0.0
        c.intra_steal_attempts = 10
        c.intra_steal_successes = 7
        assert c.intra_steal_fail_rate == pytest.approx(0.3)
        c.cas_attempts = 4
        c.cas_failures = 1
        assert c.cas_failure_rate == 0.25

    def test_as_dict_summarizes_maps(self):
        c = SimCounters()
        c.record_task(0, 0)
        d = c.as_dict()
        assert d["n_blocks_with_tasks"] == 1
        assert "tasks_per_block" not in d


class TestTraceLog:
    def test_record_and_filter(self):
        t = TraceLog()
        t.record(0, 0, 0, "visit", (1, 2))
        t.record(5, 1, 2, "flush")
        t.record(9, 0, 0, "visit")
        assert len(t) == 3
        assert len(t.filter(kind="visit")) == 2
        assert len(t.filter(block=1)) == 1
        assert len(t.filter(kind="visit", block=0, warp=0)) == 2

    def test_kinds_histogram(self):
        t = TraceLog()
        for _ in range(3):
            t.record(0, 0, 0, "pop")
        assert t.kinds() == {"pop": 3}

    def test_limit_truncates_not_raises(self):
        t = TraceLog(limit=2)
        for i in range(5):
            t.record(i, 0, 0, "visit")
        assert len(t) == 2
        assert t.truncated

    def test_no_limit_keeps_every_event(self):
        t = TraceLog(limit=None)
        for i in range(5):
            t.record(i, 0, 0, "visit")
        assert len(t) == 5
        assert not t.truncated

    def test_bad_limit(self):
        with pytest.raises(ValueError):
            TraceLog(limit=0)


class TestMetrics:
    def test_mteps(self):
        assert mteps(2_000_000, 1.0) == 2.0
        assert mteps(500_000, 0.5) == 1.0

    def test_mteps_invalid(self):
        with pytest.raises(ValueError):
            mteps(100, 0.0)
        with pytest.raises(ValueError):
            mteps(-1, 1.0)

    def test_perf_sample(self):
        s = PerfSample(method="X", graph="g", device="H100", root=0,
                       edges_traversed=1_000_000, cycles=10, seconds=1.0)
        assert s.mteps == 1.0
        assert not s.failed

    def test_failure_sample(self):
        s = PerfSample.failure("NVG-DFS", "euro", "H100", 0, "OOM")
        assert s.failed
        assert s.mteps == 0.0
        assert s.failure_reason == "OOM"
