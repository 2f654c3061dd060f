"""Exact replication of the paper's Figure 2 worked examples.

Figure 2 walks the two-level stack through its four core operations on a
size-4 HotRing and a size-6 ColdSeg with concrete pointer values; these
tests pin our implementation to those exact transitions.
"""

import pytest

from repro.core.twolevel_stack import ColdSeg, HotRing, WarpStack


class TestFigure2c_FastPush:
    def test_push_at_head0(self):
        """<a|i> pushed at head = 0; head -> 0 + 1 = 1 (tail 2 as drawn)."""
        h = HotRing(4)
        h.head = 0
        h.tail = 2
        # The ring holds positions 2,3 (two entries) in the figure; we
        # only assert the pointer arithmetic of the push itself.
        h.vertex[2:4] = [1, 1]
        h.push(ord("a"), 105)  # <a|i>
        assert h.head == 1
        assert h.tail == 2
        assert h.vertex[0] == ord("a") and h.offset[0] == 105


class TestFigure2d_FastPop:
    def test_pop_wraps_head(self):
        """Pop at head = 0: head -> (0 + 4 - 1) % 4 = 3; entry <a|-1>."""
        h = HotRing(4)
        h.head = 3
        h.tail = 1
        h.vertex[3] = ord("a")
        h.offset[3] = -1
        h.head = 0  # the figure's pre-state: head just past position 3
        v, off = h.pop()
        assert (v, off) == (ord("a"), -1)
        assert h.head == 3


class TestFigure2e_Flush:
    def test_exact_pointer_transitions(self):
        """hot_size=4, batch=2: tail 2 -> (2+2)%4 = 0, top 2 -> 2+2 = 4,
        entries <a|i>, <b|j> land at ColdSeg positions [2, 3]."""
        s = WarpStack(hot_size=4, flush_batch=2, refill_batch=2,
                      cold_reserve=6)
        # ColdSeg pre-state: two entries, top = 2.
        s.cold.push_batch([201, 202], [0, 0])
        assert s.cold.top == 2
        # HotRing pre-state: full with tail = 2 -> entries at 2,3,0.
        s.hot.head = 2
        s.hot.tail = 2
        s.hot.push(ord("a"), 105)   # position 2  (oldest)
        s.hot.push(ord("b"), 106)   # position 3
        s.hot.push(ord("x"), 0)     # position 0  (newest); ring now full
        assert s.needs_flush()
        s.flush()
        assert s.hot.tail == 0
        assert s.cold.top == 4
        assert s.cold.vertex[2] == ord("a") and s.cold.offset[2] == 105
        assert s.cold.vertex[3] == ord("b") and s.cold.offset[3] == 106

    def test_flush_preserves_remaining_entries(self):
        s = WarpStack(hot_size=4, flush_batch=2, refill_batch=2,
                      cold_reserve=6)
        s.hot.head = 2
        s.hot.tail = 2
        for v in (1, 2, 3):
            s.hot.push(v, v)
        s.flush()
        assert s.hot.snapshot() == [(3, 3)]


class TestFigure2f_Refill:
    def test_exact_pointer_transitions(self):
        """hot empty (head = tail = 1); ColdSeg top = 5 with <a|i>, <b|j>
        at positions [3, 4]; refill batch 2: head 1 -> (1+2)%4 = 3, top
        5 -> 5 - 2 = 3."""
        s = WarpStack(hot_size=4, flush_batch=2, refill_batch=2,
                      cold_reserve=6)
        s.cold.push_batch([210, 211, 212, ord("a"), ord("b")],
                          [0, 0, 0, 105, 106])
        assert s.cold.top == 5
        s.hot.head = 1
        s.hot.tail = 1
        assert s.can_refill()
        s.refill()
        assert s.hot.head == 3
        assert s.hot.tail == 1
        assert s.cold.top == 3
        # Stack order preserved: <b|j> on top (newest), <a|i> below.
        assert s.hot.pop() == (ord("b"), 106)
        assert s.hot.pop() == (ord("a"), 105)
