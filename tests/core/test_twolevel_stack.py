"""Unit + property tests for the two-level stack (paper §3.2, Figure 2)."""

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.twolevel_stack import ColdSeg, HotRing, OneLevelStack, WarpStack
from repro.errors import SimulationError, StackOverflowError


class TestHotRing:
    def test_empty_full_conditions(self):
        h = HotRing(4)
        assert h.is_empty and not h.is_full
        for i in range(3):  # capacity is size - 1
            h.push(i, i * 10)
        assert h.is_full and not h.is_empty
        assert len(h) == 3

    def test_push_pop_lifo(self):
        h = HotRing(8)
        h.push(1, 10)
        h.push(2, 20)
        assert h.pop() == (2, 20)
        assert h.pop() == (1, 10)
        assert h.is_empty

    def test_paper_figure2c_push(self):
        """Fig 2(c): push <a|i> at head=0, head becomes 1."""
        h = HotRing(4)
        h.push(ord("a"), 42)
        assert h.head == 1 and h.tail == 0
        assert h.peek() == (ord("a"), 42)

    def test_paper_figure2d_pop_wraps(self):
        """Fig 2(d): pop at head=0 wraps to (0+4-1)%4 = 3."""
        h = HotRing(4)
        # Fill positions 2, 3 then wrap head to 0 (tail=2 like the figure).
        h.head = 2
        h.tail = 2
        h.push(5, 50)   # pos 2, head 3
        h.push(6, 60)   # pos 3, head 0
        assert h.head == 0
        assert h.pop() == (6, 60)
        assert h.head == 3

    def test_wraparound_many(self):
        h = HotRing(5)
        for round_ in range(7):
            for i in range(4):
                h.push(i, round_)
            for i in reversed(range(4)):
                assert h.pop() == (i, round_)

    def test_overflow_raises(self):
        h = HotRing(3)
        h.push(0, 0)
        h.push(1, 1)
        with pytest.raises(StackOverflowError):
            h.push(2, 2)

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            HotRing(4).pop()

    def test_peek_empty_raises(self):
        with pytest.raises(SimulationError):
            HotRing(4).peek()

    def test_update_top_offset(self):
        h = HotRing(4)
        h.push(7, 1)
        h.update_top_offset(9)
        assert h.peek() == (7, 9)

    def test_take_from_tail_oldest_first(self):
        h = HotRing(8)
        for i in range(5):
            h.push(i, i)
        verts, offs = h.take_from_tail(2)
        assert list(verts) == [0, 1]
        assert len(h) == 3
        assert h.pop() == (4, 4)  # head side untouched

    def test_batches_wrap_and_are_plain_ints(self):
        h = HotRing(5)
        h.head = h.tail = 3
        h.put_batch([1, 2, 3], [10, 20, 30])  # slots 3, 4, 0
        assert h.head == 1
        assert h.snapshot() == [(1, 10), (2, 20), (3, 30)]
        verts, offs = h.take_from_tail(3)
        assert (verts, offs) == ([1, 2, 3], [10, 20, 30])
        assert all(type(x) is int for x in verts + offs)
        assert h.is_empty and h.tail == 1

    def test_take_too_many_raises(self):
        h = HotRing(8)
        h.push(0, 0)
        with pytest.raises(SimulationError):
            h.take_from_tail(2)

    def test_put_batch_preserves_order(self):
        h = HotRing(8)
        h.put_batch([1, 2, 3], [10, 20, 30])
        assert h.pop() == (3, 30)
        assert h.pop() == (2, 20)

    def test_put_batch_overflow(self):
        h = HotRing(4)
        with pytest.raises(StackOverflowError):
            h.put_batch(list(range(4)), list(range(4)))

    def test_snapshot(self):
        h = HotRing(6)
        for i in range(3):
            h.push(i, i * 2)
        assert h.snapshot() == [(0, 0), (1, 2), (2, 4)]

    @given(st.lists(st.sampled_from(["push", "pop"]), max_size=200),
           st.integers(min_value=4, max_value=16))
    @settings(max_examples=60)
    def test_property_matches_list_model(self, ops, size):
        """A HotRing with only owner ops behaves as a bounded LIFO list."""
        h = HotRing(size)
        model = []
        counter = 0
        for op in ops:
            if op == "push" and len(model) < size - 1:
                h.push(counter, counter)
                model.append((counter, counter))
                counter += 1
            elif op == "pop" and model:
                assert h.pop() == model.pop()
            assert len(h) == len(model)
            assert h.is_empty == (not model)
            assert h.snapshot() == model


#: ``(top, bottom)`` after each operation of
#: ``TestColdSeg.test_seeded_sequence_pins_the_pointers``, recorded from
#: the NumPy-backed ColdSeg that the ``array('q')`` columns replaced.
_SEEDED_POINTERS = [
    (1, 0), (4, 0), (5, 0), (11, 0), (13, 0), (7, 0), (7, 3), (7, 6), (7, 7),
    (11, 7), (11, 11), (15, 11), (8, 0), (9, 0), (9, 4), (14, 4), (12, 4),
    (12, 10), (15, 10), (15, 12), (8, 0), (8, 4), (10, 4), (10, 7), (14, 7),
    (9, 7), (11, 7), (11, 11), (14, 11), (9, 0), (11, 0), (9, 0), (9, 2),
    (10, 2), (13, 2), (13, 8), (13, 9), (13, 13), (4, 0), (9, 0), (9, 6),
    (8, 6), (14, 6), (14, 8), (12, 0), (10, 0), (12, 0), (12, 6), (16, 6),
    (13, 6), (12, 6), (12, 9), (12, 10), (11, 10), (7, 0), (11, 0), (14, 0),
    (14, 4), (17, 4), (15, 4), (18, 4), (18, 8), (24, 8), (25, 8), (29, 8),
    (26, 8), (26, 12), (31, 12), (35, 12), (41, 12), (44, 12), (48, 12),
    (51, 12), (55, 12), (53, 12), (50, 12), (49, 12), (49, 17), (49, 21),
    (49, 25), (51, 25), (51, 30), (51, 36), (51, 42), (49, 42), (50, 42),
    (50, 48), (53, 48), (59, 48), (17, 0), (21, 0), (25, 0), (25, 5), (25, 6),
    (30, 6), (30, 7), (30, 11), (30, 17), (34, 17), (39, 17), (39, 19),
    (39, 25), (45, 25), (46, 25), (48, 25), (48, 31), (48, 35), (43, 35),
    (49, 35), (55, 35), (55, 39), (49, 39), (53, 39), (53, 44), (58, 44),
    (64, 44), (61, 44), (23, 0), (23, 6), (24, 6),
]


class TestColdSeg:
    def test_push_pop(self):
        c = ColdSeg(4)
        c.push_batch([1, 2], [10, 20])
        assert len(c) == 2
        verts, offs = c.pop_batch(2)
        assert list(verts) == [1, 2]  # oldest-first
        assert c.is_empty

    def test_steal_from_bottom(self):
        c = ColdSeg(8)
        c.push_batch(list(range(5)), list(range(0, 50, 10)))
        verts, _ = c.steal_from_bottom(2)
        assert list(verts) == [0, 1]
        assert len(c) == 3
        verts, _ = c.pop_batch(1)
        assert list(verts) == [4]  # top untouched

    def test_growth(self):
        c = ColdSeg(2)
        c.push_batch(list(range(100)), list(range(100)))
        assert len(c) == 100
        assert c.capacity == 128  # doubled from 2 until 100 fit
        assert (c.top, c.bottom) == (100, 0)
        assert c.snapshot() == [(i, i) for i in range(100)]

    def test_compaction(self):
        c = ColdSeg(8)
        c.push_batch(list(range(6)), list(range(6)))
        c.steal_from_bottom(5)  # bottom = 5, dead prefix dominates
        c.push_batch(list(range(10, 17)), list(range(7)))
        assert c.capacity == 8  # compacted in place, not grown
        assert (c.top, c.bottom) == (8, 0)
        assert c.snapshot() == [(5, 5)] + list(zip(range(10, 17), range(7)))

    def test_seeded_sequence_pins_the_pointers(self):
        """Grow-by-doubling and compact-when-half-dead decide when
        ``bottom`` (the inter-steal CAS token) resets, so every
        ``(top, bottom)`` pair of this seeded push/pop/steal sequence
        (4 growths from capacity 4 to 64, 8 compactions) is pinned."""
        rnd = random.Random(36)
        c = ColdSeg(4)
        model = []
        counter = 0
        pointers = []
        for _ in range(120):
            kind = rnd.choice(("push", "push", "pop", "steal", "steal"))
            k = rnd.randint(1, 6)
            if kind != "push" and k > len(model):
                kind = "push"
            if kind == "push":
                vals = list(range(counter, counter + k))
                counter += k
                c.push_batch(vals, vals)
                model.extend(vals)
            elif kind == "pop":
                verts, _ = c.pop_batch(k)
                assert list(verts) == model[-k:]
                del model[-k:]
            else:
                verts, _ = c.steal_from_bottom(k)
                assert list(verts) == model[:k]
                del model[:k]
            assert [v for v, _ in c.snapshot()] == model
            pointers.append((c.top, c.bottom))
        assert pointers == _SEEDED_POINTERS
        assert c.capacity == 64

    def test_batches_are_plain_ints(self):
        c = ColdSeg(4)
        c.push_batch([1, 2, 3, 4, 5], [10, 20, 30, 40, 50])
        for verts, offs in (c.steal_from_bottom(2), c.pop_batch(2)):
            assert all(type(x) is int for x in list(verts) + list(offs))
        assert all(type(x) is int for pair in c.snapshot() for x in pair)

    def test_pop_too_many(self):
        c = ColdSeg(4)
        with pytest.raises(SimulationError):
            c.pop_batch(1)

    def test_steal_too_many(self):
        c = ColdSeg(4)
        c.push_batch([1], [1])
        with pytest.raises(SimulationError):
            c.steal_from_bottom(2)

    @given(st.lists(st.tuples(st.sampled_from(["push", "pop", "steal"]),
                              st.integers(1, 5)), max_size=100))
    @settings(max_examples=60)
    def test_property_matches_deque_model(self, ops):
        """ColdSeg behaves as a deque: push/pop at top, steal at bottom."""
        c = ColdSeg(4)
        model = []
        counter = 0
        for op, k in ops:
            if op == "push":
                vals = list(range(counter, counter + k))
                counter += k
                c.push_batch(vals, vals)
                model.extend(vals)
            elif op == "pop" and len(model) >= k:
                verts, _ = c.pop_batch(k)
                expect = model[-k:]
                del model[-k:]
                assert list(verts) == expect
            elif op == "steal" and len(model) >= k:
                verts, _ = c.steal_from_bottom(k)
                expect = model[:k]
                del model[:k]
                assert list(verts) == expect
            assert len(c) == len(model)
            assert [v for v, _ in c.snapshot()] == model


class TestWarpStack:
    def make(self, hot_size=8, flush=2, refill=2):
        return WarpStack(hot_size=hot_size, flush_batch=flush, refill_batch=refill)

    def test_flush_on_full(self):
        s = self.make()
        for i in range(7):
            s.hot.push(i, i)
        assert s.needs_flush()
        moved = s.flush()
        assert moved == 2
        assert [v for v, _ in s.cold.snapshot()] == [0, 1]  # oldest flushed
        assert len(s.hot) == 5

    def test_refill_restores_order(self):
        """Fig 2(e)+(f): flush then refill preserves stack semantics."""
        s = self.make()
        for i in range(7):
            s.hot.push(i, i)
        s.flush()
        # Drain hot, then refill from cold.
        while not s.hot.is_empty:
            s.hot.pop()
        assert s.can_refill()
        moved = s.refill()
        assert moved == 2
        # Refill takes the cold TOP (newest flushed = 1) to hot top.
        assert s.hot.pop() == (1, 1)
        assert s.hot.pop() == (0, 0)

    def test_paper_figure2e_flush_pointers(self):
        """Fig 2(e): hot_size=4, batch=2; tail 2 -> 0, top 2 -> 4."""
        s = WarpStack(hot_size=4, flush_batch=2, refill_batch=2)
        s.cold.push_batch([101, 102], [0, 0])  # top = 2
        s.hot.head = 2
        s.hot.tail = 2
        s.hot.push(ord("a"), 1)
        s.hot.push(ord("b"), 2)
        s.hot.push(ord("c"), 3)  # head = 1, full (tail=2)
        assert s.needs_flush()
        s.flush()
        assert s.hot.tail == 0
        assert s.cold.top == 4

    def test_total_length(self):
        s = self.make()
        for i in range(7):
            s.hot.push(i, i)
        s.flush()
        assert len(s) == 7
        assert not s.is_empty

    def test_snapshot_combines(self):
        s = self.make()
        for i in range(7):
            s.hot.push(i, i)
        s.flush()
        assert [v for v, _ in s.snapshot()] == list(range(7))

    def test_refill_without_cold_raises(self):
        s = self.make()
        with pytest.raises(SimulationError):
            s.refill()

    def test_flush_empty_raises(self):
        s = self.make()
        with pytest.raises(SimulationError):
            s.flush()

    def test_batch_must_fit(self):
        with pytest.raises(SimulationError):
            WarpStack(hot_size=4, flush_batch=4, refill_batch=2)

    @given(st.lists(st.sampled_from(["push", "pop"]), min_size=1, max_size=300))
    @settings(max_examples=40)
    def test_property_flush_refill_transparent(self, ops):
        """With automatic flush/refill, the two-level stack is
        observationally a plain unbounded LIFO stack."""
        s = WarpStack(hot_size=8, flush_batch=3, refill_batch=3)
        model = []
        counter = 0
        for op in ops:
            if op == "push":
                if s.needs_flush():
                    s.flush()
                s.hot.push(counter, counter)
                model.append(counter)
                counter += 1
            else:
                if s.hot.is_empty and s.can_refill():
                    s.refill()
                if model:
                    v, _ = s.hot.pop()
                    assert v == model.pop()
            assert len(s) == len(model)


class TestOneLevelStack:
    def test_lifo(self):
        s = OneLevelStack()
        s.push(1, 10)
        s.push(2, 20)
        assert s.peek() == (2, 20)
        s.update_top_offset(25)
        assert s.pop() == (2, 25)
        assert s.pop() == (1, 10)
        assert s.is_empty

    def test_steal_interface(self):
        s = OneLevelStack()
        for i in range(5):
            s.push(i, i)
        verts, _ = s.take_from_tail(2)
        assert list(verts) == [0, 1]
        assert len(s) == 3

    def test_presents_the_two_level_surface(self):
        # The degenerate WarpStack: every entry in the owner's level,
        # an empty ColdSeg below it, nothing to flush or refill.
        s = OneLevelStack()
        assert s.hot is s
        assert isinstance(s.cold, ColdSeg)
        for i in range(5):
            s.hot.push(i, i)
            assert not s.needs_flush()
        assert not s.can_refill()
        while not s.is_empty:
            s.hot.pop()
            assert not s.can_refill()
        assert s.cold.is_empty and len(s.cold) == 0
        # ``hot`` is computed, not stored: the stack references no
        # cycle back to itself, so reference counting frees it.
        assert all(r is not s for r in gc.get_referents(s))

    def test_tail_token_moves_only_on_take_from_tail(self):
        s = OneLevelStack()
        assert s.tail == s._seg.bottom == 0
        for i in range(6):
            s.hot.push(i, i)
        s.hot.update_top_offset(9)
        assert s.hot.peek() == (5, 9)
        s.hot.pop()
        s.hot.put_batch([7, 8], [70, 80])
        assert s.tail == s._seg.bottom == 0
        verts, _ = s.hot.take_from_tail(2)
        assert list(verts) == [0, 1]
        assert s.tail == s._seg.bottom == 2
        s.hot.push(9, 90)
        s.hot.pop()
        assert s.tail == s._seg.bottom == 2

    def test_empty_errors(self):
        s = OneLevelStack()
        with pytest.raises(SimulationError):
            s.pop()
        with pytest.raises(SimulationError):
            s.peek()
        with pytest.raises(SimulationError):
            s.update_top_offset(0)
