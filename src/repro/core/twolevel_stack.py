"""The two-level stack data structure (paper §3.2).

Each warp owns one :class:`HotRing` (a circular buffer modelling the fast
shared-memory portion) and one :class:`ColdSeg` (a linear global-memory
segment).  Entries are ``<vertex | offset>`` pairs, where ``offset`` is an
absolute index into ``column_idx`` pointing at the next neighbour to
visit.

Pointer conventions follow the paper exactly (Figure 2):

* HotRing: ``head`` is the next free slot, ``tail`` the oldest entry;
  empty iff ``head == tail``; full iff ``(head + 1) % hot_size == tail``
  (one slot sacrificed to disambiguate).  The owner pushes/pops at
  ``head``; intra-block thieves CAS ``tail`` forward.
* ColdSeg: ``top`` / ``bottom``; empty iff ``top == bottom``.  The owner
  flushes to / refills from ``top`` (LIFO, preserving locality);
  inter-block thieves CAS ``bottom`` forward (FIFO, taking the oldest
  entries, which root the largest unexplored subtrees).

The ColdSeg here is backed by growable NumPy arrays with in-place
compaction.  The paper statically sizes each segment at ``nv / nw``; at
simulator scale a single warp can transiently exceed that before stealing
spreads the work, so we grow dynamically.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError, StackOverflowError

__all__ = ["HotRing", "ColdSeg", "WarpStack", "OneLevelStack"]

_ENTRY_DTYPE = np.int64


class HotRing:
    """Circular <vertex|offset> buffer (shared-memory model).

    All index arithmetic is modulo ``size``; the structure stores at most
    ``size - 1`` entries.

    Structure-of-arrays backing: the head/tail pointer pair can live
    inside a run-wide slab preallocated by
    :class:`~repro.core.state.RunState` (``head``/``tail`` become two
    slots of a shared plain list).  The turbo fused loop binds that slab
    to a local variable and addresses every ring of the grid without
    attribute dispatch, while the methods here and the ``head``/``tail``
    properties stay the single source of truth for all other code paths
    (steals, flushes, invariant sweeps).  A standalone ``HotRing(size)``
    allocates its own private pointer slots, preserving the original API.

    The entry arrays are plain Python lists, not NumPy arrays: the
    owner touches one slot at a time (push/pop/peek run once per
    simulated warp action), and a list subscript is several times
    cheaper than ndarray indexing plus scalar unboxing.  Batch
    operations convert at the boundary; they accept either lists or
    NumPy arrays and return NumPy arrays (the ColdSeg side stays
    vectorized).
    """

    __slots__ = ("size", "vertex", "offset", "_ptrs", "_hi", "_ti")

    def __init__(self, size: int, *,
                 vertex: Optional[list] = None,
                 offset: Optional[list] = None,
                 ptrs: Optional[list] = None, base: int = 0):
        if size < 2:
            raise SimulationError(f"HotRing size must be >= 2, got {size}")
        self.size = size
        self.vertex = [0] * size if vertex is None else vertex
        self.offset = [0] * size if offset is None else offset
        if ptrs is None:
            ptrs, base = [0, 0], 0
        self._ptrs = ptrs
        self._hi = base
        self._ti = base + 1
        ptrs[base] = 0
        ptrs[base + 1] = 0

    # ``head``/``tail`` read/write the pointer slab so every consumer —
    # owner, thieves, tests assigning pointers directly — observes the
    # same storage the fused loop binds locally.
    @property
    def head(self) -> int:
        return self._ptrs[self._hi]

    @head.setter
    def head(self, value: int) -> None:
        self._ptrs[self._hi] = value

    @property
    def tail(self) -> int:
        return self._ptrs[self._ti]

    @tail.setter
    def tail(self, value: int) -> None:
        self._ptrs[self._ti] = value

    # -- state ----------------------------------------------------------
    # Hot-path methods below use branch arithmetic instead of ``%`` and
    # direct pointer-slab reads instead of property dispatch: each runs
    # once per simulated warp action, so constant factors matter.

    def __len__(self) -> int:
        """Occupancy: ``(head - tail + size) % size`` — the paper's hot_rest."""
        ptrs = self._ptrs
        d = ptrs[self._hi] - ptrs[self._ti]
        return d if d >= 0 else d + self.size

    @property
    def is_empty(self) -> bool:
        ptrs = self._ptrs
        return ptrs[self._hi] == ptrs[self._ti]

    @property
    def is_full(self) -> bool:
        ptrs = self._ptrs
        nxt = ptrs[self._hi] + 1
        if nxt == self.size:
            nxt = 0
        return nxt == ptrs[self._ti]

    @property
    def free_slots(self) -> int:
        return self.size - 1 - len(self)

    # -- owner operations (at head) --------------------------------------
    def push(self, vertex: int, offset: int) -> None:
        """Fast push (Figure 2c): insert at ``head`` and advance it."""
        ptrs = self._ptrs
        head = ptrs[self._hi]
        nxt = head + 1
        if nxt == self.size:
            nxt = 0
        if nxt == ptrs[self._ti]:
            raise StackOverflowError(
                f"push into full HotRing (size={self.size}); caller must "
                f"flush first"
            )
        self.vertex[head] = vertex
        self.offset[head] = offset
        ptrs[self._hi] = nxt

    def peek(self) -> Tuple[int, int]:
        """Read the top entry (at ``head - 1``) without removing it."""
        ptrs = self._ptrs
        pos = ptrs[self._hi]
        if pos == ptrs[self._ti]:
            raise SimulationError("peek on empty HotRing")
        pos -= 1
        if pos < 0:
            pos = self.size - 1
        return self.vertex[pos], self.offset[pos]

    def update_top_offset(self, offset: int) -> None:
        """Overwrite the top entry's offset (Algorithm 1's updateTop)."""
        ptrs = self._ptrs
        pos = ptrs[self._hi]
        if pos == ptrs[self._ti]:
            raise SimulationError("update_top_offset on empty HotRing")
        pos -= 1
        if pos < 0:
            pos = self.size - 1
        self.offset[pos] = offset

    def pop(self) -> Tuple[int, int]:
        """Fast pop (Figure 2d): retract ``head`` and return the entry."""
        ptrs = self._ptrs
        pos = ptrs[self._hi]
        if pos == ptrs[self._ti]:
            raise SimulationError("pop on empty HotRing")
        pos -= 1
        if pos < 0:
            pos = self.size - 1
        ptrs[self._hi] = pos
        return self.vertex[pos], self.offset[pos]

    # -- batch extraction -------------------------------------------------
    def take_from_tail(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Remove the ``count`` oldest entries (advancing ``tail``).

        Used by the owner's *flush* and by intra-block thieves after a
        successful tail CAS.  Returns (vertices, offsets) oldest-first.
        """
        if count < 1 or count > len(self):
            raise SimulationError(
                f"take_from_tail({count}) with only {len(self)} entries"
            )
        ptrs = self._ptrs
        tail = ptrs[self._ti]
        size = self.size
        vl, ol = self.vertex, self.offset
        end = tail + count
        if end <= size:
            verts = np.asarray(vl[tail:end], dtype=_ENTRY_DTYPE)
            offs = np.asarray(ol[tail:end], dtype=_ENTRY_DTYPE)
            if end == size:
                end = 0
        else:
            end -= size
            verts = np.asarray(vl[tail:] + vl[:end], dtype=_ENTRY_DTYPE)
            offs = np.asarray(ol[tail:] + ol[:end], dtype=_ENTRY_DTYPE)
        ptrs[self._ti] = end
        return verts, offs

    def put_batch(self, verts, offs) -> None:
        """Insert a batch at ``head`` preserving order (oldest first).

        Used for refill and by thieves installing stolen entries; the
        oldest entry lands deepest (closest to ``tail``).  Accepts NumPy
        arrays or plain sequences; values are stored as Python ints.
        """
        count = len(verts)
        if count == 0:
            return
        if count > self.free_slots:
            raise StackOverflowError(
                f"put_batch({count}) exceeds free space {self.free_slots}"
            )
        if type(verts) is np.ndarray:
            verts = verts.tolist()
        if type(offs) is np.ndarray:
            offs = offs.tolist()
        ptrs = self._ptrs
        head = ptrs[self._hi]
        size = self.size
        vl, ol = self.vertex, self.offset
        for k in range(count):
            vl[head] = verts[k]
            ol[head] = offs[k]
            head += 1
            if head == size:
                head = 0
        ptrs[self._hi] = head

    def snapshot(self) -> List[Tuple[int, int]]:
        """Entries oldest-first (for tests and invariant checks)."""
        n = len(self)
        tail = self._ptrs[self._ti]
        size = self.size
        return [(self.vertex[(tail + k) % size], self.offset[(tail + k) % size])
                for k in range(n)]


class ColdSeg:
    """Linear global-memory segment with ``top``/``bottom`` pointers.

    The live region is ``[bottom, top)``.  ``push_batch`` appends at
    ``top`` (flush), ``pop_batch`` removes from ``top`` (refill),
    ``steal_from_bottom`` removes from ``bottom`` (inter-block steal).
    The backing array grows by doubling and compacts (shifting the live
    region to offset 0) when the dead prefix dominates.

    Structure-of-arrays backing, mirroring :class:`HotRing`: the
    ``top``/``bottom`` pointer pair can live inside a run-wide slab
    (two slots of a shared list).  The fused loop binds the slab
    locally and reads every segment's occupancy without attribute
    dispatch; the properties here remain the single source of truth for
    all other code paths.  A standalone ``ColdSeg(reserve)`` allocates
    private pointer slots, preserving the original API.
    """

    __slots__ = ("vertex", "offset", "_ptrs", "_ti", "_bi",
                 "compactions", "peak_occupancy")

    def __init__(self, reserve: int = 256, *, ptrs=None, base: int = 0):
        if reserve < 1:
            raise SimulationError(f"ColdSeg reserve must be >= 1, got {reserve}")
        self.vertex = np.zeros(reserve, dtype=_ENTRY_DTYPE)
        self.offset = np.zeros(reserve, dtype=_ENTRY_DTYPE)
        if ptrs is None:
            ptrs, base = [0, 0], 0
        self._ptrs = ptrs
        self._ti = base
        self._bi = base + 1
        ptrs[base] = 0
        ptrs[base + 1] = 0
        self.compactions = 0
        self.peak_occupancy = 0

    # ``top``/``bottom`` read/write the pointer slab so the owner,
    # thieves, and the fused loops all observe the same storage.
    @property
    def top(self) -> int:
        return self._ptrs[self._ti]

    @top.setter
    def top(self, value: int) -> None:
        self._ptrs[self._ti] = value

    @property
    def bottom(self) -> int:
        return self._ptrs[self._bi]

    @bottom.setter
    def bottom(self, value: int) -> None:
        self._ptrs[self._bi] = value

    def __len__(self) -> int:
        """Occupancy: ``top - bottom`` — the paper's cold_rest."""
        ptrs = self._ptrs
        return int(ptrs[self._ti] - ptrs[self._bi])

    @property
    def is_empty(self) -> bool:
        ptrs = self._ptrs
        return ptrs[self._ti] == ptrs[self._bi]

    def _ensure_room(self, count: int) -> None:
        cap = self.vertex.size
        ptrs = self._ptrs
        top = ptrs[self._ti]
        bottom = ptrs[self._bi]
        if top + count <= cap:
            return
        live = top - bottom
        # Prefer compaction when at least half the array is dead prefix.
        if bottom >= cap // 2 and live + count <= cap:
            self.vertex[:live] = self.vertex[bottom:top]
            self.offset[:live] = self.offset[bottom:top]
            ptrs[self._bi] = 0
            ptrs[self._ti] = live
            self.compactions += 1
            return
        new_cap = cap
        while top + count > new_cap:
            new_cap *= 2
        nv = np.zeros(new_cap, dtype=_ENTRY_DTYPE)
        no = np.zeros(new_cap, dtype=_ENTRY_DTYPE)
        nv[bottom:top] = self.vertex[bottom:top]
        no[bottom:top] = self.offset[bottom:top]
        self.vertex, self.offset = nv, no

    def push_batch(self, verts: np.ndarray, offs: np.ndarray) -> None:
        """Flush target (Figure 2e): append oldest-first at ``top``."""
        count = len(verts)
        if count == 0:
            return
        self._ensure_room(count)
        ptrs = self._ptrs
        top = ptrs[self._ti]
        self.vertex[top:top + count] = verts
        self.offset[top:top + count] = offs
        ptrs[self._ti] = top + count
        self.peak_occupancy = max(self.peak_occupancy, len(self))

    def pop_batch(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Refill source (Figure 2f): remove the ``count`` newest entries.

        Returns them oldest-first so the HotRing's ``put_batch`` restores
        the original stacking order.
        """
        if count < 1 or count > len(self):
            raise SimulationError(f"pop_batch({count}) with only {len(self)} entries")
        ptrs = self._ptrs
        top = ptrs[self._ti]
        lo = top - count
        verts = self.vertex[lo:top].copy()
        offs = self.offset[lo:top].copy()
        ptrs[self._ti] = lo
        return verts, offs

    def steal_from_bottom(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Inter-block steal (Figure 3b): remove the ``count`` oldest entries."""
        if count < 1 or count > len(self):
            raise SimulationError(
                f"steal_from_bottom({count}) with only {len(self)} entries"
            )
        ptrs = self._ptrs
        bottom = ptrs[self._bi]
        verts = self.vertex[bottom:bottom + count].copy()
        offs = self.offset[bottom:bottom + count].copy()
        ptrs[self._bi] = bottom + count
        return verts, offs

    def snapshot(self) -> List[Tuple[int, int]]:
        """Entries oldest-first (for tests)."""
        ptrs = self._ptrs
        top, bottom = ptrs[self._ti], ptrs[self._bi]
        return list(zip(
            self.vertex[bottom:top].tolist(),
            self.offset[bottom:top].tolist(),
        ))


class WarpStack:
    """A warp's complete two-level stack: HotRing + ColdSeg.

    The flush/refill orchestration lives here; step *costs* are charged
    by the warp agent, which calls these methods and prices them via the
    device cost table.

    ``flush_policy`` selects which end of the HotRing is flushed:

    * ``"tail"`` (the paper's choice, §3.3): the *oldest* entries move to
      the ColdSeg, preserving recent entries near the head for traversal
      locality and staging the big old branches for inter-block stealing.
    * ``"head"`` (ablation): the newest entries move instead — this keeps
      ancestors hot but destroys traversal locality (the warp's next pop
      must immediately refill) and feeds thieves the smallest branches.

    ``monitor``/``owner`` are optional instrumentation slots set by the
    ``repro.check`` invariant monitor: when a monitor is attached, every
    flush and refill reports the exact entries moved so the monitor can
    assert conservation across the HotRing/ColdSeg boundary (no node lost
    between flush and publish).  Both stay None in production runs.
    """

    __slots__ = ("hot", "cold", "flush_batch", "refill_batch", "flush_policy",
                 "monitor", "owner")

    def __init__(self, hot_size: int, flush_batch: int, refill_batch: int,
                 cold_reserve: int = 256, flush_policy: str = "tail",
                 hot_vertex: Optional[list] = None,
                 hot_offset: Optional[list] = None,
                 hot_ptrs: Optional[list] = None, hot_base: int = 0,
                 cold_ptrs=None, cold_base: int = 0):
        if flush_batch >= hot_size or refill_batch >= hot_size:
            raise SimulationError(
                "flush/refill batch must be smaller than hot_size"
            )
        if flush_policy not in ("tail", "head"):
            raise SimulationError(
                f"flush_policy must be 'tail' or 'head', got {flush_policy!r}"
            )
        self.hot = HotRing(hot_size, vertex=hot_vertex, offset=hot_offset,
                           ptrs=hot_ptrs, base=hot_base)
        self.cold = ColdSeg(cold_reserve, ptrs=cold_ptrs, base=cold_base)
        self.flush_batch = flush_batch
        self.refill_batch = refill_batch
        self.flush_policy = flush_policy
        self.monitor = None
        self.owner = None

    def __len__(self) -> int:
        return len(self.hot) + len(self.cold)

    @property
    def is_empty(self) -> bool:
        hot, cold = self.hot, self.cold
        ptrs = hot._ptrs  # direct slab reads: skip property dispatch
        cptrs = cold._ptrs
        return (ptrs[hot._hi] == ptrs[hot._ti]
                and cptrs[cold._ti] == cptrs[cold._bi])

    def needs_flush(self) -> bool:
        """True when a push requires flushing first (HotRing full)."""
        hot = self.hot
        ptrs = hot._ptrs
        nxt = ptrs[hot._hi] + 1
        if nxt == hot.size:
            nxt = 0
        return nxt == ptrs[hot._ti]

    def flush(self) -> int:
        """Move ``flush_batch`` HotRing entries to the ColdSeg.

        Under the default ``"tail"`` policy the oldest entries move
        (Figure 2e); under the ``"head"`` ablation the newest do.
        Returns the number of entries moved.
        """
        count = min(self.flush_batch, len(self.hot))
        if count == 0:
            raise SimulationError("flush on empty HotRing")
        monitor = self.monitor
        if monitor is not None:
            hot_before, cold_before = len(self.hot), len(self.cold)
        if self.flush_policy == "tail":
            verts, offs = self.hot.take_from_tail(count)
            self.cold.push_batch(verts, offs)
        else:
            # Pop the newest entries off the head; re-reverse so the
            # ColdSeg still stores oldest-first within the batch.
            pairs = [self.hot.pop() for _ in range(count)]
            pairs.reverse()
            verts = np.asarray([p[0] for p in pairs], dtype=_ENTRY_DTYPE)
            offs = np.asarray([p[1] for p in pairs], dtype=_ENTRY_DTYPE)
            self.cold.push_batch(verts, offs)
        if monitor is not None:
            monitor.on_flush(self, verts, offs, hot_before, cold_before)
        return count

    def can_refill(self) -> bool:
        hot, cold = self.hot, self.cold
        ptrs = hot._ptrs
        cptrs = cold._ptrs
        return (ptrs[hot._hi] == ptrs[hot._ti]
                and cptrs[cold._ti] != cptrs[cold._bi])

    def refill(self) -> int:
        """Move up to ``refill_batch`` newest ColdSeg entries into the HotRing.

        Returns the number of entries moved (Figure 2f).
        """
        if not self.can_refill():
            raise SimulationError("refill requires empty HotRing and non-empty ColdSeg")
        monitor = self.monitor
        if monitor is not None:
            hot_before, cold_before = len(self.hot), len(self.cold)
        count = min(self.refill_batch, len(self.cold), self.hot.free_slots)
        verts, offs = self.cold.pop_batch(count)
        self.hot.put_batch(verts, offs)
        if monitor is not None:
            monitor.on_refill(self, verts, offs, hot_before, cold_before)
        return count

    def snapshot(self) -> List[Tuple[int, int]]:
        """All entries oldest-first: ColdSeg bottom..top then HotRing tail..head."""
        return self.cold.snapshot() + self.hot.snapshot()


class OneLevelStack:
    """The v1 ablation: a single unbounded stack in global memory.

    Mechanically identical to a HotRing of unbounded size (owner at the
    top, thieves at the bottom), but every operation is priced at global
    latency by the warp agent.  Backed by a ColdSeg reused as a plain
    growable stack.
    """

    __slots__ = ("_seg",)

    def __init__(self, reserve: int = 256):
        self._seg = ColdSeg(reserve)

    def __len__(self) -> int:
        return len(self._seg)

    @property
    def is_empty(self) -> bool:
        return self._seg.is_empty

    def push(self, vertex: int, offset: int) -> None:
        self._seg.push_batch(np.array([vertex], dtype=_ENTRY_DTYPE),
                             np.array([offset], dtype=_ENTRY_DTYPE))

    def peek(self) -> Tuple[int, int]:
        if self.is_empty:
            raise SimulationError("peek on empty stack")
        return (int(self._seg.vertex[self._seg.top - 1]),
                int(self._seg.offset[self._seg.top - 1]))

    def update_top_offset(self, offset: int) -> None:
        if self.is_empty:
            raise SimulationError("update_top_offset on empty stack")
        self._seg.offset[self._seg.top - 1] = offset

    def pop(self) -> Tuple[int, int]:
        v, o = self._seg.pop_batch(1)
        return int(v[0]), int(o[0])

    def take_from_tail(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Steal interface: remove the oldest ``count`` entries."""
        return self._seg.steal_from_bottom(count)

    def put_batch(self, verts: np.ndarray, offs: np.ndarray) -> None:
        self._seg.push_batch(verts, offs)

    def snapshot(self) -> List[Tuple[int, int]]:
        return self._seg.snapshot()
