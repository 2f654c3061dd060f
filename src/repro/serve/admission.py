"""Admission policy: launch queries onto free executor slots.

DiggerBees' warps act on demand: a busy warp never waits for company,
and only a warp whose stack runs dry goes looking for work.  Admission
treats the daemon's executor slots the same way.  A query that arrives
while a slot is free launches at once, alone.  A query that arrives
while every slot is busy is held until a running batch releases its
slot; the oldest held group then takes it.

Holding is also where batches widen.  Held items that share an
admission key join one group of at most ``max_batch``, and a
frontier-family batch runs as one lockstep swarm from
:data:`~repro.core.dispatch.SWARM_MIN_WIDTH` up
(:func:`repro.core.dispatch.run_batch`).  A burst that meets free
slots launches its first items alone, one per slot, and the rest pile
up behind them (``docs/SERVING.md`` gives the measured cost).  Items
admitted under key ``None`` (the daemon's DFS and app queries, which
have no lockstep tier) never coalesce: each is held as a group of its
own.

This module is the *pure* policy core: no clocks, no asyncio, no I/O.
Arrivals and slot releases are plain calls and the policy reads no
time at all, so an interleaving is exactly replayable from its order
of calls — the Hypothesis suite (``tests/serve/test_admission.py``)
drives the policy with synthetic schedules and asserts the contract:

* **work conservation** — no item is held while a slot is free;
* **bounds** — no batch exceeds ``max_batch``;
* **conservation** — every item launches exactly once, in arrival
  order within its key, never mixed across keys, and a key-``None``
  item always launches alone;
* **fairness** — held groups launch oldest first.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Hashable, List, Optional, Tuple

__all__ = ["Batch", "BatchPolicy"]


@dataclass(frozen=True)
class Batch:
    """One launched admission group, ready for execution."""

    key: Hashable          # shared admission key; None: one lone item
    items: Tuple[Any, ...]  # admitted items, in arrival order
    reason: str            # "idle" | "full" | "queued" | "drain"


@dataclass
class _Group:
    key: Hashable
    items: List[Any] = field(default_factory=list)


class BatchPolicy:
    """Slot-bounded admission over keyed FIFO groups.

    ``slots`` batches may execute at once.  Every launched batch holds
    one slot until :meth:`release`; ``max_batch = 1`` turns coalescing
    off.
    """

    def __init__(self, slots: int, max_batch: int):
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.slots = int(slots)
        self.max_batch = int(max_batch)
        self.busy = 0
        self._held: Deque[_Group] = deque()      # oldest first
        self._open: Dict[Hashable, _Group] = {}  # key -> group taking items

    def add(self, key: Hashable, item: Any, now: float) -> Optional[Batch]:
        """Admit one item; returns the batch to launch now, if any.

        With a slot free the item takes it and launches alone (reason
        ``"idle"``).  Otherwise it is held: it joins its key's newest
        group while that group has room, else it opens a new group at
        the back of the queue (always, under key ``None``).  ``now`` is
        not read: the signature keeps it for the benchmark's span
        wrapper (``perfbench/tracing.py``), which binds ``add`` by name.
        """
        if self.busy < self.slots:
            self.busy += 1
            return Batch(key=key, items=(item,), reason="idle")
        group = self._open.get(key)
        if group is None or len(group.items) >= self.max_batch:
            group = _Group(key=key)
            self._held.append(group)
            if key is not None:     # a key-None group never takes more
                self._open[key] = group
        group.items.append(item)
        return None

    def release(self) -> Optional[Batch]:
        """Free one launched batch's slot; returns the oldest held group
        as the batch that takes it, if any is held."""
        if self.busy < 1:
            raise ValueError("release() without a launched batch")
        self.busy -= 1
        if not self._held or self.busy >= self.slots:
            return None
        self.busy += 1
        group = self._pop()
        full = len(group.items) >= self.max_batch
        return self._batch(group, "full" if full else "queued")

    def flush_all(self) -> List[Batch]:
        """Launch every held group at once (shutdown drain).

        Each drained batch counts as busy until it is released, so the
        slot count holds again once the drain finishes.
        """
        out = []
        while self._held:
            out.append(self._batch(self._pop(), "drain"))
        self.busy += len(out)
        return out

    def pending_count(self) -> int:
        return sum(len(g.items) for g in self._held)

    # ------------------------------------------------------------------
    def _pop(self) -> _Group:
        group = self._held.popleft()
        if self._open.get(group.key) is group:
            del self._open[group.key]
        return group

    @staticmethod
    def _batch(group: _Group, reason: str) -> Batch:
        return Batch(key=group.key, items=tuple(group.items),
                     reason=reason)
