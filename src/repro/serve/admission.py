"""Admission policy: launch queries onto free executor slots, cheapest
first within an event-loop turn.

DiggerBees' warps act on demand: a busy warp never waits for company,
and only a warp whose stack runs dry goes looking for work.  Its leader
warp picks the block to steal from by observed load (two-choice), not
by position.  Admission treats the daemon's executor slots the same
way: nothing waits while a slot is free, and of the queries that arrive
together the one expected to finish first runs first.

Launches are decided once per *turn*.  :meth:`BatchPolicy.add` only
holds an arrival.  :meth:`BatchPolicy.ready` closes the turn, the
arrivals held since the previous ``ready()``, and launches held groups
onto free slots in (turn opened, expected engine ms per query, arrival)
order; the daemon calls it one event-loop iteration after a turn's
first arrival and after every :meth:`BatchPolicy.release`.  The
expected cost comes from a callable the policy is given (the daemon's
running mean of measured engine time); an item it has no measurement
for ranks as 0.0.  A group that takes a slot in the turn it opened
launches only its first item (reason ``"idle"``), one item per free
slot, so a burst that meets free slots launches its first items alone
and the rest pile up behind them.  Groups from an earlier turn launch
whole, and a later turn never overtakes an earlier one.

Holding is also where batches widen.  Held items that share an
admission key join one group of at most ``max_batch``, and a
frontier-family batch runs as one lockstep swarm from
:data:`~repro.core.dispatch.SWARM_MIN_WIDTH` up
(:func:`repro.core.dispatch.run_batch`); ``docs/SERVING.md`` gives
the measured cost of splitting a burst.  Items admitted under key
``None`` (the daemon's DFS and app queries, which have no lockstep
tier) never coalesce: each is held as a group of its own.

This module is the *pure* policy core: no clocks, no asyncio, no I/O.
Arrivals, turn ends and slot releases are plain calls and the policy
reads no time at all, so an interleaving is exactly replayable from its
order of calls — the Hypothesis suite (``tests/serve/test_admission.py``)
drives the policy with synthetic schedules and asserts the contract:

* **work conservation** — after every ``ready()``, no item is held
  while a slot is free;
* **bounds** — no batch exceeds ``max_batch``;
* **conservation** — every item launches exactly once, in arrival
  order within its key, never mixed across keys, and a key-``None``
  item always launches alone;
* **order** — in its opening turn a group launches one item at a time
  (``"idle"``), and groups launch in (turn, cost, arrival) order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

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
    turn: int              # the turn whose arrivals opened it
    cost: float = 0.0      # expected engine ms per query, set at turn end
    seqs: List[int] = field(default_factory=list)   # arrival numbers
    items: List[Any] = field(default_factory=list)

    def rank(self) -> Tuple[int, float, int, "_Group"]:
        # seqs[0] is unique to the group, so heap ties never compare it.
        return (self.turn, self.cost, self.seqs[0], self)


def _unmeasured(item: Any) -> float:
    return 0.0


class BatchPolicy:
    """Slot-bounded admission over keyed groups, ranked per turn.

    ``slots`` batches may execute at once.  Every launched batch holds
    one slot until :meth:`release`; ``max_batch = 1`` turns coalescing
    off.  ``cost(item)`` is an item's expected engine ms per query
    (default: 0.0 for every item, which launches in arrival order).
    """

    def __init__(self, slots: int, max_batch: int,
                 cost: Optional[Callable[[Any], float]] = None):
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.slots = int(slots)
        self.max_batch = int(max_batch)
        self.cost = cost or _unmeasured
        self.busy = 0
        self._turn = 0
        self._seq = 0
        self._pending = 0
        self._arrivals: List[Tuple[int, Hashable, Any]] = []
        self._heap: List[Tuple[int, float, int, _Group]] = []
        self._open: Dict[Hashable, _Group] = {}  # key -> group taking items

    def add(self, key: Hashable, item: Any, now: float) -> None:
        """Hold one arrival until the turn ends (:meth:`ready`).

        ``now`` is not read: the signature keeps it for the benchmark's
        span wrapper (``perfbench/tracing.py``), which binds ``add`` by
        name and starts an item's admission wait here.
        """
        self._arrivals.append((self._seq, key, item))
        self._seq += 1
        self._pending += 1

    def ready(self) -> List[Batch]:
        """End the turn; returns the batches that take free slots.

        The turn's arrivals join their key's newest held group while it
        has room, else open a group of the turn (always, under key
        ``None``).  Free slots then take held groups cheapest first
        within the oldest turn; a group still in its opening turn gives
        up only its first item per slot.
        """
        opened = self._close_turn()
        turn = self._turn - 1
        out = []
        while self.busy < self.slots and self._heap:
            group = self._heap[0][3]
            self.busy += 1
            if group.turn == turn:
                del group.seqs[0]
                out.append(Batch(key=group.key, items=(group.items.pop(0),),
                                 reason="idle"))
                if group.items:
                    heapq.heapreplace(self._heap, group.rank())
                    continue
            else:
                full = len(group.items) >= self.max_batch
                out.append(self._batch(group, "full" if full else "queued"))
            heapq.heappop(self._heap)
            self._forget(group)
        self._split(opened)
        self._pending -= sum(len(b.items) for b in out)
        return out

    def release(self) -> None:
        """Free one launched batch's slot; :meth:`ready` refills it."""
        if self.busy < 1:
            raise ValueError("release() without a launched batch")
        self.busy -= 1

    def flush_all(self) -> List[Batch]:
        """Launch every held group and arrival at once (shutdown drain).

        Each drained batch counts as busy until it is released, so the
        slot count holds again once the drain finishes.
        """
        self._split(self._close_turn())
        out = [self._batch(heapq.heappop(self._heap)[3], "drain")
               for _ in range(len(self._heap))]
        self._open.clear()
        self._pending = 0
        self.busy += len(out)
        return out

    def pending_count(self) -> int:
        return self._pending

    # ------------------------------------------------------------------
    def _close_turn(self) -> List[_Group]:
        """Group the turn's arrivals; rank the groups they open."""
        turn = self._turn
        self._turn += 1
        opened: List[_Group] = []
        for seq, key, item in self._arrivals:
            group = self._open.get(key)
            # A group of this turn takes every same-key arrival; _split
            # cuts it to max_batch once the turn's slots are handed out.
            if group is None or (group.turn != turn
                                 and len(group.items) >= self.max_batch):
                group = _Group(key=key, turn=turn)
                opened.append(group)
                if key is not None:     # a key-None group never takes more
                    self._open[key] = group
            group.seqs.append(seq)
            group.items.append(item)
        self._arrivals.clear()
        for group in opened:
            group.cost = float(self.cost(group.items[0]))
            heapq.heappush(self._heap, group.rank())
        return opened

    def _split(self, groups: List[_Group]) -> None:
        """Cut each still-held group of the closed turn into pieces of
        at most ``max_batch``, ranked by their first arrival."""
        mb = self.max_batch
        for group in groups:
            if len(group.items) <= mb:
                continue
            seqs, items = group.seqs, group.items
            group.seqs, group.items = seqs[:mb], items[:mb]
            for lo in range(mb, len(items), mb):
                piece = _Group(key=group.key, turn=group.turn,
                               cost=group.cost, seqs=seqs[lo:lo + mb],
                               items=items[lo:lo + mb])
                heapq.heappush(self._heap, piece.rank())
            self._open[group.key] = piece

    def _forget(self, group: _Group) -> None:
        if self._open.get(group.key) is group:
            del self._open[group.key]

    @staticmethod
    def _batch(group: _Group, reason: str) -> Batch:
        return Batch(key=group.key, items=tuple(group.items),
                     reason=reason)
