"""Admission policy: coalesce concurrent queries into lockstep batches.

The daemon's throughput comes from the same observation as the lockstep
engines' (:mod:`repro.core.hive`, :mod:`repro.core.swarm`): B
independent traversals of one graph cost far less than B times one run
when they advance together — once B reaches the family's
:data:`~repro.core.dispatch.LOCKSTEP_MIN_WIDTH`.  The daemon therefore
holds an arriving DFS query briefly — ``batch_window`` seconds — only
when its family can reach that width within ``max_batch``, hoping more
queries for the same (graph, engine-config) key arrive, and flushes the
group to execution when the window expires or ``max_batch`` fills,
whichever comes first.  Queries of any other family skip this policy
and run at once as one-query ``"scalar"`` batches.

This module is the *pure* policy core: no clocks, no asyncio, no I/O.
Time enters exclusively through the ``now`` arguments, which makes every
interleaving of arrivals and timer fires exactly replayable — the
Hypothesis property suite (``tests/serve/test_admission.py``) drives it
with synthetic schedules and asserts the three contract properties:

* **bounds** — no batch exceeds ``max_batch``, and no item waits past
  ``opened + window`` once ``due()`` is polled at or after the deadline;
* **conservation** — every admitted item is flushed exactly once, in
  arrival order within its key, never mixed across keys;
* **invariance** — responses do not depend on the (jobs, batch, window)
  execution shape, because batching only ever groups compatible work
  (both lockstep engines are bit-identical per run for any batch
  width).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Hashable, List, Optional, Tuple

__all__ = ["Batch", "BatchPolicy"]


@dataclass(frozen=True)
class Batch:
    """One flushed admission group, ready for execution."""

    key: Hashable          # grouping key: (graph, canonical engine config)
    items: Tuple[Any, ...]  # admitted items, in arrival order
    opened: float          # arrival time of the first item
    reason: str            # "full" | "window" | "drain" | "app" | "scalar"


@dataclass
class _Group:
    items: List[Any] = field(default_factory=list)
    opened: float = 0.0
    deadline: float = 0.0


class BatchPolicy:
    """Window/max-batch admission over keyed FIFO groups.

    ``window <= 0`` degenerates to immediate dispatch: every ``add``
    returns a singleton batch and nothing is ever held.
    """

    def __init__(self, window: float, max_batch: int):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.window = float(window)
        self.max_batch = int(max_batch)
        self._groups: "OrderedDict[Hashable, _Group]" = OrderedDict()

    # ------------------------------------------------------------------
    def add(self, key: Hashable, item: Any, now: float) -> Optional[Batch]:
        """Admit one item; returns a batch iff one must flush *now*.

        A batch is returned when the group reaches ``max_batch`` (flush
        reason ``"full"``) or when coalescing is disabled
        (``window <= 0``, reason ``"window"`` with a zero-length wait).
        Otherwise the item parks in its group until :meth:`due` or
        :meth:`flush_all` releases it.
        """
        if self.window <= 0 or self.max_batch == 1:
            return Batch(key=key, items=(item,), opened=now,
                         reason="window" if self.window <= 0 else "full")
        group = self._groups.get(key)
        if group is None:
            group = _Group(opened=now, deadline=now + self.window)
            self._groups[key] = group
        group.items.append(item)
        if len(group.items) >= self.max_batch:
            del self._groups[key]
            return Batch(key=key, items=tuple(group.items),
                         opened=group.opened, reason="full")
        return None

    def due(self, now: float) -> List[Batch]:
        """Flush every group whose window has expired at ``now``."""
        out: List[Batch] = []
        for key in [k for k, g in self._groups.items() if g.deadline <= now]:
            group = self._groups.pop(key)
            out.append(Batch(key=key, items=tuple(group.items),
                             opened=group.opened, reason="window"))
        return out

    def flush_all(self, now: float = 0.0) -> List[Batch]:
        """Flush everything immediately (shutdown drain)."""
        out = [
            Batch(key=key, items=tuple(group.items), opened=group.opened,
                  reason="drain")
            for key, group in self._groups.items()
        ]
        self._groups.clear()
        return out

    # ------------------------------------------------------------------
    def next_deadline(self) -> Optional[float]:
        """Earliest pending window expiry, or None when nothing is held."""
        if not self._groups:
            return None
        return min(g.deadline for g in self._groups.values())

    def pending_count(self) -> int:
        return sum(len(g.items) for g in self._groups.values())
