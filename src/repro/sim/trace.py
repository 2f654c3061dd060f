"""Execution counters and optional event tracing.

Every algorithm running on the simulator reports through a
:class:`SimCounters` instance: edge traversals (the MTEPS numerator),
stack traffic, steal attempts/successes at both levels, CAS contention,
and per-block task counts (the Figure 9 measurement).  Tracing is off by
default; when enabled it records a bounded list of structured events for
debugging and for the §3.6 execution-example test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["SimCounters", "TraceEvent", "TraceLog"]


@dataclass
class SimCounters:
    """Mutable counter block shared by all agents of one simulation run."""

    # Work accounting.
    edges_traversed: int = 0          # neighbour inspections
    vertices_visited: int = 0         # successful visited-CAS claims
    pushes: int = 0
    pops: int = 0

    # Two-level stack traffic.
    flushes: int = 0
    flush_entries: int = 0
    refills: int = 0
    refill_entries: int = 0
    max_hot_depth: int = 0
    max_cold_depth: int = 0

    # Stealing.
    intra_steal_attempts: int = 0
    intra_steal_successes: int = 0
    intra_steal_entries: int = 0
    inter_steal_attempts: int = 0
    inter_steal_successes: int = 0
    inter_steal_entries: int = 0
    # Multi-GPU extension: cross-GPU (NVLink) steals, a subset of inter.
    remote_steal_successes: int = 0
    remote_steal_entries: int = 0

    # Contention.
    cas_attempts: int = 0
    cas_failures: int = 0

    # Idleness.
    idle_polls: int = 0

    # Per-block tasks (vertices expanded), keyed by block id: Figure 9.
    tasks_per_block: Dict[int, int] = field(default_factory=dict)
    # Per-warp tasks keyed by (block, warp): §3.6 balance statement.
    tasks_per_warp: Dict[Tuple[int, int], int] = field(default_factory=dict)

    def record_task(self, block: int, warp: int, count: int = 1) -> None:
        """Credit ``count`` expanded vertices to ``(block, warp)``."""
        self.tasks_per_block[block] = self.tasks_per_block.get(block, 0) + count
        key = (block, warp)
        self.tasks_per_warp[key] = self.tasks_per_warp.get(key, 0) + count

    def block_task_array(self, n_blocks: int) -> List[int]:
        """Tasks per block as a dense list of length ``n_blocks``."""
        return [self.tasks_per_block.get(b, 0) for b in range(n_blocks)]

    @property
    def intra_steal_fail_rate(self) -> float:
        if self.intra_steal_attempts == 0:
            return 0.0
        return 1.0 - self.intra_steal_successes / self.intra_steal_attempts

    @property
    def inter_steal_fail_rate(self) -> float:
        if self.inter_steal_attempts == 0:
            return 0.0
        return 1.0 - self.inter_steal_successes / self.inter_steal_attempts

    @property
    def cas_failure_rate(self) -> float:
        if self.cas_attempts == 0:
            return 0.0
        return self.cas_failures / self.cas_attempts

    def as_dict(self) -> dict:
        """Flat dict for reports (per-block maps summarized)."""
        d = {
            k: v
            for k, v in self.__dict__.items()
            if not isinstance(v, dict)
        }
        d["n_blocks_with_tasks"] = len(self.tasks_per_block)
        d["n_warps_with_tasks"] = len(self.tasks_per_warp)
        return d


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace record."""

    time: int
    block: int
    warp: int
    kind: str           # visit | push | pop | flush | refill | steal_intra | ...
    detail: tuple = ()


class TraceLog:
    """Bounded in-memory event trace (disabled unless constructed).

    ``limit`` guards against runaway memory on large runs; hitting it
    stops recording (``truncated`` flips to True) rather than raising,
    because traces are diagnostics, not results.
    """

    def __init__(self, limit: int = 200_000):
        if limit <= 0:
            raise ValueError(f"trace limit must be positive, got {limit}")
        self.limit = limit
        self.events: List[TraceEvent] = []
        self.truncated = False

    def record(self, time: int, block: int, warp: int, kind: str,
               detail: tuple = ()) -> None:
        if len(self.events) >= self.limit:
            self.truncated = True
            return
        self.events.append(TraceEvent(time, block, warp, kind, detail))

    def filter(self, kind: Optional[str] = None, block: Optional[int] = None,
               warp: Optional[int] = None) -> List[TraceEvent]:
        """Events matching all given criteria."""
        out = self.events
        if kind is not None:
            out = [e for e in out if e.kind == kind]
        if block is not None:
            out = [e for e in out if e.block == block]
        if warp is not None:
            out = [e for e in out if e.warp == warp]
        return out

    def kinds(self) -> Dict[str, int]:
        """Histogram of event kinds."""
        hist: Dict[str, int] = {}
        for e in self.events:
            hist[e.kind] = hist.get(e.kind, 0) + 1
        return hist

    def __len__(self) -> int:
        return len(self.events)
