"""Shared run state for a DiggerBees simulation.

One :class:`RunState` instance holds everything the grid's warps share:
the graph, the global ``visited``/``parent`` arrays, the per-block shared
state (HotRings, 32-bit active masks), the global pending-entry counter
used for termination, and the counters/trace sinks.  It keeps no copy of
the graph: the fused loop reads ``row_ptr`` and ``column_idx`` in place
through memoryviews.

Because the event engine executes steps atomically, mutations here give
exact GPU atomic semantics (a CAS winner's update is visible to every
later step).  The optimistic two-phase steal protocol (observe, then
CAS-validate on a later step) is what re-introduces realistic races.
"""

from __future__ import annotations

import random
from array import array
from typing import List, Optional

import numpy as np

from repro.core.config import DiggerBeesConfig
from repro.core.twolevel_stack import OneLevelStack, WarpStack
from repro.errors import InvariantViolation
from repro.graphs.csr import CSRGraph
from repro.sim.device import DeviceSpec
from repro.sim.trace import SimCounters, TraceLog
from repro.validate.reference import ROOT_PARENT, UNVISITED_PARENT

__all__ = ["BlockState", "RunState"]


class BlockState:
    """Per-thread-block shared state: the warps' stacks and the active mask.

    Built only by :class:`RunState`, over its structure-of-arrays slabs:
    the 32-bit active mask is slot ``block_id`` of the run's
    ``active_mask_slab`` and ``contention_debt`` is a ``memoryview``
    slice of its flat debt slab.  The ``active_mask`` property and the
    indexed ``contention_debt`` reads and writes address the same
    storage the fused loop binds locally, so both views stay coherent.
    Victim searches read the stacks' pointer slabs directly
    (:mod:`repro.core.intra_steal`, :mod:`repro.core.inter_steal`).
    """

    __slots__ = ("block_id", "stacks", "n_warps", "contention_debt",
                 "gpu_id", "_mask_slab")

    def __init__(self, block_id: int, n_warps: int, gpu_id: int,
                 mask_slab: list, debt: memoryview):
        self.block_id = block_id
        self.gpu_id = gpu_id
        self.n_warps = n_warps
        self.stacks: List = []
        # bit w set <=> warp w active (paper §3.4)
        self._mask_slab = mask_slab
        mask_slab[block_id] = 0
        #: Cycles of victim-side slowdown accrued by steals against each
        #: warp (cache-line recovery + atomic serialization); charged to
        #: the victim's next step and cleared.
        self.contention_debt = debt

    @property
    def active_mask(self) -> int:
        return self._mask_slab[self.block_id]

    @active_mask.setter
    def active_mask(self, value: int) -> None:
        self._mask_slab[self.block_id] = value

    def set_active(self, warp: int, active: bool) -> None:
        slab, i = self._mask_slab, self.block_id
        if active:
            slab[i] |= (1 << warp)
        else:
            slab[i] &= ~(1 << warp)

    def is_active(self, warp: int) -> bool:
        return bool(self._mask_slab[self.block_id] & (1 << warp))


class RunState:
    """Global state of one DiggerBees run (see module docstring)."""

    def __init__(
        self,
        graph: CSRGraph,
        root: int,
        config: DiggerBeesConfig,
        device: DeviceSpec,
        *,
        record_order: bool = False,
    ):
        graph._check_vertex(root)
        config.check_fits_device(device)
        self.graph = graph
        self.root = root
        self.config = config
        self.device = device
        self.costs = device.costs

        n = graph.n_vertices
        self.visited = np.zeros(n, dtype=np.uint8)
        self.parent = np.full(n, UNVISITED_PARENT, dtype=np.int64)

        # The visited flags through a memoryview of the *same* buffer:
        # single-flag reads skip NumPy's scalar boxing, and every write
        # through the array is immediately visible here.
        self.visited_mv = memoryview(self.visited)

        #: Total stack entries across every HotRing/ColdSeg.  A vertex is
        #: pushed exactly once (the visited CAS guards it), entries only
        #: move between structures, and a pop retires one entry — so
        #: ``pending == 0`` iff the traversal is complete.
        self.pending = 0

        self.counters = SimCounters()
        self.trace: Optional[TraceLog] = TraceLog() if config.trace else None
        #: The global claim sequence (``record_order`` runs), else None:
        #: appended by :meth:`seed_root` and by a winning
        #: :meth:`try_claim_vertex`, the one place a vertex is claimed.
        self.order: Optional[List[int]] = [] if record_order else None

        #: Optional steal-protocol invariant monitor (``repro.check``).
        #: None in production runs; the protocol code guards every hook
        #: call with a None test so the hot path pays one comparison.
        self.monitor = None
        #: Fuzzing: seeded RNG for adversarial (random-qualifying) steal
        #: victim selection; None keeps the deterministic max-depth scan.
        self.fuzz_rng: Optional[random.Random] = (
            random.Random(0x5EEDFA ^ config.seed)
            if config.adversarial_victims else None
        )

        #: One seed sequence per block; each block's leader warp spawns
        #: its victim-sampling generator from it.
        self.block_seeds = np.random.SeedSequence(config.seed).spawn(
            config.n_blocks)

        # Structure-of-arrays slabs.  Hot head/tail pointers, cold
        # top/bottom pointers, per-block active masks, and per-warp
        # contention debt live in run-wide preallocated storage; the
        # per-warp/per-block objects hold *views* into it (slot indices,
        # memoryview slices), so the fused loop and both victim searches
        # index each slab by global warp ``g`` (slots ``2g``, ``2g + 1``)
        # while every other code path keeps using the object API.  The
        # v1 one-level stack keeps its (top, bottom) in the hot pair.
        # Entry rows belong to each HotRing.
        n_agents = config.n_warps
        wpb = config.warps_per_block
        # Plain lists, not array('q'): values are small non-negative
        # indices/masks (no overflow concern) and list indexing is the
        # cheapest subscript in CPython — these slots are read several
        # times per simulated step.
        self.hot_ptr_slab = [0] * (2 * n_agents)
        self.cold_ptr_slab = [0] * (2 * n_agents)
        self.active_mask_slab = [0] * config.n_blocks
        self.contention_debt_slab = array("q", (0,) * n_agents)
        debt_mv = memoryview(self.contention_debt_slab)

        self.blocks: List[BlockState] = []
        for b in range(config.n_blocks):
            block = BlockState(b, wpb, config.gpu_of_block(b),
                               self.active_mask_slab,
                               debt_mv[b * wpb:(b + 1) * wpb])
            for w in range(wpb):
                g = b * wpb + w
                if config.two_level:
                    block.stacks.append(WarpStack(
                        hot_size=config.hot_size,
                        flush_batch=config.flush_batch,
                        refill_batch=config.refill_batch,
                        cold_reserve=config.cold_reserve,
                        flush_policy=config.flush_policy,
                        hot_ptrs=self.hot_ptr_slab,
                        hot_base=2 * g,
                        cold_ptrs=self.cold_ptr_slab,
                        cold_base=2 * g,
                    ))
                else:
                    block.stacks.append(OneLevelStack(
                        ptrs=self.hot_ptr_slab, base=2 * g))
            self.blocks.append(block)

        self.seed_root(root, 0)

    def seed_root(self, root: int, block_id: int) -> bool:
        """Claim ``root`` and push it into warp 0 of ``block_id`` before
        the grid starts (paper §3.6 seeds warp 0 of block 0).

        A full HotRing is flushed first, at no charge.  A root already
        claimed (a duplicate seed) is skipped: returns False.
        """
        if self.visited_mv[root]:
            return False
        self.visited[root] = 1
        self.parent[root] = ROOT_PARENT
        self.counters.vertices_visited += 1
        if self.order is not None:
            self.order.append(root)
        self.counters.record_task(block_id, 0)
        block = self.blocks[block_id]
        stack = block.stacks[0]
        if stack.needs_flush():
            stack.flush()
        stack.hot.push(root, int(self.graph.row_ptr[root]))
        self.counters.pushes += 1
        self.pending += 1
        block.set_active(0, True)
        return True

    # ------------------------------------------------------------------
    def is_terminated(self) -> bool:
        """Global termination: no pending entries anywhere."""
        return self.pending == 0

    def gpu_idle(self, gpu_id: int) -> bool:
        """True when every block of ``gpu_id`` is idle (multi-GPU ext.)."""
        bpg = self.config.blocks_per_gpu
        start = gpu_id * bpg
        return not any(self.active_mask_slab[start:start + bpg])

    def gpu_leader_block(self, gpu_id: int) -> int:
        """The block whose leader warp performs remote steals for a GPU."""
        return gpu_id * self.config.blocks_per_gpu

    def try_claim_vertex(self, v: int, parent: int) -> bool:
        """The visited atomicCAS (paper §3.3): claim ``v`` for ``parent``.

        Returns True if this caller won the claim.  Step atomicity makes
        the operation linearizable; the counters still record the attempt
        so contention statistics are meaningful.
        """
        counters = self.counters
        counters.cas_attempts += 1
        if self.visited_mv[v]:  # reads the same buffer as self.visited
            counters.cas_failures += 1
            return False
        self.visited[v] = 1
        self.parent[v] = parent
        counters.vertices_visited += 1
        if self.order is not None:
            self.order.append(v)
        return True

    def record(self, time: int, block: int, warp: int, kind: str,
               detail: tuple = ()) -> None:
        if self.trace is not None:
            self.trace.record(time, block, warp, kind, detail)

    def total_entries(self) -> int:
        """Recount entries across all stacks (invariant check for tests)."""
        return sum(len(s) for blk in self.blocks for s in blk.stacks)

    def check_invariants(self) -> None:
        """The global ownership/conservation sweep (expensive).

        Run by tests after a run (``check_invariants=True``) and by the
        ``repro.check`` invariant monitor every ``check_every`` steps.
        Raises :class:`~repro.errors.InvariantViolation` unless

        * every stacked vertex is marked visited (claimed before push);
        * no vertex appears in two stacks (entries move, never duplicate);
        * ``pending`` matches the actual entry count.
        """
        visited = self.visited
        seen: dict = {}
        actual = 0
        for block in self.blocks:
            for warp, stack in enumerate(block.stacks):
                entries = stack.snapshot()
                actual += len(entries)
                owner = (block.block_id, warp)
                for v, _ in entries:
                    if not visited[v]:
                        raise InvariantViolation(
                            f"stacked vertex {v} (owner {owner}) is not "
                            f"marked visited: it was pushed without a "
                            f"winning claim, so a second warp can claim "
                            f"and traverse it again"
                        )
                    prev = seen.get(v)
                    if prev is not None:
                        raise InvariantViolation(
                            f"vertex {v} appears in more than one stack: "
                            f"owned by two stacks at once ({prev} and "
                            f"{owner}), so a steal duplicated it and its "
                            f"subtree will be traversed twice under "
                            f"conflicting owners"
                        )
                    seen[v] = owner
        if actual != self.pending:
            kind = "lost" if actual < self.pending else "invented"
            raise InvariantViolation(
                f"pending counter says {self.pending} stack entries but "
                f"the stacks hold {actual}: {abs(actual - self.pending)} "
                f"entries were {kind} (termination counter and true work "
                f"have diverged)"
            )
