"""Warp-level DFS execution (paper §3.3) as an event-engine agent.

Each :class:`WarpAgent` is one warp: all 32 lanes follow the same DFS
path, so a simulator step models one warp-wide action:

* **expand** — inspect up to 32 neighbours of the top stack entry in one
  coalesced window, claim the first unvisited one via the visited
  atomicCAS, and push it (flushing the HotRing to the ColdSeg first if
  full); or pop the entry when its adjacency is exhausted.
* **refill** — when the HotRing empties but the ColdSeg holds entries,
  pull a batch back (TMA-priced asynchronous copy).
* **steal** — when the whole two-level stack is empty the warp turns
  idle (clearing its active-mask bit) and runs the two-phase stealing
  protocols of §3.4/§3.5: intra-block stealing whenever a peer warp is
  active, inter-block stealing when the entire block is idle and this
  warp is the block leader (warp 0).
* **poll** — nothing to steal: exponential-backoff polling.

Costs come from the device's :class:`~repro.sim.device.OpCosts`; the v1
ablation (one-level stack) pays global-memory latency on every stack
operation (``gstack_penalty``).

The fused loop
--------------
Untraced runs on two-level stacks with no schedule perturbation never
call :meth:`WarpAgent.step`: :mod:`repro.core.turbo` inlines the
expand, refill and idle transitions over the run's structure-of-arrays
slabs and calls only :meth:`WarpAgent._idle` and the two reservation
steps.  The generic :class:`~repro.sim.engine.EventLoop` steps every
other run (the one-level v1 ablation, perturbed schedules, traced runs)
and the oracle
:func:`repro.core.diggerbees.run_reference` through ``step``, whose one
expand body, :meth:`WarpAgent._expand_reference`, is the NumPy
implementation the fused loop's inline expand must replay bit for bit.
The ``state.record`` calls in these steps are the run's one trace
recorder.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

import numpy as np

from repro.core import inter_steal, intra_steal
from repro.core.state import RunState
from repro.sim.engine import StepOutcome
from repro.utils.fastrand import BoundedDraws

__all__ = ["WarpAgent", "WARP_WIDTH"]

#: Lanes per warp: the neighbour-scan window of one expand step.
WARP_WIDTH = 32

#: Extra cycles a one-level (global-memory) stack pays per push/pop/peek
#: versus the shared-memory HotRing — the v1-vs-v2 gap of §4.5.
GSTACK_PENALTY = 55


class _Phase(Enum):
    RUN = "run"
    RESERVE_INTRA = "reserve_intra"
    RESERVE_INTER = "reserve_inter"


class WarpAgent:
    """One warp of the DiggerBees grid (see module docstring)."""

    __slots__ = ("state", "block_id", "warp_id", "block", "stack", "rng",
                 "phase", "intra_plan", "inter_plan", "backoff",
                 "_two_level", "_gpenalty", "_bit", "_out")

    def __init__(self, state: RunState, block_id: int, warp_id: int):
        self.state = state
        self.block_id = block_id
        self.warp_id = warp_id
        self.block = state.blocks[block_id]
        self.stack = self.block.stacks[warp_id]
        # Only leaders sample victims randomly: a PCG64 stream spawned
        # from the block's seed sequence, drawn through the bit-exact
        # Generator.integers replica (see repro.utils.fastrand).
        self.rng = BoundedDraws(np.random.PCG64(
            state.block_seeds[block_id].spawn(1)[0]
        )) if warp_id == 0 else None
        self.phase = _Phase.RUN
        self.intra_plan: Optional[intra_steal.IntraStealPlan] = None
        self.inter_plan: Optional[inter_steal.InterStealPlan] = None
        self.backoff = state.costs.idle_poll
        self._two_level = state.config.two_level
        self._gpenalty = 0 if self._two_level else GSTACK_PENALTY
        self._bit = 1 << warp_id
        # One StepOutcome reused across this agent's idle polls.  The
        # engine (and every test) consumes an outcome before the agent
        # steps again, so reuse removes one allocation per poll.
        self._out = StepOutcome(cost=0)

    # ------------------------------------------------------------------
    def step(self, now: int) -> StepOutcome:
        state = self.state
        if state.pending == 0:  # inlined state.is_terminated()
            return StepOutcome(cost=0, made_progress=False, done=True)
        phase = self.phase
        if phase is not _Phase.RUN:
            if phase is _Phase.RESERVE_INTRA:
                return self._reserve_intra(now)
            return self._reserve_inter(now)
        if not self.stack.is_empty:
            return self._work(now)
        return self._idle(now)

    # ------------------------------------------------------------------
    # Active execution.
    # ------------------------------------------------------------------
    def _work(self, now: int) -> StepOutcome:
        state = self.state
        costs = state.costs
        block = self.block
        bit = self._bit
        if not block.active_mask & bit:
            block.active_mask |= bit
        self.backoff = costs.idle_poll

        # Pay any victim-side contention accrued from steals against us.
        debt = block.contention_debt[self.warp_id]
        if debt:
            block.contention_debt[self.warp_id] = 0

        if self.stack.can_refill():
            moved = self.stack.refill()
            state.counters.refills += 1
            state.counters.refill_entries += moved
            state.record(now, self.block_id, self.warp_id, "refill", (moved,))
            return StepOutcome(cost=debt + costs.refill_base
                               + costs.refill_per_entry * moved)
        out = self._expand_reference(now)
        if debt:
            out.cost += debt  # StepOutcome not yet visible outside this step
        return out

    def _expand_reference(self, now: int) -> StepOutcome:
        """One warp-wide DFS step on the top stack entry (Algorithm 1 body).

        The reference NumPy implementation: the fused loop's inline
        expand (:mod:`repro.core.turbo`) must charge identical costs and
        make identical mutations, which the golden determinism tests and
        the ``repro.check`` reference-diff stage assert bit for bit.
        """
        state = self.state
        costs = state.costs
        counters = state.counters
        graph = state.graph
        rp, ci = graph.row_ptr, graph.column_idx
        stack = self.stack
        top = stack.hot
        gpenalty = self._gpenalty

        u, i = top.peek()
        row_end = int(rp[u + 1])
        if i >= row_end:
            # Adjacency exhausted: fast pop (offset notionally set to -1).
            top.pop()
            counters.pops += 1
            state.pending -= 1
            state.record(now, self.block_id, self.warp_id, "pop", (u,))
            return StepOutcome(cost=costs.hot_pop + gpenalty)

        window = min(WARP_WIDTH, row_end - i)
        nbrs = ci[i:i + window]
        unvis = np.flatnonzero(state.visited[nbrs] == 0)
        cost = costs.visit_base + costs.visit_per_edge * window + gpenalty

        if unvis.size == 0:
            # Whole window already visited: consume it.
            counters.edges_traversed += window
            new_off = i + window
            if new_off >= row_end:
                top.pop()
                counters.pops += 1
                state.pending -= 1
                cost += costs.hot_pop + gpenalty
                state.record(now, self.block_id, self.warp_id, "pop", (u,))
            else:
                top.update_top_offset(new_off)
            return StepOutcome(cost=cost)

        # Claim the first unvisited neighbour in the window.
        k = i + int(unvis[0])
        counters.edges_traversed += int(unvis[0]) + 1
        v = int(ci[k])
        top.update_top_offset(k + 1)
        claimed = state.try_claim_vertex(v, u)
        cost += costs.visited_cas
        if not claimed:
            # Lost the CAS to a concurrent warp (cannot happen under step
            # atomicity after the visited check, but kept for safety).
            cost += costs.cas_retry
            return StepOutcome(cost=cost)

        counters.record_task(self.block_id, self.warp_id)
        # Push <v | row_ptr[v]>, flushing first when the HotRing is full.
        if stack.needs_flush():
            moved = stack.flush()
            counters.flushes += 1
            counters.flush_entries += moved
            cost += costs.flush_base + costs.flush_per_entry * moved
            state.record(now, self.block_id, self.warp_id, "flush", (moved,))
        top.push(v, int(rp[v]))
        if self._two_level:  # v1 keeps no depth maxima
            counters.max_hot_depth = max(counters.max_hot_depth, len(top))
            counters.max_cold_depth = max(counters.max_cold_depth, len(stack.cold))
        counters.pushes += 1
        state.pending += 1
        cost += costs.hot_push + gpenalty
        state.record(now, self.block_id, self.warp_id, "visit", (u, v))
        return StepOutcome(cost=cost)

    # ------------------------------------------------------------------
    # Idle execution: stealing and polling.
    # ------------------------------------------------------------------
    def _idle(self, now: int) -> StepOutcome:
        state = self.state
        costs = state.costs
        config = state.config
        block = self.block
        if block.active_mask & self._bit:
            block.active_mask &= ~self._bit

        # Intra-block stealing: any peer in my block active?
        if block.active_mask:
            plan = intra_steal.select_victim(state, block, self.warp_id)
            extra = costs.steal_scan_per_warp * block.n_warps
            if plan is not None:
                self.intra_plan = plan
                self.phase = _Phase.RESERVE_INTRA
                return StepOutcome(cost=extra)
        # Inter-block stealing: leader warp of an idle block.
        elif (config.enable_inter_steal and self.warp_id == 0
                and config.n_blocks > 1):
            plan = inter_steal.select_victim(state, self.block_id, self.rng)
            extra = costs.steal_scan_per_warp * config.warps_per_block + 40
            if plan is not None:
                self.inter_plan = plan
                self.phase = _Phase.RESERVE_INTER
                return StepOutcome(cost=extra)
        else:
            extra = 0

        return self._poll(extra)

    def _poll(self, extra: int) -> StepOutcome:
        """Exponential-backoff idle poll (no work found)."""
        costs = self.state.costs
        self.state.counters.idle_polls += 1
        cost = extra + self.backoff
        self.backoff = min(self.backoff * 2, costs.idle_backoff_max)
        out = self._out
        out.cost = cost
        out.made_progress = False
        out.done = False
        return out

    def _reserve_intra(self, now: int) -> StepOutcome:
        state = self.state
        costs = state.costs
        plan = self.intra_plan
        self.phase = _Phase.RUN
        self.intra_plan = None
        ok = intra_steal.execute_steal(state, self.block, self.warp_id, plan)
        if ok:
            self.backoff = costs.idle_poll
            state.record(now, self.block_id, self.warp_id, "steal_intra",
                         (plan.victim_warp, plan.amount))
            return StepOutcome(cost=costs.steal_intra_base
                               + costs.steal_intra_per_entry * plan.amount)
        state.record(now, self.block_id, self.warp_id, "steal_intra_fail",
                     (plan.victim_warp,))
        return StepOutcome(cost=costs.steal_fail, made_progress=False)

    def _reserve_inter(self, now: int) -> StepOutcome:
        state = self.state
        costs = state.costs
        plan = self.inter_plan
        self.phase = _Phase.RUN
        self.inter_plan = None
        ok = inter_steal.execute_steal(state, self.block_id, self.warp_id, plan)
        if ok:
            self.backoff = costs.idle_poll
            kind = "steal_remote" if plan.remote else "steal_inter"
            state.record(now, self.block_id, self.warp_id, kind,
                         (plan.victim_block, plan.victim_warp, plan.amount))
            if plan.remote:
                return StepOutcome(cost=costs.steal_remote_base
                                   + costs.steal_remote_per_entry * plan.amount)
            return StepOutcome(cost=costs.steal_inter_base
                               + costs.steal_inter_per_entry * plan.amount)
        state.record(now, self.block_id, self.warp_id, "steal_inter_fail",
                     (plan.victim_block, plan.victim_warp))
        return StepOutcome(cost=costs.steal_fail, made_progress=False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"WarpAgent(block={self.block_id}, warp={self.warp_id}, "
                f"phase={self.phase.value}, stack={len(self.stack)})")
