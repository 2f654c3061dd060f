"""CPU work-stealing parallel DFS baselines: CKL-PDFS and ACR-PDFS.

Both baselines model a multicore CPU (:class:`~repro.sim.device.CpuSpec`):
a private work deque per core and a shared ``visited`` array with atomic
claims.  Per the paper's Table 2, these methods report only
**reachability** (no DFS tree), which is also how we validate them.

The two differ in their stealing protocol, following the cited systems:

* **CKL-PDFS** (Cong, Kodali, Krishnamoorthy, Lea, Saraswat, Wen, ICPP'08
  — "adaptive work-stealing"): receiver-initiated.  An idle core picks a
  random victim and steals an *adaptive* batch — half of the victim's
  deque from the oldest end (steal-half), which their paper shows
  outperforms fixed-size steals on irregular graphs.
* **ACR-PDFS** (Acar, Charguéraud, Rainey, SC'15 — "work-efficient
  unordered DFS"): sender-initiated communication-by-request.  An idle
  core posts a request into the victim's request cell; the victim polls
  the cell between DFS steps and *donates* half its deque to the thief's
  mailbox.  This removes contention on the deque (work efficiency) at
  the price of donation latency — visible on small graphs, which is why
  the paper's speedup over ACR (1.83x) exceeds that over CKL (1.37x).

The fused drain
---------------
One loop, :func:`_drain`, runs both protocols.  It replays the event
order of :class:`~repro.sim.engine.EventLoop` exactly: every core is
ready at time 0 in id order, events run in ``(ready_at, seq)`` order
(ties go to the earlier scheduling), and termination (``pending == 0``)
is observed before every event, so ``cycles`` is the time of the last
executed event.  A plain heap of ``(ready_at, seq, core)`` entries holds
that order: with a handful of cores almost every event has its own
timestamp, so the calendar queue of :mod:`repro.core.turbo` would hold
one entry per bucket.

The step that dominates every run — expand or pop the top deque entry,
scanning at most :data:`CPU_SCAN_WIDTH` neighbours — runs inline over
memoryviews of the graph's CSR arrays (read in place, so a pool worker
reads its attached segment and no run copies the graph) and of
``visited``, with counter deltas (and the per-core task tallies) kept in
locals and merged into :class:`~repro.sim.trace.SimCounters` once.  The
rare protocol moves stay small functions over :class:`_CpuRunState`:
:func:`_ckl_steal`, :func:`_acr_service` and :func:`_acr_idle`.  A
victim draw is one ``integers`` call on the idle core's own
:class:`~repro.utils.fastrand.BoundedDraws` over a ``PCG64`` stream
spawned from the run's seed (the bounded-draw replica the GPU leaders
use, bit-exact with ``Generator.integers``), so each core's stream
depends only on its own idle attempts.

Why a core's CAS never fails
----------------------------
A step is atomic: the window scan that finds ``v`` unvisited and the
claim of ``v`` happen in the same step, so no other core can claim ``v``
in between.  Every claim counts one ``cas_attempts`` and pays
``visited_cas``; ``cas_failures`` stays 0 and ``cas_retry`` is never
charged.  A losable CAS would need the scan and the claim in separate
steps, which would move every recorded schedule.
"""

from __future__ import annotations

import gc
import heapq
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.graphs.csr import CSRGraph
from repro.sim.device import CpuSpec, XEON_MAX_9462
from repro.sim.engine import (DEFAULT_MAX_CYCLES, deadlock_window,
                              deadlocked_error, non_positive_cost_error,
                              over_budget_error)
from repro.sim.metrics import mteps as _mteps
from repro.sim.trace import SimCounters
from repro.utils.fastrand import BoundedDraws
from repro.validate.reference import ROOT_PARENT, UNVISITED_PARENT, TraversalResult

__all__ = ["CpuDfsResult", "run_ckl_pdfs", "run_acr_pdfs"]

#: Neighbours examined per core step (superscalar scan of one cache line
#: worth of adjacency).
CPU_SCAN_WIDTH = 8


@dataclass(frozen=True)
class CpuDfsResult:
    """Outcome of a CPU PDFS run (reachability + timing)."""

    traversal: TraversalResult
    cycles: int
    seconds: float
    counters: SimCounters
    cores: int
    device: CpuSpec
    method: str

    @property
    def mteps(self) -> float:
        return _mteps(self.traversal.edges_traversed, self.seconds)


class _CpuRunState:
    """Shared state of one CPU PDFS run."""

    def __init__(self, graph: CSRGraph, root: int, cores: int, device: CpuSpec,
                 seed: int):
        graph._check_vertex(root)
        if cores < 1:
            raise SimulationError(f"cores must be >= 1, got {cores}")
        if seed < 0:
            raise SimulationError(f"seed must be >= 0, got {seed}")
        self.graph = graph
        self.root = root
        self.device = device
        self.costs = device.costs
        self.cores = cores
        n = graph.n_vertices
        self.visited = np.zeros(n, dtype=np.uint8)
        self.pending = 0
        self.counters = SimCounters()
        self.rngs = [BoundedDraws(np.random.PCG64(s))
                     for s in np.random.SeedSequence(seed).spawn(cores)]
        # Per-core deques of [vertex, offset], idle backoff, and the ACR
        # request/mailbox cells.
        self.deques: List[List[list]] = [[] for _ in range(cores)]
        self.backoff: List[int] = [self.costs.idle_poll] * cores
        self.requests: List[Optional[int]] = [None] * cores   # thief id or None
        self.mailboxes: List[Optional[list]] = [None] * cores  # donated batches

        self.visited[root] = 1
        self.counters.vertices_visited += 1
        self.counters.record_task(0, 0)
        self.deques[0].append([root, int(graph.row_ptr[root])])
        self.counters.pushes += 1
        self.pending = 1


# ----------------------------------------------------------------------
# Protocol moves.  Each is one core step; it returns ``(cost, progress)``
# where ``progress`` feeds the drain's deadlock guard.  None of them
# creates or retires deque entries, so none touches ``pending``.
# ----------------------------------------------------------------------
def _back_off(state: _CpuRunState, core: int) -> int:
    """Return ``core``'s current idle backoff and double it (capped)."""
    backoff = state.backoff[core]
    state.backoff[core] = min(backoff * 2, state.costs.idle_backoff_max)
    return backoff


def _ckl_steal(state: _CpuRunState, core: int) -> Tuple[int, bool]:
    """CKL idle step: steal half a random victim's deque, oldest end first."""
    costs = state.costs
    counters = state.counters
    victim = state.rngs[core].integers(0, state.cores)
    counters.intra_steal_attempts += 1
    vdq = state.deques[victim]
    if victim == core or len(vdq) < 2:
        counters.idle_polls += 1
        return costs.steal_fail + _back_off(state, core), False
    # Adaptive: the batch scales with the victim's deque.
    amount = len(vdq) // 2
    state.deques[core].extend(vdq[:amount])
    del vdq[:amount]
    counters.intra_steal_successes += 1
    counters.intra_steal_entries += amount
    state.backoff[core] = costs.idle_poll
    return costs.steal_base + costs.steal_per_entry * amount, True


def _acr_service(state: _CpuRunState, core: int) -> Tuple[int, bool]:
    """ACR victim step: answer the request in ``core``'s cell.

    Donates the oldest half of the deque to the thief's mailbox, or
    declines when there is too little to split or the thief's mailbox
    is still full.  The cell is cleared either way.
    """
    costs = state.costs
    thief = state.requests[core]
    state.requests[core] = None
    deque = state.deques[core]
    if len(deque) < 2 or state.mailboxes[thief] is not None:
        return costs.pop, False
    amount = len(deque) // 2
    state.mailboxes[thief] = deque[:amount]
    del deque[:amount]
    counters = state.counters
    counters.intra_steal_successes += 1
    counters.intra_steal_entries += amount
    return costs.steal_base + costs.steal_per_entry * amount, True


def _acr_idle(state: _CpuRunState, core: int) -> Tuple[int, bool]:
    """ACR idle step: collect a donation, else post a request, else back off."""
    costs = state.costs
    mail = state.mailboxes[core]
    if mail is not None:
        state.mailboxes[core] = None
        state.deques[core].extend(mail)
        state.backoff[core] = costs.idle_poll
        return costs.steal_per_entry * len(mail) + costs.pop, True
    # Post to a random busy victim.  A thief may have requests out at
    # several victims; each victim's cell holds one request, so a cell
    # already taken is left alone.
    counters = state.counters
    victim = state.rngs[core].integers(0, state.cores)
    counters.intra_steal_attempts += 1
    if (victim != core and state.deques[victim]
            and state.requests[victim] is None):
        state.requests[victim] = core
        return costs.steal_fail, False
    counters.idle_polls += 1
    return _back_off(state, core), False


# ----------------------------------------------------------------------
# The drain.
# ----------------------------------------------------------------------
def _drain(state: _CpuRunState, protocol: str, *,
           max_cycles: int = DEFAULT_MAX_CYCLES) -> int:
    """Run ``state`` to termination under ``protocol``; return the cycles.

    See the module docstring for the order it replays.  The guards are
    the event engine's, with its messages: an event due after
    ``max_cycles`` is not run, more than ``deadlock_window(cores)``
    consecutive steps without progress is a deadlock, and a step must
    cost at least one cycle.

    Counter deltas and ``pending`` are written back to ``state`` on
    every exit, so a run stopped by a guard leaves the state exactly as
    its executed steps made it.  Cyclic GC is paused meanwhile, as in
    :func:`repro.core.turbo.run_turbo`: the loop creates no reference
    cycles, and a collection would only rescan the caller's heap.
    """
    if protocol not in ("ckl", "acr"):
        raise SimulationError(f"unknown CPU protocol {protocol!r}")
    acr = protocol == "acr"
    idle = _acr_idle if acr else _ckl_steal
    cores = state.cores
    window = deadlock_window(cores)
    costs = state.costs
    c_idle = costs.idle_poll
    c_pop = costs.pop
    c_row_open = costs.row_open
    c_claim = costs.visited_cas + costs.push
    lw = costs.line_width
    # Step cost by window width w: per-step overhead plus one line per
    # lw scanned neighbours (see CpuOpCosts for the calibration).  A
    # row's first window also pays the row-open miss.
    scan_cost = [costs.visit_base + costs.visit_per_line * -(-w // lw)
                 for w in range(CPU_SCAN_WIDTH + 1)]

    rp = memoryview(state.graph.row_ptr)
    ci = memoryview(state.graph.column_idx)
    visited = memoryview(state.visited)
    deques = state.deques
    backoff = state.backoff
    requests = state.requests
    replace = heapq.heapreplace

    tasks = [0] * cores     # claims per core
    d_edges = d_pops = 0
    pending = state.pending
    heap = [(0, c, c) for c in range(cores)]  # (ready_at, seq, core)
    seq = cores             # steps executed so far == seq - cores
    now = 0
    stale = 0

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        while pending:
            t, _, core = heap[0]
            if t > now:
                if t > max_cycles:
                    raise over_budget_error(max_cycles, t, seq - cores)
                now = t
            dq = deques[core]
            if acr and requests[core] is not None:
                cost, progress = _acr_service(state, core)
            elif dq:
                # ---- expand or pop the top entry (Algorithm 1 body) ----
                progress = True
                backoff[core] = c_idle
                top = dq[-1]
                u, i = top
                row_end = rp[u + 1]
                if i >= row_end:
                    dq.pop()
                    d_pops += 1
                    pending -= 1
                    cost = c_pop
                else:
                    wend = i + CPU_SCAN_WIDTH
                    if wend > row_end:
                        wend = row_end
                    cost = scan_cost[wend - i]
                    if i == rp[u]:
                        cost += c_row_open
                    for k in range(i, wend):
                        v = ci[k]
                        if not visited[v]:
                            # Scan and claim are one atomic step: the
                            # CAS cannot lose (module docstring).
                            d_edges += k - i + 1
                            top[1] = k + 1
                            visited[v] = 1
                            tasks[core] += 1
                            dq.append([v, rp[v]])
                            pending += 1
                            cost += c_claim
                            break
                    else:
                        d_edges += wend - i
                        if wend >= row_end:
                            dq.pop()
                            d_pops += 1
                            pending -= 1
                            cost += c_pop
                        else:
                            top[1] = wend
            else:
                cost, progress = idle(state, core)
            if progress:
                stale = 0
            else:
                stale += 1
                if stale > window:
                    raise deadlocked_error(stale, now)
            if cost < 1:
                raise non_positive_cost_error(core, cost)
            replace(heap, (now + cost, seq, core))
            seq += 1
    finally:
        state.pending = pending
        counters = state.counters
        claims = sum(tasks)
        counters.edges_traversed += d_edges
        counters.pops += d_pops
        counters.cas_attempts += claims
        counters.vertices_visited += claims
        counters.pushes += claims
        for core, n in enumerate(tasks):
            if n:
                counters.record_task(0, core, n)
        if gc_was_enabled:
            gc.enable()
    return now


def _run_cpu_pdfs(graph: CSRGraph, root: int, protocol: str, method: str, *,
                  cores: Optional[int], device: CpuSpec, sim_scale: float,
                  seed: int) -> CpuDfsResult:
    if cores is None:
        cores = device.default_cores(sim_scale)
    state = _CpuRunState(graph, root, cores, device, seed)
    cycles = _drain(state, protocol)
    if state.pending != 0:
        raise SimulationError(f"CPU PDFS stopped with {state.pending} pending")
    # Un-donated mailbox entries would be lost work; assert none remain.
    if any(m for m in state.mailboxes if m):
        raise SimulationError("CPU PDFS terminated with a full mailbox")

    n = graph.n_vertices
    parent = np.full(n, UNVISITED_PARENT, dtype=np.int64)
    parent[root] = ROOT_PARENT  # reachability-only output (Table 2)
    traversal = TraversalResult(
        root=root,
        visited=state.visited.astype(bool),
        parent=parent,
        order=np.empty(0, dtype=np.int64),
        edges_traversed=state.counters.edges_traversed,
    )
    return CpuDfsResult(
        traversal=traversal,
        cycles=cycles,
        seconds=device.cycles_to_seconds(cycles),
        counters=state.counters,
        cores=cores,
        device=device,
        method=method,
    )


def run_ckl_pdfs(graph: CSRGraph, root: int, *, cores: Optional[int] = None,
                 device: CpuSpec = XEON_MAX_9462, sim_scale: float = 1.0,
                 seed: int = 0) -> CpuDfsResult:
    """CKL-PDFS: adaptive (steal-half) receiver-initiated work stealing."""
    return _run_cpu_pdfs(graph, root, "ckl", "CKL-PDFS", cores=cores,
                         device=device, sim_scale=sim_scale, seed=seed)


def run_acr_pdfs(graph: CSRGraph, root: int, *, cores: Optional[int] = None,
                 device: CpuSpec = XEON_MAX_9462, sim_scale: float = 1.0,
                 seed: int = 0) -> CpuDfsResult:
    """ACR-PDFS: work-efficient sender-initiated (request/donate) stealing."""
    return _run_cpu_pdfs(graph, root, "acr", "ACR-PDFS", cores=cores,
                         device=device, sim_scale=sim_scale, seed=seed)
