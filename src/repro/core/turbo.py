"""Turbo execution core: the fused scheduler-agent hot loop.

This is the DFS driver of every run that allows it (see
``turbo_eligible``).  ``run_turbo`` merges the ``(ready_at, seq)``
drain of :class:`repro.sim.engine.EventLoop` with the :class:`WarpAgent`
expand/pop state machine into one monomorphic inner loop.  The generic
engine pays one ``agent.step()`` call, one ``StepOutcome`` consume, and a
chain of attribute reads per simulated step; the fused loop instead
inlines the transitions that dominate every run — expand, refill, and
an idle warp's backoff poll when there is no victim — over local
bindings of the structure-of-arrays slabs preallocated by
:class:`~repro.core.state.RunState` (the hot head/tail and cold
top/bottom pointer slabs, active masks, contention debt), each
HotRing's own entry rows, and memoryviews of the graph's ``row_ptr``,
``column_idx`` and the run's ``visited``/``parent``.  The views read
the arrays in place, so a run holds no copy of the graph, and a pool
worker reads the segment it attached.

An idle warp's victim search is the generic loop's: the idle branch
clears the warp's mask bit and calls ``intra_steal.select_victim``
(largest peer hot rest) when a peer is active, or, for the leader warp
of an idle block, ``inter_steal.select_victim`` (a victim block by
``victim_policy``, then its largest cold rest), exactly as
``WarpAgent._idle`` does.  Both read the pointer slabs this loop binds,
so adversarial-victim fuzzing (``fuzz_rng``) and multi-GPU grids (the
remote-steal fallback) take the same path as every other run.  The
two-phase reservation steps always run through ``_reserve_intra`` /
``_reserve_inter`` and ``execute_steal``, so the protocol code that
the mutation suite patches, and the ``repro.check`` invariant monitor
hooks inside it, run unchanged; they are the only agent methods the
loop calls.

Counter accumulation: the hot counters (edges, pops, pushes, CAS stats,
idle polls, flush/refill stats, depth maxima) accumulate in loop locals
and merge into :class:`~repro.sim.trace.SimCounters` additively — at the
return points and before every ``on_step`` observer call, so any
instrumented consumer sees exact totals.  The merge is order-independent
(sums and maxima), so reservation steps that bump counters through the
object API compose correctly with unmerged local deltas.

Bit-exactness contract
----------------------
The fused loop replays the generic engine's ``(ready_at, seq)`` event
order exactly — with a calendar queue (FIFO buckets per distinct
timestamp) where the engine drains a heap, so the two orders are
independent implementations of one contract — polls termination before
every event and charges identical costs, so cycles, steps, counters
and traversal output are bit-for-bit equal to the generic engine
running the reference expand.  The golden determinism tests and the
``repro.check`` oracle ladder's reference-diff stage (fused loop vs
:func:`repro.core.diggerbees.run_reference`) assert this on every
unperturbed, untraced two-level run.

Eligibility: the loop only understands the homogeneous two-level grid
with no schedule perturbation, and it records no trace;
``turbo_eligible`` gates dispatch and :mod:`repro.core.diggerbees`
drains every other config through the generic
:class:`~repro.sim.engine.EventLoop`, whose :class:`WarpAgent` steps
are the one trace recorder.
"""

from __future__ import annotations

import gc
import heapq
from typing import Callable, Optional, Sequence

from repro.core import inter_steal, intra_steal
from repro.core.state import RunState
from repro.core.warp_dfs import WarpAgent, _Phase
from repro.sim.engine import (EngineResult, deadlock_window,
                              deadlocked_error, non_positive_cost_error,
                              over_budget_error)

__all__ = ["turbo_eligible", "run_turbo"]

#: The pristine claim method: when a mutation (``repro.check``) patches
#: ``RunState.try_claim_vertex``, or a ``record_order`` run keeps the
#: claim sequence, the fused loop routes claims through the method
#: instead of its inline copy.
_ORIG_CLAIM = RunState.try_claim_vertex


def turbo_eligible(config) -> bool:
    """True when the fused loop can run ``config`` bit-identically.

    Requirements: two-level stacks (the loop addresses HotRings through
    the SoA slabs), no schedule perturbation (the fuzzer's randomized
    drain order cannot be fused) and no trace (traced runs take the
    generic loop, whose ``WarpAgent`` steps record the events; tracing
    changes no schedule).
    """
    return (config.two_level and config.perturb_seed is None
            and not config.trace)


def run_turbo(
    state: RunState,
    agents: Sequence[WarpAgent],
    *,
    max_cycles: int,
    on_step: Optional[Callable[[int], None]] = None,
) -> EngineResult:
    """Drain the simulation with the fused loop (see module docstring).

    Mirrors the drain of ``EventLoop`` exactly: identical event order,
    identical costs, identical termination observation point — hence
    identical ``EngineResult``.

    Cyclic GC is paused for the duration of the drain: the run state is
    millions of container objects, and a threshold-triggered gen-2
    collection mid-loop scans all of them for garbage that refcounting
    already reclaims (the loop allocates no cycles).  The previous GC
    state is restored on every exit path.
    """
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        return _drain(state, agents, max_cycles=max_cycles, on_step=on_step)
    finally:
        if gc_was_enabled:
            gc.enable()


def _drain(
    state: RunState,
    agents: Sequence[WarpAgent],
    *,
    max_cycles: int,
    on_step: Optional[Callable[[int], None]] = None,
) -> EngineResult:
    config = state.config
    costs = state.costs
    counters = state.counters
    n_agents = len(agents)
    window = deadlock_window(n_agents)
    max_cycles = int(max_cycles)

    # Shared-state locals: the CSR arrays, read in place through
    # memoryviews, and the SoA slabs.  Every write goes through a view of
    # the same storage the object APIs use, so victim searches,
    # reservation steps and monitor sweeps observe a consistent world.
    rp = memoryview(state.graph.row_ptr)
    ci = memoryview(state.graph.column_idx)
    visited = state.visited_mv
    parent = memoryview(state.parent)
    masks = state.active_mask_slab
    debts = state.contention_debt_slab
    ptrs = state.hot_ptr_slab
    cptrs = state.cold_ptr_slab
    hsize = config.hot_size
    #: Local mirror of ``state.pending``.  Only expand pops/pushes change
    #: it (steals move entries, never create or retire them), so syncing
    #: it back before reservation steps / observer calls / returns — and
    #: re-reading after reservations — keeps both views exact.
    pending = state.pending

    claim = state.try_claim_vertex
    inline_claim = (type(state).try_claim_vertex is _ORIG_CLAIM
                    and state.order is None)

    n_blocks = config.n_blocks
    wpb = config.warps_per_block
    # Leader warps of idle blocks search other blocks (WarpAgent._idle).
    inter = config.enable_inter_steal and n_blocks > 1
    select_intra = intra_steal.select_victim
    select_inter = inter_steal.select_victim

    # Cost constants (gstack penalty is zero: two-level only).
    c_pop = costs.hot_pop
    c_visit_base = costs.visit_base
    c_visit_edge = costs.visit_per_edge
    # A won claim and its push; a lost claim and its retry.
    c_claim = costs.visited_cas + costs.hot_push
    c_cas_lost = costs.visited_cas + costs.cas_retry
    c_flush_base = costs.flush_base
    c_flush_entry = costs.flush_per_entry
    c_refill_base = costs.refill_base
    c_refill_entry = costs.refill_per_entry
    c_idle = costs.idle_poll
    backoff_max = costs.idle_backoff_max
    # Victim-search costs, as WarpAgent._idle charges them (the leader
    # pays 40 cycles over the peer scan).
    c_scan_intra = costs.steal_scan_per_warp * wpb
    c_scan_inter = c_scan_intra + 40

    # Claim tallies accumulate in a flat list (one slot per agent) and
    # merge into the counters dicts at the flush points, the per-block
    # tallies derived from them there — claims only ever happen in the
    # inline expand, so no other step races these.
    tpw_local = [0] * (n_blocks * wpb)
    RUN = _Phase.RUN
    RESERVE_INTRA = _Phase.RESERVE_INTRA
    RESERVE_INTER = _Phase.RESERVE_INTER

    # Local counter deltas (merged at the flush points; see docstring).
    d_edges = d_claims = d_pops = d_pushes = 0
    d_polls = d_refills = d_refille = d_flushes = d_flushe = 0
    mx_hot = mx_cold = 0

    # One record per agent: the agent plus every per-warp binding the
    # inline transitions need, unpacked once per event.  The HotRing's
    # entry lists and its slot indices into the pointer slab alias the
    # storage the object API uses, so steal and flush code observe
    # every inline mutation.
    recs = []
    for a in agents:
        hot = a.stack.hot
        recs.append((
            a, a.stack, a.block, a.block_id, a.warp_id, a._bit,
            a.block_id * wpb + a.warp_id,  # global debt-slab index
            hot.vertex, hot.offset, hot._hi, hot._ti,
            (a.block_id, a.warp_id),       # tasks_per_warp key
        ))

    pop_time = heapq.heappop
    push_time = heapq.heappush
    buckets = {0: recs}
    times = [0]
    now = 0
    steps = 0
    stale = 0

    while times:
        t = times[0]
        bucket = buckets[t]
        for rec in bucket:
            # Termination is observed *before* time advances to this
            # event — the exact point the generic engine polls it — so
            # `cycles` never includes an abandoned event.  It is also
            # the only way a WarpAgent step finishes, so no step below
            # returns a `done` outcome.
            if pending == 0:
                times = None  # signal: terminated, not drained
                break
            if t > now:
                if t > max_cycles:
                    raise over_budget_error(max_cycles, t, steps)
                now = t
            agent = rec[0]
            progress = True
            if agent.phase is RUN:
                (_, stack, block, bid, wid, bit, gidx,
                 hv, ho, hpi, tpi, key) = rec
                head = ptrs[hpi]
                hot_empty = head == ptrs[tpi]
                g2 = gidx + gidx  # cold (top, bottom) slab pair
                if not hot_empty or cptrs[g2] != cptrs[g2 + 1]:
                    m = masks[bid]
                    if not m & bit:
                        masks[bid] = m | bit
                    agent.backoff = c_idle
                    debt = debts[gidx]
                    if debt:
                        debts[gidx] = 0
                    if hot_empty:  # cold is non-empty here: refill
                        moved = stack.refill()
                        d_refills += 1
                        d_refille += moved
                        cost = debt + c_refill_base + c_refill_entry * moved
                    else:
                        # ---- inline expand (WarpAgent._expand_reference)
                        pos = head - 1
                        if pos < 0:
                            pos = hsize - 1
                        u = hv[pos]
                        i = ho[pos]
                        row_end = rp[u + 1]
                        if i >= row_end:
                            # Adjacency exhausted: fast pop.
                            ptrs[hpi] = pos
                            d_pops += 1
                            pending -= 1
                            cost = debt + c_pop
                        else:
                            wend = i + 32  # WARP_WIDTH
                            if wend > row_end:
                                wend = row_end
                            k = -1
                            for j in range(i, wend):
                                if not visited[ci[j]]:
                                    k = j
                                    break
                            cost = (debt + c_visit_base
                                    + c_visit_edge * (wend - i))
                            if k < 0:
                                # Whole window already visited.
                                d_edges += wend - i
                                if wend >= row_end:
                                    ptrs[hpi] = pos
                                    d_pops += 1
                                    pending -= 1
                                    cost += c_pop
                                else:
                                    ho[pos] = wend
                            else:
                                d_edges += k - i + 1
                                v = ci[k]
                                ho[pos] = k + 1
                                if inline_claim:
                                    # Inlined try_claim_vertex.  The scan
                                    # read visited[v] == 0 in this same
                                    # atomic step, so the claim wins: one
                                    # tally counts the attempt and the
                                    # visit.
                                    visited[v] = 1
                                    parent[v] = u
                                    d_claims += 1
                                    claimed = True
                                else:
                                    claimed = claim(v, u)
                                if not claimed:
                                    cost += c_cas_lost
                                else:
                                    tpw_local[gidx] += 1
                                    nxt = head + 1
                                    if nxt == hsize:
                                        nxt = 0
                                    if nxt == ptrs[tpi]:  # ring full
                                        moved = stack.flush()
                                        d_flushes += 1
                                        d_flushe += moved
                                        cost += (c_flush_base
                                                 + c_flush_entry * moved)
                                        # The ColdSeg grows only here,
                                        # and a push always follows.
                                        depth = cptrs[g2] - cptrs[g2 + 1]
                                        if depth > mx_cold:
                                            mx_cold = depth
                                        head = ptrs[hpi]
                                        nxt = head + 1
                                        if nxt == hsize:
                                            nxt = 0
                                    hv[head] = v
                                    ho[head] = rp[v]
                                    ptrs[hpi] = nxt
                                    depth = nxt - ptrs[tpi]
                                    if depth < 0:
                                        depth += hsize
                                    if depth > mx_hot:
                                        mx_hot = depth
                                    d_pushes += 1
                                    pending += 1
                                    cost += c_claim
                else:
                    # Stack fully empty: idle.  Clear our mask bit, look
                    # for a victim (as WarpAgent._idle does), and poll
                    # with backoff when there is none.
                    m = masks[bid] & ~bit
                    masks[bid] = m
                    if m:
                        extra = c_scan_intra
                        plan = select_intra(state, block, wid)
                        if plan is not None:
                            agent.intra_plan = plan
                            agent.phase = RESERVE_INTRA
                    elif inter and wid == 0:
                        extra = c_scan_inter
                        plan = select_inter(state, bid, agent.rng)
                        if plan is not None:
                            agent.inter_plan = plan
                            agent.phase = RESERVE_INTER
                    else:
                        extra = 0
                        plan = None
                    if plan is not None:
                        cost = extra
                    else:
                        # WarpAgent._poll: no victim, back off.
                        d_polls += 1
                        b = agent.backoff
                        cost = extra + b
                        b *= 2
                        agent.backoff = (b if b < backoff_max
                                         else backoff_max)
                        progress = False
            else:
                # Reservation phases: generic two-phase steal protocol
                # (pending > 0 is established above, so step()'s
                # termination check is redundant here).
                state.pending = pending
                outcome = (agent._reserve_intra(now)
                           if agent.phase is RESERVE_INTRA
                           else agent._reserve_inter(now))
                pending = state.pending
                cost = outcome.cost
                progress = outcome.made_progress

            steps += 1
            if on_step is not None:
                # Observers (the invariant monitor's sweeps) must see
                # exact global state: sync the mirror, merge the deltas.
                state.pending = pending
                _merge(counters, mx_hot, mx_cold, tpw_local, recs,
                       d_edges, d_claims, d_pops, d_pushes,
                       d_polls, d_refills, d_refille, d_flushes, d_flushe)
                d_edges = d_claims = d_pops = d_pushes = 0
                d_polls = d_refills = d_refille = d_flushes = d_flushe = 0
                on_step(steps)
            if progress:
                stale = 0
            else:
                stale += 1
                if stale > window:
                    raise deadlocked_error(stale, now)
            if cost < 1:
                raise non_positive_cost_error(agent, cost)
            t2 = now + cost
            b2 = buckets.get(t2)
            if b2 is None:
                buckets[t2] = [rec]
                push_time(times, t2)
            else:
                b2.append(rec)
        if times is None:  # terminated mid-bucket
            break
        pop_time(times)
        del buckets[t]

    # Final merge: counters and the pending mirror become globally
    # visible exactly as the generic engine leaves them.
    state.pending = pending
    _merge(counters, mx_hot, mx_cold, tpw_local, recs,
           d_edges, d_claims, d_pops, d_pushes,
           d_polls, d_refills, d_refille, d_flushes, d_flushe)
    return EngineResult(cycles=now, steps=steps, agents=n_agents)


def _merge(counters, mx_hot, mx_cold, tpw_local, recs,
           d_edges, d_claims, d_pops, d_pushes,
           d_polls, d_refills, d_refille, d_flushes, d_flushe) -> None:
    """Fold the fused loop's local counter deltas into ``counters``.

    Sums and maxima only, so the merge point cannot change the totals;
    the per-warp claim tallies are zeroed as they merge, and each block's
    tally is their sum.  ``recs`` run in block order, so blocks enter
    ``tasks_per_block`` in ascending order within one merge.
    """
    counters.edges_traversed += d_edges
    counters.cas_attempts += d_claims
    counters.pops += d_pops
    counters.pushes += d_pushes
    counters.vertices_visited += d_claims
    counters.idle_polls += d_polls
    counters.refills += d_refills
    counters.refill_entries += d_refille
    counters.flushes += d_flushes
    counters.flush_entries += d_flushe
    if mx_hot > counters.max_hot_depth:
        counters.max_hot_depth = mx_hot
    if mx_cold > counters.max_cold_depth:
        counters.max_cold_depth = mx_cold
    tpb = counters.tasks_per_block
    tpw = counters.tasks_per_warp
    for rec in recs:
        c = tpw_local[rec[6]]
        if c:
            tpw[rec[11]] = tpw.get(rec[11], 0) + c
            tpb[rec[3]] = tpb.get(rec[3], 0) + c
            tpw_local[rec[6]] = 0
