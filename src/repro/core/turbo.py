"""Turbo execution core: the fused scheduler-agent hot loop.

This is the DFS driver of every run that allows it (see
``turbo_eligible``).  ``run_turbo`` merges the ``(ready_at, seq)``
drain of :class:`repro.sim.engine.EventLoop` with the :class:`WarpAgent`
expand/pop state machine into one monomorphic inner loop.  The generic
engine pays one ``agent.step()`` call, one ``StepOutcome`` consume, and a
chain of attribute reads per simulated step; the fused loop instead
inlines the transitions that dominate every run — expand, refill, and
an idle warp's whole idle step (victim search, then a backoff poll when
there is no victim) — over local bindings of the structure-of-arrays
slabs preallocated by :class:`~repro.core.state.RunState` (the hot
head/tail and cold top/bottom pointer slabs, active masks, contention
debt), each HotRing's own entry rows, and
memoryviews of the graph's ``row_ptr``, ``column_idx`` and the run's
``visited``/``parent``.  The views read the arrays in place, so a run
holds no copy of the graph, and a pool worker reads the segment it
attached.

The inline victim search replays ``intra_steal.select_victim`` (largest
peer hot rest) and ``inter_steal.select_victim`` (leader warp of an
idle block: a victim block by ``victim_policy``, then its largest cold
rest) on the pointer slabs, draws from the leader's generator through
the shared ``inter_steal._sample_active_blocks``, and builds the same
steal plans.  Those two functions stay the generic loop's code and the
reference the reference-diff stage compares against.  Two kinds of run still
call ``WarpAgent._idle``: adversarial-victim fuzzing (it draws from
``fuzz_rng``) and multi-GPU grids (the remote-steal fallback).  The
two-phase reservation steps always run through ``_reserve_intra`` /
``_reserve_inter`` and ``execute_steal``, so the protocol code that
the mutation suite patches, and the ``repro.check`` invariant monitor
hooks inside it, run unchanged.

Counter accumulation: the hot counters (edges, pops, pushes, CAS stats,
idle polls, flush/refill stats, depth maxima) accumulate in loop locals
and merge into :class:`~repro.sim.trace.SimCounters` additively — at the
return points and before every ``on_step`` observer call, so any
instrumented consumer sees exact totals.  The merge is order-independent
(sums and maxima), so fallback steps that bump the same counters through
the object API compose correctly with unmerged local deltas.

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

from repro.core import inter_steal
from repro.core.inter_steal import InterStealPlan
from repro.core.intra_steal import IntraStealPlan
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
    # the same storage the object APIs use, so fallback steps and monitor
    # sweeps observe a consistent world.
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
    #: it back before fallback steps / observer calls / returns — and
    #: re-reading after fallbacks — keeps both views exact.
    pending = state.pending

    claim = state.try_claim_vertex
    inline_claim = (type(state).try_claim_vertex is _ORIG_CLAIM
                    and state.order is None)

    inter = config.enable_inter_steal
    n_blocks = config.n_blocks
    wpb = config.warps_per_block
    # Victim search runs inline unless the run draws adversarial victims
    # from ``fuzz_rng`` or has the multi-GPU remote fallback.
    inline_steal = state.fuzz_rng is None and config.n_gpus == 1
    hot_cutoff = config.hot_cutoff
    cold_cutoff = config.cold_cutoff
    intra_amount = config.intra_steal_amount
    inter_amount = config.inter_steal_amount
    two_choice = config.victim_policy == "two_choice"
    sample = inter_steal._sample_active_blocks

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
    # inline expand, so no fallback path races these.
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
            a, a.stack, a.stack.cold, a.block_id, a.warp_id, a._bit,
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
                (_, stack, cold, bid, wid, bit, gidx,
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
                    # for a victim (mirrors WarpAgent._idle), and poll
                    # with backoff when there is none.
                    m = masks[bid] & ~bit
                    if not inline_steal and (
                            m or (inter and wid == 0 and n_blocks > 1)):
                        # Calling _idle directly skips step()'s pending /
                        # phase / emptiness re-checks, all of which this
                        # loop has already established.
                        state.pending = pending
                        outcome = agent._idle(now)
                        pending = state.pending
                        cost = outcome.cost
                        progress = outcome.made_progress
                    else:
                        masks[bid] = m
                        extra = 0
                        found = False
                        if m:
                            # intra_steal.select_victim: the peer with
                            # the largest hot rest (first wins ties).
                            extra = c_scan_intra
                            best = 0
                            vw = -1
                            j = 2 * wpb * bid
                            for w in range(wpb):
                                if w != wid:
                                    rest = ptrs[j] - ptrs[j + 1]
                                    if rest < 0:
                                        rest += hsize
                                    if rest > best:
                                        best = rest
                                        vw = w
                                j += 2
                            if vw >= 0 and best >= hot_cutoff:
                                agent.intra_plan = IntraStealPlan(
                                    vw, ptrs[2 * (bid * wpb + vw) + 1],
                                    best, intra_amount)
                                agent.phase = RESERVE_INTRA
                                found = True
                        elif inter and wid == 0 and n_blocks > 1:
                            # inter_steal.select_victim: a victim block
                            # (the busier of two sampled active blocks,
                            # or one uniform draw), then its largest
                            # cold rest (first wins ties).
                            extra = c_scan_inter
                            vb = -1
                            if two_choice:
                                cands = sample(state, bid, agent.rng, 2,
                                               gpu_id=0)
                                if cands:
                                    vb = cands[0]
                                    # Two draws of one block compare
                                    # equal: skip both scans.
                                    if len(cands) == 2 and cands[1] != vb and (
                                            _workload(ptrs, cptrs, vb,
                                                      wpb, hsize)
                                            < _workload(ptrs, cptrs,
                                                        cands[1], wpb,
                                                        hsize)):
                                        vb = cands[1]
                            else:
                                vb = agent.rng.integers(0, n_blocks)
                                if vb == bid:
                                    vb = -1
                            if vb >= 0:
                                best = 0
                                vw = -1
                                j = 2 * wpb * vb
                                for w in range(wpb):
                                    rest = cptrs[j] - cptrs[j + 1]
                                    if rest > best:
                                        best = rest
                                        vw = w
                                    j += 2
                                if vw >= 0 and best >= cold_cutoff:
                                    agent.inter_plan = InterStealPlan(
                                        vb, vw,
                                        cptrs[2 * (vb * wpb + vw) + 1],
                                        best, inter_amount)
                                    agent.phase = RESERVE_INTER
                                    found = True
                        if found:
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


def _workload(ptrs, cptrs, block: int, wpb: int, hsize: int) -> int:
    """``BlockState.workload`` read straight from the pointer slabs."""
    total = 0
    for j in range(2 * wpb * block, 2 * wpb * (block + 1), 2):
        d = ptrs[j] - ptrs[j + 1]
        if d < 0:
            d += hsize
        total += d + cptrs[j] - cptrs[j + 1]
    return total


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
