"""Hive engine: NumPy-batched lockstep execution of many simulations.

Every figure-shaped workload is a *sweep*: dozens to hundreds of
independent ``(graph, root, config)`` runs.  The turbo fused loop (the
scalar DFS driver) removes per-event dispatch overhead inside one run
but still pays the full Python interpreter cost per run per event.  The
hive engine vectorizes one level up — over the **batch of
simulations** — the way GraphBLAST/Gunrock vectorize over a frontier: B
independent runs advance in lockstep, and the per-tick bookkeeping
(event selection, time advance, the dominant expand/pop transition)
executes as grouped NumPy array operations whose fixed cost is
amortized across the whole batch.

Mechanics
---------
All B runs share one :class:`~repro.core.state.BatchSlabs` allocation:
every per-run SoA slab (hot entry storage, hot/cold pointer pairs,
active masks, contention debt, visited/parent) is one array with a
leading batch axis, and each run's :class:`RunState` holds row views of
it.  Per engine tick:

1. **Compaction** — runs whose pending counter reached zero are
   finalized (local counter deltas merged back into their
   ``SimCounters``) and swap-removed from the active slot prefix, so B
   shrinks as the sweep drains.
2. **Selection** — a vectorized argmin over each run's per-agent
   ``(ready_at, seq)`` event keys picks every run's next event; the
   termination predicate is evaluated *before* the event, and time
   advances per run exactly as the calendar scheduler would.
3. **Classification** — gathered hot/cold pointers and phase flags
   split the selected events into *vector expand* (the ~80% case:
   non-empty HotRing, RUN phase), *vector poll* (pure idle backoff),
   and the protocol families: refills, steal selection, and two-phase
   reservations.
4. **Vector execution** — expands run as grouped gathers/scatters over
   the batch axis (window scan via one ``(k, W)`` visited gather, with
   ``W`` capped at the tick's widest remaining window); polls update
   masks/backoffs in bulk.  The protocol families run as three more
   batched passes — see *Vectorized steal protocol* below — or, on
   patched, monitored or adversarial runs, through the agent's generic
   ``step()`` exactly like turbo's fallback.
5. **Reschedule** — every selected agent is rescheduled at
   ``now + cost`` with the run's next sequence number.

Vectorized steal protocol
-------------------------
Lanes (batch rows) are independent runs, so cross-lane conflicts are
impossible and each protocol family groups into plain array passes:

* **Refills** — masked cold-to-hot transfers: counts/costs/debt in
  bulk, entries moved as at most two ring slices per lane straight
  from the ColdSeg's ``view_top`` into the HotRing slab, pointers
  advanced through the shared pointer slabs.
* **Steal selection** — the idle-entry mask clear and the victim scans
  run batched: intra lanes gather their block's HotRing pointer pairs
  as one ``(lanes, wpb)`` matrix (``select_victims_batch``), inter
  leader lanes replay block choice per lane (its Lemire RNG stream
  consumption is data-dependent; ``victim_policy="random"`` draws
  group through ``draw_bounded_many``) and scan the chosen block's
  ColdSeg pointers batched (``select_victim_warps_batch``).  A found
  plan parks kind/victim/token/remote in the run's steal slabs — the
  same two-phase observe-then-CAS split as the scalar agent.
* **Reservations** — one tick later the observed token is validated
  against the live pointer slab (the batched CAS); winners transfer
  level-sliced entries (intra: one masked flat gather/scatter across
  all winning lanes; inter: two ring slices per lane from
  ``view_bottom``), losers pay ``steal_fail`` and retry selection
  next tick, exactly the scalar conflict-resolution rule.

The passes replicate the scalar agent's costs, counters, RNG streams,
and pointer motion bit-for-bit; ``repro.check``'s hive-diff rung
asserts it per run against the fused scalar driver.  Any patched
protocol function (the mutation suite), attached monitor, or
adversarial fuzz RNG routes the protocol families back through the
scalar fallback for the whole drain, so instrumented semantics are
preserved.

Bit-exactness contract
----------------------
Runs are independent (no shared mutable state across rows), and each
tick executes exactly one event per active run in that run's own
``(ready_at, seq)`` order with termination polled before it — i.e. the
hive engine *is* the calendar drain of each run, interleaved.  Costs,
counters, error messages, and traversal output are bit-for-bit
identical to turbo (and the generic engine) for every run regardless
of batch composition.  The differential ladder's hive rung and the
batch-vs-turbo tests assert this per run at several batch sizes.

Eligibility mirrors turbo's (the batch engine is an explicit opt-in
tier): two-level stacks, expand fast path, no schedule perturbation,
and no tracing (per-event trace logs are inherently scalar).
"""

from __future__ import annotations

import gc
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core import inter_steal, intra_steal
from repro.core.config import DiggerBeesConfig
from repro.core.diggerbees import DiggerBeesResult, package_result
from repro.core.state import BatchSlabs, RunState
from repro.core.turbo import _ORIG_CLAIM, turbo_eligible
from repro.core.twolevel_stack import ColdSeg, HotRing, WarpStack
from repro.core.warp_dfs import WarpAgent, _Phase
from repro.errors import SimulationError
from repro.graphs.csr import CSRGraph
from repro.sim.device import DeviceSpec, H100
from repro.sim.engine import (EngineResult, deadlocked_error,
                              non_positive_cost_error, over_budget_error)
from repro.utils.fastrand import draw_bounded_many

__all__ = ["hive_eligible", "hive_compatible", "run_hive"]

#: Sentinel event key larger than any schedulable (ready_at, seq).
_FAR = np.int64(2 ** 62)

_AR32 = np.arange(32, dtype=np.int64)  # WARP_WIDTH scan window

# Originals of every function/method the vectorized protocol passes
# bypass, captured at import.  The mutation suite (repro.check) patches
# these module/class attributes; a per-drain identity probe routes the
# protocol families back through the scalar fallback whenever any
# differs, so every seeded mutation still executes and gets caught.
_ORIG_INTRA_SELECT = intra_steal.select_victim
_ORIG_INTRA_EXEC = intra_steal.execute_steal
_ORIG_INTER_SELECT = inter_steal.select_victim
_ORIG_INTER_BLOCK = inter_steal.select_victim_block
_ORIG_INTER_EXEC = inter_steal.execute_steal
_ORIG_REFILL = WarpStack.refill
_ORIG_POP_BATCH = ColdSeg.pop_batch
_ORIG_PUSH_BATCH = ColdSeg.push_batch
_ORIG_STEAL_BOTTOM = ColdSeg.steal_from_bottom
_ORIG_TAKE_TAIL = HotRing.take_from_tail
_ORIG_PUT_BATCH = HotRing.put_batch


def _protocol_patched() -> bool:
    """True when any steal/refill-protocol code has been monkeypatched."""
    return (intra_steal.select_victim is not _ORIG_INTRA_SELECT
            or intra_steal.execute_steal is not _ORIG_INTRA_EXEC
            or inter_steal.select_victim is not _ORIG_INTER_SELECT
            or inter_steal.select_victim_block is not _ORIG_INTER_BLOCK
            or inter_steal.execute_steal is not _ORIG_INTER_EXEC
            or WarpStack.refill is not _ORIG_REFILL
            or ColdSeg.pop_batch is not _ORIG_POP_BATCH
            or ColdSeg.push_batch is not _ORIG_PUSH_BATCH
            or ColdSeg.steal_from_bottom is not _ORIG_STEAL_BOTTOM
            or HotRing.take_from_tail is not _ORIG_TAKE_TAIL
            or HotRing.put_batch is not _ORIG_PUT_BATCH)


def hive_eligible(config: DiggerBeesConfig) -> bool:
    """True when the hive engine can run ``config`` bit-identically.

    Same gate as ``turbo_eligible`` plus no tracing: the vector expand
    cannot append per-event trace records.
    """
    return turbo_eligible(config) and not config.trace


def hive_compatible(a: DiggerBeesConfig, b: DiggerBeesConfig) -> bool:
    """True when two configs can share one batch (equal modulo seed).

    The lockstep slabs require identical grid geometry and cost
    structure across the batch; roots and RNG seeds are free to differ
    per run.
    """
    return a == b or a.with_overrides(seed=b.seed) == b


def run_hive(
    graph: CSRGraph,
    tasks: Sequence[Tuple[int, DiggerBeesConfig]],
    *,
    device: DeviceSpec = H100,
    batch: Optional[int] = None,
    stats: Optional[dict] = None,
) -> List[DiggerBeesResult]:
    """Run ``tasks`` = ``[(root, config), ...]`` on ``graph``, batched.

    All tasks must share the graph and device and have hive-eligible,
    mutually compatible configs (equal modulo ``seed``).  ``batch``
    caps the lockstep width; ``None`` runs the whole task list as one
    batch.  Results come back in task order and are bit-identical to
    ``run_diggerbees`` / turbo per task.

    ``stats``, when given a dict, receives execution-path accounting
    summed over all batches: ``events_total``, ``events_fallback``
    (events routed through the scalar per-agent step), the vectorized
    protocol pass totals (``vector_refills``, ``vector_steal_selects``,
    ``vector_reserves_intra``, ``vector_reserves_inter``), and the
    derived ``fallback_lane_fraction``.  On an unpatched, unmonitored,
    non-adversarial run the fallback fraction is 0.0; the micro-bench
    records it per case so a silent fallback regression is visible.

    Failure semantics: any run raising (over-budget, deadlock,
    non-positive cost) aborts its whole batch with the exact exception
    the scalar engines would raise for that run.
    """
    if not tasks:
        if stats is not None:
            stats.setdefault("events_total", 0)
            stats.setdefault("events_fallback", 0)
            stats.setdefault("fallback_lane_fraction", 0.0)
        return []
    base = tasks[0][1]
    for root, config in tasks:
        if not hive_eligible(config):
            raise SimulationError(
                f"config for root {root} is not hive-eligible (needs "
                f"two-level + fastpath, no perturbation/trace)"
            )
        if not hive_compatible(base, config):
            raise SimulationError(
                f"config for root {root} differs from the batch's beyond "
                f"the seed; split into separate run_hive calls"
            )
    width = len(tasks) if batch is None else max(1, int(batch))
    results: List[DiggerBeesResult] = []
    for lo in range(0, len(tasks), width):
        results.extend(_run_batch(graph, tasks[lo:lo + width], device, stats))
    if stats is not None:
        total = stats.get("events_total", 0)
        stats["fallback_lane_fraction"] = (
            stats.get("events_fallback", 0) / total if total else 0.0)
    return results


def _run_batch(graph, tasks, device, stats=None) -> List[DiggerBeesResult]:
    config = tasks[0][1]
    slabs = BatchSlabs(len(tasks), config, graph.n_vertices)
    states: List[RunState] = []
    agents: List[List[WarpAgent]] = []
    for row, (root, cfg) in enumerate(tasks):
        st = RunState(graph, root, cfg, device, slabs=slabs, slab_row=row)
        states.append(st)
        agents.append([
            WarpAgent(st, b, w)
            for b in range(cfg.n_blocks)
            for w in range(cfg.warps_per_block)
        ])
    # Pause cyclic GC for the drain, exactly like turbo: the batch state
    # is millions of container objects and the loop allocates no cycles.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        engines = _drain_batch(slabs, states, agents, stats)
    finally:
        if gc_was_enabled:
            gc.enable()
    return [package_result(st, eng) for st, eng in zip(states, engines)]


def _drain_batch(slabs: BatchSlabs, states: List[RunState],
                 agents: List[List[WarpAgent]],
                 stats=None) -> List[EngineResult]:
    B = slabs.batch
    config = states[0].config
    costs = states[0].costs
    A = slabs.n_agents
    H = slabs.hot_size
    n_blocks = slabs.n_blocks
    wpb = config.warps_per_block
    max_cycles = int(config.max_cycles)
    window = max(10_000, 200 * A)

    intra = config.enable_intra_steal
    inter_ok = config.enable_inter_steal and n_blocks > 1

    c_pop = costs.hot_pop
    c_visit_base = costs.visit_base
    c_visit_edge = costs.visit_per_edge
    c_claim = costs.visited_cas + costs.hot_push
    c_flush_base = costs.flush_base
    c_flush_entry = costs.flush_per_entry
    c_idle = costs.idle_poll
    backoff_max = costs.idle_backoff_max

    # Steal/refill protocol constants (see warp_dfs._idle/_reserve_*).
    c_refill_base = costs.refill_base
    c_refill_entry = costs.refill_per_entry
    c_steal_fail = costs.steal_fail
    c_intra_base = costs.steal_intra_base
    c_intra_entry = costs.steal_intra_per_entry
    c_inter_base = costs.steal_inter_base
    c_inter_entry = costs.steal_inter_per_entry
    c_remote_base = costs.steal_remote_base
    c_remote_entry = costs.steal_remote_per_entry
    debt_intra = costs.victim_debt_intra
    debt_inter = costs.victim_debt_inter
    debt_remote = costs.victim_debt_remote
    extra_intra = costs.steal_scan_per_warp * wpb
    extra_inter = costs.steal_scan_per_warp * wpb + 40
    refill_batch = config.refill_batch
    hot_cutoff = config.hot_cutoff
    cold_cutoff = config.cold_cutoff
    intra_amount = config.intra_steal_amount
    inter_amount = config.inter_steal_amount
    random_policy = config.victim_policy == "random"
    bpg = config.blocks_per_gpu

    # Per-drain probes (hoisted out of the tick loop: patches are
    # installed before run_hive, never mid-drain).  A patched claim
    # routes expands through the generic step; any patched protocol
    # function, attached monitor, or fuzz RNG disables the vectorized
    # protocol so the instrumented scalar code executes instead.  The
    # amount gates exclude degenerate configs whose steal transfer
    # could not fit an empty HotRing (the scalar path would raise
    # StackOverflowError; keep that behaviour byte-for-byte).
    claims_patched = type(states[0]).try_claim_vertex is not _ORIG_CLAIM
    vector_protocol = (
        states[0].monitor is None
        and states[0].fuzz_rng is None
        and not _protocol_patched()
        and (not intra or intra_amount <= H - 1)
        and (not inter_ok or inter_amount <= H - 1)
    )

    graph = states[0].graph
    rp = np.ascontiguousarray(graph.row_ptr, dtype=np.int64)
    ci = np.ascontiguousarray(graph.column_idx, dtype=np.int64)

    # Flat views over the batch slabs.  In-place slot swaps (compaction)
    # and all scatters write through these, so the per-run object APIs
    # (fallback steps, finalization) always observe current values.
    HVf = slabs.hot_vertex.reshape(-1)
    HOf = slabs.hot_offset.reshape(-1)
    HPf = slabs.hot_ptr.reshape(-1)
    CPf = slabs.cold_ptr.reshape(-1)
    AMf = slabs.active_mask.reshape(-1)
    DBf = slabs.debt.reshape(-1)
    VISf = slabs.visited.reshape(-1)
    PARf = slabs.parent.reshape(-1)
    SKf = slabs.steal_kind.reshape(-1)
    SVf = slabs.steal_victim.reshape(-1)
    STf = slabs.steal_token.reshape(-1)
    SRf = slabs.steal_remote.reshape(-1)
    n_vertices = slabs.visited.shape[1]
    # Pointer-pair column offsets of one block's warps (vector scans).
    off2 = 2 * np.arange(wpb, dtype=np.int64)
    _ARI = np.arange(intra_amount, dtype=np.int64)

    # Engine arrays are *slot*-indexed: the active runs always occupy
    # the prefix [0, nact).  ``rows`` maps slot -> slab row (rows are
    # pinned: RunState views cannot move), so slab gathers index through
    # it while scheduling state compacts in place.
    times = np.zeros((B, A), dtype=np.int64)
    seqs = np.tile(np.arange(A, dtype=np.int64), (B, 1))
    seq_ctr = np.full(B, A, dtype=np.int64)  # engine steps == seq_ctr - A
    now = np.zeros(B, dtype=np.int64)
    stale = np.zeros(B, dtype=np.int64)
    pend = np.array([st.pending for st in states], dtype=np.int64)
    backoff = np.full((B, A), c_idle, dtype=np.int64)
    phase_run = np.ones((B, A), dtype=bool)
    rows = np.arange(B, dtype=np.int64)
    # Row-derived gather bases, swapped alongside ``rows`` at compaction
    # so every per-tick slab index is one add instead of multiply + add.
    rowsA = rows * A
    rows2A = rows * (2 * A)
    rowsNB = rows * n_blocks
    rowsNV = rows * n_vertices
    # Batched counter deltas, merged into SimCounters at finalization
    # (additive sums + maxima — order-independent, like turbo's locals).
    # The inline expand's CAS/visit/push contributions move in lockstep
    # (one claim == one CAS == one push), so a single ``d_claims`` delta
    # backs all three counters; finalization splits them apart.
    d_edges = np.zeros(B, dtype=np.int64)
    d_claims = np.zeros(B, dtype=np.int64)
    d_pops = np.zeros(B, dtype=np.int64)
    d_polls = np.zeros(B, dtype=np.int64)
    # Protocol-event deltas (vector passes only; zero under the scalar
    # fallback, whose step() writes SimCounters directly).
    d_refills = np.zeros(B, dtype=np.int64)
    d_refill_entries = np.zeros(B, dtype=np.int64)
    d_intra_att = np.zeros(B, dtype=np.int64)
    d_intra_succ = np.zeros(B, dtype=np.int64)
    d_intra_ent = np.zeros(B, dtype=np.int64)
    d_inter_att = np.zeros(B, dtype=np.int64)
    d_inter_succ = np.zeros(B, dtype=np.int64)
    d_inter_ent = np.zeros(B, dtype=np.int64)
    d_remote_succ = np.zeros(B, dtype=np.int64)
    d_remote_ent = np.zeros(B, dtype=np.int64)
    d_cas_att = np.zeros(B, dtype=np.int64)
    d_cas_fail = np.zeros(B, dtype=np.int64)
    mx_hot = np.zeros(B, dtype=np.int64)
    mx_cold = np.zeros(B, dtype=np.int64)
    tpb2 = np.zeros((B, n_blocks), dtype=np.int64)
    tpw2 = np.zeros((B, A), dtype=np.int64)
    tflat = times.reshape(-1)
    sflat = seqs.reshape(-1)
    bflat = backoff.reshape(-1)
    pflat = phase_run.reshape(-1)
    tpbf = tpb2.reshape(-1)
    tpwf = tpw2.reshape(-1)
    ARA = np.arange(B, dtype=np.int64) * A  # slot-flat bases (static)

    eng_arrays = (times, seqs, seq_ctr, now, stale, pend, backoff,
                  phase_run, rows, rowsA, rows2A, rowsNB, rowsNV,
                  d_edges, d_claims, d_pops, d_polls,
                  d_refills, d_refill_entries,
                  d_intra_att, d_intra_succ, d_intra_ent,
                  d_inter_att, d_inter_succ, d_inter_ent,
                  d_remote_succ, d_remote_ent, d_cas_att, d_cas_fail,
                  mx_hot, mx_cold, tpb2, tpw2)

    results: List[Optional[EngineResult]] = [None] * B
    RUN = _Phase.RUN

    # Execution-path accounting for run_hive's ``stats`` payload.
    ev_total = 0
    ev_fb = 0
    ev_rf = 0
    ev_sel = 0
    ev_ri = 0
    ev_rl = 0

    def finalize(slot: int) -> None:
        row = int(rows[slot])
        st = states[row]
        c = st.counters
        claims = int(d_claims[slot])
        c.edges_traversed += int(d_edges[slot])
        c.cas_attempts += claims + int(d_cas_att[slot])
        c.cas_failures += int(d_cas_fail[slot])
        c.pops += int(d_pops[slot])
        c.pushes += claims
        c.vertices_visited += claims
        c.idle_polls += int(d_polls[slot])
        c.refills += int(d_refills[slot])
        c.refill_entries += int(d_refill_entries[slot])
        c.intra_steal_attempts += int(d_intra_att[slot])
        c.intra_steal_successes += int(d_intra_succ[slot])
        c.intra_steal_entries += int(d_intra_ent[slot])
        c.inter_steal_attempts += int(d_inter_att[slot])
        c.inter_steal_successes += int(d_inter_succ[slot])
        c.inter_steal_entries += int(d_inter_ent[slot])
        c.remote_steal_successes += int(d_remote_succ[slot])
        c.remote_steal_entries += int(d_remote_ent[slot])
        if int(mx_hot[slot]) > c.max_hot_depth:
            c.max_hot_depth = int(mx_hot[slot])
        if int(mx_cold[slot]) > c.max_cold_depth:
            c.max_cold_depth = int(mx_cold[slot])
        tpb = c.tasks_per_block
        for b in range(n_blocks):
            v = int(tpb2[slot, b])
            if v:
                tpb[b] = tpb.get(b, 0) + v
        tpw = c.tasks_per_warp
        for g in range(A):
            v = int(tpw2[slot, g])
            if v:
                key = (g // wpb, g % wpb)
                tpw[key] = tpw.get(key, 0) + v
        st.pending = 0
        results[row] = EngineResult(cycles=int(now[slot]),
                                    steps=int(seq_ctr[slot]) - A,
                                    agents=A, exact_cycles=True)

    nact = B
    while nact:
        # ---- compaction: retire runs observed terminated --------------
        # (The termination predicate is polled before each run's next
        # event — the exact observation point of the generic engine.)
        if not pend[:nact].all():
            fin = (pend[:nact] == 0).nonzero()[0]
            for slot in fin[::-1]:
                slot = int(slot)
                finalize(slot)
                last = nact - 1
                if slot != last:
                    for arr in eng_arrays:
                        arr[[slot, last]] = arr[[last, slot]]
                nact = last
            if nact == 0:
                break

        na = nact
        r_ = rows[:na]

        # ---- selection: per-run argmin over (ready_at, seq) -----------
        sub = times[:na]
        tmin = sub.min(axis=1)
        sel = np.where(sub == tmin[:, None], seqs[:na], _FAR).argmin(axis=1)

        # ---- time advance + budget ------------------------------------
        # ``now`` never exceeds max_cycles, so tmin > max_cycles implies
        # this event advances time past the budget — the engine's exact
        # raise point.
        nview = now[:na]
        if int(tmin.max()) > max_cycles:
            s = int((tmin > max_cycles).argmax())
            raise over_budget_error(max_cycles, int(tmin[s]),
                                    int(seq_ctr[s]) - A)
        np.maximum(nview, tmin, out=nview)

        # ---- classification -------------------------------------------
        idxA = ARA[:na] + sel    # slot-flat (engine arrays)
        sidxA = rowsA[:na] + sel  # slab-flat (batch slabs)
        hbase = rows2A[:na] + sel + sel
        head = HPf[hbase]
        tail = HPf[hbase + 1]
        ctop = CPf[hbase]
        cbot = CPf[hbase + 1]
        bid = sel // wpb
        wid = sel - bid * wpb
        bit = np.left_shift(1, wid)
        ami = rowsNB[:na] + bid
        am = AMf[ami]
        others = am & ~bit

        run_m = pflat[idxA]
        hot_ne = head != tail
        expand_m = run_m & hot_ne
        idle_m = run_m ^ expand_m           # RUN with empty hot ring
        refill_m = idle_m & (ctop != cbot)
        pure_idle = idle_m ^ refill_m       # cold segment empty too
        if intra:
            steal_m = pure_idle & (others != 0)
            if inter_ok:
                steal_m |= pure_idle & (wid == 0) & (others == 0)
        elif inter_ok:
            steal_m = pure_idle & (wid == 0) & (others == 0)
        else:
            steal_m = np.zeros(na, dtype=bool)
        poll_m = pure_idle ^ steal_m        # steal_m is a pure_idle subset
        if vector_protocol:
            # Refills, steal selects, and reservations (~run_m) all run
            # as the batched passes below: nothing protocol-shaped left.
            fallback_m = np.zeros(na, dtype=bool)
        else:
            fallback_m = ~run_m | refill_m | steal_m
        # A patched claim (repro.check mutations) must see every claim:
        # route all expands through the generic step, like turbo.
        if claims_patched:
            fallback_m = fallback_m | expand_m
            expand_m = np.zeros(na, dtype=bool)

        # Every selected event lands in exactly one of expand/poll/
        # fallback, so ``cost`` is fully overwritten each tick.
        cost = np.empty(na, dtype=np.int64)
        progress = np.ones(na, dtype=bool)

        # ---- vector expand (mirrors WarpAgent._expand) ----------------
        e = expand_m.nonzero()[0]
        if e.size:
            se = sel[e]
            he = head[e]
            hb_e = hbase[e]
            idxAe = idxA[e]
            sdi = sidxA[e]
            eb = sdi * H  # flat base of this ring's entries
            pos = he - 1
            np.add(pos, H, out=pos, where=pos < 0)
            ep = eb + pos
            u = HVf[ep]
            i0 = HOf[ep]
            row_end = rp[u + 1]
            # Entering a work step: set mask bit, reset backoff, pay debt.
            AMf[ami[e]] = am[e] | bit[e]
            bflat[idxAe] = c_idle
            debt = DBf[sdi]
            DBf[sdi] = 0
            ce = np.empty(e.size, dtype=np.int64)

            plain_pop = i0 >= row_end
            pp = plain_pop.nonzero()[0]
            if pp.size:
                epp = e[pp]
                HPf[hb_e[pp]] = pos[pp]
                d_pops[epp] += 1
                pend[epp] -= 1
                ce[pp] = debt[pp] + c_pop

            sc = (~plain_pop).nonzero()[0]
            if sc.size:
                esc = e[sc]
                i_s = i0[sc]
                wend = i_s + 32  # WARP_WIDTH
                np.minimum(wend, row_end[sc], out=wend)
                span = wend - i_s
                W = int(span.max())  # widest window this tick (<= 32)
                widx = i_s[:, None] + _AR32[:W]
                valid = widx < wend[:, None]
                nb = ci[np.where(valid, widx, 0)]
                unvis = valid & (VISf[rowsNV[esc][:, None] + nb] == 0)
                has = unvis.any(axis=1)
                kk = unvis.argmax(axis=1)  # first unvisited lane
                ce[sc] = debt[sc] + c_visit_base + c_visit_edge * span

                nf = (~has).nonzero()[0]
                if nf.size:  # whole window visited
                    g = sc[nf]
                    eg = esc[nf]
                    d_edges[eg] += span[nf]
                    exhaust = wend[nf] >= row_end[g]
                    ex = exhaust.nonzero()[0]
                    if ex.size:
                        gg = g[ex]
                        egg = eg[ex]
                        HPf[hb_e[gg]] = pos[gg]
                        d_pops[egg] += 1
                        pend[egg] -= 1
                        ce[gg] += c_pop
                    keep = (~exhaust).nonzero()[0]
                    if keep.size:
                        HOf[ep[g[keep]]] = wend[nf[keep]]

                fo = has.nonzero()[0]
                if fo.size:  # claim + push
                    g = sc[fo]
                    eg = esc[fo]
                    k = i_s[fo] + kk[fo]
                    d_edges[eg] += k - i_s[fo] + 1
                    v = ci[k]
                    HOf[ep[g]] = k + 1
                    # Inline claim: the scan and the claim read the same
                    # visited row with no intervening mutation (runs are
                    # independent), so the CAS always wins — exactly the
                    # step-atomicity argument turbo relies on.
                    d_claims[eg] += 1
                    vb = rowsNV[eg] + v
                    VISf[vb] = 1
                    PARf[vb] = u[g]
                    tpbf[eg * n_blocks + bid[eg]] += 1
                    tpwf[idxAe[g]] += 1

                    head_f = he[g]  # fancy gathers: fresh, mutable copies
                    tail_f = tail[eg]
                    ctop_f = ctop[eg]
                    cbot_f = cbot[eg]
                    nxt = head_f + 1
                    nxt[nxt == H] = 0
                    full = (nxt == tail_f).nonzero()[0]
                    for j in full:  # ring full: scalar flush (rare)
                        j = int(j)
                        slot = int(eg[j])
                        arow = int(sel[slot])
                        st = states[int(rows[slot])]
                        moved = agents[int(rows[slot])][arow].stack.flush()
                        st.counters.flushes += 1
                        st.counters.flush_entries += moved
                        gj = int(g[j])
                        ce[gj] += c_flush_base + c_flush_entry * moved
                        hb2 = int(hb_e[gj])
                        head_f[j] = HPf[hb2]  # "head" policy retracts it
                        tail_f[j] = HPf[hb2 + 1]
                        ctop_f[j] = CPf[hb2]
                        cbot_f[j] = CPf[hb2 + 1]
                        n2 = int(head_f[j]) + 1
                        nxt[j] = 0 if n2 == H else n2
                    HVf[eb[g] + head_f] = v
                    HOf[eb[g] + head_f] = rp[v]
                    HPf[hb_e[g]] = nxt
                    depth = nxt - tail_f
                    np.add(depth, H, out=depth, where=depth < 0)
                    mx_hot[eg] = np.maximum(mx_hot[eg], depth)
                    mx_cold[eg] = np.maximum(mx_cold[eg], ctop_f - cbot_f)
                    pend[eg] += 1
                    ce[g] += c_claim
            cost[e] = ce

        # ---- vector poll ----------------------------------------------
        p = poll_m.nonzero()[0]
        if p.size:
            AMf[ami[p]] = others[p]  # clear own bit (idle entry)
            d_polls[p] += 1
            bi = idxA[p]
            cp = bflat[bi]
            bflat[bi] = np.minimum(cp * 2, backoff_max)
            cost[p] = cp
            progress[p] = False

        if vector_protocol:
            # ---- vector refill (cold -> hot, mirrors step()'s branch) -
            rf = refill_m.nonzero()[0]
            if rf.size:
                ev_rf += rf.size
                # Entering a work step: set mask bit, reset backoff,
                # pay contention debt accrued from steals against us.
                AMf[ami[rf]] = am[rf] | bit[rf]
                bflat[idxA[rf]] = c_idle
                sdr = sidxA[rf]
                debt = DBf[sdr]
                DBf[sdr] = 0
                # Hot is empty here and refill_batch < hot_size, so the
                # scalar min(..., free_slots) term never binds.
                cnt = np.minimum(refill_batch, ctop[rf] - cbot[rf])
                d_refills[rf] += 1
                d_refill_entries[rf] += cnt
                cost[rf] = debt + c_refill_base + c_refill_entry * cnt
                for j, s in enumerate(rf):
                    s = int(s)
                    n = int(cnt[j])
                    cold = agents[int(rows[s])][int(sel[s])].stack.cold
                    cv, co = cold.view_top(n)
                    e0 = int(sidxA[s]) * H
                    hd = int(head[s])
                    end = hd + n
                    if end <= H:
                        HVf[e0 + hd:e0 + end] = cv
                        HOf[e0 + hd:e0 + end] = co
                    else:
                        k2 = H - hd
                        HVf[e0 + hd:e0 + H] = cv[:k2]
                        HOf[e0 + hd:e0 + H] = co[:k2]
                        HVf[e0:e0 + end - H] = cv[k2:]
                        HOf[e0:e0 + end - H] = co[k2:]
                nh = head[rf] + cnt
                np.subtract(nh, H, out=nh, where=nh >= H)
                HPf[hbase[rf]] = nh
                CPf[hbase[rf]] = ctop[rf] - cnt

            # ---- vector steal select (two-phase step 1: observe) ------
            stl = steal_m.nonzero()[0]
            if stl.size:
                ev_sel += stl.size
                AMf[ami[stl]] = others[stl]  # clear own bit (idle entry)
                if intra:
                    intra_l = others[stl] != 0
                    si = stl[intra_l]
                    li = stl[~intra_l]
                else:
                    si = stl[:0]
                    li = stl
                if si.size:
                    pidx = (rows2A[si] + 2 * wpb * bid[si])[:, None] + off2
                    victim, token, _, ok = intra_steal.select_victims_batch(
                        HPf[pidx], HPf[pidx + 1], H, wid[si], hot_cutoff)
                    hit = si[ok]
                    if hit.size:
                        sd = sidxA[hit]
                        SKf[sd] = 1
                        SVf[sd] = bid[hit] * wpb + victim[ok]
                        STf[sd] = token[ok]
                        pflat[idxA[hit]] = False
                        cost[hit] = extra_intra
                    miss = si[~ok]
                    if miss.size:  # no peer above cutoff: poll + scan cost
                        d_polls[miss] += 1
                        bi = idxA[miss]
                        cp = bflat[bi]
                        bflat[bi] = np.minimum(cp * 2, backoff_max)
                        cost[miss] = extra_intra + cp
                        progress[miss] = False
                if li.size:
                    vbs = np.full(li.size, -1, dtype=np.int64)
                    rem = np.zeros(li.size, dtype=bool)
                    if random_policy:
                        # Single uniform draw per leader: groupable.
                        if bpg >= 2:
                            gens = [agents[int(rows[s])][int(sel[s])].rng
                                    for s in li]
                            draws = ((bid[li] // bpg) * bpg
                                     + draw_bounded_many(gens, 0, bpg))
                            vbs = np.where(draws == bid[li], -1, draws)
                    else:
                        # two_choice consumes a data-dependent number of
                        # draws (bounded-retry sampling): replay the
                        # scalar block choice per lane, on the lane's
                        # own RNG stream.
                        for j, s in enumerate(li):
                            s = int(s)
                            row = int(rows[s])
                            chosen = inter_steal.select_victim_block(
                                states[row], int(bid[s]),
                                agents[row][int(sel[s])].rng)
                            if chosen is not None:
                                vbs[j] = chosen[0]
                                rem[j] = chosen[1]
                    have = vbs >= 0
                    planned = np.zeros(li.size, dtype=bool)
                    hl = li[have]
                    if hl.size:
                        cidx = ((rows2A[hl] + 2 * wpb * vbs[have])[:, None]
                                + off2)
                        vw, token, ok = inter_steal.select_victim_warps_batch(
                            CPf[cidx], CPf[cidx + 1], cold_cutoff)
                        hit = hl[ok]
                        if hit.size:
                            sd = sidxA[hit]
                            SKf[sd] = 2
                            SVf[sd] = vbs[have][ok] * wpb + vw[ok]
                            STf[sd] = token[ok]
                            SRf[sd] = rem[have][ok]
                            pflat[idxA[hit]] = False
                            cost[hit] = extra_inter
                        planned[have.nonzero()[0][ok]] = True
                    miss = li[~planned]
                    if miss.size:
                        d_polls[miss] += 1
                        bi = idxA[miss]
                        cp = bflat[bi]
                        bflat[bi] = np.minimum(cp * 2, backoff_max)
                        cost[miss] = extra_inter + cp
                        progress[miss] = False

            # ---- vector reservations (two-phase step 2: CAS) ----------
            if not run_m.all():
                rv = (~run_m).nonzero()[0]
                sd_rv = sidxA[rv]
                kinds = SKf[sd_rv]
                SKf[sd_rv] = 0
                pflat[idxA[rv]] = True  # phase -> RUN, win or lose
                vg = SVf[sd_rv]
                ik = (kinds == 1).nonzero()[0]
                if ik.size:
                    ev_ri += ik.size
                    ri = rv[ik]
                    vgi = vg[ik]
                    d_intra_att[ri] += 1
                    vb2 = rows2A[ri] + 2 * vgi
                    vhead = HPf[vb2]
                    vtail = HPf[vb2 + 1]
                    # The CAS: token still equal to the observed tail,
                    # and the victim still at or above the cutoff.
                    tok_ok = vtail == STf[sd_rv[ik]]
                    vrest = vhead - vtail
                    np.add(vrest, H, out=vrest, where=vrest < 0)
                    d_cas_att[ri[tok_ok]] += 1
                    succ = tok_ok & (vrest >= hot_cutoff)
                    fl = (~succ).nonzero()[0]
                    if fl.size:
                        rl_f = ri[fl]
                        d_cas_fail[rl_f] += 1
                        cost[rl_f] = c_steal_fail
                        progress[rl_f] = False
                    sk = succ.nonzero()[0]
                    if sk.size:
                        rk = ri[sk]
                        vgk = vgi[sk]
                        amt = np.minimum(intra_amount, vrest[sk])
                        # Grouped slot copies: thief rings are empty
                        # (victim != thief, and a reserving warp cannot
                        # gain entries), so src/dst never overlap.
                        src = vtail[sk][:, None] + _ARI
                        np.subtract(src, H, out=src, where=src >= H)
                        dst = head[rk][:, None] + _ARI
                        np.subtract(dst, H, out=dst, where=dst >= H)
                        keep = _ARI < amt[:, None]
                        sfl = (((rowsA[rk] + vgk) * H)[:, None] + src)[keep]
                        dfl = ((sidxA[rk] * H)[:, None] + dst)[keep]
                        HVf[dfl] = HVf[sfl]
                        HOf[dfl] = HOf[sfl]
                        nt = vtail[sk] + amt
                        np.subtract(nt, H, out=nt, where=nt >= H)
                        HPf[vb2[sk] + 1] = nt
                        nh = head[rk] + amt
                        np.subtract(nh, H, out=nh, where=nh >= H)
                        HPf[hbase[rk]] = nh
                        AMf[ami[rk]] = am[rk] | bit[rk]
                        DBf[rowsA[rk] + vgk] += debt_intra
                        d_intra_succ[rk] += 1
                        d_intra_ent[rk] += amt
                        bflat[idxA[rk]] = c_idle
                        # Scalar cost uses the plan's constant amount,
                        # not the clamped transfer size.
                        cost[rk] = c_intra_base + c_intra_entry * intra_amount
                il = (kinds == 2).nonzero()[0]
                if il.size:
                    ev_rl += il.size
                    rl = rv[il]
                    vgl = vg[il]
                    d_inter_att[rl] += 1
                    cb2 = rows2A[rl] + 2 * vgl
                    vtop = CPf[cb2]
                    vbot = CPf[cb2 + 1]
                    tok_ok = vbot == STf[sd_rv[il]]
                    clen = vtop - vbot
                    d_cas_att[rl[tok_ok]] += 1
                    succ = tok_ok & (clen >= cold_cutoff)
                    fl = (~succ).nonzero()[0]
                    if fl.size:
                        rl_f = rl[fl]
                        d_cas_fail[rl_f] += 1
                        cost[rl_f] = c_steal_fail
                        progress[rl_f] = False
                    sk = succ.nonzero()[0]
                    if sk.size:
                        rk = rl[sk]
                        vgk = vgl[sk]
                        amt = np.minimum(inter_amount, clen[sk])
                        rm = SRf[sd_rv[il][sk]]
                        for j, s in enumerate(rk):
                            s = int(s)
                            n = int(amt[j])
                            cold = agents[int(rows[s])][int(vgk[j])].stack.cold
                            cv, co = cold.view_bottom(n)
                            e0 = int(sidxA[s]) * H
                            hd = int(head[s])
                            end = hd + n
                            if end <= H:
                                HVf[e0 + hd:e0 + end] = cv
                                HOf[e0 + hd:e0 + end] = co
                            else:
                                k2 = H - hd
                                HVf[e0 + hd:e0 + H] = cv[:k2]
                                HOf[e0 + hd:e0 + H] = co[:k2]
                                HVf[e0:e0 + end - H] = cv[k2:]
                                HOf[e0:e0 + end - H] = co[k2:]
                        CPf[cb2[sk] + 1] = vbot[sk] + amt
                        nh = head[rk] + amt
                        np.subtract(nh, H, out=nh, where=nh >= H)
                        HPf[hbase[rk]] = nh
                        AMf[ami[rk]] = am[rk] | bit[rk]
                        DBf[rowsA[rk] + vgk] += np.where(
                            rm, debt_remote, debt_inter)
                        d_inter_succ[rk] += 1
                        d_inter_ent[rk] += amt
                        rr = rk[rm]
                        if rr.size:
                            d_remote_succ[rr] += 1
                            d_remote_ent[rr] += amt[rm]
                        bflat[idxA[rk]] = c_idle
                        cost[rk] = np.where(
                            rm,
                            c_remote_base + c_remote_entry * inter_amount,
                            c_inter_base + c_inter_entry * inter_amount)

        # ---- fallback: generic per-run step (protocol paths) ----------
        ev_total += na
        fb = fallback_m.nonzero()[0]
        ev_fb += fb.size
        for slot in fb:
            slot = int(slot)
            row = int(rows[slot])
            st = states[row]
            ag = agents[row][int(sel[slot])]
            bi = int(idxA[slot])
            st.pending = int(pend[slot])
            ag.backoff = int(bflat[bi])
            out = ag.step(int(now[slot]))
            c = out.cost
            if c < 1 and not out.done:
                raise non_positive_cost_error(ag, c)
            pend[slot] = st.pending
            bflat[bi] = ag.backoff
            pflat[bi] = ag.phase is RUN
            cost[slot] = c
            progress[slot] = out.made_progress

        # ---- deadlock guard -------------------------------------------
        sview = stale[:na]
        if progress.all():
            sview[:] = 0
        else:
            sview[progress] = 0
            np.add(sview, 1, out=sview, where=~progress)
            dead = (sview > window).nonzero()[0]
            if dead.size:
                s = int(dead[0])
                raise deadlocked_error(int(sview[s]), int(now[s]))

        # ---- reschedule -----------------------------------------------
        tflat[idxA] = nview + cost
        sflat[idxA] = seq_ctr[:na]
        seq_ctr[:na] += 1

    if any(r is None for r in results):  # pragma: no cover - defensive
        missing = [i for i, r in enumerate(results) if r is None]
        raise SimulationError(
            f"hive drain ended with unfinished runs {missing}"
        )
    if stats is not None:
        stats["events_total"] = stats.get("events_total", 0) + ev_total
        stats["events_fallback"] = stats.get("events_fallback", 0) + ev_fb
        stats["vector_refills"] = stats.get("vector_refills", 0) + ev_rf
        stats["vector_steal_selects"] = (
            stats.get("vector_steal_selects", 0) + ev_sel)
        stats["vector_reserves_intra"] = (
            stats.get("vector_reserves_intra", 0) + ev_ri)
        stats["vector_reserves_inter"] = (
            stats.get("vector_reserves_inter", 0) + ev_rl)
    return results  # ordered by slab row == task order
