"""Inter-block work stealing (paper §3.5, Algorithm 4, Figure 3b).

Executed only by the **leader warp** (warp 0) of an **idle block** (all
active-mask bits clear).  Four steps, split across two simulator events:

1. **Victim block selection** — power-of-two-choices with load awareness:
   sample two active blocks at random and keep the one with higher
   cumulative workload.  (``victim_policy="random"`` degrades this to a
   single uniform sample: the Figure 9 baseline.)
2. **Victim warp selection** — the warp with maximum ``cold_rest = top -
   bottom`` in the victim block, provided it reaches ``cold_cutoff``.
   Both selections happen in one simulator step and record the observed
   ``bottom`` in the plan.  :func:`select_victim` reads workloads and
   cold rests from the run's pointer slabs; it is the one inter-block
   victim search, called by the generic loop's ``WarpAgent._idle`` and
   by the fused loop (:mod:`repro.core.turbo`) alike.
3. **Work reservation** — a later step CAS-validates ``bottom`` (Algorithm
   4 line 20); competing leaders lose and restart.
4. **Remote transfer** — ``threadfence()`` then an asynchronous copy of
   ``cold_cutoff / 2`` entries from the victim's ColdSeg (global memory)
   into the leader's HotRing; the leader and its block turn active.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.state import RunState
from repro.utils.fastrand import BoundedDraws

__all__ = ["InterStealPlan", "select_victim", "execute_steal"]


@dataclass(frozen=True)
class InterStealPlan:
    """Outcome of victim block+warp selection.

    ``remote`` marks a cross-GPU steal (multi-GPU extension): same CAS
    protocol, NVLink pricing.
    """

    victim_block: int
    victim_warp: int
    observed_bottom: int
    observed_rest: int
    amount: int
    remote: bool = False


def _sample_active_blocks(state: RunState, my_block: int,
                          rng: BoundedDraws, k: int,
                          gpu_id=None) -> list:
    """Sample up to ``k`` active blocks (!= mine), with bounded retries.

    Mirrors the hardware reality that the leader probes a few random mask
    words rather than scanning all blocks: at most ``4k + 8`` uniform
    draws, keeping each active block other than ``my_block``.  With
    ``gpu_id`` set, sampling is restricted to that GPU's block range
    (same-GPU stealing); with ``gpu_id=None`` any block qualifies (remote
    fallback).  :meth:`BoundedDraws.sample_hits
    <repro.utils.fastrand.BoundedDraws.sample_hits>` runs the whole loop
    in one call, drawing exactly as one ``integers`` call per draw would.
    """
    cfg = state.config
    if gpu_id is None:
        lo, hi = 0, cfg.n_blocks
    else:
        lo = gpu_id * cfg.blocks_per_gpu
        hi = lo + cfg.blocks_per_gpu
    # A block is active when its slot in the mask slab is non-zero.
    return rng.sample_hits(lo, hi, 4 * k + 8, k, my_block,
                           state.active_mask_slab)


def _workload(state: RunState, block: int) -> int:
    """Cumulative pending entries of ``block`` (the two-choice load
    signal): each warp's hot rest plus its cold rest, read from the
    pointer slabs."""
    ptrs = state.hot_ptr_slab
    cptrs = state.cold_ptr_slab
    size = state.config.hot_size
    wpb = state.config.warps_per_block
    total = 0
    for j in range(2 * wpb * block, 2 * wpb * (block + 1), 2):
        d = ptrs[j] - ptrs[j + 1]
        if d < 0:
            d += size
        total += d + cptrs[j] - cptrs[j + 1]
    return total


def select_victim(state: RunState, my_block: int,
                  rng: BoundedDraws) -> Optional[InterStealPlan]:
    """Steps 1-2 of Algorithm 4: pick a victim block, then its fullest warp.

    ``rng`` is the leader's :class:`repro.utils.fastrand.BoundedDraws`
    over its own ``PCG64`` stream.

    Returns None when no active block was found or no warp in the chosen
    block reaches ``cold_cutoff``.  The one inter-block victim search of
    both DFS loops: block workloads and cold rests are read from the
    run's pointer slabs (global warp ``g`` at slots ``2g`` and
    ``2g + 1``) with no test of the stack class.
    """
    cfg = state.config
    my_gpu = state.blocks[my_block].gpu_id
    remote = False
    if cfg.victim_policy == "two_choice":
        candidates = _sample_active_blocks(state, my_block, rng, 2,
                                           gpu_id=my_gpu)
        if not candidates and cfg.n_gpus > 1:
            # Multi-GPU extension: when this whole GPU is dry, its leader
            # block falls back to NVLink-priced remote stealing.
            if (state.gpu_idle(my_gpu)
                    and my_block == state.gpu_leader_block(my_gpu)):
                candidates = _sample_active_blocks(state, my_block, rng, 2)
                remote = True
        if not candidates:
            return None
        # Load-aware choice: higher cumulative workload wins (first wins
        # ties, matching max() semantics on the sampled order).  Two
        # draws of one block compare equal: skip both scans.
        vb = candidates[0]
        if (len(candidates) == 2 and candidates[1] != vb
                and _workload(state, vb) < _workload(state, candidates[1])):
            vb = candidates[1]
    else:
        # "random": the Figure 9 baseline — a uniformly random block with
        # no activity or load awareness, so probes frequently land on
        # idle/empty blocks and work spreads slowly and unevenly.
        if cfg.blocks_per_gpu < 2:
            return None
        lo = my_gpu * cfg.blocks_per_gpu
        vb = lo + rng.integers(0, cfg.blocks_per_gpu)
        if vb == my_block:
            return None

    cutoff = cfg.cold_cutoff
    cptrs = state.cold_ptr_slab
    wpb = cfg.warps_per_block
    base = 2 * wpb * vb
    fuzz = state.fuzz_rng
    if fuzz is not None:
        # Adversarial fuzzing: random qualifying warp instead of the
        # deterministic fullest one (see intra_steal.select_victim).
        qualifying = []
        for w in range(wpb):
            j = base + 2 * w
            rest = cptrs[j] - cptrs[j + 1]
            if rest >= cutoff:
                qualifying.append((w, rest))
        if not qualifying:
            return None
        best_warp, best_rest = qualifying[fuzz.randrange(len(qualifying))]
    else:
        best_rest = 0
        best_warp = -1
        j = base
        for w in range(wpb):
            rest = cptrs[j] - cptrs[j + 1]
            if rest > best_rest:
                best_rest = rest
                best_warp = w
            j += 2
        if best_warp < 0 or best_rest < cutoff:
            return None
    return InterStealPlan(vb, best_warp, cptrs[base + 2 * best_warp + 1],
                          best_rest, cfg.inter_steal_amount, remote)


def _cas(token: int, observed: int) -> bool:
    """The CAS's validation, a named step (see ``intra_steal._cas``)."""
    return token == observed


def execute_steal(state: RunState, my_block: int, leader_warp: int,
                  plan: InterStealPlan) -> bool:
    """Steps 3-4 of Algorithm 4: CAS ``bottom``, fence, remote transfer.

    Returns True on success; False when a competing leader (or the
    victim's own refill) invalidated the observation.
    """
    counters = state.counters
    counters.inter_steal_attempts += 1
    victim_block = state.blocks[plan.victim_block]
    cold = victim_block.stacks[plan.victim_warp].cold
    if not _cas(cold.bottom, plan.observed_bottom):
        counters.cas_failures += 1
        return False
    counters.cas_attempts += 1
    if len(cold) < state.config.cold_cutoff:
        counters.cas_failures += 1
        return False

    amount = min(plan.amount, len(cold))
    token_at_commit = cold.bottom
    verts, offs = cold.steal_from_bottom(amount)
    monitor = state.monitor
    if monitor is not None:
        monitor.on_steal(
            kind="remote" if plan.remote else "inter",
            victim=(plan.victim_block, plan.victim_warp),
            thief=(my_block, leader_warp),
            verts=verts,
            token_at_commit=token_at_commit,
            observed_token=plan.observed_bottom,
            amount=amount,
            observed_rest=plan.observed_rest,
        )

    # threadfence(); then cuda::memcpy_async ColdSeg[victim] -> HotRing[leader].
    thief_block = state.blocks[my_block]
    thief_block.stacks[leader_warp].hot.put_batch(verts, offs)

    thief_block.set_active(leader_warp, True)
    # Victim-side contention on the ColdSeg bottom pointer in global memory
    # (heavier when the CAS arrived over NVLink).
    victim_block.contention_debt[plan.victim_warp] += (
        state.costs.victim_debt_remote if plan.remote
        else state.costs.victim_debt_inter)
    counters.inter_steal_successes += 1
    counters.inter_steal_entries += amount
    if plan.remote:
        counters.remote_steal_successes += 1
        counters.remote_steal_entries += amount
    return True
