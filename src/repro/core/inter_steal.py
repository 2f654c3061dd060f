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
   ``bottom`` in the plan.
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
    # Direct slab reads: skip the blocks' ``idle`` property dispatch.
    return rng.sample_hits(lo, hi, 4 * k + 8, k, my_block,
                           state.active_mask_slab)


def select_victim(state: RunState, my_block: int,
                  rng: BoundedDraws) -> Optional[InterStealPlan]:
    """Steps 1-2 of Algorithm 4: pick a victim block, then its fullest warp.

    ``rng`` is the leader's :class:`repro.utils.fastrand.BoundedDraws`
    over its own ``PCG64`` stream.

    Returns None when no active block was found or no warp in the chosen
    block reaches ``cold_cutoff``.
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
        # ties, matching max() semantics on the sampled order).
        if len(candidates) == 1:
            vb = candidates[0]
        else:
            b0, b1 = candidates
            blocks = state.blocks
            vb = (b0 if blocks[b0].workload() >= blocks[b1].workload()
                  else b1)
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

    victim_block = state.blocks[vb]
    cutoff = state.config.cold_cutoff
    fuzz = state.fuzz_rng
    if fuzz is not None:
        # Adversarial fuzzing: random qualifying warp instead of the
        # deterministic fullest one (see intra_steal.select_victim).
        qualifying = [
            (w, rest) for w in range(victim_block.n_warps)
            if (rest := victim_block.cold_rest(w)) >= cutoff
        ]
        if not qualifying:
            return None
        best_warp, best_rest = qualifying[fuzz.randrange(len(qualifying))]
    else:
        best_rest = 0
        best_warp = -1
        stacks = victim_block.stacks
        for w in range(victim_block.n_warps):
            rest = len(stacks[w].cold)
            if rest > best_rest:
                best_rest = rest
                best_warp = w
        if best_warp < 0 or best_rest < cutoff:
            return None
    stack = victim_block.stacks[best_warp]
    return InterStealPlan(
        victim_block=vb,
        victim_warp=best_warp,
        observed_bottom=stack.cold.bottom,
        observed_rest=best_rest,
        amount=state.config.inter_steal_amount,
        remote=remote,
    )


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
    if cold.bottom != plan.observed_bottom:
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
