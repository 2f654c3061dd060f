"""Intra-block work stealing (paper §3.4, Algorithm 3, Figure 3a).

The protocol is optimistic and two-phase, exactly as on hardware:

1. **Victim selection** (:func:`select_victim`): the idle thief scans its
   block's peers, computes each ``hot_rest = (head - tail + hot_size) %
   hot_size``, and picks the maximum provided it reaches ``hot_cutoff``.
   The observed ``tail`` is recorded in the returned plan.  The scan
   reads the run's hot pointer slab, and it is the one intra-block
   victim search: the generic loop's ``WarpAgent._idle`` and the fused
   loop (:mod:`repro.core.turbo`) both call it.
2. **Work reservation + local transfer** (:func:`execute_steal`, a later
   simulator step): the thief validates the victim's ``tail`` against the
   observation — the atomicCAS of Algorithm 3 line 15.  If another thief
   moved the tail in between (Figure 3a's Warp2), the CAS fails and the
   thief restarts selection.  On success it takes ``hot_cutoff / 2``
   entries from the victim's tail, fences, copies them into its own
   HotRing, advances its head, and flips its active-mask bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.state import BlockState, RunState

__all__ = ["IntraStealPlan", "select_victim", "execute_steal"]


@dataclass(frozen=True)
class IntraStealPlan:
    """Outcome of victim selection: who to rob and what was observed."""

    victim_warp: int
    observed_tail: int
    observed_rest: int
    amount: int


def select_victim(state: RunState, block: BlockState,
                  thief_warp: int) -> Optional[IntraStealPlan]:
    """Step 1 of Algorithm 3: scan peers, pick max ``hot_rest`` >= cutoff.

    Returns None when no peer qualifies (all below ``hot_cutoff``).  The
    largest rest wins and the first warp wins ties.

    The one intra-block victim search of both DFS loops: it reads each
    peer's ``(head, tail)`` pair straight from ``state.hot_ptr_slab``
    (global warp ``g`` at slots ``2g`` and ``2g + 1``), where the v1
    one-level stack keeps its ``(top, bottom)``, so it needs no test of
    the stack class.  The observed tail slot is the plan's token.

    With ``state.fuzz_rng`` set (``adversarial_victims`` fuzzing), the
    thief instead picks a *random* peer among all that reach the cutoff,
    so the fuzzer explores steal interleavings the deterministic
    max-depth scan can never produce.
    """
    cfg = state.config
    cutoff = cfg.hot_cutoff
    size = cfg.hot_size
    ptrs = state.hot_ptr_slab
    n_warps = block.n_warps
    base = 2 * n_warps * block.block_id
    fuzz = state.fuzz_rng
    if fuzz is not None:
        qualifying = []
        for w in range(n_warps):
            if w != thief_warp:
                j = base + 2 * w
                rest = ptrs[j] - ptrs[j + 1]
                if rest < 0:
                    rest += size
                if rest >= cutoff:
                    qualifying.append((w, rest))
        if not qualifying:
            return None
        best_warp, best_rest = qualifying[fuzz.randrange(len(qualifying))]
    else:
        best_rest = 0
        best_warp = -1
        j = base
        for w in range(n_warps):
            if w != thief_warp:
                rest = ptrs[j] - ptrs[j + 1]
                if rest < 0:
                    rest += size
                if rest > best_rest:
                    best_rest = rest
                    best_warp = w
            j += 2
        if best_warp < 0 or best_rest < cutoff:
            return None
    return IntraStealPlan(best_warp, ptrs[base + 2 * best_warp + 1],
                          best_rest, cfg.intra_steal_amount)


# Named steps a test can substitute (the ``repro.check`` mutants), looked
# up per call: the CAS's validation (the token is still as observed), its
# take from the victim's tail, and the fenced copy into the thief's ring.
def _cas(token: int, observed: int) -> bool:
    return token == observed


def _take(hot, plan: IntraStealPlan, amount: int):
    return hot.take_from_tail(amount)


def _deliver(hot, verts, offs) -> None:
    hot.put_batch(verts, offs)


def execute_steal(state: RunState, block: BlockState, thief_warp: int,
                  plan: IntraStealPlan) -> bool:
    """Steps 2-3 of Algorithm 3: CAS-validate, then transfer locally.

    Returns True on success.  Failure means the victim's tail moved (a
    competing thief won) or the victim dropped below the cutoff; the
    caller restarts selection, mirroring Figure 3a.
    """
    counters = state.counters
    counters.intra_steal_attempts += 1
    hot = block.stacks[plan.victim_warp].hot

    # atomicCAS(tail, observed, observed + amount): in the simulator the
    # validation and the take are one atomic step, so "token unchanged and
    # still enough work" is exactly CAS success.
    if not _cas(hot.tail, plan.observed_tail):
        counters.cas_failures += 1
        return False
    counters.cas_attempts += 1
    rest = len(hot)
    if rest < state.config.hot_cutoff:
        counters.cas_failures += 1
        return False

    amount = min(plan.amount, rest)
    # Commit-point token read for the invariant monitor, separate from
    # the CAS read above: a protocol that skips or breaks that check
    # still reports the token it actually committed against.
    token_at_commit = hot.tail
    verts, offs = _take(hot, plan, amount)
    monitor = state.monitor
    if monitor is not None:
        monitor.on_steal(
            kind="intra",
            victim=(block.block_id, plan.victim_warp),
            thief=(block.block_id, thief_warp),
            verts=verts,
            token_at_commit=token_at_commit,
            observed_token=plan.observed_tail,
            amount=amount,
            observed_rest=plan.observed_rest,
        )

    # threadfence_block() then local copy into the thief's own stack.
    _deliver(block.stacks[thief_warp].hot, verts, offs)

    block.set_active(thief_warp, True)
    # Victim-side contention: its tail cache line was invalidated and its
    # next operations serialize behind the CAS.
    block.contention_debt[plan.victim_warp] += state.costs.victim_debt_intra
    counters.intra_steal_successes += 1
    counters.intra_steal_entries += amount
    return True
