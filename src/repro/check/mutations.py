"""Hand-injected steal-protocol bugs (``repro.check`` mutation suite).

Each mutation is a classic lock-free work-stealing failure mode patched
into the live protocol code behind a test-only hook (a context manager
that monkeypatches one function or method and restores it on exit).  The
fuzzer must catch **every** registered mutation within its smoke budget
— that is what proves the checker can actually fail, the same reasoning
as ``tests/core/test_failure_injection.py`` but driven end-to-end
through the differential fuzz loop.

The suite spans the three detection layers on purpose:

* bugs whose corruption (duplicated or lost nodes) is caught by the
  invariant monitor's **global sweep** or the engine's deadlock guard;
* bugs caught only by the **event-level hooks** (a skipped reservation
  CAS commits against a stale token; the transfer itself stays
  well-formed, so no sweep or output validator can ever see it);
* bugs caught by the **flush/refill conservation hooks** (a node lost
  between HotRing flush and ColdSeg publish, a double-popped refill).

Use::

    with apply_mutation("intra_skip_cas_validation"):
        failure = check_case(case)          # must not be None
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator

from repro.core import inter_steal, intra_steal
from repro.core.state import RunState
from repro.core.twolevel_stack import ColdSeg

__all__ = ["Mutation", "MUTATIONS", "apply_mutation"]


@dataclass(frozen=True)
class Mutation:
    """One injected protocol bug."""

    name: str
    description: str
    #: Which layer is expected to catch it (documentation; any detection
    #: counts — a bug caught earlier than expected is still caught).
    expected_detector: str
    apply: Callable[[], "Iterator[None]"]


# ---------------------------------------------------------------------------
# Intra-block steal protocol bugs.
# ---------------------------------------------------------------------------

@contextmanager
def _intra_lost_cas_writeback():
    """Thief copies the victim's entries but the tail CAS write-back is
    lost: the victim keeps (and re-executes) entries the thief now also
    owns — node visited twice under conflicting owners."""
    original = intra_steal.execute_steal

    def buggy(state, block, thief_warp, plan):
        if not state.config.two_level:
            return original(state, block, thief_warp, plan)
        victim = block.stacks[plan.victim_warp]
        if (victim.hot.tail != plan.observed_tail
                or len(victim.hot) < state.config.hot_cutoff):
            state.counters.cas_failures += 1
            return False
        amount = min(plan.amount, len(victim.hot))
        idx = [(victim.hot.tail + j) % victim.hot.size
               for j in range(amount)]
        verts = [victim.hot.vertex[i] for i in idx]
        offs = [victim.hot.offset[i] for i in idx]
        # BUG: victim.hot.tail is never advanced.
        block.stacks[thief_warp].hot.put_batch(verts, offs)
        block.set_active(thief_warp, True)
        state.counters.intra_steal_successes += 1
        state.counters.intra_steal_entries += amount
        return True

    intra_steal.execute_steal = buggy
    try:
        yield
    finally:
        intra_steal.execute_steal = original


@contextmanager
def _intra_dropped_transfer():
    """The reservation CAS succeeds but the fenced copy never lands: the
    stolen entries vanish (forgotten ``threadfence_block``), leaving the
    traversal permanently short of work."""
    original = intra_steal.execute_steal

    def buggy(state, block, thief_warp, plan):
        if not state.config.two_level:
            return original(state, block, thief_warp, plan)
        victim = block.stacks[plan.victim_warp]
        if (victim.hot.tail != plan.observed_tail
                or len(victim.hot) < state.config.hot_cutoff):
            state.counters.cas_failures += 1
            return False
        amount = min(plan.amount, len(victim.hot))
        victim.hot.take_from_tail(amount)
        # BUG: the entries are never delivered to the thief.
        block.set_active(thief_warp, True)
        state.counters.intra_steal_successes += 1
        return True

    intra_steal.execute_steal = buggy
    try:
        yield
    finally:
        intra_steal.execute_steal = original


@contextmanager
def _intra_skip_cas_validation():
    """The thief forgets the atomicCAS tail validation (Algorithm 3 line
    15) and commits against whatever the tail is *now*.  The transfer
    itself still moves well-formed entries, so only the monitor's
    linearizability check can see the stale reservation."""
    original = intra_steal.execute_steal

    def buggy(state, block, thief_warp, plan):
        counters = state.counters
        counters.intra_steal_attempts += 1
        hot = block.stacks[plan.victim_warp].hot
        # BUG: `hot.tail != plan.observed_tail` is gone.
        counters.cas_attempts += 1
        rest = len(hot)
        if rest < state.config.hot_cutoff:
            counters.cas_failures += 1
            return False
        amount = min(plan.amount, rest)
        token_at_commit = hot.tail
        verts, offs = hot.take_from_tail(amount)
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
        block.stacks[thief_warp].hot.put_batch(verts, offs)
        block.set_active(thief_warp, True)
        block.contention_debt[plan.victim_warp] += state.costs.victim_debt_intra
        counters.intra_steal_successes += 1
        counters.intra_steal_entries += amount
        return True

    intra_steal.execute_steal = buggy
    try:
        yield
    finally:
        intra_steal.execute_steal = original


@contextmanager
def _intra_stale_read_aba():
    """ABA: the thief reads the victim's slots at its *stale* observed
    tail position while advancing the live tail — when the tail moved in
    between, the copied slots are recycled ring positions whose contents
    belong to someone else (duplicates) while the truly reserved entries
    are destroyed (losses)."""
    original = intra_steal.execute_steal

    def buggy(state, block, thief_warp, plan):
        if not state.config.two_level:
            return original(state, block, thief_warp, plan)
        hot = block.stacks[plan.victim_warp].hot
        if len(hot) < state.config.hot_cutoff:
            state.counters.cas_failures += 1
            return False
        amount = min(plan.amount, len(hot))
        # BUG: read at the stale observed position instead of the live tail.
        idx = [(plan.observed_tail + j) % hot.size for j in range(amount)]
        verts = [hot.vertex[i] for i in idx]
        offs = [hot.offset[i] for i in idx]
        hot.tail = (hot.tail + amount) % hot.size
        block.stacks[thief_warp].hot.put_batch(verts, offs)
        block.set_active(thief_warp, True)
        state.counters.intra_steal_successes += 1
        state.counters.intra_steal_entries += amount
        return True

    intra_steal.execute_steal = buggy
    try:
        yield
    finally:
        intra_steal.execute_steal = original


# ---------------------------------------------------------------------------
# Inter-block steal protocol bugs.
# ---------------------------------------------------------------------------

@contextmanager
def _inter_skip_cas_validation():
    """Inter-block variant of the forgotten reservation CAS: the leader
    commits without validating the ColdSeg ``bottom`` it observed
    (Algorithm 4 line 20)."""
    original = inter_steal.execute_steal

    def buggy(state, my_block, leader_warp, plan):
        counters = state.counters
        counters.inter_steal_attempts += 1
        victim_block = state.blocks[plan.victim_block]
        cold = victim_block.stacks[plan.victim_warp].cold
        # BUG: `cold.bottom != plan.observed_bottom` is gone.
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
        thief_block = state.blocks[my_block]
        thief_block.stacks[leader_warp].hot.put_batch(verts, offs)
        thief_block.set_active(leader_warp, True)
        counters.inter_steal_successes += 1
        counters.inter_steal_entries += amount
        return True

    inter_steal.execute_steal = buggy
    try:
        yield
    finally:
        inter_steal.execute_steal = original


# ---------------------------------------------------------------------------
# Two-level stack transfer bugs.
# ---------------------------------------------------------------------------

@contextmanager
def _flush_publish_drop():
    """A node is lost between HotRing flush and ColdSeg publish: the
    global-memory store of the last entry of every multi-entry flush
    batch never lands (forgotten fence before publishing ``top``)."""
    original = ColdSeg.push_batch

    def buggy(self, verts, offs):
        if len(verts) >= 2:
            verts, offs = verts[:-1], offs[:-1]  # BUG: last entry dropped
        original(self, verts, offs)

    ColdSeg.push_batch = buggy
    try:
        yield
    finally:
        ColdSeg.push_batch = original


@contextmanager
def _refill_double_pop():
    """Refill copies the ColdSeg's top entries into the HotRing but the
    decrement of ``top`` is lost: the same entries will be refilled (or
    stolen) again — a double-pop."""
    original = ColdSeg.pop_batch

    def buggy(self, count):
        lo = self.top - count
        verts = self.vertex[lo:self.top]
        offs = self.offset[lo:self.top]
        # BUG: `self.top = lo` never happens.
        return verts, offs

    ColdSeg.pop_batch = buggy
    try:
        yield
    finally:
        ColdSeg.pop_batch = original


# ---------------------------------------------------------------------------
# Claim (visited CAS) bugs.
# ---------------------------------------------------------------------------

@contextmanager
def _claim_lost_store():
    """The winning claim's visited store is occasionally lost (dropped
    write): later scans see the vertex unvisited and claim it again while
    its first stack entry still exists."""
    original = RunState.try_claim_vertex

    def buggy(self, v, parent):
        won = original(self, v, parent)
        if won and v % 7 == 3:
            self.visited[v] = 0  # BUG: the store never became visible
        return won

    RunState.try_claim_vertex = buggy
    try:
        yield
    finally:
        RunState.try_claim_vertex = original


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------

MUTATIONS: Dict[str, Mutation] = {
    m.name: m for m in (
        Mutation(
            name="intra_lost_cas_writeback",
            description="intra steal copies entries but the tail CAS "
                        "write-back is lost (duplication)",
            expected_detector="sweep: vertex owned by two stacks",
            apply=_intra_lost_cas_writeback,
        ),
        Mutation(
            name="intra_dropped_transfer",
            description="intra steal removes entries but the fenced copy "
                        "never lands (lost work)",
            expected_detector="sweep: pending counter vs actual entries",
            apply=_intra_dropped_transfer,
        ),
        Mutation(
            name="intra_skip_cas_validation",
            description="intra steal skips the tail reservation CAS "
                        "(stale commit)",
            expected_detector="monitor: CAS linearizability hook",
            apply=_intra_skip_cas_validation,
        ),
        Mutation(
            name="intra_stale_read_aba",
            description="intra steal reads slots at the stale observed "
                        "tail while advancing the live tail (ABA)",
            expected_detector="sweep/validators: duplicated + lost nodes",
            apply=_intra_stale_read_aba,
        ),
        Mutation(
            name="inter_skip_cas_validation",
            description="inter steal skips the ColdSeg bottom reservation "
                        "CAS (stale commit)",
            expected_detector="monitor: CAS linearizability hook",
            apply=_inter_skip_cas_validation,
        ),
        Mutation(
            name="flush_publish_drop",
            description="last entry of each flush batch lost between "
                        "HotRing flush and ColdSeg publish",
            expected_detector="monitor: flush conservation hook",
            apply=_flush_publish_drop,
        ),
        Mutation(
            name="refill_double_pop",
            description="refill copies ColdSeg entries without moving "
                        "top (double-pop duplication)",
            expected_detector="monitor: refill conservation hook",
            apply=_refill_double_pop,
        ),
        Mutation(
            name="claim_lost_store",
            description="winning visited-CAS store occasionally lost "
                        "(vertex claimed twice)",
            expected_detector="sweep: stacked vertex not marked visited",
            apply=_claim_lost_store,
        ),
    )
}


@contextmanager
def apply_mutation(name):
    """Context manager applying mutation ``name`` (None is a no-op)."""
    if name is None:
        yield
        return
    if name not in MUTATIONS:
        raise KeyError(
            f"unknown mutation {name!r}; known: {sorted(MUTATIONS)}"
        )
    with MUTATIONS[name].apply():
        yield
