"""Hand-injected steal-protocol bugs (``repro.check`` mutation suite).

Each mutation is a classic lock-free work-stealing failure mode patched
into the live protocol code: it replaces one named step of a steal
(``intra_steal._cas`` / ``_take`` / ``_deliver``, ``inter_steal._cas``;
the ABA bug replaces two) or wraps one stack or claim primitive, and
restores the originals on exit.  The rest of the protocol runs as
written, counters, the monitor's ``on_steal`` hook and the victim's
contention debt included, so a protocol change is exercised by every
mutant that goes through it.  The fuzzer must catch **every**
registered mutation within its smoke budget — that is what proves the
checker can actually fail, the same reasoning as
``tests/core/test_failure_injection.py`` but driven end-to-end through
the differential fuzz loop.

The suite spans the detection layers on purpose:

* bugs whose corruption (duplicated or lost nodes) is caught by the
  invariant monitor's **global sweep**;
* bugs caught by the **steal hook** (a skipped reservation CAS commits
  against a stale token, which the transfer itself cannot show; the ABA
  bug skips the same CAS, so its first stale commit is caught here
  too, exactly where ``intra_skip_cas_validation``'s is);
* bugs caught by the **flush/refill conservation hooks** (a node lost
  between HotRing flush and ColdSeg publish, a double-popped refill).

Use::

    with apply_mutation("intra_skip_cas_validation"):
        failure = check_case(case)          # must not be None
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from repro.core import inter_steal, intra_steal
from repro.core.state import RunState
from repro.core.twolevel_stack import ColdSeg, HotRing

__all__ = ["Mutation", "MUTATIONS", "apply_mutation"]

#: One patch: while a mutation is applied, ``owner.attribute`` is
#: ``bug(original)``.
Patch = Tuple[Any, str, Callable[[Callable], Callable]]


@dataclass(frozen=True)
class Mutation:
    """One injected protocol bug."""

    name: str
    description: str
    #: Which layer is expected to catch it (documentation; any detection
    #: counts — a bug caught earlier than expected is still caught).
    expected_detector: str
    patches: Tuple[Patch, ...]


# ---------------------------------------------------------------------------
# Steal-protocol bugs: each replaces one named step of ``execute_steal``.
# ---------------------------------------------------------------------------

def _skip_cas(cas):
    """The thief forgets the atomicCAS validation (Algorithm 3 line 15,
    Algorithm 4 line 20) and commits against whatever the token is now."""
    return lambda token, observed: True  # BUG: validates nothing


def _copy_without_take(take):
    """The thief copies the victim's oldest entries but the tail CAS
    write-back is lost: the victim keeps (and re-executes) entries the
    thief now also owns."""
    def buggy(hot, plan, amount):
        # BUG: a copy of the oldest entries; the tail never moves.
        verts, offs = zip(*hot.snapshot()[:amount])
        return list(verts), list(offs)
    return buggy


def _drop_transfer(deliver):
    """The reservation takes the entries but the fenced copy never lands
    (forgotten ``threadfence_block``): the thief receives nothing."""
    return lambda hot, verts, offs: None  # BUG: the copy never lands


def _stale_read(take):
    """ABA: the live tail advances, but the copy reads the ring slots at
    the thief's stale observed tail, recycled positions whose contents
    belong to someone else.  A one-level (v1) stack has no ring slots,
    so it keeps the live step.  Paired with ``_skip_cas`` (with the CAS
    intact the observed tail is the live one), so the steal hook catches
    the first stale commit before any recycled slot reaches a sweep."""
    def buggy(hot, plan, amount):
        taken = take(hot, plan, amount)
        if type(hot) is not HotRing:
            return taken
        # BUG: the copy reads at the stale observed tail.
        at = [(plan.observed_tail + j) % hot.size for j in range(amount)]
        return [hot.vertex[i] for i in at], [hot.offset[i] for i in at]
    return buggy


# ---------------------------------------------------------------------------
# Two-level stack transfer and claim bugs: each wraps one primitive.
# ---------------------------------------------------------------------------

def _drop_last_published(push_batch):
    """The global-memory store of the last entry of every multi-entry
    flush batch never lands (forgotten fence before publishing ``top``)."""
    def buggy(self, verts, offs):
        if len(verts) >= 2:
            verts, offs = verts[:-1], offs[:-1]  # BUG: last entry lost
        push_batch(self, verts, offs)
    return buggy


def _pop_keeping_top(pop_batch):
    """Refill copies the ColdSeg's top entries but the decrement of
    ``top`` is lost: the same entries are refilled (or stolen) again."""
    def buggy(self, count):
        verts, offs = pop_batch(self, count)
        self.push_batch(verts, offs)  # BUG: `top` never moves down
        return verts, offs
    return buggy


def _lose_some_claims(claim):
    """The winning claim's visited store is occasionally lost: later
    scans see the vertex unvisited and claim it again while its first
    stack entry still exists."""
    def buggy(self, v, parent):
        won = claim(self, v, parent)
        if won and v % 7 == 3:
            self.visited[v] = 0  # BUG: the store never lands
        return won
    return buggy


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
            patches=((intra_steal, "_take", _copy_without_take),),
        ),
        Mutation(
            name="intra_dropped_transfer",
            description="intra steal removes entries but the fenced copy "
                        "never lands (lost work)",
            expected_detector="sweep: fewer stacked entries than pending",
            patches=((intra_steal, "_deliver", _drop_transfer),),
        ),
        Mutation(
            name="intra_skip_cas_validation",
            description="intra steal skips the tail reservation CAS "
                        "(stale commit)",
            expected_detector="monitor: CAS linearizability hook",
            patches=((intra_steal, "_cas", _skip_cas),),
        ),
        Mutation(
            name="intra_stale_read_aba",
            description="intra steal reads slots at the stale observed "
                        "tail while advancing the live tail (ABA)",
            expected_detector="monitor: CAS linearizability hook",
            patches=((intra_steal, "_cas", _skip_cas),
                     (intra_steal, "_take", _stale_read)),
        ),
        Mutation(
            name="inter_skip_cas_validation",
            description="inter steal skips the ColdSeg bottom reservation "
                        "CAS (stale commit)",
            expected_detector="monitor: CAS linearizability hook",
            patches=((inter_steal, "_cas", _skip_cas),),
        ),
        Mutation(
            name="flush_publish_drop",
            description="last entry of each flush batch lost between "
                        "HotRing flush and ColdSeg publish",
            expected_detector="monitor: flush conservation hook",
            patches=((ColdSeg, "push_batch", _drop_last_published),),
        ),
        Mutation(
            name="refill_double_pop",
            description="refill copies ColdSeg entries without moving "
                        "top (double-pop duplication)",
            expected_detector="monitor: refill conservation hook",
            patches=((ColdSeg, "pop_batch", _pop_keeping_top),),
        ),
        Mutation(
            name="claim_lost_store",
            description="winning visited-CAS store occasionally lost "
                        "(vertex claimed twice)",
            expected_detector="sweep: stacked vertex not marked visited",
            patches=((RunState, "try_claim_vertex", _lose_some_claims),),
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
    patches = MUTATIONS[name].patches
    originals = [getattr(owner, attr) for owner, attr, _ in patches]
    try:
        for (owner, attr, bug), original in zip(patches, originals):
            setattr(owner, attr, bug(original))
        yield
    finally:
        for (owner, attr, _), original in zip(patches, originals):
            setattr(owner, attr, original)
