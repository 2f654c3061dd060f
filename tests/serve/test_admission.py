"""Admission-policy properties: work conservation, bounds, conservation,
order, invariance.

The policy is pure and its only inputs are arrivals, turn ends
(``ready()``) and slot releases, so Hypothesis can drive it with
arbitrary synthetic schedules and check the contract exhaustively:

* after every ``ready()``, no item is held while a slot is free (work
  conservation);
* no batch ever exceeds ``max_batch``;
* every admitted item launches exactly once, in arrival order within
  its key, never mixed across keys (conservation);
* items admitted under key ``None`` (the daemon's DFS and app queries)
  always launch alone;
* in its opening turn a group launches one item, with reason
  ``"idle"``;
* groups launch in (turn, cost, arrival) order, so a later turn never
  overtakes an earlier one;
* ``flush_all`` drains every held group;
* and the *results* of batched DFS execution are invariant to how
  admission sliced the work (the execution-level half of the
  "(jobs, batch) invariance" acceptance criterion; the socket e2e half
  lives in ``test_server.py``).
"""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.admission import BatchPolicy

# Schedule alphabet: ("add", key, dt) | ("ready",) | ("release",) — key
# None is a query that never coalesces; dt is the time advance before
# the arrival; "ready" ends a turn, and "release" frees a slot and then
# calls ready(), as the daemon does.
_events = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.one_of(st.none(), st.integers(0, 2)),
                  st.floats(0, 0.05)),
        st.tuples(st.just("ready")),
        st.tuples(st.just("release")),
    ),
    min_size=1, max_size=80,
)
_KEYS = (None, 0, 1, 2)
# Small costs, so that ties (broken by arrival) are common.
_costs = st.lists(st.integers(0, 3), min_size=len(_KEYS),
                  max_size=len(_KEYS))


def _run_schedule(events, slots, max_batch, cost):
    """Drive a policy through ``events`` (items are ``(key, seq)``),
    check every per-call property; returns the keys' admitted and
    launched item seqs."""
    policy = BatchPolicy(slots, max_batch, cost=cost)
    now = 0.0
    seq = 0
    turn = 0                       # the turn the next arrival joins
    arrived_in = {}                # item seq -> its turn
    admitted = defaultdict(list)   # key -> item seqs in arrival order
    launched = defaultdict(list)
    ranks = []                     # (turn, cost, arrival) per launch

    def consume(batch, closed):
        assert 1 <= len(batch.items) <= max_batch
        for key, item in batch.items:
            assert key == batch.key            # never mixed across keys
            launched[key].append(item)
        if batch.key is None:
            assert len(batch.items) == 1       # never coalesces
        first = batch.items[0]
        opened = arrived_in[first[1]]
        ranks.append((opened, cost(first), first[1]))
        if closed is None:
            assert batch.reason == "drain"
        elif opened == closed:
            # Its opening turn: one item per free slot.
            assert batch.reason == "idle" and len(batch.items) == 1
        else:
            assert batch.reason in ("full", "queued")
            assert (batch.reason == "full") == (
                len(batch.items) == max_batch)

    def end_turn():
        nonlocal turn
        held = policy.pending_count()
        closed, turn = turn, turn + 1
        out = policy.ready()
        for batch in out:
            consume(batch, closed)
        assert policy.pending_count() == held - sum(
            len(b.items) for b in out)
        # Work conservation: nothing is held while a slot is free.
        assert policy.pending_count() == 0 or policy.busy >= policy.slots
        assert policy.busy <= policy.slots

    for ev in events:
        if ev[0] == "add":
            _, key, dt = ev
            now += dt
            seq += 1
            arrived_in[seq] = turn
            admitted[key].append(seq)
            assert policy.add(key, (key, seq), now) is None   # held
        elif ev[0] == "ready":
            end_turn()
        elif policy.busy:
            policy.release()
            end_turn()

    for batch in policy.flush_all():
        consume(batch, None)
    assert policy.pending_count() == 0
    assert policy.flush_all() == []

    # Groups launch in (turn, cost, arrival) order: a later turn never
    # overtakes an earlier one, and within a turn the cheaper goes first.
    assert ranks == sorted(ranks)
    return admitted, launched


@given(events=_events, slots=st.integers(1, 3),
       max_batch=st.integers(1, 6), costs=_costs)
@settings(max_examples=300)
def test_policy_bounds_and_conservation(events, slots, max_batch, costs):
    by_key = dict(zip(_KEYS, costs))
    admitted, launched = _run_schedule(
        events, slots, max_batch, lambda item: by_key[item[0]])
    # Conservation: exactly once, in arrival order, per key.
    assert dict(launched) == dict(admitted)


@given(events=_events, slots=st.integers(1, 3),
       max_batch=st.integers(1, 6), costs=_costs)
@settings(max_examples=200)
def test_policy_orders_lone_items_by_their_own_cost(events, slots,
                                                    max_batch, costs):
    # The daemon's key-None items (DFS and app queries) each carry their
    # own cost, so they may launch out of arrival order; shared keys
    # keep one cost per key.
    by_key = dict(zip(_KEYS, costs))

    def cost(item):
        key, seq = item
        return costs[seq % len(costs)] if key is None else by_key[key]

    admitted, launched = _run_schedule(events, slots, max_batch, cost)
    assert sorted(launched.pop(None, [])) == admitted.pop(None, [])
    assert dict(launched) == dict(admitted)


@given(slots=st.integers(1, 3), max_batch=st.integers(2, 8),
       n=st.integers(0, 20), turns=st.integers(1, 4))
@settings(max_examples=100)
def test_policy_full_flush_fires_at_capacity(slots, max_batch, n, turns):
    # With every slot busy, n same-key arrivals, over any number of
    # turns, pile into groups of max_batch; each freed slot launches the
    # oldest, full ones first.
    policy = BatchPolicy(slots, max_batch)
    for i in range(slots):
        policy.add(None, f"busy{i}", 0.0)
    assert [b.reason for b in policy.ready()] == ["idle"] * slots
    for i in range(n):
        policy.add("k", i, 0.0)
        if (i + 1) % -(-n // turns) == 0:
            assert policy.ready() == []
    assert policy.ready() == []
    assert policy.pending_count() == n
    widths = []
    launched = []
    while policy.pending_count():
        policy.release()
        (batch,) = policy.ready()
        widths.append(len(batch.items))
        launched.extend(batch.items)
        assert batch.reason == ("full" if len(batch.items) == max_batch
                                else "queued")
    assert widths == [max_batch] * (n // max_batch) + (
        [n % max_batch] if n % max_batch else [])
    assert launched == list(range(n))


def test_max_batch_one_dispatches_immediately():
    policy = BatchPolicy(1, 1)
    policy.add("k", "item", 0.0)
    (out,) = policy.ready()
    assert out.items == ("item",) and out.reason == "idle"
    # Coalescing is off: held same-key items still launch one by one.
    policy.add("k", "a", 1.0)
    policy.add("k", "b", 2.0)
    assert policy.ready() == []
    policy.release()
    assert [b.items for b in policy.ready()] == [("a",)]
    policy.release()
    assert [b.items for b in policy.ready()] == [("b",)]
    policy.release()
    assert policy.ready() == [] and policy.busy == 0


def test_drain_launches_every_held_group_and_keeps_the_slot_count():
    policy = BatchPolicy(1, 8)
    policy.add(None, "running", 0.0)
    assert len(policy.ready()) == 1
    policy.add("k", 1, 0.1)
    policy.add(None, 2, 0.2)
    policy.add("k", 3, 0.3)
    # No ready() since the arrivals: the drain takes the open turn too.
    drained = policy.flush_all()
    assert [(b.key, b.items, b.reason) for b in drained] == [
        ("k", (1, 3), "drain"), (None, (2,), "drain")]
    # Each drained batch releases like any other; a late arrival waits
    # until the count is back under the slots.
    assert policy.busy == 3
    policy.add("k", 4, 1.0)
    assert policy.ready() == []
    for _ in range(2):
        policy.release()
        assert policy.ready() == []
    policy.release()
    assert [b.items for b in policy.ready()] == [(4,)]


def test_a_turn_launches_its_cheapest_group_first():
    # A DFS miss (key None, 15 ms) and a frontier miss (2 ms) that
    # arrive in one turn: the frontier one takes the free slot, though
    # it arrived second; an unmeasured item (0.0) would go before both.
    cost = {"dfs": 15.0, "frontier": 2.0, "new": 0.0}
    policy = BatchPolicy(1, 8, cost=lambda item: cost[item])
    policy.add(None, "dfs", 0.0)
    policy.add("f", "frontier", 0.0)
    policy.add(None, "new", 0.0)
    assert [(b.items, b.reason) for b in policy.ready()] == [
        (("new",), "idle")]
    order = []
    for _ in range(2):
        policy.release()
        order += [(b.items, b.reason) for b in policy.ready()]
    assert order == [(("frontier",), "queued"), (("dfs",), "queued")]


def test_a_later_turn_never_overtakes_an_earlier_one():
    cost = {"running": 0.0, "slow": 20.0, "fast": 1.0}
    policy = BatchPolicy(1, 8, cost=lambda item: cost[item])
    policy.add(None, "running", 0.0)
    assert len(policy.ready()) == 1
    policy.add(None, "slow", 0.0)
    assert policy.ready() == []
    policy.add("f", "fast", 0.0)
    assert policy.ready() == []
    policy.release()
    assert [b.items for b in policy.ready()] == [("slow",)]
    policy.release()
    assert [b.items for b in policy.ready()] == [("fast",)]


def test_a_burst_meets_free_slots_first_items_alone():
    # One item per free slot, then the rest in groups of max_batch, in
    # arrival order.
    policy = BatchPolicy(2, 64)
    for i in range(130):
        policy.add("k", i, 0.0)
    assert [(b.items, b.reason) for b in policy.ready()] == [
        ((0,), "idle"), ((1,), "idle")]
    held = []
    while policy.pending_count():
        policy.release()
        held += [(b.items, b.reason) for b in policy.ready()]
    assert held == [(tuple(range(2, 66)), "full"),
                    (tuple(range(66, 130)), "full")]


def test_rejects_bad_max_batch():
    with pytest.raises(ValueError):
        BatchPolicy(2, 0)
    with pytest.raises(ValueError):
        BatchPolicy(0, 8)
    with pytest.raises(ValueError):
        BatchPolicy(2, 8).release()


# ---------------------------------------------------------------------------
# Result invariance under arbitrary batch slicings.
# ---------------------------------------------------------------------------

@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_batched_results_invariant_to_slicing(data):
    """However admission slices the same queries into batches, every
    query's result equals its scalar execution bit-for-bit."""
    from repro.graphs import generators as gen
    from repro.serve.exec import execute_dfs_batch, execute_query

    graph = gen.binary_tree(4)
    roots = data.draw(st.lists(
        st.integers(0, graph.n_vertices - 1), min_size=1, max_size=6))
    tasks = [(r, {"seed": 1}) for r in roots]
    expected = [execute_query(graph, "dfs", r, {"seed": 1})
                for r in roots]

    # Random partition into contiguous batches (what admission produces).
    cuts = data.draw(st.sets(st.integers(1, max(1, len(tasks) - 1)),
                             max_size=len(tasks) - 1)) if len(tasks) > 1 \
        else set()
    bounds = [0] + sorted(cuts) + [len(tasks)]
    got = []
    for lo, hi in zip(bounds, bounds[1:]):
        got.extend(execute_dfs_batch(graph, tasks[lo:hi]))
    assert got == expected
