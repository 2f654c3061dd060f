"""Admission-policy properties: work conservation, bounds, conservation,
fairness, invariance.

The policy is pure and its only inputs are arrivals and slot releases,
so Hypothesis can drive it with arbitrary synthetic schedules and check
the contract exhaustively:

* no item is held while a slot is free (work conservation);
* no batch ever exceeds ``max_batch``;
* every admitted item launches exactly once, in arrival order within
  its key, never mixed across keys (conservation);
* held groups launch oldest first;
* items admitted under key ``None`` (the daemon's DFS and app queries)
  always launch alone;
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

# Schedule alphabet: ("add", key, dt) | ("release",) — key None is a
# query that never coalesces; dt is the time advance before the arrival.
_events = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.one_of(st.none(), st.integers(0, 2)),
                  st.floats(0, 0.05)),
        st.tuples(st.just("release")),
    ),
    min_size=1, max_size=80,
)


@given(events=_events, slots=st.integers(1, 3),
       max_batch=st.integers(1, 6))
@settings(max_examples=300)
def test_policy_bounds_and_conservation(events, slots, max_batch):
    policy = BatchPolicy(slots, max_batch)
    now = 0.0
    seq = 0
    admitted = defaultdict(list)   # key -> item seqs in arrival order
    launched = defaultdict(list)
    held_firsts = []               # first item of each held-group launch

    def consume(batch, held):
        assert 1 <= len(batch.items) <= max_batch
        for key, item in batch.items:
            assert key == batch.key            # never mixed across keys
            launched[key].append(item)
        if batch.key is None:
            assert len(batch.items) == 1       # never coalesces
        if held:
            assert batch.reason in ("full", "queued", "drain")
            assert batch.reason != "full" or len(batch.items) == max_batch
            held_firsts.append(batch.items[0][1])
        else:
            assert batch.reason == "idle" and len(batch.items) == 1

    for ev in events:
        if ev[0] == "add":
            _, key, dt = ev
            now += dt
            seq += 1
            free = policy.busy < policy.slots
            admitted[key].append(seq)
            out = policy.add(key, (key, seq), now)
            # A free slot takes the item at once.
            assert (out is not None) == free
            if out is not None:
                consume(out, held=False)
        elif policy.busy:
            out = policy.release()
            assert (out is None) == (policy.pending_count() == 0
                                     and policy.busy < policy.slots)
            if out is not None:
                consume(out, held=True)
        # Work conservation: nothing is held while a slot is free.
        assert policy.pending_count() == 0 or policy.busy >= policy.slots
        assert policy.busy <= policy.slots

    for batch in policy.flush_all():
        consume(batch, held=True)
    assert policy.pending_count() == 0

    # Conservation: exactly once, in arrival order, per key.
    assert dict(launched) == dict(admitted)
    # Fairness: held groups launch in the order they opened.
    assert held_firsts == sorted(held_firsts)


@given(slots=st.integers(1, 3), max_batch=st.integers(2, 8),
       n=st.integers(0, 20))
@settings(max_examples=100)
def test_policy_full_flush_fires_at_capacity(slots, max_batch, n):
    # With every slot busy, n same-key arrivals pile into groups of
    # max_batch; each freed slot launches the oldest, full ones first.
    policy = BatchPolicy(slots, max_batch)
    for i in range(slots):
        assert policy.add(None, f"busy{i}", 0.0) is not None
    for i in range(n):
        assert policy.add("k", i, 0.0) is None
    assert policy.pending_count() == n
    widths = []
    while policy.pending_count():
        batch = policy.release()
        widths.append(len(batch.items))
        assert batch.reason == ("full" if len(batch.items) == max_batch
                                else "queued")
    assert widths == [max_batch] * (n // max_batch) + (
        [n % max_batch] if n % max_batch else [])


def test_max_batch_one_dispatches_immediately():
    policy = BatchPolicy(1, 1)
    out = policy.add("k", "item", 0.0)
    assert out is not None and out.items == ("item",)
    # Coalescing is off: held same-key items still launch one by one.
    assert policy.add("k", "a", 1.0) is None
    assert policy.add("k", "b", 2.0) is None
    assert policy.release().items == ("a",)
    assert policy.release().items == ("b",)
    assert policy.release() is None and policy.busy == 0


def test_drain_launches_every_held_group_and_keeps_the_slot_count():
    policy = BatchPolicy(1, 8)
    policy.add(None, "running", 0.0)
    policy.add("k", 1, 0.1)
    policy.add(None, 2, 0.2)
    policy.add("k", 3, 0.3)
    drained = policy.flush_all()
    assert [(b.key, b.items, b.reason) for b in drained] == [
        ("k", (1, 3), "drain"), (None, (2,), "drain")]
    # Each drained batch releases like any other; a late arrival waits
    # until the count is back under the slots.
    assert policy.busy == 3
    assert policy.add("k", 4, 1.0) is None
    assert policy.release() is None and policy.release() is None
    assert policy.release().items == (4,)


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
