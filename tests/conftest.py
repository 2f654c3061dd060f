"""Shared fixtures and Hypothesis settings profiles for the test suite.

Two profiles (select with ``HYPOTHESIS_PROFILE=dev|ci``; CI machines —
anything with ``CI`` set — default to ``ci``, everything else to ``dev``):

* ``dev`` — randomized exploration with a generous deadline; each
  failure prints its reproduction blob (``@reproduce_failure``).
* ``ci`` — derandomized (the seed is fixed, so CI never flakes on a
  fresh example) and deadline-free (shared runners have noisy clocks).

Individual tests still set ``max_examples`` locally — example *count* is
a per-property cost decision; determinism and deadlines are fleet-wide
policy and live here.

The suite runs on its own corpus disk cache: before the first test,
``REPRO_CORPUS_CACHE`` points at a fresh directory under pytest's base
temp dir, so no run reads or writes the per-user default cache and its
hits never depend on what another checkout left there.  Subprocess
daemons inherit the setting; a test's own ``monkeypatch.setenv`` still
overrides it for that test.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.graphs import diskcache, generators as gen
from repro.graphs.csr import CSRGraph, from_adjacency, from_edges

settings.register_profile("dev", deadline=1000, print_blob=True)
settings.register_profile("ci", derandomize=True, deadline=None,
                          print_blob=True)
settings.load_profile(os.environ.get(
    "HYPOTHESIS_PROFILE", "ci" if os.environ.get("CI") else "dev"))


@pytest.fixture(scope="session", autouse=True)
def corpus_cache(tmp_path_factory):
    """The session's own corpus disk cache directory."""
    with pytest.MonkeyPatch.context() as mp:
        path = tmp_path_factory.mktemp("corpus-cache")
        mp.setenv(diskcache.ENV_VAR, str(path))
        yield path


@pytest.fixture
def paper_example_graph() -> CSRGraph:
    """The 6-vertex graph of the paper's Figure 1.

    Vertices a-f = 0-5; serial DFS from a visits a,b,d,e,c,f and the
    lexicographic tree is a->b->d->e, with c and f hanging as in Fig 1(b).
    Adjacency (undirected): a-b, a-c, b-d, b-e, c-e, c-f, d-e.
    """
    edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (2, 5), (3, 4)]
    both = edges + [(v, u) for (u, v) in edges]
    return from_edges(6, both, name="fig1")


@pytest.fixture
def tiny_path() -> CSRGraph:
    return gen.path_graph(10)


@pytest.fixture
def tiny_tree() -> CSRGraph:
    return gen.binary_tree(5)


@pytest.fixture
def small_road() -> CSRGraph:
    return gen.road_network(800, seed=42)


@pytest.fixture
def small_social() -> CSRGraph:
    return gen.preferential_attachment(600, m=4, seed=42)


@pytest.fixture
def disconnected_graph() -> CSRGraph:
    """Two components: a triangle {0,1,2} and an edge {3,4}; 5 isolated."""
    edges = [(0, 1), (1, 2), (2, 0), (3, 4)]
    both = edges + [(v, u) for (u, v) in edges]
    return from_edges(6, both, name="disconnected")


@pytest.fixture
def dag_graph() -> CSRGraph:
    """A small DAG (diamond + tail) for NVG-DFS DAG-mode tests."""
    edges = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (1, 4)]
    return from_edges(5, edges, directed=True, name="dag")


@pytest.fixture
def tier_calls(monkeypatch):
    """Calls into each execution tier, counted by module-level spies
    (``run_batch`` looks engines up at call time, so it hits them)."""
    from collections import Counter

    from repro.core import diggerbees, frontier, swarm

    calls = Counter()
    for mod, name, tier in ((diggerbees, "run_diggerbees", "dfs_scalar"),
                            (frontier, "run_frontier", "frontier"),
                            (swarm, "run_swarm", "swarm")):
        def spy(*a, _real=getattr(mod, name), _tier=tier, **k):
            calls[_tier] += 1
            return _real(*a, **k)
        monkeypatch.setattr(mod, name, spy)
    return calls


@pytest.fixture
def lockstep_from(monkeypatch):
    """``lockstep_from(width)`` lowers ``dispatch.SWARM_MIN_WIDTH`` to
    ``width`` for one test, so mechanism tests can drive swarm batches
    (in the daemon too) at small widths."""
    from repro.core import dispatch

    def lower(width: int) -> None:
        monkeypatch.setattr(dispatch, "SWARM_MIN_WIDTH", width)
    return lower


def assert_same_visited(a: np.ndarray, b: np.ndarray) -> None:
    assert np.array_equal(np.asarray(a, bool), np.asarray(b, bool))
