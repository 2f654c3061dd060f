"""Routing rules of repro.core.dispatch.choose_backend, pinned."""

import math

import pytest

from repro.bench.micro import MICRO_CASES
from repro.check.differential import _bfs_diff, _schedule_diff
from repro.core import diggerbees, frontier
from repro.core.config import DiggerBeesConfig
from repro.core.dispatch import (
    BACKEND_CHOICES,
    BACKENDS,
    DFS_MIN_LEVELS_PER_VERTEX,
    SWARM_MIN_WIDTH,
    BackendDecision,
    choose_backend,
    graph_regime,
    run_batch,
)
from repro.errors import ReproError, SimulationError
from repro.graphs import generators as gen
from repro.graphs.csr import from_edges

import numpy as np


def test_choice_constants():
    assert BACKENDS == ("dfs", "frontier")
    assert BACKEND_CHOICES == ("auto", "dfs", "frontier")
    assert SWARM_MIN_WIDTH == 16
    assert DFS_MIN_LEVELS_PER_VERTEX == 0.18


@pytest.mark.parametrize("backend", BACKENDS)
def test_forced_backend_wins_regardless_of_regime(backend):
    # A forced backend ignores the regime and the overrides.
    for regime in ("narrow", "wide", None):
        d = choose_backend(requested=backend, regime=regime,
                           overrides={"n_blocks": 2})
        assert d == BackendDecision(backend=backend,
                                    regime=regime or "unknown",
                                    reason="forced")


def test_forced_backend_needs_no_graph():
    # The serve layer's forced knobs must never pay the regime BFS.
    assert choose_backend(requested="dfs").backend == "dfs"
    assert choose_backend(requested="frontier").backend == "frontier"


def test_auto_with_overrides_is_config_pinned():
    # Engine-config overrides ask for a specific DFS simulation;
    # the frontier engines cannot answer those queries.
    d = choose_backend(requested="auto", regime="wide",
                       overrides={"steal_policy": "random"})
    assert d.backend == "dfs"
    assert d.reason == "config-pinned"
    # ... but an *empty* overrides mapping routes by regime.
    d = choose_backend(requested="auto", regime="wide", overrides={})
    assert d.backend == "frontier"
    assert d.reason == "regime"


@pytest.mark.parametrize("regime,backend", [
    ("wide", "frontier"),
    ("narrow", "dfs"),
])
def test_auto_routes_by_regime(regime, backend):
    d = choose_backend(requested="auto", regime=regime)
    assert d.backend == backend
    assert d.regime == regime
    assert d.reason == "regime"


def test_auto_profiles_the_graph_when_no_regime_given():
    wide = choose_backend(gen.star_graph(400), requested="auto")
    assert wide.backend == "frontier"
    assert wide.regime == "wide"
    narrow = choose_backend(gen.path_graph(400), requested="auto")
    assert narrow.backend == "dfs"
    assert narrow.regime == "narrow"


def test_precomputed_regime_short_circuits_the_probe():
    # A supplied regime must win over what the graph would profile as.
    d = choose_backend(gen.path_graph(400), requested="auto",
                       regime="wide")
    assert d.backend == "frontier"


@pytest.mark.parametrize("case", MICRO_CASES,
                         ids=[name for name, _, _ in MICRO_CASES])
def test_micro_graphs_route_to_frontier(case):
    # serve-interactive's payloads are frontier payloads on every micro
    # graph; a routing change that moves one would change them.
    _, build, _ = case
    d = choose_backend(build(), requested="auto")
    assert d == BackendDecision("frontier", "wide", "regime")


@pytest.mark.parametrize("build", [
    lambda: gen.path_graph(6000),
    lambda: gen.skewed_tree(6000, skew=0.999, seed=43),
], ids=["path", "skewed-tree-0.999"])
def test_path_like_graphs_route_to_dfs(build):
    # Thousands of near-singleton BFS levels: the fused DFS loop beats
    # run_frontier 2.3-3.9x on a lone query (docs/PERFORMANCE.md).
    d = choose_backend(build(), requested="auto")
    assert d == BackendDecision("dfs", "narrow", "regime")


def _levels_graph(n, levels):
    """``n`` vertices whose BFS from 0 has exactly ``levels`` levels:
    a path 0..levels-1 plus pendant leaves on vertex 0."""
    edges = [(i, i + 1) for i in range(levels - 1)]
    edges += [(0, v) for v in range(levels, n)]
    edges += [(v, u) for u, v in edges]
    return from_edges(n, np.array(edges, dtype=np.int64))


def test_regime_threshold_is_inclusive():
    n = 500
    at = math.ceil(DFS_MIN_LEVELS_PER_VERTEX * n)
    assert graph_regime(_levels_graph(n, at)) == "narrow"
    assert graph_regime(_levels_graph(n, at - 1)) == "wide"


def test_batch_hint_does_not_move_the_decision():
    # Routing prices every query at width 1, whatever may coalesce.
    for g in (gen.path_graph(300), gen.star_mesh(12, leaves_per_hub=9,
                                                 seed=8)):
        assert choose_backend(g, batch_hint=1) == \
            choose_backend(g, batch_hint=64)


# ---------------------------------------------------------------------------
# Degenerate graphs: routed explicitly, never through the classifier.
# ---------------------------------------------------------------------------

def _isolated_graph(n):
    return from_edges(n, np.empty((0, 2), dtype=np.int64))


@pytest.mark.parametrize("build", [
    lambda: gen.path_graph(1),                      # single vertex
    lambda: _isolated_graph(1),                     # single, zero-edge
    lambda: _isolated_graph(64),                    # all-isolated
    lambda: _isolated_graph(0),                     # empty graph
], ids=["single-vertex", "single-isolated", "all-isolated", "empty"])
def test_degenerate_graphs_route_explicitly(build):
    g = build()
    d = choose_backend(g, requested="auto")
    assert d == BackendDecision(backend="frontier", regime="degenerate",
                                reason="degenerate")
    # ... even when the caller supplies a (stale) regime.
    d = choose_backend(g, requested="auto", regime="narrow")
    assert d.reason == "degenerate"
    assert d.backend == "frontier"


def test_degenerate_never_probes_the_regime(monkeypatch):
    import repro.core.dispatch as dispatch

    def boom(*a, **k):  # pragma: no cover - failure path
        raise AssertionError("regime probe ran on a degenerate graph")

    monkeypatch.setattr(dispatch, "graph_regime", boom)
    d = choose_backend(_isolated_graph(32), requested="auto")
    assert d.reason == "degenerate"


def test_forced_and_pinned_still_beat_degenerate():
    g = _isolated_graph(8)
    assert choose_backend(g, requested="dfs").reason == "forced"
    d = choose_backend(g, requested="auto", overrides={"n_blocks": 2})
    assert d.reason == "config-pinned"


def test_invalid_requested_backend_raises():
    # "swarm" is a tier of the frontier family, not a backend.
    for bad in ("gpu", "", "swarm"):
        with pytest.raises(SimulationError):
            choose_backend(requested=bad)


def test_auto_without_graph_or_regime_raises():
    with pytest.raises(SimulationError):
        choose_backend(requested="auto")


# ---------------------------------------------------------------------------
# run_batch: the one scalar-vs-lockstep choice.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("width", [1, 2, 5, "min-1", "min"])
@pytest.mark.parametrize("family", BACKENDS)
def test_run_batch_picks_the_tier_by_width(family, width, tier_calls):
    # The production widths: a frontier batch of SWARM_MIN_WIDTH is one
    # swarm call; narrower ones, and DFS batches of any width, hit only
    # the scalar spies.
    lo = SWARM_MIN_WIDTH
    width = {"min-1": lo - 1, "min": lo}.get(width, width)
    graph = gen.road_network(150, seed=2)
    tasks = [(7 * i % graph.n_vertices,
              DiggerBeesConfig(n_blocks=2, warps_per_block=2, seed=i))
             for i in range(width)]
    if family == "dfs":
        refs = [diggerbees.run_diggerbees(graph, r, config=c)
                for r, c in tasks]
        diff, scalar = _schedule_diff, "dfs_scalar"
    else:
        refs = [frontier.run_frontier(graph, r) for r, _ in tasks]
        diff, scalar = _bfs_diff, "frontier"
    tier_calls.clear()
    out = run_batch(graph, family, tasks)
    assert tier_calls == ({"swarm": 1} if family == "frontier" and width >= lo
                          else {scalar: width})
    assert len(out) == width
    assert [diff(ref, got) for ref, got in zip(refs, out)] == [None] * width


def test_run_batch_runs_ineligible_or_mixed_configs_scalar(tier_calls,
                                                          lockstep_from):
    # A DFS batch runs task by task, each task on its own config, even
    # at a width the swarm would take.
    lockstep_from(2)
    graph = gen.road_network(150, seed=2)
    base = DiggerBeesConfig(n_blocks=2, warps_per_block=2)
    for other in (base.with_overrides(n_blocks=4),
                  base.with_overrides(two_level=False)):
        tasks = [(0, base), (3, other)]
        refs = [diggerbees.run_diggerbees(graph, r, config=c)
                for r, c in tasks]
        tier_calls.clear()
        out = run_batch(graph, "dfs", tasks)
        assert tier_calls == {"dfs_scalar": 2}
        assert [_schedule_diff(ref, got)
                for ref, got in zip(refs, out)] == [None, None]


def test_run_batch_settles_a_lockstep_error_on_its_task(tier_calls,
                                                        lockstep_from):
    lockstep_from(2)
    # A long path and a separate triangle: under one small cycle budget
    # the path's run is over budget and the triangle's is not.
    n = 300
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(n, n + 1), (n + 1, n + 2), (n + 2, n)]
    graph = from_edges(n + 3, np.array(edges, dtype=np.int64))
    cfg = DiggerBeesConfig(n_blocks=2, warps_per_block=2)
    small = diggerbees.run_diggerbees(graph, n, config=cfg).cycles
    cfg = cfg.with_overrides(max_cycles=2 * small)
    with pytest.raises(SimulationError):
        diggerbees.run_diggerbees(graph, 0, config=cfg)
    ref = diggerbees.run_diggerbees(graph, n, config=cfg)

    tier_calls.clear()
    big_out, small_out = run_batch(graph, "dfs", [(0, cfg), (n, cfg)])
    assert tier_calls == {"dfs_scalar": 2}
    assert isinstance(big_out, SimulationError)
    assert "max_cycles" in str(big_out)
    assert _schedule_diff(ref, small_out) is None

    # A swarm that raises is re-run task by task, so the error lands on
    # the out-of-range root alone.
    ref = frontier.run_frontier(graph, n)
    tier_calls.clear()
    bad_out, good_out = run_batch(graph, "frontier",
                                  [(10**6, None), (n, None)])
    assert tier_calls == {"swarm": 1, "frontier": 2}
    assert isinstance(bad_out, ReproError)
    assert _bfs_diff(ref, good_out) is None


def test_run_batch_rejects_unknown_backends():
    with pytest.raises(SimulationError):
        run_batch(gen.path_graph(4), "swarm", [(0, None)])
