"""Routing rules of repro.core.dispatch.choose_backend, pinned.

Regime-proxy tests pass ``calibration={}`` (an empty table) so they
stay deterministic even when a recorded calibration artifact is
checked in under ``benchmarks/``; the calibrated path gets its own
explicit tables below.
"""

import json

import pytest

from repro.check.differential import _bfs_diff, _schedule_diff
from repro.core import diggerbees, frontier
from repro.core.config import DiggerBeesConfig
from repro.core.dispatch import (
    BACKEND_CHOICES,
    BACKENDS,
    LOCKSTEP_MIN_WIDTH,
    BackendDecision,
    choose_backend,
    graph_regime,
    load_calibration,
    run_batch,
)
from repro.errors import ReproError, SimulationError
from repro.graphs import generators as gen
from repro.graphs.csr import from_edges

import numpy as np


def test_choice_constants():
    assert BACKENDS == ("dfs", "frontier")
    assert BACKEND_CHOICES == ("auto", "dfs", "frontier")
    assert LOCKSTEP_MIN_WIDTH == {"dfs": 256, "frontier": 16}


@pytest.mark.parametrize("backend", BACKENDS)
def test_forced_backend_wins_regardless_of_regime(backend):
    # A forced backend ignores the regime, overrides, and calibration.
    for regime in ("deep", "shallow", "mid", None):
        d = choose_backend(requested=backend, regime=regime,
                           overrides={"n_blocks": 2},
                           calibration={"regimes": {"shallow":
                                                    {"dfs": 1e-9}}})
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
    d = choose_backend(requested="auto", regime="shallow",
                       overrides={"steal_policy": "random"})
    assert d.backend == "dfs"
    assert d.reason == "config-pinned"
    # ... but an *empty* overrides mapping routes by regime.
    d = choose_backend(requested="auto", regime="shallow", overrides={},
                       calibration={})
    assert d.backend == "frontier"
    assert d.reason == "regime"


@pytest.mark.parametrize("regime,backend", [
    ("shallow", "frontier"),
    ("deep", "dfs"),
    ("mid", "dfs"),
])
def test_auto_routes_by_regime(regime, backend):
    d = choose_backend(requested="auto", regime=regime, calibration={})
    assert d.backend == backend
    assert d.regime == regime
    assert d.reason == "regime"


def test_auto_profiles_the_graph_when_no_regime_given():
    shallow = choose_backend(gen.star_graph(400), requested="auto",
                             calibration={})
    assert shallow.backend == "frontier"
    assert shallow.regime == "shallow"
    deep = choose_backend(gen.path_graph(400), requested="auto",
                          calibration={})
    assert deep.backend == "dfs"
    assert deep.regime == "deep"


def test_precomputed_regime_short_circuits_the_probe():
    # A supplied regime must win over what the graph would profile as.
    d = choose_backend(gen.path_graph(400), requested="auto",
                       regime="shallow", calibration={})
    assert d.backend == "frontier"


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
    d = choose_backend(g, requested="auto", calibration={})
    assert d == BackendDecision(backend="frontier", regime="degenerate",
                                reason="degenerate")
    # ... even when the caller supplies a (stale) regime, and even when
    # a calibration table would have preferred another backend.
    d = choose_backend(g, requested="auto", regime="deep",
                       calibration={"regimes": {"deep": {"dfs": 1e-9}}})
    assert d.reason == "degenerate"
    assert d.backend == "frontier"


def test_degenerate_never_probes_the_regime(monkeypatch):
    import repro.core.dispatch as dispatch

    def boom(*a, **k):  # pragma: no cover - failure path
        raise AssertionError("regime probe ran on a degenerate graph")

    monkeypatch.setattr(dispatch, "graph_regime", boom)
    d = choose_backend(_isolated_graph(32), requested="auto",
                       calibration={})
    assert d.reason == "degenerate"


def test_forced_and_pinned_still_beat_degenerate():
    g = _isolated_graph(8)
    assert choose_backend(g, requested="dfs").reason == "forced"
    d = choose_backend(g, requested="auto", overrides={"n_blocks": 2})
    assert d.reason == "config-pinned"


# ---------------------------------------------------------------------------
# Calibrated routing: measured cost table beats the regime proxy.
# ---------------------------------------------------------------------------

CAL = {
    "version": 1,
    "regimes": {
        "shallow": {"dfs": 5e-3, "frontier": 4e-4, "swarm": 5e-5},
        "deep": {"dfs": 2e-4, "frontier": 9e-3, "swarm": 3e-3},
        "mid": {"dfs": 1e-3, "frontier": 8e-4, "swarm": 2e-4},
    },
}


def test_calibrated_swarm_needs_a_batch():
    # The swarm row prices the frontier family only from its lockstep
    # width up; narrower hints pay the single-root frontier row.
    table = {"regimes": {"shallow": {"dfs": 1e-3, "frontier": 5e-3,
                                     "swarm": 1e-4}}}
    lo = LOCKSTEP_MIN_WIDTH["frontier"]
    for hint in (1, lo - 1):
        d = choose_backend(requested="auto", regime="shallow",
                           batch_hint=hint, calibration=table)
        assert d == BackendDecision("dfs", "shallow", "calibrated")
    d = choose_backend(requested="auto", regime="shallow",
                       batch_hint=lo, calibration=table)
    assert d == BackendDecision("frontier", "shallow", "calibrated")


#: Family the previous three-backend router named at every batch hint
#: in (1, 2, 64), its "swarm" read as "frontier": folding swarm into the
#: frontier family must not move any routing decision.
PARENT_FAMILY = {
    "committed": {"deep": "frontier", "mid": "frontier",
                  "shallow": "frontier"},
    "CAL": {"deep": "dfs", "mid": "frontier", "shallow": "frontier"},
    "none": {"deep": "dfs", "mid": "dfs", "shallow": "frontier"},
}


@pytest.mark.parametrize("table", sorted(PARENT_FAMILY))
@pytest.mark.parametrize("regime", ["deep", "mid", "shallow"])
@pytest.mark.parametrize("batch_hint", [1, 2, 64])
def test_routing_names_the_same_family_as_before(table, regime,
                                                  batch_hint):
    calibration = {"committed": load_calibration(), "CAL": CAL,
                   "none": {}}[table]
    d = choose_backend(requested="auto", regime=regime,
                       batch_hint=batch_hint, calibration=calibration)
    assert d.backend == PARENT_FAMILY[table][regime]
    assert d.reason == ("regime" if table == "none" else "calibrated")


def test_calibration_falls_back_to_proxy_when_regime_missing():
    table = {"regimes": {"deep": {"dfs": 1e-4}}}
    d = choose_backend(requested="auto", regime="shallow",
                       calibration=table)
    assert d.reason == "regime"
    assert d.backend == "frontier"
    # Unknown backends and non-positive costs are ignored.
    junk = {"regimes": {"shallow": {"gpu": 1e-9, "frontier": 0.0}}}
    d = choose_backend(requested="auto", regime="shallow",
                       calibration=junk)
    assert d.reason == "regime"


def test_load_calibration_missing_and_corrupt(tmp_path):
    assert load_calibration(tmp_path / "nope.json") is None
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert load_calibration(bad) is None
    not_table = tmp_path / "scalar.json"
    not_table.write_text("42")
    assert load_calibration(not_table) is None


def test_load_calibration_reads_and_routes(tmp_path):
    art = tmp_path / "calibration_routing.json"
    art.write_text(json.dumps(CAL))
    table = load_calibration(art)
    assert table["regimes"]["shallow"]["swarm"] == 5e-5
    d = choose_backend(requested="auto", regime="shallow", batch_hint=64,
                       calibration=table)
    assert d.backend == "frontier"


def test_load_calibration_hot_reloads_on_rewrite(tmp_path):
    art = tmp_path / "calibration_routing.json"
    art.write_text(json.dumps(CAL))
    assert load_calibration(art)["regimes"]["deep"]["dfs"] == 2e-4
    import os
    updated = {"regimes": {"deep": {"dfs": 7e-7}}}
    art.write_text(json.dumps(updated))
    # Force a distinct mtime even on coarse filesystem clocks.
    os.utime(art, ns=(1, 10**18))
    assert load_calibration(art)["regimes"]["deep"]["dfs"] == 7e-7


def test_invalid_requested_backend_raises():
    # "swarm" is a tier of the frontier family, not a backend.
    for bad in ("gpu", "", "swarm"):
        with pytest.raises(SimulationError):
            choose_backend(requested=bad)


def test_auto_without_graph_or_regime_raises():
    with pytest.raises(SimulationError):
        choose_backend(requested="auto")


def test_graph_regime_matches_properties_regime():
    from repro.graphs.properties import regime

    g = gen.star_mesh(12, leaves_per_hub=9, seed=8)
    assert graph_regime(g) == regime(g, 0)


# ---------------------------------------------------------------------------
# run_batch: the one scalar-vs-lockstep choice.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("width", [1, 2, 5, "min-1", "min"])
@pytest.mark.parametrize("family", BACKENDS)
def test_run_batch_picks_the_tier_by_width(family, width, tier_calls):
    # The production widths: narrower batches hit only the scalar spies,
    # a batch of the family's LOCKSTEP_MIN_WIDTH one lockstep call.
    lo = LOCKSTEP_MIN_WIDTH[family]
    width = {"min-1": lo - 1, "min": lo}.get(width, width)
    graph = gen.road_network(150, seed=2)
    tasks = [(7 * i % graph.n_vertices,
              DiggerBeesConfig(n_blocks=2, warps_per_block=2, seed=i))
             for i in range(width)]
    if family == "dfs":
        refs = [diggerbees.run_diggerbees(graph, r, config=c)
                for r, c in tasks]
        diff, scalar, lockstep = _schedule_diff, "dfs_scalar", "hive"
    else:
        refs = [frontier.run_frontier(graph, r) for r, _ in tasks]
        diff, scalar, lockstep = _bfs_diff, "frontier", "swarm"
    tier_calls.clear()
    out = run_batch(graph, family, tasks)
    assert tier_calls == ({lockstep: 1} if width >= lo
                          else {scalar: width})
    assert len(out) == width
    assert [diff(ref, got) for ref, got in zip(refs, out)] == [None] * width


def test_run_batch_runs_ineligible_or_mixed_configs_scalar(tier_calls):
    graph = gen.road_network(150, seed=2)
    base = DiggerBeesConfig(n_blocks=2, warps_per_block=2)
    for other in (base.with_overrides(n_blocks=4),      # incompatible
                  base.with_overrides(fastpath=False)):  # ineligible
        tier_calls.clear()
        run_batch(graph, "dfs", [(0, base), (3, other)])
        assert tier_calls == {"dfs_scalar": 2}


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
    assert tier_calls == {"hive": 1, "dfs_scalar": 2}
    assert isinstance(big_out, SimulationError)
    assert "max_cycles" in str(big_out)
    assert _schedule_diff(ref, small_out) is None


def test_run_batch_reports_the_tier_that_answered(lockstep_from):
    # stats["tier"] names the tier whose results come back, so a
    # lockstep batch settled task by task never reads as lockstep.
    lockstep_from(2)
    graph = gen.road_network(150, seed=2)
    base = DiggerBeesConfig(n_blocks=2, warps_per_block=2)
    cases = [
        ("dfs", [(0, base), (3, base)], "hive"),
        ("frontier", [(0, None), (3, None)], "swarm"),
        ("dfs", [(0, base)], "scalar"),                     # too narrow
        ("frontier", [(0, None)], "scalar"),
        ("dfs", [(0, base), (3, base.with_overrides(fastpath=False))],
         "scalar"),                                         # ineligible
        ("dfs", [(0, base), (3, base.with_overrides(n_blocks=4))],
         "scalar"),                                         # incompatible
        ("frontier", [(0, None), (10**6, None)], "scalar"),  # lockstep error
    ]
    for family, tasks, tier in cases:
        stats = {}
        out = run_batch(graph, family, tasks, stats=stats)
        assert stats["tier"] == tier, (family, tasks)
        assert len(out) == len(tasks)
    assert isinstance(out[1], ReproError) and \
        not isinstance(out[0], ReproError)


def test_run_batch_rejects_unknown_backends():
    with pytest.raises(SimulationError):
        run_batch(gen.path_graph(4), "swarm", [(0, None)])
