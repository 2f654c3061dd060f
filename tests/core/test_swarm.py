"""Swarm engine contract: every lane bit-identical to single-root
run_frontier — visited, levels, min-parent tree, AND the execution
profile (pushes/pulls/edges_scanned) that the Beamer switch drives."""

import numpy as np
import pytest

from repro.core.frontier import FrontierConfig, run_frontier
from repro.core.swarm import run_swarm
from repro.graphs import generators as gen
from repro.validate.tree import validate_traversal

GRAPHS = {
    "path": lambda: gen.path_graph(300),
    "star": lambda: gen.star_graph(200),
    "btree": lambda: gen.binary_tree(8),
    "road": lambda: gen.road_network(n_vertices=400, seed=5),
    "pa": lambda: gen.preferential_attachment(n_vertices=400, m=4, seed=6),
    "ws": lambda: gen.small_world(400, k=6, rewire_p=0.1, seed=7),
    "grid": lambda: gen.grid2d(18, 18),
    "starmesh": lambda: gen.star_mesh(12, leaves_per_hub=9, seed=8),
    "layers": lambda: gen.wide_layers(60, 5, seed=9),
    "skew": lambda: gen.skewed_tree(400, seed=10),
    "rmat": lambda: gen.rmat(8, edge_factor=6, seed=11),
}


@pytest.fixture(params=sorted(GRAPHS), scope="module")
def graph(request):
    return GRAPHS[request.param]()


def _roots_for(graph, k=6):
    n = graph.n_vertices
    roots = sorted({int(r) for r in
                    np.linspace(0, n - 1, num=min(k, n), dtype=np.int64)})
    # A duplicate lane exercises lane independence.
    return roots + [roots[0]]


def assert_lane_identical(swarm_res, single_res):
    assert np.array_equal(swarm_res.traversal.visited,
                          single_res.traversal.visited)
    assert np.array_equal(swarm_res.traversal.parent,
                          single_res.traversal.parent)
    assert np.array_equal(swarm_res.level, single_res.level)
    assert swarm_res.n_levels == single_res.n_levels
    assert swarm_res.pushes == single_res.pushes
    assert swarm_res.pulls == single_res.pulls
    assert swarm_res.edges_scanned == single_res.edges_scanned
    assert swarm_res.traversal.edges_traversed == \
        single_res.traversal.edges_traversed
    assert swarm_res.traversal.root == single_res.traversal.root


def test_every_lane_matches_single_root(graph):
    roots = _roots_for(graph)
    batch = run_swarm(graph, roots)
    assert len(batch) == len(roots)
    for root, res in zip(roots, batch):
        single = run_frontier(graph, root)
        assert_lane_identical(res, single)
        validate_traversal(graph, res.traversal)


@pytest.mark.parametrize("mode", ["push", "pull"])
def test_forced_modes_match_single_root(graph, mode):
    cfg = FrontierConfig(mode=mode)
    roots = _roots_for(graph, k=4)
    batch = run_swarm(graph, roots, config=cfg)
    for root, res in zip(roots, batch):
        assert_lane_identical(res, run_frontier(graph, root, config=cfg))


def test_pull_levels_sort_only_unsorted_rows(tmp_path, monkeypatch):
    """A disk-cache hit keeps none of the generator's metadata; pull
    levels read sortedness off the arrays and skip the lexsort on a
    sorted graph, while an unsorted one still gets it."""
    from repro.bench.micro import MICRO_CASES
    from repro.graphs import diskcache
    from repro.graphs.csr import from_edges

    monkeypatch.setenv(diskcache.ENV_VAR, str(tmp_path))
    build = MICRO_CASES[0][1]
    build()
    warm = build()
    shuffled = from_edges(warm.n_vertices, warm.edge_array()[::-1],
                          sort_neighbors=False)
    assert not shuffled.neighbors_sorted
    real = np.lexsort
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    cfg = FrontierConfig(mode="pull")
    for graph, sorts in ((warm, False), (shuffled, True)):
        roots = _roots_for(graph, k=4)
        monkeypatch.setattr(np, "lexsort", spy)
        batch = run_swarm(graph, roots, config=cfg)
        monkeypatch.setattr(np, "lexsort", real)
        assert bool(calls) is sorts
        calls.clear()
        for root, res in zip(roots, batch):
            assert_lane_identical(res, run_frontier(graph, root, config=cfg))


def test_mixed_direction_lanes():
    """Lanes must switch direction independently: a hub root goes
    pull-heavy while a rim root of the same graph stays pushing longer;
    both must still match their single-root runs."""
    g = gen.star_mesh(12, leaves_per_hub=9, seed=8)
    roots = [0, g.n_vertices - 1, 1, g.n_vertices // 2]
    batch = run_swarm(g, roots)
    profiles = set()
    for root, res in zip(roots, batch):
        single = run_frontier(g, root)
        assert_lane_identical(res, single)
        profiles.add((res.pushes, res.pulls))
    # The corpus pick guarantees at least two distinct switch profiles,
    # so the per-lane (not global) Beamer switch is actually exercised.
    assert len(profiles) >= 2


def test_lanes_retire_at_different_depths():
    """A lane on a short component retires while deep lanes continue."""
    from repro.graphs.csr import from_edges

    edges = [(i, i + 1) for i in range(49)] + [(60, 61)]
    both = edges + [(v, u) for u, v in edges]
    g = from_edges(70, np.array(both, dtype=np.int64))
    roots = [0, 60, 65, 25]  # long path, 2-vertex component, isolated, mid
    batch = run_swarm(g, roots)
    for root, res in zip(roots, batch):
        assert_lane_identical(res, run_frontier(g, root))
    assert batch[2].n_levels == 1          # isolated root: root-only level
    assert batch[1].n_levels == 2
    assert batch[0].n_levels == 50


def test_directed_runs_push_only():
    g = gen.citation_graph(120, seed=3, symmetrize=False)
    batch = run_swarm(g, [0, 5, 11], config=FrontierConfig(mode="pull"))
    for root, res in zip([0, 5, 11], batch):
        assert res.pulls == 0
        assert_lane_identical(
            res, run_frontier(g, root, config=FrontierConfig(mode="pull")))


def test_batch_of_one_and_empty_batch():
    g = gen.road_network(n_vertices=200, seed=4)
    only = run_swarm(g, [7])[0]
    assert_lane_identical(only, run_frontier(g, 7))
    assert run_swarm(g, []) == []


def test_root_validation():
    g = gen.path_graph(10)
    with pytest.raises(Exception):
        run_swarm(g, [0, 99])


def test_amortized_seconds_shared_across_lanes():
    g = gen.star_mesh(10, leaves_per_hub=7, seed=2)
    batch = run_swarm(g, [0, 1, 2, 3])
    secs = {res.seconds for res in batch}
    assert len(secs) == 1
    assert batch[0].seconds >= 0.0
    assert batch[0].mteps >= 0.0
