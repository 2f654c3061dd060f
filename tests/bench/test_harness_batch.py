"""Batch coverage for the harness fan-out (processes x batches).

The contract: ``batch`` is purely an execution knob.  For any
``(jobs, batch)`` combination the sweep returns positionally identical
samples, because both lockstep engines are bit-exact per run and the
batched fan-out reassembles samples at their original task indices.
"""

import pytest

from repro.bench.harness import BenchConfig, run_graph, run_sweep
from repro.graphs import generators as gen


@pytest.fixture(scope="module")
def graphs():
    return [gen.road_network(300, seed=3), gen.delaunay_mesh(200, seed=4)]


@pytest.fixture(scope="module")
def scalar_sweep(graphs):
    cfg = BenchConfig(n_roots=4)
    return run_sweep(["DiggerBees", "Serial-DFS"], graphs, cfg)


@pytest.mark.parametrize("batch", [2, 3, 16])
def test_sweep_batch_invariant_serial(graphs, scalar_sweep, batch):
    cfg = BenchConfig(n_roots=4)
    out = run_sweep(["DiggerBees", "Serial-DFS"], graphs, cfg, batch=batch)
    assert out == scalar_sweep


def test_sweep_batch_composes_with_jobs(graphs, scalar_sweep):
    cfg = BenchConfig(n_roots=4, jobs=2, batch=2)
    out = run_sweep(["DiggerBees", "Serial-DFS"], graphs, cfg)
    assert out == scalar_sweep


def test_run_graph_batch_config_default(graphs):
    """``cfg.batch`` is the default; the explicit argument overrides."""
    cfg = BenchConfig(n_roots=3)
    ref = run_graph(["DiggerBees"], graphs[0], cfg)
    via_cfg = run_graph(["DiggerBees"], graphs[0], cfg.with_(batch=4))
    via_arg = run_graph(["DiggerBees"], graphs[0], cfg, batch=4)
    assert via_cfg == ref
    assert via_arg == ref


def test_batch_one_root_degenerates_to_scalar(graphs):
    """A single root cannot form a shard; the scalar path runs."""
    cfg = BenchConfig(n_roots=1)
    ref = run_graph(["DiggerBees"], graphs[0], cfg)
    out = run_graph(["DiggerBees"], graphs[0], cfg, batch=8)
    assert out == ref


def test_batch_mixed_methods_only_shards_diggerbees(graphs, scalar_sweep):
    """Non-DiggerBees methods ride along as scalar units, untouched."""
    cfg = BenchConfig(n_roots=4)
    out = run_sweep(["Serial-DFS", "DiggerBees"], graphs, cfg, batch=4)
    for gname, per_method in out.items():
        for method, samples in per_method.items():
            assert samples == scalar_sweep[gname][method], (gname, method)


def test_frontier_samples_run_as_one_swarm(graphs, tier_calls):
    cfg = BenchConfig(n_roots=4)
    scalar = run_graph(["Frontier"], graphs[0], cfg)["Frontier"]
    tier_calls.clear()
    out = run_graph(["Frontier"], graphs[0], cfg, batch=4)["Frontier"]
    assert tier_calls == {"swarm": 1}
    # Lanes are bit-identical; only the measured seconds amortize.
    assert [(s.root, s.edges_traversed) for s in out] == \
        [(s.root, s.edges_traversed) for s in scalar]
