"""The fan-out's shared-memory hand-off across fan-outs.

A graph is exported once for as long as it lives, so consecutive sweeps
over the same graph objects send the same specs and every worker keeps
the copy it attached.  ``_shutdown_pool`` unlinks the exports, and the
workers' bounded graph cache evicts without leaving a mapping
half-closed.  The traversals read that copy in place: no run keeps a
second one.
"""

import gc
import os
import sys
import tracemalloc

import pytest

from repro.baselines.pdfs_cpu import run_ckl_pdfs
from repro.bench import harness
from repro.bench.harness import BenchConfig, run_sweep
from repro.core.diggerbees import run_diggerbees
from repro.graphs import generators as gen
from repro.graphs import shm
from repro.validate.reference import serial_dfs

FAST = BenchConfig(sim_scale=0.05, warps_per_block=2, n_roots=2, seed=3)
METHODS = ["DiggerBees", "Serial-DFS"]

needs_dev_shm = pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                                   reason="no /dev/shm to list")


def _linked(name: str) -> bool:
    return os.path.exists(os.path.join("/dev/shm", name))


def _segments() -> set:
    return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}


def _answers(graph) -> tuple:
    """What the three CSR readers compute from root 0."""
    dfs = run_diggerbees(graph, 0)
    ckl = run_ckl_pdfs(graph, 0)
    ref = serial_dfs(graph, 0)
    return (dfs.cycles, dfs.traversal.parent.tolist(), ckl.cycles,
            ckl.traversal.visited.tolist(), ref.order.tolist(),
            ref.edges_traversed)


@pytest.fixture
def corpus():
    return [
        gen.road_network(300, seed=22).with_name("road_tiny"),
        gen.preferential_attachment(300, m=4, seed=23).with_name("pa_tiny"),
    ]


@pytest.fixture
def exports(monkeypatch):
    """(graph name, segment names) of every export made by the test."""
    made = []
    real = shm.export_csr

    def recorded(graph):
        shared = real(graph)
        made.append((graph.name,
                     [seg[0] for seg in shared.spec["segments"]]))
        return shared

    monkeypatch.setattr(shm, "export_csr", recorded)
    yield made
    harness._shutdown_pool()


def test_consecutive_sweeps_export_each_graph_once(corpus, exports):
    serial = run_sweep(METHODS, corpus, FAST, jobs=1)
    first = run_sweep(METHODS, corpus, FAST, jobs=2)
    second = run_sweep(METHODS, corpus, FAST, jobs=2)
    assert first == serial and second == serial
    assert sorted(name for name, _ in exports) == ["pa_tiny", "road_tiny"]


@needs_dev_shm
def test_shutdown_pool_unlinks_every_export(corpus, exports):
    before = _segments()
    run_sweep(METHODS, corpus, FAST, jobs=2)
    names = [n for _, segments in exports for n in segments]
    assert len(names) == 4 and all(map(_linked, names))
    harness._shutdown_pool()
    assert not any(map(_linked, names))
    assert _segments() <= before


def test_traversals_keep_no_copy_of_the_graph():
    _answers(gen.road_network(200, seed=2))  # warm-up
    graph = gen.road_network(3000, seed=1)
    gc.collect()
    tracemalloc.start()
    try:
        _answers(graph)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < (graph.row_ptr.nbytes + graph.column_idx.nbytes) / 4


def test_worker_cache_eviction_closes_every_handle(monkeypatch):
    # An evicted entry must release its graph (whose arrays export the
    # mapped buffers) before its segment handles, or each handle's
    # close raises BufferError from __del__.  So must the memoryviews
    # the traversals read an attached graph through.
    cache = {}
    monkeypatch.setattr(harness, "_WORKER_GRAPH_CACHE", cache)
    monkeypatch.setattr(harness, "_WORKER_GRAPH_CACHE_MAX", 2)
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    graphs = [gen.road_network(60 + 10 * i, seed=i) for i in range(5)]
    exported = [shm.export_csr(g) for g in graphs]
    try:
        for graph, shared in zip(graphs, exported):
            attached = harness._resolve_task_graph(shared.spec)
            assert _answers(attached) == _answers(graph)
            del attached  # the cache holds the only reference
        assert len(cache) == 2
    finally:
        while cache:
            _, (graph, handles) = cache.popitem()
            del graph
            for h in handles:
                h.close()
        for shared in exported:
            shared.close()
    assert [u.exc_value for u in unraisable] == []
