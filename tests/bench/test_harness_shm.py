"""The fan-out's export-file hand-off across fan-outs.

A graph is exported once for as long as it lives, so consecutive sweeps
over the same graph objects send the same specs and every worker keeps
the copy it mapped.  ``_shutdown_pool`` unlinks the exports, and the
workers' bounded graph cache evicts without leaving a mapping open.
The traversals read that copy in place: no run keeps a second one.  No
part of the hand-off starts a resource-tracker process.
"""

import gc
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import repro
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


def _exports() -> set:
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
    """(graph name, export path) of every export made by the test."""
    made = []
    real = shm.export_csr

    def recorded(graph):
        spec = real(graph)
        made.append((graph.name, spec[shm.SPEC_KEY]))
        return spec

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
    before = _exports()
    run_sweep(METHODS, corpus, FAST, jobs=2)
    paths = [path for _, path in exports]
    assert len(paths) == 2 and all(map(os.path.exists, paths))
    harness._shutdown_pool()
    assert not any(map(os.path.exists, paths))
    assert _exports() <= before


def test_a_pool_sweep_starts_no_resource_tracker():
    """A fresh interpreter's jobs=2 sweep hands its graphs over without
    Python's resource-tracker process."""
    src = str(Path(repro.__file__).resolve().parents[1])
    script = (
        "from multiprocessing import resource_tracker\n"
        "from repro.bench.harness import BenchConfig, run_sweep\n"
        "from repro.graphs import generators as gen\n"
        "cfg = BenchConfig(sim_scale=0.05, warps_per_block=2, n_roots=2)\n"
        "run_sweep(['DiggerBees'], [gen.road_network(200, seed=1)], cfg,\n"
        "          jobs=2)\n"
        "print(resource_tracker._resource_tracker._pid)\n")
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "None"


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


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd")
def test_worker_cache_eviction_closes_every_handle(monkeypatch):
    # Each mapped export holds one file descriptor until its graph is
    # dropped, so an evicted entry must leave none open, and dropping
    # it must report no error (the memoryviews the traversals read an
    # attached graph through must not outlive their run either).
    cache = {}
    monkeypatch.setattr(shm, "_WORKER_GRAPH_CACHE", cache)
    monkeypatch.setattr(shm, "_WORKER_GRAPH_CACHE_MAX", 2)
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    graphs = [gen.road_network(60 + 10 * i, seed=i) for i in range(5)]
    specs = [shm.export_csr(g) for g in graphs]
    try:
        fds = len(os.listdir("/proc/self/fd"))
        for graph, spec in zip(graphs, specs):
            attached = shm.resolve_graph(spec)
            assert _answers(attached) == _answers(graph)
            del attached  # the cache holds the only reference
        assert len(cache) == 2
        assert len(os.listdir("/proc/self/fd")) == fds + 2
        cache.clear()
        assert len(os.listdir("/proc/self/fd")) == fds
    finally:
        cache.clear()
        for spec in specs:
            os.unlink(spec[shm.SPEC_KEY])
    assert [u.exc_value for u in unraisable] == []
