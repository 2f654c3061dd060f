"""The fan-out's shared-memory hand-off across fan-outs.

A graph is exported once for as long as it lives, so consecutive sweeps
over the same graph objects send the same specs and every worker keeps
the copy it attached.  ``_shutdown_pool`` unlinks the exports, and the
workers' bounded graph cache evicts without leaving a mapping
half-closed.
"""

import os
import sys

import pytest

from repro.bench import harness
from repro.bench.harness import BenchConfig, run_sweep
from repro.graphs import generators as gen
from repro.graphs import shm

FAST = BenchConfig(sim_scale=0.05, warps_per_block=2, n_roots=2, seed=3)
METHODS = ["DiggerBees", "Serial-DFS"]

needs_dev_shm = pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                                   reason="no /dev/shm to list")


def _linked(name: str) -> bool:
    return os.path.exists(os.path.join("/dev/shm", name))


def _segments() -> set:
    return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}


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


def test_worker_cache_eviction_closes_every_handle(monkeypatch):
    # An evicted entry must release its graph (whose arrays export the
    # mapped buffers) before its segment handles, or each handle's
    # close raises BufferError from __del__.
    cache = {}
    monkeypatch.setattr(harness, "_WORKER_GRAPH_CACHE", cache)
    monkeypatch.setattr(harness, "_WORKER_GRAPH_CACHE_MAX", 2)
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    exported = [shm.export_csr(gen.path_graph(40 + i)) for i in range(5)]
    try:
        for shared in exported:
            harness._resolve_task_graph(shared.spec)
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
