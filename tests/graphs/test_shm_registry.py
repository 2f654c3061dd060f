"""The get-or-export registry: one export file per live graph.

``repro.graphs.shm.shared_spec`` exports a graph object on its first
use and hands out the same spec until the export is released: when the
graph is collected, by ``release_shared``, or at exit, and only ever by
the process that exported it.
"""

import gc
import multiprocessing
import os
import sys
import threading
import time

import pytest

from repro.graphs import generators as gen
from repro.graphs import shm


def _is_linked(spec) -> bool:
    return os.path.exists(spec[shm.SPEC_KEY])


@pytest.fixture
def graph():
    return gen.road_network(120, seed=5)


def test_same_graph_same_export(graph):
    spec = shm.shared_spec(graph)
    assert shm.shared_spec(graph) is spec
    other = gen.road_network(120, seed=5)        # equal, not the same
    assert shm.shared_spec(other)[shm.SPEC_KEY] != spec[shm.SPEC_KEY]


def test_collecting_the_graph_unlinks_its_export():
    graph = gen.road_network(120, seed=5)     # the only reference
    spec = shm.shared_spec(graph)
    assert _is_linked(spec)
    del graph
    gc.collect()
    assert not _is_linked(spec)


def test_release_shared_unlinks_and_the_next_use_exports_again(graph):
    spec = shm.shared_spec(graph)
    shm.release_shared()
    assert not _is_linked(spec)
    again = shm.shared_spec(graph)
    assert again[shm.SPEC_KEY] != spec[shm.SPEC_KEY] and _is_linked(again)


def test_concurrent_first_uses_export_once(graph, monkeypatch):
    exported = []
    real = shm.export_csr

    def slow_export(g):
        exported.append(g.name)
        time.sleep(0.05)           # hold the first export open
        return real(g)

    monkeypatch.setattr(shm, "export_csr", slow_export)
    n_threads = 8                  # more threads than cores
    start = threading.Barrier(n_threads)
    specs = []

    def first_use():
        start.wait(timeout=10)
        specs.append(shm.shared_spec(graph))

    threads = [threading.Thread(target=first_use) for _ in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(exported) == 1
    assert len(specs) == n_threads and all(s is specs[0] for s in specs)


def test_a_forked_child_never_unlinks_the_parents_export(graph):
    spec = shm.shared_spec(graph)
    child = multiprocessing.get_context("fork").Process(
        target=shm.release_shared)
    child.start()
    child.join(timeout=30)
    assert child.exitcode == 0
    assert _is_linked(spec)
