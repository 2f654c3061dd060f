"""Failure-path coverage for the shared-memory graph hand-off.

``repro.graphs.shm`` is best-effort by design: where POSIX shared
memory is unavailable (permissions, exotic platforms, sandboxes) the
harness falls back to pickling graphs into worker tasks.  These tests
pin down the three failure contracts: a partial export leaks nothing, a
dangling spec fails loudly on attach, and the harness fan-out survives
an export failure with byte-identical results.  Only the errors that
mean "no shared memory here" (``OSError``, ``ImportError``) fall back;
any other export error surfaces.
"""

from multiprocessing import shared_memory

import pytest

from repro.bench.harness import BenchConfig, run_graph
from repro.graphs import generators as gen
from repro.graphs import shm as shm_mod
from repro.graphs.shm import attach_csr, export_csr


@pytest.fixture
def graph():
    return gen.road_network(120, seed=5)


def test_export_attach_roundtrip(graph):
    handle = export_csr(graph)
    try:
        attached, handles = attach_csr(handle.spec)
        same_rp = (attached.row_ptr == graph.row_ptr).all()
        same_ci = (attached.column_idx == graph.column_idx).all()
        same_name = attached.name == graph.name
        # The attached arrays alias the mapped buffers: drop them before
        # closing the handles, or the mmap close raises BufferError.
        del attached
        for h in handles:
            h.close()
        assert same_rp and same_ci and same_name
    finally:
        handle.close()


def test_partial_export_failure_unlinks_created_segments(
        graph, monkeypatch):
    """If the second segment allocation fails, the first is unlinked —
    a failed export must not leak named segments."""
    created = []
    real = shared_memory.SharedMemory

    def flaky(*args, **kwargs):
        if kwargs.get("create") and created:
            raise OSError("shared memory exhausted (injected)")
        seg = real(*args, **kwargs)
        if kwargs.get("create"):
            created.append(seg.name)
        return seg

    monkeypatch.setattr("multiprocessing.shared_memory.SharedMemory", flaky)
    with pytest.raises(OSError, match="injected"):
        export_csr(graph)
    assert len(created) == 1
    monkeypatch.undo()
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=created[0])


def test_attach_missing_segment_raises(graph):
    handle = export_csr(graph)
    spec = handle.spec
    handle.close()  # unlinks the names; the spec now dangles
    with pytest.raises(FileNotFoundError):
        attach_csr(spec)


def test_close_is_idempotent(graph):
    handle = export_csr(graph)
    handle.close()
    handle.close()  # second close is a no-op, not an error


def test_harness_pickle_fallback_matches_shm_results(graph, monkeypatch):
    """With export_csr broken, the parallel fan-out pickles graphs into
    the tasks and still produces the serial path's exact samples."""
    cfg = BenchConfig(n_roots=3)
    serial = run_graph(["DiggerBees"], graph, cfg, jobs=1)

    attempts = []

    def broken(_graph):
        attempts.append(_graph)
        raise OSError("no shared memory here (injected)")

    monkeypatch.setattr(shm_mod, "export_csr", broken)
    fallback = run_graph(["DiggerBees"], graph, cfg, jobs=2)
    assert fallback == serial
    # The fallback was reached: no export of this graph was registered
    # by an earlier fan-out.
    assert attempts == [graph]
    # Multi-root (Frontier) units have their own wire-up path; they must
    # fall back too.  Frontier seconds are measured wall, so compare the
    # traversal only.
    def traversals(samples):
        return [(s.root, s.edges_traversed) for s in samples["Frontier"]]

    batched = run_graph(["Frontier"], graph, cfg, jobs=2, batch=2)
    assert traversals(batched) == traversals(
        run_graph(["Frontier"], graph, cfg, jobs=1))


def test_harness_pickle_fallback_without_posixshmem(graph, monkeypatch):
    """A platform without ``_posixshmem`` cannot import
    ``multiprocessing.shared_memory``; the fan-out pickles instead."""
    cfg = BenchConfig(n_roots=3)
    serial = run_graph(["DiggerBees"], graph, cfg, jobs=1)

    def no_posixshmem(_graph):
        raise ImportError("No module named '_posixshmem' (injected)")

    monkeypatch.setattr(shm_mod, "export_csr", no_posixshmem)
    assert run_graph(["DiggerBees"], graph, cfg, jobs=2) == serial


def test_harness_surfaces_other_export_errors(graph, monkeypatch):
    """An export error that does not mean "no shared memory here" is a
    fault: it propagates out of the fan-out instead of pickling."""
    def broken(_graph):
        raise ValueError("not a shared-memory failure (injected)")

    monkeypatch.setattr(shm_mod, "shared_spec", broken)
    with pytest.raises(ValueError, match="injected"):
        run_graph(["DiggerBees"], graph, BenchConfig(n_roots=3), jobs=2)
