"""Failure-path coverage for the export-file graph hand-off.

``repro.graphs.shm`` is best-effort by design: where no export file can
be written (permissions, a full ``/dev/shm``) the harness falls back to
pickling graphs into worker tasks.  These tests pin down the failure
contracts: a failed export leaks no file, a dangling spec fails loudly
when a worker maps it, a killed exporter's files are removed by the
next process's first export, and the harness fan-out survives an
export failure with byte-identical results.  Only ``OSError`` (no
export here) falls back; any other export error surfaces.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import repro
from repro.bench.harness import BenchConfig, run_graph
from repro.graphs import diskcache
from repro.graphs import generators as gen
from repro.graphs import shm as shm_mod
from repro.graphs.shm import SPEC_KEY, export_csr, resolve_graph


@pytest.fixture
def graph():
    return gen.road_network(120, seed=5)


def _exports(d) -> set:
    return {n for n in os.listdir(d) if n.startswith("psm_")}


def test_export_attach_roundtrip(graph):
    spec = export_csr(graph)
    try:
        assert os.path.basename(spec[SPEC_KEY]).startswith(
            f"psm_repro-{os.getpid()}-")
        attached = diskcache.read_csr(Path(spec[SPEC_KEY]), spec["meta"])
        assert (attached.row_ptr == graph.row_ptr).all()
        assert (attached.column_idx == graph.column_idx).all()
        assert attached.name == graph.name
        assert attached.directed == graph.directed
        assert attached.meta == graph.meta
    finally:
        os.unlink(spec[SPEC_KEY])


def test_failed_export_leaves_no_file(graph, monkeypatch):
    """A write that fails halfway (a full /dev/shm) removes the file it
    was writing."""
    d = "/dev/shm" if os.path.isdir("/dev/shm") else tempfile.gettempdir()
    before = _exports(d)

    def half_written(g, fh):
        fh.write(b"REPROCSR")
        raise OSError(28, "No space left on device (injected)")

    monkeypatch.setattr(diskcache, "write_csr", half_written)
    with pytest.raises(OSError, match="injected"):
        export_csr(graph)
    assert not _exports(d) - before


def test_attach_missing_segment_raises(graph):
    """A spec whose export file is gone raises ``FileNotFoundError``
    when a worker maps it."""
    spec = export_csr(graph)
    os.unlink(spec[SPEC_KEY])  # the spec now dangles
    with pytest.raises(FileNotFoundError):
        resolve_graph(spec)


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
def test_first_export_removes_dead_exporters_files():
    """A process's first export deletes the files of exporters that no
    longer run, and keeps those of a live one."""
    dead = subprocess.Popen([sys.executable, "-c", "pass"])
    dead.wait()
    stale = Path("/dev/shm") / f"psm_repro-{dead.pid}-stale.csr"
    live = Path("/dev/shm") / f"psm_repro-{os.getpid()}-live.csr"
    for path in (stale, live):
        path.write_bytes(b"")
    src = str(Path(repro.__file__).resolve().parents[1])
    script = ("from repro.graphs import generators as gen, shm\n"
              "shm.shared_spec(gen.path_graph(8))\n")
    try:
        subprocess.run([sys.executable, "-c", script], check=True,
                       timeout=60, env=dict(os.environ, PYTHONPATH=src))
        assert not stale.exists()
        assert live.exists()
    finally:
        for path in (stale, live):
            if path.exists():
                path.unlink()


def test_harness_pickle_fallback_matches_shm_results(graph, monkeypatch):
    """With export_csr broken, the parallel fan-out pickles graphs into
    the tasks and still produces the serial path's exact samples."""
    cfg = BenchConfig(n_roots=3)
    serial = run_graph(["DiggerBees"], graph, cfg, jobs=1)

    attempts = []

    def broken(_graph):
        attempts.append(_graph)
        raise OSError("no export file here (injected)")

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


def test_harness_surfaces_other_export_errors(graph, monkeypatch):
    """An export error that does not mean "no export here" is a fault:
    it propagates out of the fan-out instead of pickling."""
    def broken(_graph):
        raise ValueError("not an export-file failure (injected)")

    monkeypatch.setattr(shm_mod, "shared_spec", broken)
    with pytest.raises(ValueError, match="injected"):
        run_graph(["DiggerBees"], graph, BenchConfig(n_roots=3), jobs=2)
