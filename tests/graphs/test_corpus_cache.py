"""Tests for the corpus disk cache (`repro.graphs.diskcache`).

The contract under test: a cache hit is bit-for-bit equivalent to a
rebuild (same CSR arrays, same re-applied metadata, same roots), the
cache can be disabled via the environment, and corrupt entries are
discarded, counted and rebuilt rather than crashing a sweep.  An entry
is one raw file that a hit maps read-only, so a warm load reads no copy
of it and needs neither zlib, a zip container nor ``np.load``; a live
mapping outlives its entry's replacement or removal, and each one's
descriptor goes with its graph.
"""

import functools
import os
import struct
import tempfile
import zipfile
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.bench.harness import BenchConfig, pick_roots
from repro.graphs import collections as col
from repro.graphs import diskcache, generators as gen
from repro.graphs.csr import CSRGraph, from_edges


@pytest.fixture()
def cache_in_tmp(tmp_path, monkeypatch):
    """Point the disk cache at a fresh temp dir; clear the memory cache."""
    monkeypatch.setenv(diskcache.ENV_VAR, str(tmp_path))
    col.clear_cache()
    yield tmp_path
    col.clear_cache()


@pytest.fixture()
def cache_disabled(monkeypatch):
    monkeypatch.setenv(diskcache.ENV_VAR, "0")
    col.clear_cache()
    yield
    col.clear_cache()


def _same_graph(a, b):
    return (np.array_equal(a.row_ptr, b.row_ptr)
            and np.array_equal(a.column_idx, b.column_idx)
            and a.name == b.name
            and a.directed == b.directed)


class TestCachePath:
    def test_deterministic(self, cache_in_tmp):
        p1 = diskcache.cache_path("corpus", "g", {"scale": 1}, 7)
        p2 = diskcache.cache_path("corpus", "g", {"scale": 1}, 7)
        assert p1 == p2

    def test_key_sensitivity(self, cache_in_tmp):
        base = diskcache.cache_path("corpus", "g", {"scale": 1}, 7)
        assert base != diskcache.cache_path("corpus", "g", {"scale": 2}, 7)
        assert base != diskcache.cache_path("corpus", "g", {"scale": 1}, 8)
        assert base != diskcache.cache_path("sweep", "g", {"scale": 1}, 7)

    def test_disabled_returns_none(self, cache_disabled):
        assert diskcache.cache_dir() is None
        assert diskcache.cache_path("corpus", "g", {}, 7) is None


class TestCachedBuild:
    def test_hit_equivalent_to_rebuild(self, cache_in_tmp):
        calls = []

        def build():
            calls.append(1)
            return gen.road_network(150, seed=13)

        first = diskcache.cached_build("t", "road", {"n": 150}, 13, build)
        second = diskcache.cached_build("t", "road", {"n": 150}, 13, build)
        assert len(calls) == 1  # second call served from disk
        assert np.array_equal(first.row_ptr, second.row_ptr)
        assert np.array_equal(first.column_idx, second.column_idx)

    def test_corrupt_entry_rebuilt(self, cache_in_tmp):
        build = lambda: gen.road_network(120, seed=5)
        g = diskcache.cached_build("t", "c", {}, 5, build)
        path = diskcache.cache_path("t", "c", {}, 5)
        assert path.exists()
        path.write_bytes(b"not a corpus cache entry")
        again = diskcache.cached_build("t", "c", {}, 5, build)
        assert np.array_equal(g.column_idx, again.column_idx)
        # The rebuild replaced the corrupt entry with a readable one.
        third = diskcache.cached_build("t", "c", {}, 5, lambda: 1 / 0)
        assert np.array_equal(g.column_idx, third.column_idx)

    def test_disabled_always_builds(self, cache_disabled):
        calls = []

        def build():
            calls.append(1)
            return gen.road_network(100, seed=2)

        diskcache.cached_build("t", "d", {}, 2, build)
        diskcache.cached_build("t", "d", {}, 2, build)
        assert len(calls) == 2

    def test_clear_disk_cache(self, cache_in_tmp):
        for seed in (1, 2):
            diskcache.cached_build("t", "x", {}, seed,
                                   lambda: gen.road_network(90, seed=1))
        # Version-1 and version-2 entries left behind by older
        # checkouts, and a writer's stray temp file.
        (cache_in_tmp / "corpus-old-0123456789abcdef.npz").write_bytes(b"PK")
        (cache_in_tmp / "corpus-old-0123456789abcdef.npy").write_bytes(b"NP")
        (cache_in_tmp / "tmpa1b2c3.tmp.csr").write_bytes(b"REPRO")
        (cache_in_tmp / "notes.txt").write_text("not a cache file")
        (cache_in_tmp / "data.npy").write_bytes(b"NP")
        assert len(list(cache_in_tmp.iterdir())) == 7
        assert diskcache.clear_disk_cache() == 5
        assert sorted(f.name for f in cache_in_tmp.iterdir()) == [
            "data.npy", "notes.txt"]

    def test_first_load_prunes_earlier_versions(self, cache_in_tmp):
        old = ["corpus-euro_osm-0123456789abcdef.npz",   # version 1
               "sweep-road_400-fedcba9876543210.npy",    # version 2
               "tmpq1w2e3r4.tmp.npy"]                    # its writer's temp
        for name in old + ["data.npy"]:
            (cache_in_tmp / name).write_bytes(b"old")
        diskcache.cached_build("t", "p", {}, 4,
                               lambda: gen.road_network(60, seed=4))
        new = diskcache.cache_path("t", "p", {}, 4).name
        assert sorted(f.name for f in cache_in_tmp.iterdir()) == sorted(
            ["data.npy", new])
        assert set(diskcache.stats()) == {"hits", "misses", "discarded"}


class TestCorpusIntegration:
    def test_named_graph_hit_equivalence(self, cache_in_tmp):
        spec = col.REPRESENTATIVE_SPECS[5]  # citation — cheap to build
        cold = spec.build()
        col.clear_cache()
        warm = spec.build()  # disk hit; metadata re-applied by GraphSpec
        assert _same_graph(cold, warm)
        assert warm.meta.get("group") == spec.group

    def test_sweep_corpus_hit_equivalence_and_roots(self, cache_in_tmp):
        cold = col.build_corpus(sizes=[120])
        warm = col.build_corpus(sizes=[120])
        assert len(cold) == len(warm)
        cfg = BenchConfig(n_roots=2, seed=3)
        for a, b in zip(cold, warm):
            assert _same_graph(a, b)
            # Root picking derives from graph.name — identical on a hit.
            assert pick_roots(a, cfg) == pick_roots(b, cfg)


ROUND_TRIP = {
    "undirected": lambda: gen.road_network(150, seed=13),
    "directed": lambda: from_edges(5, [(0, 1), (1, 2), (2, 0), (3, 4)],
                                   directed=True, name="tiny-dag"),
    "edgeless": lambda: from_edges(4, [], name=""),
    "non-ascii": lambda: from_edges(3, [(0, 1), (1, 2)],
                                    name="gräph-图-\u00e9\U0001f41d"),
    # The serve daemon's micro corpus, each graph as its generator
    # builds it.
    **{s.name: functools.partial(getattr(gen, s.kind), **s.params,
                                 seed=s.seed)
       for s in col.MICRO_SPECS},
}


class TestFileFormat:
    @pytest.mark.parametrize("label", sorted(ROUND_TRIP))
    def test_round_trip_is_byte_exact(self, cache_in_tmp, label):
        graph = ROUND_TRIP[label]()
        first = diskcache.cached_build("t", label, {}, 0, lambda: graph)
        hit = diskcache.cached_build("t", label, {}, 0, lambda: 1 / 0)
        for a, b in ((graph, first), (graph, hit)):
            assert a.row_ptr.dtype == b.row_ptr.dtype == np.int64
            assert a.column_idx.dtype == b.column_idx.dtype == np.int64
            assert a.row_ptr.tobytes() == b.row_ptr.tobytes()
            assert a.column_idx.tobytes() == b.column_idx.tobytes()
            assert (a.name, a.directed) == (b.name, b.directed)
        assert not hit.row_ptr.flags.writeable
        assert not hit.column_idx.flags.writeable

    def test_one_raw_file(self, cache_in_tmp):
        g = diskcache.cached_build("t", "r", {}, 3,
                                   lambda: gen.road_network(80, seed=3))
        path = diskcache.cache_path("t", "r", {}, 3)
        assert path.suffix == ".csr"
        data = path.read_bytes()
        n1, m, name = g.n_vertices + 1, g.n_edges, g.name.encode("utf-8")
        assert data[:8] == b"REPROCSR"
        assert struct.unpack_from("<4q", data, 8) == (n1, m, 0, len(name))
        body = np.frombuffer(data, dtype="<i8", count=n1 + m, offset=40)
        assert body.tolist() == [*g.row_ptr.tolist(), *g.column_idx.tolist()]
        assert data[40 + 8 * (n1 + m):] == name

    @staticmethod
    def _damage(data, case):
        """``data``, a valid entry of a graph with a non-empty name,
        damaged as ``case`` says."""
        n1, m, directed, name_len = struct.unpack_from("<4q", data, 8)

        def header(n1=n1, m=m, directed=directed):
            return (data[:8] + struct.pack("<4q", n1, m, directed, name_len)
                    + data[40:])

        name_at = len(data) - name_len
        return {
            "empty": b"",
            "truncated": data[:len(data) // 2],
            "truncated-header": data[:20],
            "no-name-record": data[:name_at],
            "zip-magic": b"PK\x03\x04" + b"\0" * 60,
            "wrong-magic": b"REPROCSX" + data[8:],
            "one-byte-short": data[:-1],
            "trailing-bytes": data + b"\0",
            # One more row_ptr entry, one less arc: the length still
            # fits, so only CSRGraph's row_ptr[-1] check can catch it.
            "inconsistent-header": header(n1=n1 + 1, m=m - 1),
            "directed-flag-2": header(directed=2),
            "bad-utf8-name": data[:name_at] + b"\xff" * name_len,
            # row_ptr[3] = -1: row_ptr must be nondecreasing.
            "bad-row-ptr": data[:64] + struct.pack("<q", -1) + data[72:],
        }[case]

    @pytest.mark.parametrize("damage", [
        "empty", "truncated", "truncated-header", "no-name-record", "zip-magic",
        "wrong-magic", "one-byte-short", "trailing-bytes",
        "inconsistent-header", "directed-flag-2", "bad-utf8-name",
        "bad-row-ptr"])
    def test_damaged_entry_discarded_and_rebuilt(self, cache_in_tmp, damage):
        """More damage than ``test_corrupt_entry_rebuilt``'s garbage;
        each damaged entry is counted as one discard."""
        calls = []

        def build():
            calls.append(1)
            return gen.road_network(120, seed=5)

        g = diskcache.cached_build("t", "c", {}, 5, build)
        path = diskcache.cache_path("t", "c", {}, 5)
        path.write_bytes(self._damage(path.read_bytes(), damage))
        diskcache.reset_stats()
        again = diskcache.cached_build("t", "c", {}, 5, build)
        assert len(calls) == 2
        assert diskcache.stats() == {"hits": 0, "misses": 1, "discarded": 1}
        assert np.array_equal(g.column_idx, again.column_idx)
        # The rebuild replaced the damaged entry with a readable one.
        third = diskcache.cached_build("t", "c", {}, 5, lambda: 1 / 0)
        assert np.array_equal(g.column_idx, third.column_idx)
        assert diskcache.stats() == {"hits": 1, "misses": 1, "discarded": 1}

    def test_warm_load_needs_no_zlib_or_zip(self, cache_in_tmp, monkeypatch):
        cold = col.representative_graphs()
        col.clear_cache()

        def refuse(*args, **kwargs):
            raise AssertionError("a warm corpus load used zlib, zipfile, "
                                 "np.load or Path.read_bytes")

        monkeypatch.setattr(zlib, "decompress", refuse)
        monkeypatch.setattr(zlib, "decompressobj", refuse)
        monkeypatch.setattr(zipfile, "ZipFile", refuse)
        monkeypatch.setattr(np, "load", refuse)
        # A hit maps its entry: no copy of the file is read.
        monkeypatch.setattr(Path, "read_bytes", refuse)
        diskcache.reset_stats()
        warm = col.representative_graphs()
        assert diskcache.stats() == {"hits": 12, "misses": 0, "discarded": 0}
        for a, b in zip(cold, warm):
            assert _same_graph(a, b)

    def test_warm_load_validates_each_graph_once(self, cache_in_tmp,
                                                 monkeypatch):
        col.representative_graphs()
        col.clear_cache()
        validated = []
        real = CSRGraph.__post_init__
        monkeypatch.setattr(CSRGraph, "__post_init__",
                            lambda self: validated.append(self) or real(self))
        warm = col.representative_graphs()
        assert len(validated) == len(warm) == 12


class TestMappedEntries:
    def test_mapped_graph_outlives_its_entry(self, cache_in_tmp):
        """Entries are replaced (``os.replace``) or unlinked, never
        rewritten in place, so a live mapping keeps its values."""
        diskcache.cached_build("t", "m", {}, 13,
                               lambda: gen.road_network(150, seed=13))
        hit = diskcache.cached_build("t", "m", {}, 13, lambda: 1 / 0)
        assert not hit.row_ptr.flags.writeable
        want = (hit.row_ptr.tobytes(), hit.column_idx.tobytes())
        other = gen.road_network(90, seed=1)
        path = diskcache.cache_path("t", "m", {}, 13)
        fd, tmp = tempfile.mkstemp(dir=cache_in_tmp)
        with os.fdopen(fd, "wb") as fh:
            diskcache._write(other, fh)
        os.replace(tmp, path)
        rebuilt = diskcache.cached_build("t", "m", {}, 13, lambda: 1 / 0)
        assert _same_graph(rebuilt, other)
        assert (hit.row_ptr.tobytes(), hit.column_idx.tobytes()) == want
        assert diskcache.clear_disk_cache() == 1
        assert not path.exists()
        assert (hit.row_ptr.tobytes(), hit.column_idx.tobytes()) == want
        assert (rebuilt.row_ptr.tobytes(), rebuilt.column_idx.tobytes()) == (
            other.row_ptr.tobytes(), other.column_idx.tobytes())

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd")
    def test_dropped_graphs_release_their_descriptors(self, cache_in_tmp):
        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        col.representative_graphs()
        col.clear_cache()
        before = open_fds()
        graphs = col.representative_graphs()
        col.clear_cache()
        # Each live mapping holds a duplicate of its file's descriptor.
        assert open_fds() == before + len(graphs)
        del graphs
        assert open_fds() == before
