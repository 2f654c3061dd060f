"""Tests for the corpus disk cache (`repro.graphs.diskcache`).

The contract under test: a cache hit is bit-for-bit equivalent to a
rebuild (same CSR arrays, same re-applied metadata, same roots), the
cache can be disabled via the environment, and corrupt entries are
discarded and rebuilt rather than crashing a sweep.  Entries are two
plain ``.npy`` records, so a warm load needs neither zlib nor a zip
container.
"""

import io
import zipfile
import zlib

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
        path.write_bytes(b"not an npz file")
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
        # A version-1 entry left behind by an older checkout.
        (cache_in_tmp / "corpus-old-0123456789abcdef.npz").write_bytes(b"PK")
        assert len(list(cache_in_tmp.iterdir())) == 3
        assert diskcache.clear_disk_cache() == 3
        assert not list(cache_in_tmp.iterdir())


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

    def _records(self, path):
        with open(path, "rb") as fh:
            return (np.load(fh, allow_pickle=False),
                    np.load(fh, allow_pickle=False))

    def test_two_plain_records(self, cache_in_tmp):
        g = diskcache.cached_build("t", "r", {}, 3,
                                   lambda: gen.road_network(80, seed=3))
        path = diskcache.cache_path("t", "r", {}, 3)
        assert path.suffix == ".npy"
        arrays, name = self._records(path)
        n1 = g.n_vertices + 1
        assert arrays.tolist() == [n1, 0, *g.row_ptr.tolist(),
                                   *g.column_idx.tolist()]
        assert name.tolist() == [g.name]

    @pytest.mark.parametrize("damage", [
        "truncated", "no-name-record", "zip-magic", "inconsistent-header",
        "bad-row-ptr", "trailing-bytes"])
    def test_damaged_entry_discarded_and_rebuilt(self, cache_in_tmp, damage):
        """More damage than ``test_corrupt_entry_rebuilt``'s garbage."""
        calls = []

        def build():
            calls.append(1)
            return gen.road_network(120, seed=5)

        def npy(*records):
            buf = io.BytesIO()
            for r in records:
                np.save(buf, r)
            return buf.getvalue()

        g = diskcache.cached_build("t", "c", {}, 5, build)
        path = diskcache.cache_path("t", "c", {}, 5)
        data = path.read_bytes()
        arrays, name = self._records(path)
        header, row_ptr = arrays.copy(), arrays.copy()
        header[0] = arrays.size      # row_ptr overruns the array
        row_ptr[3] = -1              # row_ptr must be nondecreasing
        path.write_bytes({
            "truncated": data[:len(data) // 2],
            "no-name-record": npy(arrays),
            "zip-magic": b"PK\x03\x04" + b"\0" * 60,
            "inconsistent-header": npy(header, name),
            "bad-row-ptr": npy(row_ptr, name),
            "trailing-bytes": data + b"\0",
        }[damage])
        again = diskcache.cached_build("t", "c", {}, 5, build)
        assert len(calls) == 2
        assert np.array_equal(g.column_idx, again.column_idx)
        # The rebuild replaced the damaged entry with a readable one.
        third = diskcache.cached_build("t", "c", {}, 5, lambda: 1 / 0)
        assert np.array_equal(g.column_idx, third.column_idx)

    def test_warm_load_needs_no_zlib_or_zip(self, cache_in_tmp, monkeypatch):
        cold = col.representative_graphs()
        col.clear_cache()

        def refuse(*args, **kwargs):
            raise AssertionError("a warm corpus load used zlib or zipfile")

        monkeypatch.setattr(zlib, "decompress", refuse)
        monkeypatch.setattr(zlib, "decompressobj", refuse)
        monkeypatch.setattr(zipfile, "ZipFile", refuse)
        diskcache.reset_stats()
        warm = col.representative_graphs()
        assert diskcache.stats() == {"hits": len(cold), "misses": 0}
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
