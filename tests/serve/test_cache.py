"""Result-cache unit tests: keys, LRU, disk spill, corruption recovery,
and what one cached answer costs."""

import asyncio
import json
import tracemalloc

import numpy as np
import pytest

from repro.core.config import ServeConfig
from repro.graphs import generators as gen
from repro.serve.cache import (
    CACHE_VERSION,
    FLUSH_EVERY,
    GraphResultCache,
    default_cache_dir,
    result_key,
)
from repro.serve.corpus import ResidentCorpus
from repro.serve.exec import execute_query
from repro.serve.protocol import Request
from repro.serve.server import ServeServer, _PendingQuery

from tests.serve.conftest import serve_session


#: The spill header of ``_mk``'s graph.
HEADER = '{"version": 3, "graph_fp": "ffffffffffffffff"}\n'


def _mk(tmp_path=None, *, fp="f" * 16, max_entries=8):
    return GraphResultCache("g", fp, tmp_path, max_entries=max_entries)


def _text(payload) -> str:
    """An answer's compact JSON text, as the daemon serializes it."""
    return json.dumps(payload, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Keys.
# ---------------------------------------------------------------------------

def test_result_key_deterministic_and_discriminating():
    base = result_key("dfs", 0, {"seed": 1}, "aa")
    assert base == result_key("dfs", 0, {"seed": 1}, "aa")
    assert base != result_key("scc", 0, {"seed": 1}, "aa")
    assert base != result_key("dfs", 1, {"seed": 1}, "aa")
    assert base != result_key("dfs", 0, {"seed": 2}, "aa")
    assert base != result_key("dfs", 0, {"seed": 1}, "bb")
    assert base != result_key("dfs", 0, None, "aa")


def test_result_key_order_independent_config():
    assert (result_key("dfs", 0, {"a": 1, "b": 2}, "aa")
            == result_key("dfs", 0, {"b": 2, "a": 1}, "aa"))


# ---------------------------------------------------------------------------
# In-memory LRU.
# ---------------------------------------------------------------------------

def test_lru_eviction_prefers_least_recently_used():
    cache = _mk(max_entries=2)
    cache.put("a", _text({"v": 1}))
    cache.put("b", _text({"v": 2}))
    assert cache.get("a") is not None   # refresh a
    cache.put("c", _text({"v": 3}))     # evicts b
    assert cache.get("b") is None
    assert cache.get("a") == _text({"v": 1})
    assert cache.get("c") == _text({"v": 3})


def test_get_returns_the_text_that_was_put():
    cache = _mk()
    raw = _text({"x": [1, 2]})
    cache.put("k", raw)
    assert cache.get("k") is raw
    cache.put("k", _text({"x": [3]}))   # a key is cached once
    assert cache.get("k") is raw


def test_stats_track_hits_and_misses():
    cache = _mk()
    cache.put("k", _text({}))
    cache.get("k")
    cache.get("nope")
    s = cache.stats()
    assert s["hits"] == 1 and s["misses"] == 1 and s["entries"] == 1


def test_stats_bytes_is_the_length_of_the_texts_held(tmp_path):
    cache = _mk(tmp_path, max_entries=3)
    texts = {key: _text({"v": list(range(i * 5))})
             for i, key in enumerate("abcd")}
    for key in "abc":
        cache.put(key, texts[key])
    assert cache.stats()["bytes"] == sum(len(texts[k]) for k in "abc")
    cache.put("d", texts["d"])          # evicts a
    assert cache.get("a") is None
    assert cache.stats()["bytes"] == sum(len(texts[k]) for k in "bcd")
    cache.flush()
    again = _mk(tmp_path, max_entries=3)
    assert again.stats()["bytes"] == sum(len(texts[k]) for k in "bcd")
    assert _mk(tmp_path, max_entries=1).stats()["bytes"] == len(texts["d"])


def test_zero_capacity_disables_cache(tmp_path):
    cache = GraphResultCache("g", "f" * 16, tmp_path, max_entries=0)
    cache.put("k", _text({"v": 1}))
    assert cache.get("k") is None
    assert cache.stats()["bytes"] == 0
    assert len(list(tmp_path.iterdir())) == 0


def test_settled_answers_retain_only_their_text():
    # A served answer is a whole DFS tree; the decoded dict costs about
    # 7x its JSON text.  Settling 30 of them through the daemon (a fresh
    # decoded answer each, as the executor hands it over) may retain
    # their texts and little else.
    graph = gen.road_network(1500)
    texts = [_text(execute_query(graph, "dfs", root, None))
             for root in range(30)]
    total = sum(len(t) for t in texts)

    async def settle_all():
        loop = asyncio.get_running_loop()
        corpus = ResidentCorpus(share=False)
        entry = corpus.add(graph, "road")
        server = ServeServer(corpus, ServeConfig(jobs=0, cache_dir="off"))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for root, text in enumerate(texts):
                pending = _PendingQuery(
                    Request(op="dfs", graph="road", root=root),
                    f"key-{root}", loop.create_future())
                server._settle(entry, [pending], [json.loads(text)], 1)
                assert pending.future.result() == (None, text, 1)
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        return retained, server._caches["road"].stats()

    retained, stats = asyncio.run(settle_all())
    assert stats["entries"] == 30 and stats["bytes"] == total
    assert retained - total < 0.25 * total, (retained, total)


# ---------------------------------------------------------------------------
# Disk spill.
# ---------------------------------------------------------------------------

def test_flush_and_reload_roundtrip(tmp_path):
    texts = {"k1": _text({"v": 1}),
             "k2": _text(execute_query(gen.binary_tree(4), "dfs", 0, None))}
    cache = _mk(tmp_path)
    for key, raw in texts.items():
        cache.put(key, raw)
    cache.flush()
    again = _mk(tmp_path)
    for key, raw in texts.items():
        assert again.get(key) == raw    # byte-identical text


def test_reregistered_graph_spills_its_old_answers(tmp_path):
    """``add_graph`` with new content under an existing name replaces
    that graph's cache; the answers computed for the old content reach
    its spill file, and a daemon restarted over the old content serves
    them from disk."""
    old, new = gen.path_graph(16), gen.cycle_graph(16)
    cfg = ServeConfig(max_batch=1, jobs=0, cache_dir=str(tmp_path))
    roots = range(5)

    async def reregister(client, corpus, **_):
        before = corpus.get("g").fingerprint
        for root in roots:
            assert not (await client.dfs("g", root)).cached
        await client.add_graph("g", new.row_ptr, new.column_idx)
        await client.dfs("g", 0)
        return before, corpus.get("g").fingerprint

    async def restart(client, **_):
        return [(await client.dfs("g", root)).cached for root in roots]

    old_fp, new_fp = serve_session(reregister, graphs={"g": old},
                                   config=cfg)
    # Entry lines: every line after the header.
    spilled = {fp: (tmp_path / f"g-{fp}.json").read_text().splitlines()[1:]
               for fp in (old_fp, new_fp)}
    assert len(spilled[old_fp]) == len(roots)
    assert len(spilled[new_fp]) == 1
    assert serve_session(restart, graphs={"g": old}, config=cfg) == [True] * 5


def test_spill_file_format(tmp_path):
    # CACHE_VERSION 3's layout: daemons on either side of a change to
    # the in-memory entries must keep reading each other's spills.  A
    # header line, then one key<TAB>answer line per entry, least to most
    # recently used.
    cache = _mk(tmp_path)
    cache.put("k1", _text({"v": 1}))
    cache.put("k2", _text({"v": [1, 2.5, None]}))
    cache.put("k3", _text("a\tb\nc"))
    assert cache.get("k1") is not None  # refresh k1
    cache.flush()
    assert cache._path.name == "g-ffffffffffffffff.json"
    assert cache._path.read_text() == (
        HEADER
        + 'k2\t{"v":[1,2.5,null]}\n'
        + 'k3\t"a\\tb\\nc"\n'
        + 'k1\t{"v":1}\n')


def test_reload_into_a_smaller_cache_keeps_the_newest_entries(tmp_path):
    # A daemon restarted with fewer cache entries keeps what its LRU
    # would have kept: the most recently used results.
    cache = _mk(tmp_path)
    for i, key in enumerate("abcd"):
        cache.put(key, _text({"v": i}))
    assert cache.get("a") is not None   # refresh a
    cache.flush()
    small = _mk(tmp_path, max_entries=2)
    assert list(small._entries) == ["d", "a"]


def _tree_texts(seed: int, count: int = 64):
    """``count`` answers shaped like DFS trees of 3000 vertices."""
    rng = np.random.default_rng(seed)
    return [_text({"parent": rng.integers(-2, 3000, size=3000).tolist(),
                   "visited": 3000}) for _ in range(count)]


def test_reload_reads_one_line_at_a_time(tmp_path):
    # A decoded answer costs about 7x its text; a reload that decoded
    # the whole spill at once peaked at about 8x the file, and one that
    # read the whole file before decoding it entry by entry at about
    # 2.4x.  Line by line, the peak is the entries' texts plus one line
    # and its decoded answer.
    cache = _mk(tmp_path, max_entries=64)
    for i, raw in enumerate(_tree_texts(3)):
        cache.put(f"k{i}", raw)
    cache.flush()
    size = cache._path.stat().st_size
    tracemalloc.start()
    try:
        again = _mk(tmp_path, max_entries=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(again._entries) == list(cache._entries)
    assert all(again._entries[k] == raw for k, raw in cache._entries.items())
    assert peak < 1.5 * size, (peak, size)


def test_version_2_spill_is_discarded_without_decoding(tmp_path):
    # CACHE_VERSION 2 wrote one JSON object, with no newline, under the
    # same file name.  Its first line is the whole file, so the header
    # check reads a header's length of it, rejects it and unlinks it.
    texts = _tree_texts(4)
    path = tmp_path / "g-ffffffffffffffff.json"
    path.write_text(
        '{"version":2,"graph_fp":"ffffffffffffffff","entries":{'
        + ",".join(f'"k{i}":{raw}' for i, raw in enumerate(texts))
        + "}}")
    size = path.stat().st_size
    tracemalloc.start()
    try:
        again = _mk(tmp_path, max_entries=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(again) == 0
    assert not path.exists()
    assert peak < size, (peak, size)


def test_reload_accepts_whitespace_and_any_member_order(tmp_path):
    # An answer line holds any JSON text; the reload checks that it
    # decodes and keeps it verbatim, whitespace and member order
    # included.
    (tmp_path / "g-ffffffffffffffff.json").write_text(
        HEADER
        + 'k1\t{ "w" : null , "v" : [1, 2] }\n'
        + 'k2\t3\n')
    again = _mk(tmp_path)
    assert again.get("k1") == '{ "w" : null , "v" : [1, 2] }'
    assert again.get("k2") == "3"


@pytest.mark.parametrize("mangle", [
    lambda body: body + 'k3 {"v":3}\n',
    lambda body: body + "k3\t{v: 3}\n",
    lambda body: body[:-1],
], ids=["line-without-tab", "answer-not-json", "no-final-newline"])
def test_malformed_line_discards_file(tmp_path, mangle):
    cache = _mk(tmp_path)
    cache.put("k1", _text({"v": 1}))
    cache.put("k2", _text({"v": 2}))
    cache.flush()
    cache._path.write_text(mangle(cache._path.read_text()))
    again = _mk(tmp_path)
    assert len(again) == 0
    assert not cache._path.exists()


def test_data_after_the_cache_object_discards_file(tmp_path):
    cache = _mk(tmp_path)
    cache.put("k", _text({"v": 1}))
    cache.flush()
    with cache._path.open("a") as f:
        f.write("{}")
    assert _mk(tmp_path).get("k") is None
    assert not cache._path.exists()


def test_autoflush_after_flush_every_inserts(tmp_path):
    cache = _mk(tmp_path, max_entries=FLUSH_EVERY + 8)
    for i in range(FLUSH_EVERY):
        cache.put(f"k{i}", _text({"v": i}))
    assert _mk(tmp_path, max_entries=FLUSH_EVERY + 8).get("k0") is not None


def test_corrupt_cache_file_discarded_and_unlinked(tmp_path):
    cache = _mk(tmp_path)
    cache.put("k", _text({"v": 1}))
    cache.flush()
    path = cache._path
    path.write_text("{ not json at all")
    again = _mk(tmp_path)
    assert again.get("k") is None       # corrupt content was dropped
    assert not path.exists()            # and the bad file removed
    again.put("k", _text({"v": 2}))     # cache still fully functional
    assert again.get("k") == _text({"v": 2})


def test_version_skew_discards_file(tmp_path):
    cache = _mk(tmp_path)
    cache.put("k", _text({"v": 1}))
    cache.flush()
    header, entries = cache._path.read_text().split("\n", 1)
    skewed = dict(json.loads(header), version=CACHE_VERSION + 1)
    cache._path.write_text(json.dumps(skewed) + "\n" + entries)
    assert _mk(tmp_path).get("k") is None
    assert not cache._path.exists()


def test_fingerprint_mismatch_discards_file(tmp_path):
    cache = _mk(tmp_path, fp="a" * 16)
    cache.put("k", _text({"v": 1}))
    cache.flush()
    # Same graph name, different content: stale entries must not load.
    other = GraphResultCache("g", "b" * 16, tmp_path, max_entries=8)
    assert other.get("k") is None


def test_truncated_file_discarded(tmp_path):
    cache = _mk(tmp_path)
    cache.put("k", _text({"v": 1}))
    cache.flush()
    body = cache._path.read_text()
    cache._path.write_text(body[: len(body) // 2])
    assert _mk(tmp_path).get("k") is None


def test_default_cache_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_SERVE_CACHE", str(tmp_path))
    assert default_cache_dir() == tmp_path
    monkeypatch.setenv("REPRO_SERVE_CACHE", "off")
    assert default_cache_dir() is None
    monkeypatch.delenv("REPRO_SERVE_CACHE")
    assert default_cache_dir() is not None
