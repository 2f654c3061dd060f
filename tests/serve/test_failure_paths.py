"""Failure paths: the daemon degrades to correct-but-slower, never wrong.

Three induced failures, each verified against direct execution:

* the worker pool's processes are killed mid-service (BrokenProcessPool)
  -> one retry on a fresh pool answers correctly;
* the shm segments backing a resident graph are unlinked behind the
  daemon's back -> the graph demotes to pickle hand-off and the query
  still answers correctly;
* the on-disk result cache is corrupted between daemon lifetimes -> the
  corrupt file is discarded and results are recomputed, not poisoned.
"""

import json

import pytest

from repro.bench import harness
from repro.core.config import ServeConfig
from repro.core.diggerbees import run_diggerbees
from repro.graphs import generators as gen
from repro.serve.protocol import dfs_result_to_dict

from tests.serve.conftest import serve_session


@pytest.fixture(autouse=True)
def _fresh_pool():
    harness._shutdown_pool()
    yield
    harness._shutdown_pool()


def _expected(graph, root):
    return dfs_result_to_dict(run_diggerbees(graph, root))


def test_daemon_survives_worker_pool_death():
    graphs = {"g": gen.binary_tree(5)}

    async def scenario(client, server, **_):
        first = await client.dfs("g", 0, no_cache=True)
        assert first.ok and first.result == _expected(graphs["g"], 0)
        # Kill every live worker: the next submit on this executor
        # raises BrokenProcessPool.
        handle = harness._HANDLE
        assert handle is not None and handle.jobs == 1
        for proc in list(handle.executor._processes.values()):
            proc.kill()
        resp = await client.dfs("g", 7, no_cache=True)
        assert resp.ok and resp.result == _expected(graphs["g"], 7)
        assert server.stats.pool_broken >= 1
        # The replacement pool keeps serving.
        again = await client.dfs("g", 11, no_cache=True)
        assert again.ok and again.result == _expected(graphs["g"], 11)

    serve_session(scenario, graphs=graphs,
                  config=ServeConfig(max_batch=1, jobs=1,
                                     cache_dir="off"))


def test_dangling_shm_demotes_to_pickle_and_stays_correct():
    graphs = {"warm": gen.path_graph(16)}
    fresh = gen.path_graph(24)

    async def scenario(client, server, corpus, **_):
        # Warm the pool so workers exist, on a *different* graph — the
        # worker-side attach cache is keyed per export, so the doomed
        # graph's segments are guaranteed cold.
        await client.dfs("warm", 0, no_cache=True)
        await client.add_graph("fresh", fresh.row_ptr, fresh.column_idx)
        entry = corpus.get("fresh")
        assert entry.shm_ok and entry.shared is not None
        # Unlink the segment names behind the daemon's back.  The
        # parent's own mapping stays valid; worker attach now fails.
        for shm in entry.shared._segments:
            shm.unlink()
        resp = await client.dfs("fresh", 0, no_cache=True)
        assert resp.ok and resp.result == _expected(fresh, 0)
        assert server.stats.shm_fallbacks >= 1
        assert entry.shm_ok is False        # demoted, not retried forever
        # Follow-up queries take the pickle path directly and stay right.
        resp2 = await client.dfs("fresh", 5, no_cache=True)
        assert resp2.ok and resp2.result == _expected(fresh, 5)
        assert server.stats.shm_fallbacks == 1

    serve_session(scenario, graphs=graphs, share=True,
                  config=ServeConfig(max_batch=1, jobs=1,
                                     cache_dir="off"))


def test_all_fallbacks_exhausted_runs_in_process():
    """Pool broken twice in a row -> the query still answers correctly
    via the in-process executor (the ladder's last rung)."""
    graphs = {"g": gen.binary_tree(4)}

    async def scenario(client, server, **_):
        await client.dfs("g", 0, no_cache=True)   # spawn workers

        real = harness.lease_pool

        def poisoned_lease(jobs):
            import time

            handle = real(jobs)
            # Workers spawn lazily: force them into existence, then
            # kill them and wait for the executor to flag itself.
            handle.executor.submit(abs, 1).result()
            for proc in list(handle.executor._processes.values()):
                proc.kill()
            deadline = time.time() + 5.0
            while not handle.executor._broken and time.time() < deadline:
                time.sleep(0.01)
            return handle

        harness_lease, harness.lease_pool = harness.lease_pool, poisoned_lease
        try:
            resp = await client.dfs("g", 3, no_cache=True)
        finally:
            harness.lease_pool = harness_lease
        assert resp.ok and resp.result == _expected(graphs["g"], 3)
        assert server.stats.pool_broken >= 2
        assert server.stats.inline_fallbacks >= 1

    serve_session(scenario, graphs=graphs,
                  config=ServeConfig(max_batch=1, jobs=1,
                                     cache_dir="off"))


def test_cache_file_corruption_recomputes_correctly(tmp_path):
    graphs = {"g": gen.binary_tree(4)}
    expected = _expected(graphs["g"], 2)

    async def populate(client, **_):
        resp = await client.dfs("g", 2)
        assert resp.result == expected

    serve_session(populate, graphs=graphs,
                  config=ServeConfig(max_batch=1, jobs=0,
                                     cache_dir=str(tmp_path)))

    files = list(tmp_path.glob("*.json"))
    assert files, "daemon shutdown should have flushed the result cache"
    for f in files:
        f.write_text("{ definitely not valid json")

    async def recompute(client, server, **_):
        resp = await client.dfs("g", 2)
        assert resp.ok and resp.result == expected
        assert not resp.cached               # corrupt file was discarded
        assert server.stats.cache_misses >= 1

    serve_session(recompute, graphs=graphs,
                  config=ServeConfig(max_batch=1, jobs=0,
                                     cache_dir=str(tmp_path)))


def test_cache_survives_daemon_restart_when_intact(tmp_path):
    """Control for the corruption test: an *intact* cache file is served
    as a hit by the next daemon lifetime."""
    graphs = {"g": gen.binary_tree(4)}
    expected = _expected(graphs["g"], 2)

    async def populate(client, **_):
        await client.dfs("g", 2)

    async def reuse(client, **_):
        resp = await client.dfs("g", 2)
        assert resp.cached and resp.result == expected

    cfg = ServeConfig(max_batch=1, jobs=0,
                      cache_dir=str(tmp_path))
    serve_session(populate, graphs=graphs, config=cfg)
    serve_session(reuse, graphs=graphs, config=cfg)


def test_dangling_shm_with_jobs_zero_is_a_non_event():
    """jobs=0 never touches shm for execution: unlinking segments must
    not even register."""
    graphs = {"g": gen.path_graph(12)}

    async def scenario(client, server, corpus, **_):
        entry = corpus.get("g")
        if entry.shared is not None:
            for shm in entry.shared._segments:
                shm.unlink()
        resp = await client.dfs("g", 0, no_cache=True)
        assert resp.ok and resp.result == _expected(graphs["g"], 0)
        assert server.stats.shm_fallbacks == 0

    serve_session(scenario, graphs=graphs, share=True,
                  config=ServeConfig(max_batch=1, jobs=0,
                                     cache_dir="off"))
