"""Failure paths: the daemon degrades to correct-but-slower, never wrong.

Four induced failures, each verified against direct execution:

* the worker pool's processes are killed mid-service (BrokenProcessPool)
  -> one retry on a fresh pool answers correctly;
* the export file backing a resident graph is unlinked behind the
  daemon's back -> the graph demotes to pickle hand-off and the query
  still answers correctly;
* the pool cannot pickle the task -> the lease is released and the
  query answers in process;
* the on-disk result cache is corrupted between daemon lifetimes -> the
  corrupt file is discarded and results are recomputed, not poisoned.

A client error is not an infrastructure failure: an invalid or
mistyped engine config fails its own request before admission, so no
batch launches and no rung falls back.  Nor is a task's own failure:
whatever the engine raises is that query's answer, returned by the
worker, and never runs a second time in process.
"""

import json
import os

import pytest

from repro.bench import harness
from repro.core.config import ServeConfig
from repro.core.diggerbees import run_diggerbees
from repro.graphs import generators as gen
from repro.graphs.shm import SPEC_KEY
from repro.serve.protocol import Request, dfs_result_to_dict

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
        # worker-side graph cache is keyed per export, so the doomed
        # graph's export is guaranteed cold.
        await client.dfs("warm", 0, no_cache=True)
        await client.add_graph("fresh", fresh.row_ptr, fresh.column_idx)
        entry = corpus.get("fresh")
        assert entry.shm_ok
        # Unlink the export file behind the daemon's back: a worker's
        # mapping of it now fails.
        os.unlink(entry.wire()[SPEC_KEY])
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


def test_unpicklable_task_runs_in_process_and_releases_its_lease(
        monkeypatch):
    """A task the pool cannot pickle fails at ``result()``; the pool
    rung releases its lease and the in-process rung answers."""
    from repro.serve import server as server_mod

    real = server_mod.execute_dfs_batch

    def local_batch(*args):   # a closure: the pool cannot pickle it
        return real(*args)

    monkeypatch.setattr(server_mod, "execute_dfs_batch", local_batch)
    graphs = {"g": gen.binary_tree(5)}

    async def scenario(client, server, **_):
        resp = await client.dfs("g", 3, no_cache=True)
        assert resp.ok and resp.result == _expected(graphs["g"], 3)
        assert server.stats.inline_fallbacks >= 1
        assert harness._HANDLE is not None
        assert harness._HANDLE.users == 0

    serve_session(scenario, graphs=graphs,
                  config=ServeConfig(max_batch=1, jobs=1,
                                     cache_dir="off"))


@pytest.mark.parametrize("jobs", [0, 1])
def test_negative_seed_fails_validation_before_admission(jobs):
    """``seed=-1`` is rejected by the engine config's own validation
    (``SimulationError``), not by NumPy inside a launched batch, where
    the pool rung would count the error as a pool failure and run the
    query again in process."""
    graphs = {"g": gen.binary_tree(4)}

    async def scenario(client, server, **_):
        assert (await client.dfs("g", 0, no_cache=True)).ok
        batches = server.stats.batches
        resp = await client.request(Request(
            op="dfs", graph="g", root=0, config={"seed": -1},
            no_cache=True))
        assert not resp.ok
        assert resp.error["type"] == "SimulationError"
        assert server.stats.batches == batches
        assert server.stats.inline_fallbacks == 0

    serve_session(scenario, graphs=graphs,
                  config=ServeConfig(max_batch=1, jobs=jobs,
                                     cache_dir="off"))


@pytest.mark.parametrize("jobs", [0, 1])
@pytest.mark.parametrize("config", [{"hot_size": 64.5}, {"seed": 1.5},
                                    {"two_level": 1}],
                         ids=["float-hot-size", "float-seed",
                              "int-two-level"])
def test_mistyped_config_fails_validation_before_admission(config, jobs):
    """An override must have its field's JSON type.  The config's own
    checks compare values only, so ``64.5`` and ``1.5`` would reach the
    engine and fail there with a ``TypeError`` (twice at ``jobs=1``),
    and ``1`` for ``true`` would be answered under its own cache key."""
    graphs = {"g": gen.road_network(500)}
    (field,) = config

    async def scenario(client, server, **_):
        assert (await client.dfs("g", 0, no_cache=True)).ok
        batches = server.stats.batches
        resp = await client.request(Request(
            op="dfs", graph="g", root=0, config=config, no_cache=True))
        assert not resp.ok
        assert resp.error["type"] == "ProtocolError"
        assert repr(field) in resp.error["message"]
        assert server.stats.batches == batches
        assert server.stats.inline_fallbacks == 0

    serve_session(scenario, graphs=graphs,
                  config=ServeConfig(max_batch=1, jobs=jobs,
                                     cache_dir="off"))


def _raise_runtime_error(*args, **kwargs):
    raise RuntimeError("engine fault")


def test_any_engine_exception_is_its_tasks_marker(monkeypatch):
    from repro.core import diggerbees
    from repro.serve.exec import ERROR_KEY, execute_dfs_batch

    monkeypatch.setattr(diggerbees, "run_diggerbees", _raise_runtime_error)
    marker = {ERROR_KEY: {"type": "RuntimeError", "message": "engine fault"}}
    assert execute_dfs_batch(gen.binary_tree(4), [(0, None), (1, None)],
                             "dfs") == [marker, marker]


def test_engine_exception_in_a_worker_is_answered_not_rerun(monkeypatch):
    """The worker settles the engine's ``RuntimeError`` as the query's
    answer, so the pool rung does not run the query again in process
    and counts no inline fallback."""
    from repro.core import diggerbees

    # Patched before the first lease forks the worker, so the worker
    # inherits it; the autouse fixture shuts that pool down afterwards.
    monkeypatch.setattr(diggerbees, "run_diggerbees", _raise_runtime_error)
    graphs = {"g": gen.binary_tree(4)}

    async def scenario(client, server, **_):
        resp = await client.request(Request(
            op="dfs", graph="g", root=0, no_cache=True))
        assert not resp.ok
        assert resp.error == {"type": "RuntimeError",
                              "message": "engine fault"}
        assert server.stats.batches == 1
        assert server.stats.inline_fallbacks == 0
        assert harness._HANDLE is not None and harness._HANDLE.users == 0

    serve_session(scenario, graphs=graphs,
                  config=ServeConfig(max_batch=1, jobs=1, backend="dfs",
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
    """jobs=0 never reads the export for execution: unlinking it must
    not even register."""
    graphs = {"g": gen.path_graph(12)}

    async def scenario(client, server, corpus, **_):
        entry = corpus.get("g")
        assert entry.shm_ok
        os.unlink(entry.wire()[SPEC_KEY])
        resp = await client.dfs("g", 0, no_cache=True)
        assert resp.ok and resp.result == _expected(graphs["g"], 0)
        assert server.stats.shm_fallbacks == 0

    serve_session(scenario, graphs=graphs, share=True,
                  config=ServeConfig(max_batch=1, jobs=0,
                                     cache_dir="off"))
