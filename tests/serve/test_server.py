"""End-to-end daemon tests: real socket, real protocol, full stack."""

import asyncio
import json
import os
import threading
import time

import numpy as np
import pytest

from repro.core.config import ServeConfig
from repro.core.diggerbees import run_diggerbees
from repro.errors import ServeError
from repro.graphs import generators as gen
from repro.serve import server as server_mod
from repro.serve.client import AsyncServeClient
from repro.serve.corpus import ResidentCorpus
from repro.serve.protocol import Request, dfs_result_to_dict, encode_request
from repro.serve.server import ServeServer

from tests.serve.conftest import gate_executor, serve_session, until


# ---------------------------------------------------------------------------
# Query round trips.
# ---------------------------------------------------------------------------

def test_dfs_roundtrip_matches_direct_execution():
    async def scenario(client, corpus, **_):
        resp = await client.dfs("tree", 0)
        expected = dfs_result_to_dict(
            run_diggerbees(corpus.get("tree").graph, 0))
        assert resp.ok and resp.result == expected
        return resp

    resp = serve_session(scenario)
    assert not resp.cached


def test_session_removes_its_socket_directory():
    async def scenario(client, socket_path, **_):
        assert (await client.dfs("tree", 0)).ok
        return socket_path

    sock = serve_session(scenario)
    assert not os.path.exists(os.path.dirname(sock))


def test_all_app_ops_roundtrip():
    async def scenario(client, **_):
        scc = await client.query("scc", "dag")
        assert scc.result["n_components"] >= 1
        topo = await client.query("toposort", "dag")
        assert (topo.result["order"] is None) != (
            topo.result["cycle"] is None)
        cyc = await client.query("cycles", "tree")
        assert cyc.result["has_cycle"] is False
        bic = await client.query("biconnectivity", "tree")
        assert bic.result["n_components"] >= 1
        span = await client.query("spanning", "path")
        assert span.result["n_components"] == 1

    serve_session(scenario)


def test_unrooted_ops_ignore_root():
    # spanning does not read ``root``: an out-of-range one is not an
    # error, and every root shares one cache entry.
    async def scenario(client, **_):
        first = await client.query("spanning", "path", root=3)
        second = await client.query("spanning", "path", root=10**6)
        assert first.ok and second.ok
        assert not first.cached and second.cached
        assert second.result == first.result

    serve_session(scenario)


def test_cache_hit_is_identical_and_flagged():
    async def scenario(client, server, **_):
        first = await client.dfs("path", 0)
        second = await client.dfs("path", 0)
        assert not first.cached and second.cached
        assert first.result == second.result
        assert server.stats.cache_hits == 1
        third = await client.dfs("path", 0, no_cache=True)
        assert not third.cached and third.result == first.result

    serve_session(scenario)


@pytest.mark.parametrize("max_batch", [64, 256])
def test_scalar_only_family_skips_the_admission_window(max_batch):
    # The DFS family has no lockstep tier and never coalesces: at any
    # max_batch a config-pinned query runs alone, at once.
    async def scenario(client, server, **_):
        resp = await asyncio.wait_for(
            client.dfs("tree", 3, config={"seed": 4}), timeout=5.0)
        assert resp.ok and resp.batch == 1
        assert server.policy.pending_count() == 0

    serve_session(scenario, config=ServeConfig(
        max_batch=max_batch, jobs=0, cache_dir="off"))


def test_a_lone_frontier_query_launches_at_once():
    # A free slot takes a frontier query at the end of its arrival's
    # turn: it never waits for company that is not coming.
    async def scenario(client, server, **_):
        gate = gate_executor(server)
        task = asyncio.ensure_future(client.dfs("tree", 3))
        await until(lambda: server.stats.batches
                    + server.policy.pending_count() > 0)   # admitted
        assert server.stats.batches == 1
        assert server.policy.pending_count() == 0
        gate.set()
        resp = await asyncio.wait_for(task, timeout=10)
        assert resp.ok and resp.batch == 1
        assert resp.result["backend"] == "frontier"

    serve_session(scenario, config=ServeConfig(
        max_batch=64, jobs=0, cache_dir="off", backend="frontier"))


@pytest.mark.parametrize("jobs,slots", [(0, 1), (1, 2), (2, 4)])
def test_admission_slots_follow_the_executor(jobs, slots):
    # The one inline engine thread takes one batch at a time; a worker
    # process takes one running and one queued, so it never idles while
    # its result travels back to the daemon.  ``status`` reports it.
    server = ServeServer(ResidentCorpus(share=False),
                         ServeConfig(jobs=jobs, cache_dir="off"))
    assert server.policy.slots == slots
    assert server._status()["config"]["slots"] == slots


def test_inline_daemon_runs_one_batch_at_a_time(monkeypatch):
    # Misses sent together at jobs=0 wait in admission for the one
    # engine thread; none runs beside another on the interpreter lock.
    lock = threading.Lock()
    running = peak = 0
    real = server_mod.execute_dfs_batch

    def counted(*args):
        nonlocal running, peak
        with lock:
            running += 1
            peak = max(peak, running)
        try:
            time.sleep(0.02)    # room for a second thread to overlap
            return real(*args)
        finally:
            with lock:
                running -= 1

    monkeypatch.setattr(server_mod, "execute_dfs_batch", counted)

    async def scenario(client, server, **_):
        resps = await asyncio.gather(*[
            client.dfs("tree", r, no_cache=True) for r in range(6)])
        assert all(r.ok and r.batch == 1 for r in resps)
        assert server.stats.batches == 6

    serve_session(scenario)
    assert peak == 1


def test_a_cache_hit_is_answered_while_a_miss_holds_the_engine(
        monkeypatch):
    entered, release = threading.Event(), threading.Event()
    real = server_mod.execute_dfs_batch

    def blocking(*args):
        entered.set()
        release.wait(timeout=30)
        return real(*args)

    async def scenario(client, **_):
        warm = await client.dfs("tree", 0)      # cached from here on
        monkeypatch.setattr(server_mod, "execute_dfs_batch", blocking)
        try:
            miss = asyncio.ensure_future(client.dfs("tree", 1))
            await until(entered.is_set)
            hit = await asyncio.wait_for(client.dfs("tree", 0), timeout=5)
            assert hit.cached and hit.result == warm.result
            assert not miss.done()
        finally:
            release.set()
        assert (await asyncio.wait_for(miss, timeout=10)).ok

    serve_session(scenario)


def _one_write(*requests):
    """Encode requests as the lines of one socket write, so the daemon
    reads and admits them in one event-loop turn."""
    return b"".join(encode_request(r) for r in requests)


async def _answers(reader, n):
    return [json.loads(await asyncio.wait_for(reader.readline(), 10))
            for _ in range(n)]


class _Engine:
    """Stands in for ``execute_dfs_batch``: logs each batch's family and
    roots, makes DFS batches cost at least 50 ms whatever the host's
    speed, and can block the engine thread in its next call."""

    def __init__(self):
        self.real = server_mod.execute_dfs_batch
        self.calls = []
        self.block_next = False
        self.entered, self.release = threading.Event(), threading.Event()

    def __call__(self, graph, tasks, backend="dfs"):
        self.calls.append((backend, [root for root, _ in tasks]))
        if self.block_next:
            self.block_next = False
            self.entered.set()
            self.release.wait(timeout=30)
        if backend == "dfs":
            time.sleep(0.05)
        return self.real(graph, tasks, backend)


@pytest.mark.parametrize("blocked", [False, True])
def test_a_turn_launches_its_cheaper_miss_first(monkeypatch, blocked):
    # A DFS miss and then a frontier miss, sent in one write: with both
    # (graph, op, family) keys measured, the frontier batch launches
    # first, onto the free slot or, with the engine thread busy, onto
    # the slot it frees.
    engine = _Engine()
    monkeypatch.setattr(server_mod, "execute_dfs_batch", engine)
    pinned = {"seed": 1}              # config-pinned: the DFS family

    async def scenario(client, server, socket_path, **_):
        await client.dfs("tree", 0, config=pinned)
        await client.dfs("tree", 0)   # tree routes to frontier
        costs = server._status()["engine_ms"]["tree"]["dfs"]
        assert costs["dfs"]["mean"] > costs["frontier"]["mean"]
        if blocked:
            engine.block_next = True
            holder = asyncio.ensure_future(
                client.dfs("path", 0, no_cache=True))
            await until(engine.entered.is_set)
        reader, writer = await asyncio.open_unix_connection(socket_path)
        writer.write(_one_write(
            Request(op="dfs", id="d", graph="tree", root=1, config=pinned),
            Request(op="dfs", id="f", graph="tree", root=1)))
        await writer.drain()
        if blocked:
            await until(lambda: server.policy.pending_count() == 2)
            engine.release.set()
            assert (await asyncio.wait_for(holder, 10)).ok
        answers = await _answers(reader, 2)
        assert {a["id"] for a in answers} == {"d", "f"}
        assert all(a["ok"] and a["batch"] == 1 for a in answers)
        writer.close()
        await writer.wait_closed()

    serve_session(scenario, config=ServeConfig(
        max_batch=8, jobs=0, cache_dir="off", backend="auto"))
    assert engine.calls[-2:] == [("frontier", [1]), ("dfs", [1])]


def test_two_same_key_misses_in_one_turn_launch_first_alone(monkeypatch):
    # The first takes the free slot alone; the second waits in
    # admission for it.
    engine = _Engine()
    engine.block_next = True
    monkeypatch.setattr(server_mod, "execute_dfs_batch", engine)

    async def scenario(server, socket_path, **_):
        reader, writer = await asyncio.open_unix_connection(socket_path)
        writer.write(_one_write(
            Request(op="dfs", id="a", graph="tree", root=4),
            Request(op="dfs", id="b", graph="tree", root=5)))
        await writer.drain()
        await until(engine.entered.is_set)
        assert server.stats.batches == 1
        assert server.policy.pending_count() == 1
        engine.release.set()
        answers = await _answers(reader, 2)
        assert [(a["id"], a["ok"], a["batch"]) for a in answers] == [
            ("a", True, 1), ("b", True, 1)]
        writer.close()
        await writer.wait_closed()

    serve_session(scenario, config=ServeConfig(
        max_batch=8, jobs=0, cache_dir="off", backend="frontier"))
    assert engine.calls == [("frontier", [4]), ("frontier", [5])]


def test_shutdown_in_the_turn_of_two_misses_answers_each_once():
    async def scenario(server, socket_path, **_):
        reader, writer = await asyncio.open_unix_connection(socket_path)
        writer.write(_one_write(
            Request(op="dfs", id="t", graph="tree", root=0, no_cache=True),
            Request(op="dfs", id="p", graph="path", root=0, no_cache=True),
            Request(op="shutdown", id="s")))
        await writer.drain()
        answers = await _answers(reader, 3)
        await asyncio.wait_for(server.serve_until_shutdown(), timeout=10)
        writer.write_eof()
        assert await asyncio.wait_for(reader.read(), 10) == b""
        writer.close()
        await writer.wait_closed()
        return answers

    answers = serve_session(scenario)
    assert sorted(a["id"] for a in answers) == ["p", "s", "t"]
    assert all(a["ok"] for a in answers)
    by_id = {a["id"]: a for a in answers}
    assert by_id["s"]["result"] == {"stopping": True}
    assert by_id["t"]["result"]["n_visited"] == 63
    assert by_id["p"]["result"]["n_visited"] == 48


def test_identical_inflight_queries_singleflight():
    async def scenario(client, server, **_):
        resps = await asyncio.gather(*[
            client.dfs("tree", 2) for _ in range(8)])
        assert len({json.dumps(r.result, sort_keys=True)
                    for r in resps}) == 1
        assert server.stats.coalesced >= 1
        # Only one real execution happened for the eight requests.
        assert server.stats.cache_misses + server.stats.cache_hits == 8
        assert server.stats.batched_queries == 1

    serve_session(scenario)


def test_out_of_order_responses_correlate_by_id():
    async def scenario(client, **_):
        slow = asyncio.ensure_future(client.dfs("tree", 1))  # miss
        await client.dfs("tree", 1, no_cache=False)          # coalesces
        fast = await client.query("scc", "dag")              # app op
        assert fast.ok
        resp = await slow
        assert resp.ok

    serve_session(scenario)


# ---------------------------------------------------------------------------
# Error handling: per-request, daemon survives.
# ---------------------------------------------------------------------------

def test_error_responses_do_not_kill_the_daemon():
    async def scenario(client, **_):
        with pytest.raises(ServeError, match="unknown graph"):
            await client.dfs("nope", 0)
        with pytest.raises(ServeError, match="out of range"):
            await client.dfs("path", 10_000)
        with pytest.raises(ServeError, match="unknown engine-config"):
            await client.dfs("path", 0, config={"warp_speed": 9})
        with pytest.raises(ServeError):
            await client.query("scc", "tree")   # undirected -> error
        resp = await client.dfs("path", 0)      # still serving
        assert resp.ok

    serve_session(scenario)


def test_bad_root_inside_batch_fails_only_that_request():
    async def scenario(client, **_):
        good = [client.dfs("tree", r, no_cache=True) for r in (0, 1)]
        bad = client.dfs("tree", 10_000, no_cache=True)
        results = await asyncio.gather(*good, bad, return_exceptions=True)
        assert results[0].ok and results[1].ok
        assert isinstance(results[2], ServeError)

    serve_session(scenario)


def test_malformed_line_gets_error_response_and_connection_survives():
    async def scenario(client, socket_path, **_):
        reader, writer = await asyncio.open_unix_connection(socket_path)
        writer.write(b'{"op": "dfs", "id": "x1"}\n')   # missing graph
        await writer.drain()
        line = json.loads(await reader.readline())
        assert line["ok"] is False and line["id"] == "x1"
        writer.write(b"this is not json\n")
        await writer.drain()
        line = json.loads(await reader.readline())
        assert line["ok"] is False
        writer.write(b'{"op": "ping", "id": "x2"}\n')  # still usable
        await writer.drain()
        line = json.loads(await reader.readline())
        assert line["ok"] is True and line["id"] == "x2"
        writer.close()
        await writer.wait_closed()

    serve_session(scenario)


# ---------------------------------------------------------------------------
# Control ops.
# ---------------------------------------------------------------------------

def test_status_and_graphs_payloads():
    async def scenario(client, **_):
        answer = await client.dfs("path", 0)
        status = await client.status()
        assert set(status["graphs"]) == {"path", "tree", "dag"}
        assert status["stats"]["requests"] >= 1
        assert status["config"]["max_batch"] == 8
        assert status["config"]["slots"] == 1      # jobs=0: one thread
        # The cache holds the answer's JSON text, and says how much.
        assert status["caches"]["path"]["bytes"] == len(
            json.dumps(answer.result, separators=(",", ":")))
        graphs = await client.graphs()
        by_name = {g["name"]: g for g in graphs}
        assert by_name["path"]["n_vertices"] == 48
        assert by_name["dag"]["directed"] is True

    serve_session(scenario)


def test_status_reports_the_engine_ms_admission_ranks_by():
    # Per resident graph, each executed (op, family) with its running
    # mean engine ms per query and the query count it averages; an
    # unmeasured graph lists nothing (it ranks 0.0).
    async def scenario(client, server, **_):
        await client.dfs("tree", 0, config={"seed": 1})   # dfs family
        for root in (0, 1):
            await client.dfs("tree", root)                 # frontier
        await client.query("scc", "dag")
        await client.dfs("tree", 1)                        # a cache hit
        status = await client.status()
        costs = status["engine_ms"]
        assert set(costs) == {"path", "tree", "dag"}
        assert costs["path"] == {}
        assert set(costs["tree"]) == {"dfs"}
        assert {f: c["queries"] for f, c in costs["tree"]["dfs"].items()
                } == {"dfs": 1, "frontier": 2}
        assert costs["dag"]["scc"]["dfs"]["queries"] == 1
        means = [c["mean"] for op in costs.values()
                 for fam in op.values() for c in fam.values()]
        assert all(m > 0 for m in means)
        # The policy ranks an item by the same mean; unmeasured is 0.0.
        entry = server.corpus.get("tree")
        pending = server_mod._PendingQuery(
            Request(op="dfs", graph="tree"), "k", None, "frontier")
        assert server._expected_ms((entry, pending)) == pytest.approx(
            costs["tree"]["dfs"]["frontier"]["mean"], abs=1e-3)
        pending.backend = "dfs"
        entry = server.corpus.get("path")
        assert server._expected_ms((entry, pending)) == 0.0

    serve_session(scenario, config=ServeConfig(
        max_batch=8, jobs=0, cache_dir="off", backend="auto"))


@pytest.mark.parametrize("backend,counted", [("dfs", 3), ("frontier", 0)])
def test_reference_fallbacks_count_dfs_runs_off_the_fused_loop(
        backend, counted):
    # A config the fused loop cannot run (one-level stacks, a perturbed
    # schedule, a trace) sends an executed DFS query to the reference
    # loop; a frontier answer, a cache hit and an app op run no DFS.
    async def scenario(client, server, **_):
        for config in ({"two_level": False}, {"perturb_seed": 3},
                       {"trace": True}, {"seed": 2}):
            assert (await client.dfs("tree", 0, config=config)).ok
        assert (await client.dfs("tree", 0,
                                 config={"two_level": False})).cached
        await client.query("cycles", "tree")
        stats = (await client.status())["stats"]
        assert stats["reference_fallbacks"] == counted
        assert stats[f"backend_{backend}"] == 4

    serve_session(scenario, config=ServeConfig(
        max_batch=8, jobs=0, cache_dir="off", backend=backend))


def test_add_graph_then_query_and_idempotent_readd():
    async def scenario(client, corpus, **_):
        g = gen.path_graph(10)
        resp = await client.add_graph("fresh", g.row_ptr, g.column_idx)
        assert resp.result["added"] == "fresh"
        before = corpus.get("fresh").fingerprint
        r = await client.dfs("fresh", 0)
        assert r.result["n_visited"] == 10
        # Same content: idempotent.
        await client.add_graph("fresh", g.row_ptr, g.column_idx)
        assert corpus.get("fresh").fingerprint == before
        # Different content under the same name: replaced, cache keyed
        # by the new fingerprint (old entries unreachable).
        g2 = gen.path_graph(12)
        await client.add_graph("fresh", g2.row_ptr, g2.column_idx)
        assert corpus.get("fresh").fingerprint != before
        r2 = await client.dfs("fresh", 0)
        assert r2.result["n_visited"] == 12 and not r2.cached

    serve_session(scenario)


def test_add_graph_rejects_bad_payloads():
    from repro.serve.protocol import Request

    async def scenario(client, **_):
        resp = await client.request(
            Request(op="add_graph", payload={"name": "x"}))
        assert not resp.ok and "missing" in resp.error["message"]
        with pytest.raises(ServeError):
            await client.add_graph("bad", [0, 5], [1])  # inconsistent CSR

    serve_session(scenario)


def test_shutdown_op_stops_the_server():
    async def scenario(client, server, **_):
        resp = await client.shutdown()
        assert resp.result == {"stopping": True}
        await asyncio.wait_for(server.serve_until_shutdown(), timeout=10)

    serve_session(scenario)


def test_a_failing_stop_does_not_hang_the_daemon():
    # A cache flush that raises something other than OSError must not
    # leave serve_until_shutdown waiting forever: it returns, raising
    # the stop's error.
    async def scenario(client, server, **_):
        assert (await client.dfs("path", 0)).ok

        def broken_flush():
            raise RuntimeError("flush failed (injected)")

        server._caches["path"].flush = broken_flush
        try:
            assert (await client.shutdown()).result == {"stopping": True}
            with pytest.raises(RuntimeError, match="injected"):
                await asyncio.wait_for(server.serve_until_shutdown(),
                                       timeout=10)
        finally:
            # A stop that never finishes must fail this test, not hang
            # serve_session's own teardown stop().
            server._shutdown_done.set()

    serve_session(scenario)


# ---------------------------------------------------------------------------
# Invariance: responses do not depend on (jobs, max_batch).
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("max_batch,jobs", [
    (1, 0),      # no coalescing at all
    (4, 0),      # batched in-process
    (1, 1),      # scalar through the worker pool
    (4, 2),      # batched through the worker pool (shm hand-off)
])
def test_responses_invariant_to_execution_shape(max_batch, jobs):
    graphs = {"g": gen.binary_tree(4)}
    expected = [
        dfs_result_to_dict(run_diggerbees(graphs["g"], r,
                                          config=_cfg()))
        for r in range(4)
    ]

    async def scenario(client, **_):
        resps = await asyncio.gather(*[
            client.dfs("g", r, config={"seed": 5}, no_cache=True)
            for r in range(4)])
        return [r.result for r in resps]

    got = serve_session(
        scenario, graphs=graphs, share=jobs > 0,
        config=ServeConfig(max_batch=max_batch, jobs=jobs,
                           cache_dir="off"))
    assert got == expected


def _cfg():
    from repro.core.config import DiggerBeesConfig

    return DiggerBeesConfig(seed=5)


def test_visited_payload_reconstructs_dense_array():
    async def scenario(client, corpus, **_):
        resp = await client.dfs("tree", 3)
        g = corpus.get("tree").graph
        direct = run_diggerbees(g, 3)
        dense = np.zeros(g.n_vertices, bool)
        dense[resp.result["visited"]] = True
        assert np.array_equal(dense, direct.traversal.visited)
        assert resp.result["parent"] == direct.traversal.parent.tolist()

    serve_session(scenario)
