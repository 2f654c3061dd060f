"""End-to-end daemon tests: real socket, real protocol, full stack."""

import asyncio
import json

import numpy as np
import pytest

from repro.core.config import ServeConfig
from repro.core.diggerbees import run_diggerbees
from repro.errors import ServeError
from repro.graphs import generators as gen
from repro.serve.client import AsyncServeClient
from repro.serve.corpus import ResidentCorpus
from repro.serve.protocol import dfs_result_to_dict
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
    # A free slot takes a frontier query on arrival: it never waits for
    # company that is not coming.
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


@pytest.mark.parametrize("jobs,slots", [(0, 2), (1, 2), (2, 4)])
def test_admission_slots_follow_the_executor(jobs, slots):
    # Inline threads take one batch each; a worker process takes one
    # running and one queued, so it never idles while its result
    # travels back to the daemon.
    server = ServeServer(ResidentCorpus(share=False),
                         ServeConfig(jobs=jobs, cache_dir="off"))
    assert server.policy.slots == slots


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
        await client.dfs("path", 0)
        status = await client.status()
        assert set(status["graphs"]) == {"path", "tree", "dag"}
        assert status["stats"]["requests"] >= 1
        assert status["config"]["max_batch"] == 8
        graphs = await client.graphs()
        by_name = {g["name"]: g for g in graphs}
        assert by_name["path"]["n_vertices"] == 48
        assert by_name["dag"]["directed"] is True

    serve_session(scenario)


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
