"""Correctness under concurrency: many clients, cancellations, deaths.

The contract under stress: every surviving request gets exactly one
response, that response is the bit-identical result for *its* query (no
cross-request bleed), and a draining shutdown answers everything that
was admitted.  Client misbehavior — cancelling coroutines mid-flight,
dropping whole connections mid-batch — must cost only the misbehaving
client its own responses.
"""

import asyncio
import random

import numpy as np

from repro.core.config import ServeConfig
from repro.core.diggerbees import run_diggerbees
from repro.core.frontier import run_frontier
from repro.graphs import generators as gen
from repro.serve.client import AsyncServeClient
from repro.serve.protocol import dfs_result_to_dict, frontier_result_to_dict

from tests.serve.conftest import hold_every_slot, serve_session, until


def _graphs():
    return {"a": gen.binary_tree(5), "b": gen.path_graph(40)}


def _expected_payloads(graphs):
    return {
        (name, root): dfs_result_to_dict(run_diggerbees(g, root))
        for name, g in graphs.items()
        for root in range(0, g.n_vertices, 7)
    }


def _expected_frontier_payloads(graphs):
    return {
        (name, root): frontier_result_to_dict(run_frontier(g, root))
        for name, g in graphs.items()
        for root in range(0, g.n_vertices, 7)
    }


def test_many_clients_no_lost_duplicated_or_bled_responses():
    graphs = _graphs()
    expected = _expected_payloads(graphs)
    keys = sorted(expected)
    rng = random.Random(42)
    n_clients, per_client = 8, 24

    async def scenario(socket_path, server, **_):
        clients = [await AsyncServeClient().connect(socket_path)
                   for _ in range(n_clients)]
        try:
            plans = [[keys[rng.randrange(len(keys))]
                      for _ in range(per_client)]
                     for _ in range(n_clients)]

            async def drive(client, plan):
                resps = await asyncio.gather(*[
                    client.dfs(name, root,
                               no_cache=rng.random() < 0.25)
                    for name, root in plan])
                return resps

            all_resps = await asyncio.gather(*[
                drive(c, p) for c, p in zip(clients, plans)])
            for plan, resps in zip(plans, all_resps):
                assert len(resps) == per_client          # none lost
                for (name, root), resp in zip(plan, resps):
                    assert resp.ok
                    # No bleed: the payload is for THIS (graph, root).
                    assert resp.result == expected[(name, root)], (
                        f"response for {name}/{root} carries a "
                        f"different query's payload")
            assert server.stats.dropped_responses == 0
        finally:
            for c in clients:
                await c.close()

    serve_session(scenario, graphs=graphs,
                  config=ServeConfig(max_batch=16, jobs=0, cache_dir="off"))


def test_randomized_cancellation_leaves_survivors_intact():
    graphs = _graphs()
    expected = _expected_payloads(graphs)
    keys = sorted(expected)
    rng = random.Random(7)

    async def scenario(client, server, socket_path, **_):
        other = await AsyncServeClient().connect(socket_path)
        try:
            tasks = []
            for i in range(40):
                name, root = keys[rng.randrange(len(keys))]
                owner = client if i % 2 else other
                tasks.append((name, root, asyncio.ensure_future(
                    owner.dfs(name, root, no_cache=True))))
            await asyncio.sleep(0)          # let requests hit the wire
            cancelled = set()
            for i, (_, _, t) in enumerate(tasks):
                if rng.random() < 0.4:
                    t.cancel()
                    cancelled.add(i)
            for i, (name, root, t) in enumerate(tasks):
                if i in cancelled:
                    try:
                        await t
                    except (asyncio.CancelledError, Exception):
                        pass
                else:
                    resp = await t
                    assert resp.ok
                    assert resp.result == expected[(name, root)]
            # The daemon is still fully functional afterwards.
            resp = await client.dfs("a", 0)
            assert resp.ok and resp.result == expected[("a", 0)]
        finally:
            await other.close()

    serve_session(scenario, graphs=graphs,
                  config=ServeConfig(max_batch=8, jobs=0, cache_dir="off"))


def test_disconnect_mid_batch_does_not_hurt_batchmates(lockstep_from):
    lockstep_from(2)
    graphs = _graphs()
    expected = _expected_frontier_payloads(graphs)

    async def scenario(client, server, socket_path, **_):
        gate, holders = await hold_every_slot(client, server, "b")
        doomed = await AsyncServeClient().connect(socket_path)
        # Both queries land in the same held admission group (same
        # graph, same config, every slot busy).
        doomed_task = asyncio.ensure_future(
            doomed.dfs("a", 7, no_cache=True))
        survivor_task = asyncio.ensure_future(
            client.dfs("a", 0, no_cache=True))
        await until(lambda: server.policy.pending_count() == 2)
        await doomed.close()                # connection dies pre-launch
        doomed_task.cancel()
        try:
            await doomed_task
        except (asyncio.CancelledError, Exception):
            pass
        gate.set()
        resp = await asyncio.wait_for(survivor_task, timeout=30)
        assert resp.ok and resp.result == expected[("a", 0)]
        assert resp.batch == 2              # it rode the doomed one's group
        assert all(h.ok for h in await asyncio.gather(*holders))
        # The dead client's response was dropped, not crashed on.
        await asyncio.sleep(0.05)
        assert server.stats.errors == 0

    serve_session(scenario, graphs=graphs,
                  config=ServeConfig(max_batch=8, jobs=0, cache_dir="off",
                                     backend="frontier"))


def test_clean_shutdown_drains_admitted_queries(lockstep_from):
    lockstep_from(2)
    graphs = _graphs()
    expected = _expected_frontier_payloads(graphs)

    async def scenario(client, server, **_):
        # Hold queries in an admission group behind two busy slots, then
        # stop: the drain must launch and answer them.
        gate, holders = await hold_every_slot(client, server, "b")
        tasks = [asyncio.ensure_future(
            client.dfs("a", r, no_cache=True)) for r in (0, 7, 14)]
        await until(lambda: server.policy.pending_count() == 3)
        stopping = asyncio.ensure_future(server.stop(drain=True))
        await until(lambda: server.policy.pending_count() == 0)
        gate.set()
        await stopping
        for root, t in zip((0, 7, 14), tasks):
            resp = await asyncio.wait_for(t, timeout=10)
            assert resp.ok and resp.result == expected[("a", root)]
            assert resp.batch == 3
        assert all(h.ok for h in await asyncio.gather(*holders))

    serve_session(scenario, graphs=graphs,
                  config=ServeConfig(max_batch=64, jobs=0, cache_dir="off",
                                     backend="frontier"))


def test_pipelined_single_connection_interleaving():
    """One connection, interleaved misses/hits/errors: ids never cross."""
    graphs = _graphs()
    expected = _expected_payloads(graphs)

    async def scenario(client, **_):
        outcomes = await asyncio.gather(
            client.dfs("a", 0),
            client.dfs("b", 7),
            client.dfs("a", 10_000),        # error
            client.dfs("a", 0),             # coalesces/hits
            client.query("spanning", "b"),
            return_exceptions=True)
        assert outcomes[0].result == expected[("a", 0)]
        assert outcomes[1].result == expected[("b", 7)]
        assert isinstance(outcomes[2], Exception)
        assert outcomes[3].result == expected[("a", 0)]
        assert outcomes[4].result["n_components"] == 1

    serve_session(scenario, graphs=graphs)


def test_visited_arrays_differ_across_roots():
    """Sanity for the bleed assertions: distinct queries really do have
    distinct payloads, so equality checks above are discriminating."""
    graphs = _graphs()
    expected = _expected_payloads(graphs)
    payloads = [np.array(v["parent"]) for v in expected.values()]
    assert len({p.tobytes() for p in payloads}) > 1
