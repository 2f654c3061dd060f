"""Backend routing in the daemon: knob, auto dispatch, counters, keys."""

import asyncio

import numpy as np
import pytest

from repro.core.config import ServeConfig
from repro.core.diggerbees import run_diggerbees
from repro.core.frontier import min_parent_tree, run_frontier
from repro.errors import SimulationError
from repro.graphs import generators as gen
from repro.graphs.properties import bfs_levels
from repro.serve.cache import result_key
from repro.serve.exec import execute_dfs_batch, execute_query
from repro.serve.protocol import frontier_result_to_dict

from tests.serve.conftest import hold_every_slot, serve_session, until


def routing_graphs():
    return {
        "wide": gen.star_mesh(12, leaves_per_hub=9, seed=8),   # wide
        "spine": gen.path_graph(120),                          # narrow
    }


def make_config(backend):
    return ServeConfig(max_batch=8, jobs=0, cache_dir="off",
                       backend=backend)


def test_default_daemon_stays_dfs():
    async def scenario(client, server, **_):
        resp = await client.dfs("wide", 0)
        assert resp.ok and "cycles" in resp.result
        status = await client.status()
        assert status["config"]["backend"] == "dfs"
        assert status["stats"]["backend_dfs"] == 1
        assert status["stats"]["backend_frontier"] == 0

    serve_session(scenario, graphs=routing_graphs())


def test_forced_frontier_daemon_answers_with_frontier_payloads():
    async def scenario(client, server, corpus, **_):
        for name in ("wide", "spine"):  # forced: regime is irrelevant
            resp = await client.dfs(name, 0)
            assert resp.ok and resp.result["backend"] == "frontier"
            expected = frontier_result_to_dict(
                run_frontier(corpus.get(name).graph, 0))
            assert resp.result == expected
        status = await client.status()
        assert status["stats"]["backend_frontier"] == 2
        assert status["stats"]["backend_dfs"] == 0
        assert status["config"]["backend"] == "frontier"
        # Forced knobs never pay the regime BFS.
        assert corpus.get("wide")._regime is None

    serve_session(scenario, graphs=routing_graphs(),
                  config=make_config("frontier"))


def test_auto_routes_by_regime_and_pins_overrides():
    async def scenario(client, server, corpus, **_):
        # Wide graphs route to the frontier family.
        wide = await client.dfs("wide", 0)
        assert wide.result["backend"] == "frontier"
        expected = frontier_result_to_dict(
            run_frontier(corpus.get("wide").graph, 0))
        assert wide.result == expected
        narrow = await client.dfs("spine", 0)
        assert "cycles" in narrow.result  # DFS simulation payload
        # Engine-config overrides pin the query to the DFS simulation
        # even on a wide graph.
        pinned = await client.query(
            "dfs", "wide", root=0, config={"seed": 5}, no_cache=True)
        assert "cycles" in pinned.result
        status = await client.status()
        assert status["stats"]["backend_frontier"] == 1
        assert status["stats"]["backend_dfs"] == 2
        # The regime was profiled once per resident graph and memoized.
        assert corpus.get("wide")._regime == "wide"
        assert corpus.get("spine")._regime == "narrow"

    serve_session(scenario, graphs=routing_graphs(),
                  config=make_config("auto"))


def test_auto_runs_a_lone_query_on_its_family_scalar_engine(tier_calls):
    # A lone override-free query runs one scalar call of its routed
    # family: a single-root frontier run on the wide graph (not a
    # one-lane swarm), a fused DFS run on the path.
    async def scenario(client, corpus, **_):
        expected = {
            "wide": ("frontier", frontier_result_to_dict(
                run_frontier(corpus.get("wide").graph, 0))),
            "spine": ("dfs_scalar", execute_query(
                corpus.get("spine").graph, "dfs", 0, None,
                backend="dfs")),
        }
        for name, (tier, payload) in expected.items():
            tier_calls.clear()
            resp = await client.dfs(name, 0)
            assert tier_calls == {tier: 1}
            assert resp.batch == 1
            assert resp.result == payload

    serve_session(scenario, graphs=routing_graphs(),
                  config=make_config("auto"))


def test_forced_frontier_daemon_coalesces_into_one_swarm(tier_calls,
                                                        lockstep_from):
    lockstep_from(2)

    async def scenario(client, server, corpus, **_):
        gate, holders = await hold_every_slot(client, server, "wide")
        roots = [0, 3, 7, 11]
        tasks = [asyncio.ensure_future(client.dfs("spine", r))
                 for r in roots]
        await until(lambda: server.policy.pending_count() == len(roots))
        gate.set()   # a slot frees: the held group launches whole
        resps = await asyncio.gather(*tasks)
        assert all(h.ok for h in await asyncio.gather(*holders))
        # All four rode one admission group -> one swarm execution.
        assert tier_calls == {"swarm": 1}
        widths = {resp.batch for resp in resps}
        assert widths == {len(roots)}
        assert server.stats.hive_batches == 1
        graph = corpus.get("spine").graph
        for r, resp in zip(roots, resps):
            assert resp.ok and resp.result["backend"] == "frontier"
            expected = frontier_result_to_dict(run_frontier(graph, r))
            assert resp.result == expected
            # Batched payloads equal in-process scalar execution.
            assert resp.result == execute_query(graph, "dfs", r,
                                                backend="frontier")
        status = await client.status()
        assert status["stats"]["backend_frontier"] == len(roots)
        # Forced knobs never pay the regime BFS.
        assert corpus.get("spine")._regime is None

    serve_session(scenario, graphs=routing_graphs(),
                  config=make_config("frontier"))


def test_frontier_batch_isolates_bad_roots(tier_calls, lockstep_from):
    lockstep_from(2)

    async def scenario(client, server, corpus, **_):
        from repro.errors import ServeError

        # One admission group: the bad root settles as its own error and
        # the two good roots still run as one swarm.
        gate, holders = await hold_every_slot(client, server, "wide")
        tasks = asyncio.gather(
            client.dfs("wide", 0, no_cache=True),
            client.dfs("wide", 10**6, no_cache=True),
            client.dfs("wide", 5, no_cache=True),
            return_exceptions=True)
        await until(lambda: server.policy.pending_count() == 3)
        gate.set()
        ok1, bad_exc, ok2 = await tasks
        assert all(h.ok for h in await asyncio.gather(*holders))
        assert tier_calls == {"swarm": 1}
        for resp in (ok1, ok2):
            assert resp.ok and resp.result["backend"] == "frontier"
            assert resp.batch == 3
        assert isinstance(bad_exc, ServeError)
        assert "out of range" in str(bad_exc)

    serve_session(scenario, graphs=routing_graphs(),
                  config=make_config("frontier"))


@pytest.mark.parametrize("backend,scalar", [("dfs", "dfs_scalar"),
                                            ("frontier", "frontier")])
def test_coalesced_pair_runs_on_the_scalar_engines(backend, scalar,
                                                   tier_calls):
    # Two queries are below the swarm width (and DFS has no lockstep
    # tier): the pair costs two scalar runs.
    graph = routing_graphs()["wide"]
    tasks = [(0, None), (5, None)]
    tier_calls.clear()
    got = execute_dfs_batch(graph, tasks, backend)
    assert tier_calls == {scalar: 2}
    assert got == [execute_query(graph, "dfs", root, None, backend=backend)
                   for root, _ in tasks]


def test_frontier_payload_matches_dfs_reachability():
    # Different engine family, same graph truth: identical visited set
    # and visit count (the parent trees legitimately differ).
    async def scenario(client, corpus, **_):
        resp = await client.dfs("wide", 0)
        graph = corpus.get("wide").graph
        ref = run_diggerbees(graph, 0)
        assert resp.result["visited"] == \
            np.flatnonzero(ref.traversal.visited).tolist()
        assert resp.result["n_visited"] == int(ref.traversal.n_visited)
        canonical = min_parent_tree(graph, bfs_levels(graph, 0), 0)
        assert resp.result["parent"] == canonical.tolist()

    serve_session(scenario, graphs=routing_graphs(),
                  config=make_config("frontier"))


def test_non_dfs_ops_ignore_the_backend_knob():
    async def scenario(client, server, **_):
        resp = await client.query("spanning", "wide")
        assert resp.ok and resp.result["n_components"] == 1
        status = await client.status()
        assert status["stats"]["backend_frontier"] == 0

    serve_session(scenario, graphs=routing_graphs(),
                  config=make_config("frontier"))


def test_cached_frontier_results_replay():
    async def scenario(client, server, **_):
        first = await client.dfs("wide", 3)
        second = await client.dfs("wide", 3)
        assert second.cached and second.result == first.result
        status = await client.status()
        # One real frontier execution served both requests.
        assert status["stats"]["backend_frontier"] == 1

    serve_session(scenario, graphs=routing_graphs(),
                  config=make_config("frontier"))


def test_result_key_separates_backends():
    fp = "deadbeef"
    dfs_key = result_key("dfs", 0, None, fp)
    assert result_key("dfs", 0, None, fp, "frontier") != dfs_key
    # The default backend is the DFS family.
    assert result_key("dfs", 0, None, fp, "dfs") == dfs_key


def test_serve_config_backend_validation():
    for bad in ("gpu", "swarm"):
        with pytest.raises(SimulationError):
            ServeConfig(backend=bad)
    assert ServeConfig(backend="auto").backend == "auto"
