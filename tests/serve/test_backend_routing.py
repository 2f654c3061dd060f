"""Backend routing in the daemon: knob, auto dispatch, counters, keys."""

import numpy as np
import pytest

from repro.core.config import ServeConfig
from repro.core.diggerbees import run_diggerbees
from repro.core.dispatch import load_calibration
from repro.core.frontier import run_frontier
from repro.errors import SimulationError
from repro.graphs import generators as gen
from repro.serve.cache import result_key
from repro.serve.protocol import frontier_result_to_dict

from tests.serve.conftest import serve_session


@pytest.fixture(autouse=True)
def _no_calibration(monkeypatch):
    """Pin these tests to the regime proxy: a recorded calibration
    artifact under benchmarks/ must not change routing expectations."""
    import repro.core.dispatch as dispatch

    monkeypatch.setattr(dispatch, "load_calibration",
                        lambda path=None: None)


def routing_graphs():
    return {
        "wide": gen.star_mesh(12, leaves_per_hub=9, seed=8),   # shallow
        "spine": gen.path_graph(120),                          # deep
    }


def make_config(backend):
    return ServeConfig(batch_window=0.01, max_batch=8, jobs=0,
                       cache_dir="off", backend=backend)


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
        # Shallow graphs route to the frontier family.
        shallow = await client.dfs("wide", 0)
        assert shallow.result["backend"] == "frontier"
        expected = frontier_result_to_dict(
            run_frontier(corpus.get("wide").graph, 0))
        assert shallow.result == expected
        deep = await client.dfs("spine", 0)
        assert "cycles" in deep.result  # DFS simulation payload
        # Engine-config overrides pin the query to the DFS simulation
        # even on a shallow graph.
        pinned = await client.query(
            "dfs", "wide", root=0, config={"seed": 5}, no_cache=True)
        assert "cycles" in pinned.result
        status = await client.status()
        assert status["stats"]["backend_frontier"] == 1
        assert status["stats"]["backend_dfs"] == 2
        # The regime was profiled once per resident graph and memoized.
        assert corpus.get("wide")._regime == "shallow"
        assert corpus.get("spine")._regime == "deep"

    serve_session(scenario, graphs=routing_graphs(),
                  config=make_config("auto"))


def test_auto_without_batching_stays_on_single_root_frontier(
        monkeypatch, tier_calls):
    # With the committed table every override-free query routes to the
    # frontier family; a group that flushes with one query runs the
    # single-root engine, not a one-lane swarm.
    import repro.core.dispatch as dispatch

    monkeypatch.setattr(dispatch, "load_calibration", load_calibration)

    async def scenario(client, corpus, **_):
        for name in ("wide", "spine"):
            tier_calls.clear()
            resp = await client.dfs(name, 0)
            assert tier_calls == {"frontier": 1}
            assert resp.batch == 1
            assert resp.result == frontier_result_to_dict(
                run_frontier(corpus.get(name).graph, 0))

    serve_session(scenario, graphs=routing_graphs(),
                  config=make_config("auto"))


def test_forced_frontier_daemon_coalesces_into_one_swarm(tier_calls):
    async def scenario(client, server, corpus, **_):
        import asyncio

        roots = [0, 3, 7, 11]
        resps = await asyncio.gather(*[
            client.dfs("spine", r) for r in roots])
        # All four rode one admission group -> one swarm execution.
        assert tier_calls == {"swarm": 1}
        widths = {resp.batch for resp in resps}
        assert widths == {len(roots)}
        for r, resp in zip(roots, resps):
            assert resp.ok and resp.result["backend"] == "frontier"
            expected = frontier_result_to_dict(
                run_frontier(corpus.get("spine").graph, r))
            assert resp.result == expected
        status = await client.status()
        assert status["stats"]["backend_frontier"] == len(roots)
        # Forced knobs never pay the regime BFS.
        assert corpus.get("spine")._regime is None

    serve_session(scenario, graphs=routing_graphs(),
                  config=make_config("frontier"))


def test_frontier_batch_isolates_bad_roots(tier_calls):
    async def scenario(client, server, corpus, **_):
        import asyncio

        from repro.errors import ServeError

        # One admission group: the bad root settles as its own error and
        # the two good roots still run as one swarm.
        ok1, bad_exc, ok2 = await asyncio.gather(
            client.dfs("wide", 0, no_cache=True),
            client.dfs("wide", 10**6, no_cache=True),
            client.dfs("wide", 5, no_cache=True),
            return_exceptions=True)
        assert tier_calls == {"swarm": 1}
        for resp in (ok1, ok2):
            assert resp.ok and resp.result["backend"] == "frontier"
            assert resp.batch == 3
        assert isinstance(bad_exc, ServeError)
        assert "out of range" in str(bad_exc)

    serve_session(scenario, graphs=routing_graphs(),
                  config=make_config("frontier"))


def test_frontier_payload_matches_dfs_reachability():
    # Different engine family, same graph truth: identical visited set
    # and visit count (the parent trees legitimately differ).
    async def scenario(client, corpus, **_):
        resp = await client.dfs("wide", 0)
        ref = run_diggerbees(corpus.get("wide").graph, 0)
        assert resp.result["visited"] == \
            np.flatnonzero(ref.traversal.visited).tolist()
        assert resp.result["n_visited"] == int(ref.traversal.n_visited)

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
    # The default backend is un-keyed so pre-existing DFS cache entries
    # (including disk spills) stay addressable.
    assert result_key("dfs", 0, None, fp, "dfs") == dfs_key


def test_serve_config_backend_validation():
    for bad in ("gpu", "swarm"):
        with pytest.raises(SimulationError):
            ServeConfig(backend=bad)
    assert ServeConfig(backend="auto").backend == "auto"
