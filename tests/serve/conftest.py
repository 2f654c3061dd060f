"""Shared helpers for the serve suite: one-call daemon sessions.

No pytest-asyncio in the environment, so async scenarios run through
:func:`serve_session`: it stands up a real daemon (unix socket, wire
protocol, the works) plus one connected client inside ``asyncio.run``,
hands both to the scenario coroutine, and guarantees teardown.
:func:`hold_every_slot` (built on :func:`gate_executor`) and
:func:`until` let a scenario fill the executor slots and wait for
admission to hold queries behind them.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import tempfile

import pytest

from repro.core.config import ServeConfig
from repro.graphs import generators as gen
from repro.serve.client import AsyncServeClient
from repro.serve.corpus import ResidentCorpus
from repro.serve.server import ServeServer


def default_graphs():
    return {
        "path": gen.path_graph(48),
        "tree": gen.binary_tree(5),
        "dag": gen.citation_graph(32, seed=3, symmetrize=False),
    }


def serve_session(scenario, *, graphs=None, config=None, share=False,
                  connect=True):
    """Run ``scenario(server=, client=, corpus=, socket_path=)`` against
    a live daemon; returns the coroutine's result.  Teardown removes the
    socket's temporary directory."""

    async def main():
        corpus = ResidentCorpus(share=share)
        for name, g in (graphs if graphs is not None
                        else default_graphs()).items():
            corpus.add(g, name)
        server = ServeServer(corpus, config or ServeConfig(
            max_batch=8, jobs=0, cache_dir="off"))
        sock_dir = tempfile.mkdtemp(prefix="repro-serve-test-")
        sock = os.path.join(sock_dir, "t.sock")
        client = None
        try:
            await server.start(sock)
            if connect:
                client = await AsyncServeClient().connect(sock)
            return await scenario(server=server, client=client,
                                  corpus=corpus, socket_path=sock)
        finally:
            if client is not None:
                await client.close()
            await server.stop()
            corpus.close()
            shutil.rmtree(sock_dir, ignore_errors=True)

    return asyncio.run(main())


def gate_executor(server):
    """Make every execution on ``server`` wait for the returned event,
    so launched batches hold their slots until the scenario sets it."""
    gate = asyncio.Event()
    execute = server._execute

    async def gated(fn, entry, *args):
        await gate.wait()
        return await execute(fn, entry, *args)

    server._execute = gated
    return gate


async def until(predicate, timeout=10.0):
    """Poll ``predicate`` every millisecond until it holds."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        assert loop.time() < deadline, "condition never held"
        await asyncio.sleep(0.001)


async def hold_every_slot(client, server, graph):
    """Fill every executor slot with a gated ``cycles`` query on
    ``graph``, so admission holds what arrives next; returns the gate
    and the pending holder responses."""
    gate = gate_executor(server)
    holders = [asyncio.ensure_future(client.query(
        "cycles", graph, no_cache=True))
        for _ in range(server.policy.slots)]
    await until(lambda: server.stats.batches == server.policy.slots)
    return gate, holders


@pytest.fixture
def session():
    return serve_session
