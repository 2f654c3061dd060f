"""Serve-diff oracle: one case's DFS answered by a live daemon.

The ``serve-diff`` stage in :mod:`repro.check.differential` sends every
fuzz case's DFS through :func:`query_dfs`, which starts a real
:class:`~repro.serve.server.ServeServer` for that case — real socket,
real wire protocol, real admission/cache/dispatch stack — and the stage
asserts the served payload is *equal* to the canonical payload of the
direct run (:func:`~repro.serve.protocol.dfs_result_to_dict` on both
sides, so equality is bit-identity of parents, visited sets, cycle
counts, step counts, and counters).

The daemon runs with ``jobs = 0``: queries execute on its engine thread
inside this process, which is what lets the mutation sanity suite work
through the served path — :func:`~repro.check.mutations.apply_mutation`
patches engine internals process-wide, so the daemon sees exactly the
same injected bug as the direct run.  Each call registers the graph
over the wire (the ``add_graph`` op) on a fresh daemon and stops it
before returning, so no answer outlives its case.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import tempfile
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import ServeConfig
from repro.errors import ServeError
from repro.serve.client import AsyncServeClient
from repro.serve.corpus import ResidentCorpus
from repro.serve.server import ServeServer

__all__ = ["TIMEOUT", "query_dfs"]

#: Seconds one case's exchange with its daemon may take, start to stop.
TIMEOUT = 120.0


def query_dfs(graph, root: int, overrides: Optional[Dict[str, Any]] = None,
              ) -> List[Tuple[Dict[str, Any], bool]]:
    """Serve ``graph``'s DFS from ``root`` twice on a fresh daemon;
    returns both answers' ``(result payload, was_cached)``.

    The daemon's socket directory (``repro-serve-oracle-*``) is removed
    before this returns.  Raises :class:`~repro.errors.ServeError` on
    transport failure, an error response, or no answer within
    :data:`TIMEOUT` — in the check ladder each is a serve-diff failure.
    """

    async def serve(socket_path: str):
        # share=False: jobs=0 never ships graphs to workers.  Nothing is
        # in flight at the stop unless a query timed out, and that one
        # is abandoned, not drained.
        server = ServeServer(ResidentCorpus(share=False),
                             ServeConfig(jobs=0, cache_dir="off",
                                         drain_timeout=0.0))
        client = AsyncServeClient()
        try:
            await server.start(socket_path)
            await client.connect(socket_path)
            await client.add_graph("case", graph.row_ptr, graph.column_idx,
                                   directed=graph.directed)
            answers = []
            for _ in range(2):
                resp = await client.dfs("case", root, config=overrides)
                answers.append((resp.result, resp.cached))
            return answers
        finally:
            await client.close()
            await server.stop()

    sock_dir = tempfile.mkdtemp(prefix="repro-serve-oracle-")
    try:
        return asyncio.run(asyncio.wait_for(
            serve(os.path.join(sock_dir, "oracle.sock")), TIMEOUT))
    except asyncio.TimeoutError:
        raise ServeError(
            f"daemon response timed out after {TIMEOUT:g} s") from None
    finally:
        shutil.rmtree(sock_dir, ignore_errors=True)
