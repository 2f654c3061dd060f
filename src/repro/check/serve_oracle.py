"""Serve-diff oracle: a live daemon the check ladder queries against.

One :class:`ServeOracle` per process hosts a real :class:`~repro.serve.
server.ServeServer` on a background thread — real socket, real wire
protocol, real admission/cache/dispatch stack — and the ``serve-diff``
rung in :mod:`repro.check.differential` sends every fuzz case's DFS
through it, asserting the served payload is *equal* to the canonical
payload of the direct run (:func:`~repro.serve.protocol.
dfs_result_to_dict` on both sides, so equality is bit-identity of
parents, visited sets, cycle counts, step counts, and counters).

The daemon runs with ``jobs = 0``: queries execute on threads inside
this process, which is what lets the mutation sanity suite work through
the served path — :func:`~repro.check.mutations.apply_mutation`
monkeypatches engine internals process-wide, so the daemon's executor
sees exactly the same injected bug as the direct run.  Mutated queries
always set ``no_cache`` so a mutant's (wrong) result can never be
memoized and later served for the clean engine.

Each case's graph is registered over the wire (the ``add_graph`` op),
keyed by content fingerprint so repeated cases re-use the resident
entry and its warm result cache.
"""

from __future__ import annotations

import atexit
import os
import tempfile
import threading
from typing import Any, Dict, Optional, Tuple

from repro.errors import ServeError

__all__ = ["ServeOracle", "serve_oracle", "shutdown_oracle"]


class ServeOracle:
    """A daemon on a background thread, queried synchronously."""

    def __init__(self, *, cache_entries: int = 512):
        self._tempdir = tempfile.mkdtemp(prefix="repro-serve-oracle-")
        self.socket_path = os.path.join(self._tempdir, "oracle.sock")
        self._cache_entries = cache_entries
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._loop = None
        self._server = None
        self._client = None
        self._registered: Dict[str, str] = {}  # fingerprint -> name
        self._thread = threading.Thread(
            target=self._thread_main, name="serve-oracle", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise ServeError("serve oracle daemon failed to start in time")
        if self._startup_error is not None:
            raise ServeError(
                f"serve oracle daemon failed to start: "
                f"{self._startup_error}")

    # ------------------------------------------------------------------
    def _thread_main(self) -> None:
        import asyncio

        async def amain():
            from repro.core.config import ServeConfig
            from repro.serve.corpus import ResidentCorpus
            from repro.serve.server import ServeServer

            # share=False: jobs=0 never ships graphs to workers, so shm
            # exports would only leak segments if the process dies hard.
            corpus = ResidentCorpus(share=False)
            server = ServeServer(corpus, ServeConfig(
                cache_entries=self._cache_entries,
                jobs=0, cache_dir="off", drain_timeout=5.0))
            await server.start(self.socket_path)
            self._server = server
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            await server.serve_until_shutdown()

        try:
            asyncio.run(amain())
        except BaseException as exc:  # startup or teardown failure
            self._startup_error = exc
            self._ready.set()

    def _connect(self):
        from repro.serve.client import SyncServeClient

        if self._client is None:
            self._client = SyncServeClient(self.socket_path, timeout=120.0)
        return self._client

    # ------------------------------------------------------------------
    def register(self, graph) -> str:
        """Ensure ``graph`` is resident; returns its daemon-side name."""
        from repro.serve.corpus import graph_fingerprint

        fp = graph_fingerprint(graph)
        name = self._registered.get(fp)
        if name is not None:
            return name
        name = f"case-{fp}"
        self._connect().add_graph(name, graph.row_ptr, graph.column_idx,
                                  directed=graph.directed)
        self._registered[fp] = name
        return name

    def query_dfs(self, graph, root: int,
                  config_overrides: Optional[Dict[str, Any]] = None, *,
                  no_cache: bool = False,
                  ) -> Tuple[Dict[str, Any], bool]:
        """Serve one DFS; returns ``(result payload, was_cached)``.

        Raises :class:`ServeError` on transport failure or an error
        response — in the check ladder both are serve-diff failures.
        """
        name = self.register(graph)
        client = self._connect()
        resp = client.query("dfs", name, root=root,
                            config=config_overrides, no_cache=no_cache)
        return resp.result, resp.cached

    def stop(self) -> None:
        if self._client is not None:
            try:
                self._client.close()
            except Exception:
                pass
            self._client = None
        if self._loop is not None and self._server is not None:
            import asyncio

            try:
                fut = asyncio.run_coroutine_threadsafe(
                    self._server.stop(), self._loop)
                fut.result(timeout=10.0)
            except Exception:
                pass
        self._thread.join(timeout=10.0)


# ---------------------------------------------------------------------------
# Process-wide singleton (the ladder may serve thousands of cases; one
# daemon amortizes startup and keeps per-graph caches warm across them).
# ---------------------------------------------------------------------------

_ORACLE: Optional[ServeOracle] = None
_ORACLE_LOCK = threading.Lock()


def serve_oracle() -> ServeOracle:
    """The process-wide oracle daemon, started on first use."""
    global _ORACLE
    with _ORACLE_LOCK:
        if _ORACLE is None:
            _ORACLE = ServeOracle()
            atexit.register(shutdown_oracle)
        return _ORACLE


def shutdown_oracle() -> None:
    """Stop the singleton (idempotent; re-startable on next use)."""
    global _ORACLE
    with _ORACLE_LOCK:
        oracle, _ORACLE = _ORACLE, None
    if oracle is not None:
        oracle.stop()
