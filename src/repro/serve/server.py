"""The traversal daemon: an asyncio query server over a resident corpus.

Architecture (one process, one event loop):

* **Connections** — each client speaks newline-delimited JSON over a
  local (Unix-domain) stream socket.  Requests are admitted as they
  arrive; responses are written as results complete, so a connection
  may receive them out of request order (clients correlate by ``id``).
* **Admission** — every query that needs execution enters one
  :class:`~repro.serve.admission.BatchPolicy`, which owns the executor
  slots (:data:`SLOTS_PER_WORKER` per worker process, else one per
  in-process engine thread, :data:`INLINE_THREADS`).  Arrivals are held
  until the end of their event-loop turn: the first arrival of a turn
  schedules ``policy.ready()`` with ``loop.call_soon``, and every slot
  release calls it too.  ``ready()`` launches held groups onto free
  slots in (turn, expected engine ms per query, arrival) order, so of
  two misses that arrive together the cheaper runs first.  The expected
  cost is a running mean, per query, of the wall time each batch spends
  in :meth:`ServeServer._execute`, kept per (graph, op, backend family);
  ``status`` reports it.  Frontier-family queries with one admission
  key (graph, canonical engine config, ``no_cache``) join one group of
  at most ``max_batch``; a group that meets a free slot in its opening
  turn launches its first query alone.  DFS and app queries never
  coalesce.  Identical in-flight queries additionally coalesce into one
  execution ("single-flight"), so a thundering herd of the same query
  costs one simulation.
* **Execution** — launched batches run through
  :func:`repro.serve.exec.execute_dfs_batch` (one swarm where
  :func:`repro.core.dispatch.run_batch` finds a frontier batch wide
  enough) either in-process (``jobs = 0``) or on the persistent
  worker pool of :mod:`repro.bench.harness` with zero-copy shm graph
  hand-off.  Infrastructure failures degrade stepwise — broken pool ->
  fresh pool -> pickled graph -> in-process — and every demotion is
  counted in ``stats``; a query is answered wrong never, slower at
  worst.
* **Caching** — results are memoized per graph
  (:mod:`repro.serve.cache`), keyed by (op, root, config, graph
  fingerprint, resolved backend).  An entry is the answer's JSON text,
  serialized once when its batch settles; hits splice it into the
  response inline on the event loop.
* **Shutdown** — stops accepting, launches every held admission group
  (the current turn's arrivals included), drains in-flight executions
  (bounded by ``drain_timeout``), spills caches, then closes.  A step that fails still ends the stop:
  ``serve_until_shutdown`` returns, re-raising what a ``shutdown``
  request's stop failed with.  Client disconnects never cancel
  executions their batch-mates are waiting on; the orphaned responses
  are dropped.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from repro.core import dispatch
from repro.core.config import ServeConfig
from repro.core.turbo import turbo_eligible
from repro.errors import ProtocolError, ReproError, ServeError
from repro.serve.admission import Batch, BatchPolicy
from repro.serve.cache import (
    GraphResultCache,
    default_cache_dir,
    result_key,
)
from repro.serve.corpus import ResidentCorpus, ResidentGraph
from repro.serve.exec import (
    ERROR_KEY,
    _error_marker,
    build_engine_config,
    execute_dfs_batch,
    execute_query,
)
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    QUERY_OPS,
    MAX_LINE_BYTES,
    ROOTED_OPS,
    Request,
    Response,
    decode_request,
    encode_response,
    encode_response_with_raw_result,
    error_response,
)

__all__ = ["INLINE_THREADS", "SLOTS_PER_WORKER", "ServeServer",
           "ServerStats"]

#: Engine threads that run queries in-process when ``jobs = 0``, and so
#: the admission slots there: one.  The engines compute holding the
#: interpreter lock, so a second thread adds no parallelism: it
#: time-slices two queries, each slower than alone, and a short query
#: sent behind a long one still waits about as long (``docs/SERVING.md``
#: has the measurements).  With one thread a miss that arrives while
#: another computes waits in admission, where frontier queries coalesce,
#: and the event loop keeps answering cache hits meanwhile.  Parallel
#: engine work is the worker pool's (``jobs >= 1``).
INLINE_THREADS = 1

#: Admission slots per worker process when ``jobs >= 1``: one batch
#: running and one queued behind it.  With one slot a worker idles
#: while its result travels back and the daemon launches the next
#: batch, which cost 64-query DFS bursts about a fifth of their
#: throughput at ``jobs`` 1 and 2.  The inline thread has no such gap
#: to fill: its result is already in the daemon when it finishes.
SLOTS_PER_WORKER = 2


class ServerStats:
    """Monotonic daemon counters, surfaced by the ``status`` op.

    ``reference_fallbacks`` counts executed DFS-family queries whose
    config the fused loop cannot run (``turbo_eligible`` false: one-level
    stacks, a ``perturb_seed`` or ``trace``), so they ran the reference
    loop, 2-3x slower.
    """

    FIELDS = (
        "connections", "requests", "responses", "errors",
        "cache_hits", "cache_misses", "coalesced",
        "batches", "batched_queries", "hive_batches",
        "backend_dfs", "backend_frontier",
        "pool_broken", "shm_fallbacks", "inline_fallbacks",
        "reference_fallbacks",
        "dropped_responses", "protocol_errors",
    )

    def __init__(self) -> None:
        for f in self.FIELDS:
            setattr(self, f, 0)

    def bump(self, field: str, by: int = 1) -> None:
        setattr(self, field, getattr(self, field) + by)

    def snapshot(self) -> Dict[str, int]:
        return {f: getattr(self, f) for f in self.FIELDS}


class _PendingQuery:
    """One admitted query waiting for its result."""

    __slots__ = ("request", "key", "future", "backend", "reference")

    def __init__(self, request: Request, key: str,
                 future: "asyncio.Future", backend: str = "dfs",
                 reference: bool = False):
        self.request = request
        self.key = key          # cache key (single-flight identity)
        self.future = future    # resolves to (error, raw, batch_width)
        self.backend = backend  # resolved engine family (dfs queries)
        self.reference = reference  # a DFS run off the fused loop


def _canonical_config(overrides: Optional[Dict[str, Any]]) -> str:
    return json.dumps(overrides or {}, sort_keys=True,
                      separators=(",", ":"))


class ServeServer:
    """One daemon instance.  Not thread-safe; owned by one event loop."""

    def __init__(self, corpus: ResidentCorpus,
                 config: Optional[ServeConfig] = None):
        self.corpus = corpus
        self.config = config or ServeConfig()
        jobs = self.config.jobs
        self.policy = BatchPolicy(
            jobs * SLOTS_PER_WORKER if jobs >= 1 else INLINE_THREADS,
            self.config.max_batch, cost=self._expected_ms)
        self.stats = ServerStats()
        #: (graph, op, family) -> [engine ms, queries] of executed batches
        self._engine_ms: Dict[Tuple[str, str, str], List[float]] = {}
        self._turn_scheduled = False
        self.started_at = time.time()
        self._caches: Dict[str, GraphResultCache] = {}
        self._cache_dir = default_cache_dir(self.config.cache_dir)
        self._inflight_keys: Dict[Tuple[str, str], List[_PendingQuery]] = {}
        self._exec_tasks: "set[asyncio.Task]" = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._thread_exec: Optional[ThreadPoolExecutor] = None
        self._accepting = False
        self._closing = False
        self._shutdown_done = asyncio.Event()
        self._stop_task: Optional[asyncio.Task] = None  # shutdown op's stop()
        self.socket_path: Optional[str] = None

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    async def start(self, socket_path: str) -> None:
        """Bind the Unix socket and start accepting clients."""
        if self._server is not None:
            raise ServeError("server already started")
        self.socket_path = socket_path
        self._accepting = True
        self._server = await asyncio.start_unix_server(
            self._on_connection, path=socket_path,
            limit=MAX_LINE_BYTES)

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` request (or :meth:`stop`) lands;
        re-raises what a ``shutdown`` request's stop failed with."""
        await self._shutdown_done.wait()
        if self._stop_task is not None:
            await self._stop_task

    async def stop(self, *, drain: bool = True) -> None:
        """Stop accepting, drain in-flight work, release resources."""
        if self._closing:
            await self._shutdown_done.wait()
            return
        self._closing = True
        self._accepting = False
        try:
            if self._server is not None:
                self._server.close()
            # Launch every held admission group (and this turn's
            # arrivals) so queued queries complete.
            for batch in self.policy.flush_all():
                self._launch_batch(batch)
            if drain and self._exec_tasks:
                await asyncio.wait(set(self._exec_tasks),
                                   timeout=self.config.drain_timeout)
            if self._server is not None:
                try:
                    await self._server.wait_closed()
                except Exception:
                    pass
            for cache in self._caches.values():
                cache.flush()
        finally:
            # Whatever failed above, whoever waits for the stop returns.
            if self._thread_exec is not None:
                self._thread_exec.shutdown(wait=False)
            self._shutdown_done.set()

    def _cache_for(self, entry: ResidentGraph) -> GraphResultCache:
        cache = self._caches.get(entry.name)
        if cache is None or cache.graph_fingerprint != entry.fingerprint:
            if cache is not None:
                # The name now holds new content: spill the old
                # content's answers before its cache is dropped.
                cache.flush()
            cache = GraphResultCache(entry.name, entry.fingerprint,
                                     self._cache_dir,
                                     self.config.cache_entries)
            self._caches[entry.name] = cache
        return cache

    # ------------------------------------------------------------------
    # Connection handling.
    # ------------------------------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self.stats.bump("connections")
        write_lock = asyncio.Lock()
        conn_tasks: "set[asyncio.Task]" = set()
        try:
            while self._accepting:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._send(writer, write_lock, encode_response(
                        error_response(None, ProtocolError(
                            f"request line exceeds {MAX_LINE_BYTES} B"))))
                    break
                except (ConnectionError, OSError):
                    break
                if not line:
                    break  # client closed its write side
                if line.strip() == b"":
                    continue
                task = asyncio.ensure_future(
                    self._serve_line(line, writer, write_lock))
                conn_tasks.add(task)
                task.add_done_callback(conn_tasks.discard)
        except asyncio.CancelledError:
            pass  # loop teardown; fall through to the cleanup below
        finally:
            # Let already-admitted requests finish writing; new reads stop.
            # A cancellation landing inside this cleanup must not leak out:
            # the task would finish cancelled and asyncio's stream callback
            # logs that as a spurious error at loop teardown.
            try:
                if conn_tasks:
                    await asyncio.gather(*conn_tasks, return_exceptions=True)
                writer.close()
                await writer.wait_closed()
            except (Exception, asyncio.CancelledError):
                pass

    async def _send(self, writer: asyncio.StreamWriter,
                    write_lock: asyncio.Lock, payload: bytes) -> None:
        """Write one response line; a dead client just drops the line."""
        try:
            async with write_lock:
                writer.write(payload)
                await writer.drain()
            self.stats.bump("responses")
        except (ConnectionError, RuntimeError, OSError):
            self.stats.bump("dropped_responses")

    async def _serve_line(self, line: bytes, writer: asyncio.StreamWriter,
                          write_lock: asyncio.Lock) -> None:
        self.stats.bump("requests")
        try:
            req = decode_request(line)
        except ProtocolError as exc:
            self.stats.bump("protocol_errors")
            # Best-effort id recovery so the client can correlate.
            req_id = None
            try:
                req_id = json.loads(line.decode("utf-8", "replace")).get("id")
            except Exception:
                pass
            await self._send(writer, write_lock, encode_response(
                error_response(None, exc, req_id=req_id)))
            return
        try:
            payload = await self._dispatch(req)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # daemon must survive anything
            self.stats.bump("errors")
            payload = encode_response(error_response(req, exc))
        if payload is not None:
            await self._send(writer, write_lock, payload)

    # ------------------------------------------------------------------
    # Request dispatch.
    # ------------------------------------------------------------------

    async def _dispatch(self, req: Request) -> Optional[bytes]:
        if req.op in QUERY_OPS:
            return await self._dispatch_query(req)
        if req.op == "ping":
            return encode_response(Response(
                op="ping", id=req.id,
                result={"pong": True, "version": PROTOCOL_VERSION}))
        if req.op == "status":
            return encode_response(Response(
                op="status", id=req.id, result=self._status()))
        if req.op == "graphs":
            return encode_response(Response(
                op="graphs", id=req.id,
                result={"graphs": self.corpus.describe()}))
        if req.op == "add_graph":
            return encode_response(Response(
                op="add_graph", id=req.id,
                result=self._add_graph(req)))
        if req.op == "shutdown":
            if self._stop_task is None:
                self._stop_task = asyncio.ensure_future(self.stop())
            return encode_response(Response(
                op="shutdown", id=req.id, result={"stopping": True}))
        raise ProtocolError(f"unhandled op {req.op!r}")

    def _status(self) -> Dict[str, Any]:
        return {
            "version": PROTOCOL_VERSION,
            "uptime_seconds": time.time() - self.started_at,
            "graphs": self.corpus.names(),
            "config": {
                "max_batch": self.config.max_batch,
                "jobs": self.config.jobs,
                "cache_entries": self.config.cache_entries,
                "backend": self.config.backend,
                "slots": self.policy.slots,
            },
            "pending": self.policy.pending_count(),
            "inflight_batches": len(self._exec_tasks),
            "stats": self.stats.snapshot(),
            "caches": {n: c.stats() for n, c in self._caches.items()},
            "engine_ms": self._engine_ms_report(),
        }

    def _engine_ms_report(self) -> Dict[str, Dict[str, Dict[str, Any]]]:
        """Per resident graph, ``{op: {family: {"mean", "queries"}}}``:
        the expected engine ms per query that admission ranks a turn's
        groups by, and how many executed queries it averages.  A graph
        or (op, family) not listed has no measurement and ranks 0.0."""
        out: Dict[str, Dict[str, Dict[str, Any]]] = {
            name: {} for name in self.corpus.names()}
        for (graph, op, family), (ms, n) in sorted(self._engine_ms.items()):
            out.setdefault(graph, {}).setdefault(op, {})[family] = {
                "mean": round(ms / n, 3), "queries": int(n)}
        return out

    def _add_graph(self, req: Request) -> Dict[str, Any]:
        from repro.graphs.csr import CSRGraph
        import numpy as np

        p = req.payload or {}
        missing = {"name", "row_ptr", "column_idx"} - set(p)
        if missing:
            raise ProtocolError(
                f"add_graph payload missing {sorted(missing)}")
        try:
            graph = CSRGraph(
                row_ptr=np.asarray(p["row_ptr"], dtype=np.int64),
                column_idx=np.asarray(p["column_idx"], dtype=np.int64),
                directed=bool(p.get("directed", False)),
                name=str(p["name"]),
            )
        except (ReproError, ValueError, TypeError) as exc:
            raise ProtocolError(f"bad add_graph payload: {exc}") from None
        entry = self.corpus.add(graph, str(p["name"]))
        return {"added": entry.name, "fingerprint": entry.fingerprint,
                "n_vertices": int(graph.n_vertices)}

    # ------------------------------------------------------------------
    # Query path: cache -> single-flight -> admission -> execution.
    # ------------------------------------------------------------------

    def _resolve_backend(self, entry: ResidentGraph, req: Request) -> str:
        """Resolved answer family for one DFS query (deterministic).

        Pure function of (knob, graph regime, overrides), so cache keys
        and single-flight identity stay stable across repeats.  Under
        ``backend="auto"`` a graph whose BFS has at least
        ``DFS_MIN_LEVELS_PER_VERTEX`` levels per vertex routes to DFS
        and any other to the frontier family, priced as if the query
        runs alone; the width a group actually launches with only
        decides whether it runs in lockstep (``run_batch``).  The
        regime BFS only runs under ``"auto"`` (and is memoized per
        resident graph); forced knobs never pay it.
        """
        regime = (entry.regime()
                  if self.config.backend == "auto" else None)
        return dispatch.choose_backend(entry.graph,
                                       requested=self.config.backend,
                                       regime=regime,
                                       overrides=req.config).backend

    async def _dispatch_query(self, req: Request) -> bytes:
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        entry = self.corpus.get(req.graph)          # ServeError if unknown
        backend = "dfs"
        reference = False
        if req.op == "dfs":
            # Validate overrides up front: a malformed config must fail
            # its own request, not the batch it would have joined.
            engine_config = build_engine_config(req.config)
            backend = self._resolve_backend(entry, req)
            reference = (backend == "dfs"
                         and not turbo_eligible(engine_config))
        # Unrooted ops ignore ``root``, so it must not split their cache
        # entries or single-flight groups.
        root = req.root if req.op in ROOTED_OPS else 0
        key = result_key(req.op, root, req.config, entry.fingerprint,
                         backend)
        cache = self._cache_for(entry)

        if not req.no_cache:
            raw = cache.get(key)
            if raw is not None:
                self.stats.bump("cache_hits")
                return encode_response_with_raw_result(
                    Response(op=req.op, id=req.id, cached=True,
                             elapsed_ms=_ms(loop.time() - t0)), raw)
            self.stats.bump("cache_misses")

            # Single-flight: identical query already executing -> wait
            # on its future instead of re-admitting.
            flight_key = (entry.name, key)
            waiters = self._inflight_keys.get(flight_key)
            if waiters is not None:
                self.stats.bump("coalesced")
                pending = _PendingQuery(req, key, loop.create_future(),
                                        backend)
                waiters.append(pending)
                return await self._await_pending(pending, t0)

        pending = _PendingQuery(req, key, loop.create_future(), backend,
                                reference)
        if not req.no_cache:
            self._inflight_keys[(entry.name, key)] = [pending]

        # Only frontier-family queries share a key, so only they can
        # coalesce (into a swarm); a DFS or app query (key None) always
        # runs alone.
        admission_key = ((entry.name, _canonical_config(req.config),
                          bool(req.no_cache))
                         if backend == "frontier" else None)
        self.policy.add(admission_key, (entry, pending), loop.time())
        if not self._turn_scheduled:
            # Launch at the end of the turn, once every arrival that
            # lands with this one is held and can be ranked against it.
            self._turn_scheduled = True
            loop.call_soon(self._end_turn)
        return await self._await_pending(pending, t0)

    def _end_turn(self) -> None:
        self._turn_scheduled = False
        self._launch_ready()

    def _launch_ready(self) -> None:
        for batch in self.policy.ready():
            self._launch_batch(batch)

    def _expected_ms(self, item: Tuple[ResidentGraph, _PendingQuery],
                     ) -> float:
        """Expected engine ms per query of an admitted item (the
        policy's cost); 0.0 until its (graph, op, family) has run."""
        entry, pending = item
        seen = self._engine_ms.get(
            (entry.name, pending.request.op, pending.backend))
        return seen[0] / seen[1] if seen else 0.0

    async def _await_pending(self, pending: _PendingQuery,
                             t0: float) -> bytes:
        loop = asyncio.get_running_loop()
        error, raw, width = await pending.future
        elapsed = _ms(loop.time() - t0)
        req = pending.request
        if error is not None:
            self.stats.bump("errors")
            return encode_response(Response(
                op=req.op, id=req.id, ok=False,
                error=dict(error), batch=width,
                elapsed_ms=elapsed))
        return encode_response_with_raw_result(
            Response(op=req.op, id=req.id, batch=width,
                     elapsed_ms=elapsed), raw)

    # ------------------------------------------------------------------
    # Batch execution.
    # ------------------------------------------------------------------

    def _launch_batch(self, batch: Batch) -> None:
        task = asyncio.ensure_future(self._run_batch(batch))
        self._exec_tasks.add(task)
        task.add_done_callback(self._exec_tasks.discard)
        self.stats.bump("batches")
        self.stats.bump("batched_queries", len(batch.items))
        if len(batch.items) > 1:
            # Multi-query admission batches (only the frontier family
            # forms them); perfbench/ still reads this counter name.
            self.stats.bump("hive_batches")

    async def _run_batch(self, batch: Batch) -> None:
        entry: ResidentGraph = batch.items[0][0]
        pendings: List[_PendingQuery] = [p for _, p in batch.items]
        width = len(pendings)
        req = pendings[0].request
        backend = pendings[0].backend  # one op and family per batch
        try:
            start = time.perf_counter()
            if req.op == "dfs":
                tasks = [(p.request.root, p.request.config)
                         for p in pendings]
                self.stats.bump(f"backend_{backend}", width)
                self.stats.bump("reference_fallbacks",
                                sum(p.reference for p in pendings))
                results = await self._execute(
                    execute_dfs_batch, entry, tasks, backend)
            else:
                results = [await self._execute(
                    execute_query, entry, req.op, req.root, req.config)]
            seen = self._engine_ms.setdefault(
                (entry.name, req.op, backend), [0.0, 0])
            seen[0] += (time.perf_counter() - start) * 1e3
            seen[1] += width
        except asyncio.CancelledError:
            for p in pendings:
                if not p.future.done():
                    p.future.cancel()
            raise
        except Exception as exc:   # infrastructure failure after fallbacks
            results = [_error_marker(exc)] * width
        finally:
            self.policy.release()
            self._launch_ready()
        self._settle(entry, pendings, results, width)

    def _settle(self, entry: ResidentGraph,
                pendings: List[_PendingQuery],
                results: List[Dict[str, Any]], width: int) -> None:
        """Serialize each answer once and resolve its single-flight
        group with ``(error or None, JSON text, width)``; the text is
        what the cache keeps, so no decoded answer outlives its batch."""
        cache = self._cache_for(entry)
        for pending, result in zip(pendings, results):
            error = result.get(ERROR_KEY)
            raw = (json.dumps(result, separators=(",", ":"))
                   if error is None else "")
            waiters: List[_PendingQuery] = []
            if not pending.request.no_cache:
                if error is None:
                    cache.put(pending.key, raw)
                # Resolve the single-flight group (leader is member 0);
                # no_cache queries never own a group, so they must not
                # pop one that a cached-path leader is still executing.
                flight_key = (entry.name, pending.key)
                waiters = self._inflight_keys.pop(flight_key, None) or []
            group = [pending] + [w for w in waiters if w is not pending]
            for member in group:
                if not member.future.done():
                    member.future.set_result((error, raw, width))

    async def _execute(self, fn, entry: ResidentGraph, *args):
        """Run ``fn(graph, *args)`` at the configured execution tier.

        Degradation ladder for ``jobs >= 1``: healthy pool with shm spec
        -> (pool broke) one fresh pool -> (shm dangling) pickled graph
        -> in-process.  A task's own failure, whatever its type, comes
        back as its error marker (:mod:`repro.serve.exec`) and never
        triggers demotion, so any other exception from the pool rung is
        a failure to run the task (one the pool cannot pickle, say) and
        goes straight to the in-process rung; only those count
        ``inline_fallbacks``.  Every lease is released on every exit.
        """
        jobs = self.config.jobs
        if jobs >= 1:
            from concurrent.futures.process import BrokenProcessPool
            from repro.bench import harness

            wire = entry.wire()
            for attempt in range(2):
                handle = harness.lease_pool(jobs)
                broken = False
                try:
                    fut = handle.executor.submit(fn, wire, *args)
                    return await asyncio.wrap_future(fut)
                except BrokenProcessPool:
                    broken = True
                    self.stats.bump("pool_broken")
                except OSError:
                    # Dangling shm segment: demote this graph to pickle
                    # hand-off and retry on the same (healthy) pool.
                    if not entry.shm_ok:
                        break
                    entry.demote()
                    self.stats.bump("shm_fallbacks")
                    wire = entry.wire()
                except Exception:
                    break
                finally:
                    harness.release_pool(handle, broken=broken)
            self.stats.bump("inline_fallbacks")
        return await self._execute_inline(fn, entry, *args)

    async def _execute_inline(self, fn, entry: ResidentGraph, *args):
        """Run ``fn(graph, *args)`` on the daemon's engine thread."""
        loop = asyncio.get_running_loop()
        if self._thread_exec is None:
            self._thread_exec = ThreadPoolExecutor(
                max_workers=INLINE_THREADS, thread_name_prefix="serve-exec")
        return await loop.run_in_executor(
            self._thread_exec, fn, entry.graph, *args)


def _ms(seconds: float) -> float:
    return round(seconds * 1000.0, 3)
