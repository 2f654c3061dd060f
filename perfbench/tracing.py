"""Timing wrappers installed from outside ``src/`` for the traced runs.

A span records a name, start, end, parent span and request id (the
protocol ``id``; a list of ids for a span that serves a whole batch).
Spans stay in memory and are written out once, when the traced process
ends.  The current span lives in a ``ContextVar``, so each asyncio task
and each executor thread has its own parent chain; recording takes a
lock because engines run on the daemon's executor threads.

``install_serve`` wraps the daemon's layers, ``install_sweep`` the
harness, baselines and engines of an offline sweep.  ``repro.serve.server``
binds ``decode_request``, ``encode_response*``, ``execute_dfs_batch`` and
``execute_query`` by name at import, so those references are replaced in
the server module as well as at their source.  Sweep pool workers are
forked after the wrappers go in; each task sends its spans back with its
sample, and the wrapped fan-out strips them off before the harness sees
the results.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

clock_ns = time.perf_counter_ns


class Span:
    __slots__ = ("sid", "parent", "name", "rid", "t0", "t1", "attrs")

    def __init__(self, name: str, parent: Optional["Span"], rid=None):
        self.sid = TRACER.next_id()
        self.parent = parent.sid if parent is not None else 0
        self.name = name
        self.rid = rid if rid is not None else (
            parent.rid if parent is not None else None)
        self.t0 = 0
        self.t1 = 0
        self.attrs: Optional[Dict[str, Any]] = None

    def row(self) -> list:
        return [self.sid, self.parent, self.name, self.rid, self.t0,
                self.t1, self.attrs]


class Tracer:
    """Process-wide span buffer (one per traced process)."""

    def __init__(self) -> None:
        self.owner = os.getpid()
        self.spans: List[Span] = []
        self.foreign: List[list] = []   # rows sent back by pool workers
        self.samples: Dict[str, List[tuple]] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._child = 0

    def next_id(self) -> int:
        with self._lock:
            return (os.getpid() << 24) | next(self._ids)

    def add(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def sample(self, name: str, value: float) -> None:
        """Record a timestamped value that is not a span."""
        with self._lock:
            self.samples.setdefault(name, []).append((clock_ns(), value))

    def record(self, name: str, t0: int, t1: int, parent: Optional[Span],
               rid=None, **attrs) -> Span:
        sp = Span(name, parent, rid)
        sp.t0, sp.t1 = t0, t1
        sp.attrs = attrs or None
        self.add(sp)
        return sp

    def in_child(self) -> bool:
        """True in a forked pool worker; forgets the parent's spans once."""
        pid = os.getpid()
        if pid == self.owner:
            return False
        if self._child != pid:
            self._child = pid
            self.spans = []
        return True

    def drain(self) -> List[list]:
        with self._lock:
            rows = [s.row() for s in self.spans]
            self.spans = []
        return rows

    def dump(self, path: Path) -> None:
        rows = self.drain() + self.foreign
        Path(path).write_text(json.dumps(
            {"spans": rows, "samples": self.samples}))


TRACER = Tracer()
CURRENT: contextvars.ContextVar[Optional[Span]] = contextvars.ContextVar(
    "perfbench_span", default=None)


def _sync(fn: Callable, name: str,
          attrs: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sp = Span(name, CURRENT.get())
        token = CURRENT.set(sp)
        sp.t0 = clock_ns()
        try:
            out = fn(*args, **kwargs)
        finally:
            sp.t1 = clock_ns()
            CURRENT.reset(token)
            TRACER.add(sp)
        if attrs is not None:
            sp.attrs = attrs(args, out)
        return out
    return wrapper


def _async(fn: Callable, name: str,
           rid: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        sp = Span(name, CURRENT.get(), rid(args) if rid else None)
        token = CURRENT.set(sp)
        sp.t0 = clock_ns()
        try:
            return await fn(*args, **kwargs)
        finally:
            sp.t1 = clock_ns()
            CURRENT.reset(token)
            TRACER.add(sp)
    return wrapper


def _patch(owner: Any, attr: str, make: Callable[[Callable], Callable]):
    """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) with
    ``make(original)``."""
    if isinstance(owner, dict):
        owner[attr] = make(owner[attr])
    else:
        setattr(owner, attr, make(getattr(owner, attr)))


# ---------------------------------------------------------------------------
# Shared layers: graphs, dispatch, engines.
# ---------------------------------------------------------------------------

def _install_common() -> None:
    from repro.core import diggerbees, dispatch, frontier, hive, swarm
    from repro.graphs import diskcache, shm

    _patch(shm, "export_csr", lambda f: _sync(f, "shm.export"))
    _patch(diskcache, "cached_build", lambda f: _sync(f, "corpus.build"))
    _patch(dispatch, "graph_regime", lambda f: _sync(f, "dispatch.regime"))
    _patch(dispatch, "choose_backend", lambda f: _sync(
        f, "dispatch.route",
        lambda a, out: {"reason": out.reason, "backend": out.backend}))
    steps = (lambda a, out: {"width": 1, "steps": int(out.engine.steps)})
    _patch(diggerbees, "run_diggerbees",
           lambda f: _sync(f, "engine.dfs_scalar", steps))
    _patch(hive, "run_hive", lambda f: _sync(
        f, "engine.hive", lambda a, out: {"width": len(out)}))
    _patch(swarm, "run_swarm", lambda f: _sync(
        f, "engine.swarm", lambda a, out: {"width": len(out)}))
    _patch(frontier, "run_frontier", lambda f: _sync(
        f, "engine.frontier", lambda a, out: {"width": 1}))


# ---------------------------------------------------------------------------
# The daemon.
# ---------------------------------------------------------------------------

#: Admission time and query span per request id, set in BatchPolicy.add.
_ADMITTED: Dict[Any, tuple] = {}
#: (flush time, request ids) of the batch a task or thread works for.
_BATCH: contextvars.ContextVar[Optional[tuple]] = contextvars.ContextVar(
    "perfbench_batch", default=None)

LAG_PERIOD_S = 0.005


async def _loop_lag_probe() -> None:
    """Sample how late the event loop wakes a 5 ms sleeper."""
    while True:
        t0 = time.perf_counter()
        await asyncio.sleep(LAG_PERIOD_S)
        TRACER.sample("loop_lag_ms",
                      (time.perf_counter() - t0 - LAG_PERIOD_S) * 1e3)


def install_serve() -> None:
    """Wrap every daemon layer; call before ``repro.serve.cli.main``."""
    from repro.serve import admission, cache, corpus, exec as sexec, server

    _install_common()
    S = server.ServeServer

    _patch(corpus, "load_corpus", lambda f: _sync(f, "corpus.load"))

    def decode(fn):
        @functools.wraps(fn)
        def wrapper(line):
            parent = CURRENT.get()
            t0 = clock_ns()
            req = fn(line)
            if parent is not None:
                parent.rid = req.id
            TRACER.record("protocol.decode", t0, clock_ns(), parent,
                          req.id)
            return req
        return wrapper
    server.decode_request = decode(server.decode_request)
    size = (lambda a, out: {"bytes": len(out)})
    for name in ("encode_response", "encode_response_with_raw_result"):
        _patch(server, name, lambda f: _sync(f, "protocol.encode", size))
    for mod in (server, sexec):
        _patch(mod, "execute_dfs_batch",
               lambda f: _sync(f, "exec.dfs_batch"))
        _patch(mod, "execute_query", lambda f: _sync(f, "exec.query"))
    for name in ("dfs_result_to_dict", "frontier_result_to_dict"):
        _patch(sexec, name, lambda f: _sync(f, "payload.build"))

    _patch(S, "_serve_line", lambda f: _async(f, "server.line"))
    _patch(S, "_dispatch_query", lambda f: _async(
        f, "server.query", lambda a: a[1].id))
    _patch(S, "_send", lambda f: _async(f, "server.write"))

    def start(fn):
        @functools.wraps(fn)
        async def wrapper(self, *args, **kwargs):
            await fn(self, *args, **kwargs)
            self._perfbench_lag = asyncio.ensure_future(_loop_lag_probe())
        return wrapper
    _patch(S, "start", start)

    def stop(fn):
        @functools.wraps(fn)
        async def wrapper(self, *args, **kwargs):
            probe = getattr(self, "_perfbench_lag", None)
            if probe is not None:
                probe.cancel()
            await fn(self, *args, **kwargs)
        return wrapper
    _patch(S, "stop", stop)

    cache_get = (lambda a, out: {"hit": out is not None})
    _patch(cache.GraphResultCache, "get",
           lambda f: _sync(f, "cache.get", cache_get))
    _patch(cache.GraphResultCache, "put", lambda f: _sync(f, "cache.put"))

    def flush(fn):
        @functools.wraps(fn)
        def wrapper(self):
            writes = self._path is not None and self._dirty > 0
            t0 = clock_ns()
            fn(self)
            if writes:
                try:
                    nbytes = self._path.stat().st_size
                except OSError:
                    nbytes = 0
                TRACER.record("cache.spill", t0, clock_ns(), CURRENT.get(),
                              bytes=nbytes)
        return wrapper
    _patch(cache.GraphResultCache, "flush", flush)

    def add(fn):
        @functools.wraps(fn)
        def wrapper(self, key, item, now):
            _ADMITTED[item[1].request.id] = (clock_ns(), CURRENT.get())
            return fn(self, key, item, now)
        return wrapper
    _patch(admission.BatchPolicy, "add", add)

    def launch(fn):
        @functools.wraps(fn)
        def wrapper(self, batch):
            now = clock_ns()
            rids = [p.request.id for _, p in batch.items]
            for rid in rids:
                admitted = _ADMITTED.pop(rid, None)
                if admitted is not None:
                    TRACER.record("admission.wait", admitted[0], now,
                                  admitted[1], rid)
            TRACER.record("admission.flush", now, now, None, rids,
                          width=len(rids), reason=batch.reason)
            token = _BATCH.set((now, rids))
            try:
                return fn(self, batch)
            finally:
                _BATCH.reset(token)
        return wrapper
    _patch(S, "_launch_batch", launch)

    def execute_inline(fn):
        @functools.wraps(fn)
        async def wrapper(self, work, entry, *args):
            flushed, rids = _BATCH.get() or (clock_ns(), None)
            ran: Dict[str, int] = {}

            def traced(*a):
                start = clock_ns()
                TRACER.record("exec.queue", flushed, start, None, rids)
                sp = Span("exec.run", None, rids)
                token = CURRENT.set(sp)
                sp.t0 = start
                try:
                    return work(*a)
                finally:
                    sp.t1 = ran["end"] = clock_ns()
                    CURRENT.reset(token)
                    TRACER.add(sp)
            out = await fn(self, traced, entry, *args)
            if "end" in ran:
                TRACER.record("exec.resume", ran["end"], clock_ns(), None,
                              rids)
            return out
        return wrapper
    _patch(S, "_execute_inline", execute_inline)

    def settle(fn):
        @functools.wraps(fn)
        def wrapper(self, entry, pendings, results, width):
            t0 = clock_ns()
            try:
                return fn(self, entry, pendings, results, width)
            finally:
                TRACER.record("server.settle", t0, clock_ns(), None,
                              [p.request.id for p in pendings])
        return wrapper
    _patch(S, "_settle", settle)


# ---------------------------------------------------------------------------
# The offline sweep.
# ---------------------------------------------------------------------------

def _worker_task(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(task):
        child = TRACER.in_child()
        t0 = clock_ns()
        sample = fn(task)
        TRACER.record("harness.task", t0, clock_ns(), None)
        return sample, (TRACER.drain() if child else [])
    return wrapper


def _fan_out(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(tasks, jobs, batch=1):
        sp = Span("harness.fan_out", CURRENT.get())
        sp.attrs = {"jobs": jobs, "tasks": len(tasks)}
        token = CURRENT.set(sp)
        sp.t0 = clock_ns()
        try:
            out = fn(tasks, jobs, batch)
        finally:
            sp.t1 = clock_ns()
            CURRENT.reset(token)
            TRACER.add(sp)
        samples = []
        for sample, rows in out:
            samples.append(sample)
            TRACER.foreign.extend(rows)
        return samples
    return wrapper


def install_sweep() -> None:
    """Wrap harness, baselines and engines; call before ``run_sweep``."""
    from repro.bench import harness
    from repro.graphs import collections

    _install_common()
    _patch(collections, "representative_graphs",
           lambda f: _sync(f, "corpus.load"))
    _patch(harness, "_execute_task", _worker_task)
    _patch(harness, "_fan_out", _fan_out)

    def lease(fn):
        @functools.wraps(fn)
        def wrapper(jobs):
            fresh = harness._HANDLE is None or harness._HANDLE.jobs != jobs
            t0 = clock_ns()
            handle = fn(jobs)
            TRACER.record("harness.lease", t0, clock_ns(), None,
                          fresh=fresh)
            return handle
        return wrapper
    _patch(harness, "lease_pool", lease)

    from repro.core import diggerbees

    harness.run_diggerbees = diggerbees.run_diggerbees   # wrapped above
    for fn_name in ("run_ckl_pdfs", "run_acr_pdfs", "run_nvg_dfs",
                    "run_gunrock_bfs", "run_berrybees_bfs"):
        _patch(harness, fn_name,
               lambda f, n=fn_name: _sync(f, f"baselines.{n}"))
    for method in list(harness.ALL_METHODS):
        _patch(harness.ALL_METHODS, method,
               lambda f, m=method: _sync(f, f"method.{m}"))
