"""Client library for the traversal service.

Two clients over the same wire protocol:

* :class:`AsyncServeClient` — asyncio, fully pipelined.  A background
  reader task correlates out-of-order responses to their callers by
  request ``id``, so any number of coroutines can have queries in
  flight on one connection (this is what makes daemon-side coalescing
  observable: concurrent awaits on the same connection land in one
  lockstep batch).  Cancellation-safe: a cancelled ``query`` abandons
  its waiter and the late response is dropped without disturbing other
  callers.
* :class:`SyncServeClient` — blocking convenience wrapper for scripts
  and the CLI; one request in flight at a time, but still tolerant of
  out-of-order delivery (responses for abandoned ids are skipped).
"""

from __future__ import annotations

import asyncio
import itertools
import os
import socket
import tempfile
from typing import Any, Dict, Optional

from repro.errors import ProtocolError, ServeError
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    Request,
    Response,
    decode_response,
    encode_request,
)

__all__ = [
    "AsyncServeClient",
    "SyncServeClient",
    "default_socket_path",
    "SOCKET_ENV_VAR",
]

SOCKET_ENV_VAR = "REPRO_SERVE_SOCKET"


def default_socket_path() -> str:
    """Daemon socket path: ``$REPRO_SERVE_SOCKET`` or a tempdir default."""
    raw = os.environ.get(SOCKET_ENV_VAR)
    if raw:
        return raw
    return os.path.join(tempfile.gettempdir(),
                        f"repro-serve-{os.getuid()}.sock")


def _check(resp: Response) -> Response:
    if not resp.ok:
        err = resp.error or {}
        raise ServeError(
            f"daemon error [{err.get('type', '?')}]: "
            f"{err.get('message', 'unknown error')}")
    return resp


class AsyncServeClient:
    """Pipelined asyncio client; one connection, many in-flight queries."""

    def __init__(self) -> None:
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._waiters: Dict[str, "asyncio.Future[Response]"] = {}
        self._ids = itertools.count(1)
        self._id_prefix = os.urandom(4).hex()
        self._closed = False
        self._conn_lost: Optional[BaseException] = None

    # ------------------------------------------------------------------
    async def connect(self, socket_path: Optional[str] = None,
                      ) -> "AsyncServeClient":
        path = socket_path or default_socket_path()
        try:
            self._reader, self._writer = await asyncio.open_unix_connection(
                path, limit=MAX_LINE_BYTES)
        except (ConnectionError, FileNotFoundError, OSError) as exc:
            raise ServeError(
                f"cannot connect to daemon at {path}: {exc}") from None
        self._reader_task = asyncio.ensure_future(self._read_loop())
        return self

    async def __aenter__(self) -> "AsyncServeClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except Exception:
                pass
        self._fail_waiters(ServeError("client closed"))

    def _fail_waiters(self, exc: BaseException) -> None:
        waiters, self._waiters = self._waiters, {}
        for fut in waiters.values():
            if not fut.done():
                fut.set_exception(exc)

    async def _read_loop(self) -> None:
        assert self._reader is not None
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    raise ConnectionError("daemon closed the connection")
                if line.strip() == b"":
                    continue
                try:
                    resp = decode_response(line)
                except ProtocolError:
                    continue  # unparseable line; ids it held time out
                fut = self._waiters.pop(str(resp.id), None)
                if fut is not None and not fut.done():
                    fut.set_result(resp)
                # No waiter: the caller was cancelled; drop the line.
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self._conn_lost = exc
            self._fail_waiters(
                ServeError(f"connection to daemon lost: {exc}"))

    # ------------------------------------------------------------------
    async def request(self, req: Request) -> Response:
        """Send one pre-built request and await its response."""
        if self._writer is None or self._closed:
            raise ServeError("client is not connected")
        if self._conn_lost is not None:
            raise ServeError(
                f"connection to daemon lost: {self._conn_lost}")
        req_id = str(req.id) if req.id is not None else (
            f"{self._id_prefix}-{next(self._ids)}")
        if req.id is None or str(req.id) != req_id:
            req = Request(op=req.op, id=req_id, graph=req.graph,
                          root=req.root, config=req.config,
                          payload=req.payload, no_cache=req.no_cache)
        fut: "asyncio.Future[Response]" = (
            asyncio.get_running_loop().create_future())
        self._waiters[req_id] = fut
        try:
            self._writer.write(encode_request(req))
            await self._writer.drain()
            return await fut
        finally:
            # Cancelled or failed: abandon the waiter so the reader
            # drops the (possibly still pending) response.
            self._waiters.pop(req_id, None)

    async def query(self, op: str, graph: str, *, root: int = 0,
                    config: Optional[Dict[str, Any]] = None,
                    no_cache: bool = False) -> Response:
        """Run one query; raises :class:`ServeError` on an error reply."""
        return _check(await self.request(Request(
            op=op, graph=graph, root=root, config=config,
            no_cache=no_cache)))

    async def dfs(self, graph: str, root: int = 0, *,
                  config: Optional[Dict[str, Any]] = None,
                  no_cache: bool = False) -> Response:
        return await self.query("dfs", graph, root=root, config=config,
                                no_cache=no_cache)

    async def ping(self) -> Response:
        return _check(await self.request(Request(op="ping")))

    async def status(self) -> Dict[str, Any]:
        return _check(await self.request(Request(op="status"))).result or {}

    async def graphs(self) -> Any:
        resp = _check(await self.request(Request(op="graphs")))
        return (resp.result or {}).get("graphs", [])

    async def add_graph(self, name: str, row_ptr, column_idx, *,
                        directed: bool = False) -> Response:
        payload = {
            "name": name,
            "row_ptr": [int(x) for x in row_ptr],
            "column_idx": [int(x) for x in column_idx],
            "directed": bool(directed),
        }
        return _check(await self.request(
            Request(op="add_graph", payload=payload)))

    async def shutdown(self) -> Response:
        return _check(await self.request(Request(op="shutdown")))


class SyncServeClient:
    """Blocking client: one request at a time over a plain socket."""

    def __init__(self, socket_path: Optional[str] = None,
                 timeout: Optional[float] = 30.0):
        self.socket_path = socket_path or default_socket_path()
        self._ids = itertools.count(1)
        self._id_prefix = os.urandom(4).hex()
        sock = None
        try:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(timeout)
            sock.connect(self.socket_path)
        except (ConnectionError, FileNotFoundError, OSError) as exc:
            if sock is not None:
                sock.close()
            raise ServeError(
                f"cannot connect to daemon at {self.socket_path}: "
                f"{exc}") from None
        self._sock = sock
        self._file = self._sock.makefile("rb")

    def __enter__(self) -> "SyncServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        try:
            self._file.close()
        except Exception:
            pass
        try:
            self._sock.close()
        except Exception:
            pass

    def request(self, req: Request) -> Response:
        req_id = str(req.id) if req.id is not None else (
            f"{self._id_prefix}-{next(self._ids)}")
        if req.id is None or str(req.id) != req_id:
            req = Request(op=req.op, id=req_id, graph=req.graph,
                          root=req.root, config=req.config,
                          payload=req.payload, no_cache=req.no_cache)
        try:
            self._sock.sendall(encode_request(req))
            while True:
                line = self._file.readline()
                if not line:
                    raise ServeError("daemon closed the connection")
                resp = decode_response(line)
                if str(resp.id) == req_id:
                    return resp
                # A response for an id this client abandoned; skip it.
        except socket.timeout:
            raise ServeError("daemon response timed out") from None
        except (ConnectionError, OSError) as exc:
            raise ServeError(f"connection to daemon lost: {exc}") from None

    def query(self, op: str, graph: str, *, root: int = 0,
              config: Optional[Dict[str, Any]] = None,
              no_cache: bool = False) -> Response:
        return _check(self.request(Request(
            op=op, graph=graph, root=root, config=config,
            no_cache=no_cache)))

    def ping(self) -> Response:
        return _check(self.request(Request(op="ping")))

    def add_graph(self, name: str, row_ptr, column_idx, *,
                  directed: bool = False) -> Response:
        payload = {
            "name": name,
            "row_ptr": [int(x) for x in row_ptr],
            "column_idx": [int(x) for x in column_idx],
            "directed": bool(directed),
        }
        return _check(self.request(Request(op="add_graph",
                                           payload=payload)))

    def status(self) -> Dict[str, Any]:
        return _check(self.request(Request(op="status"))).result or {}

    def graphs(self) -> Any:
        resp = _check(self.request(Request(op="graphs")))
        return (resp.result or {}).get("graphs", [])

    def shutdown(self) -> Response:
        return _check(self.request(Request(op="shutdown")))
