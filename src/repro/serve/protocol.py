"""Wire protocol of the traversal service: newline-delimited JSON.

One request per line, one response per line, UTF-8, over a local
stream socket.  Requests carry a client-chosen ``id`` that the matching
response echoes; responses may arrive out of request order (the daemon
answers cache hits immediately while batched queries are still in
flight), so pipelining clients must correlate by ``id``.

Request fields
--------------
``op``        one of :data:`OPS` (required)
``id``        opaque correlation token (any JSON scalar; echoed back)
``graph``     resident graph name (query ops)
``root``      source vertex for rooted ops (``dfs``, ``cycles``)
``config``    :class:`~repro.core.config.DiggerBeesConfig` field
              overrides for ``dfs`` (dict; omitted = daemon default)
``payload``   op-specific extras (``add_graph`` carries the CSR arrays)
``no_cache``  bypass the result cache for this request

Response fields
---------------
``id``/``op``    echoed from the request
``ok``           True on success
``result``       op result payload (see the ``*_result`` helpers)
``error``        ``{"type", "message"}`` when ``ok`` is false
``cached``       result came from the per-graph memo
``batch``        width of the admission batch that computed it
``elapsed_ms``   daemon-side time from admission to completion

The result payloads are **canonical**: every array is a plain list,
counter dicts are string-keyed, and the encoders below are used by both
the daemon and the direct execution path, so "bit-identical to direct
execution" is a straight ``==`` on the decoded payloads (the serve-diff
oracle rung and the load-test ``--verify`` mode both rely on this).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro.errors import ProtocolError

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "QUERY_OPS",
    "CONTROL_OPS",
    "OPS",
    "ROOTED_OPS",
    "Request",
    "Response",
    "encode_request",
    "decode_request",
    "encode_response",
    "encode_response_with_raw_result",
    "decode_response",
    "error_response",
    "dfs_result_to_dict",
    "frontier_result_to_dict",
    "counters_to_wire",
]

PROTOCOL_VERSION = 1

#: Hard cap on one protocol line; longer lines indicate a broken client
#: (or an attempt to feed the daemon an absurd graph) and are rejected.
MAX_LINE_BYTES = 64 * 1024 * 1024

QUERY_OPS = ("dfs", "scc", "toposort", "cycles", "biconnectivity",
             "spanning")
CONTROL_OPS = ("status", "graphs", "add_graph", "ping", "shutdown")
OPS = QUERY_OPS + CONTROL_OPS

#: Query ops whose result depends on the ``root`` field.
ROOTED_OPS = ("dfs", "cycles")


@dataclass(frozen=True)
class Request:
    """One decoded client request."""

    op: str
    id: Any = None
    graph: Optional[str] = None
    root: int = 0
    config: Optional[Dict[str, Any]] = None
    payload: Optional[Dict[str, Any]] = None
    no_cache: bool = False

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ProtocolError(f"unknown op {self.op!r}; known: {OPS}")
        if self.op in QUERY_OPS and not self.graph:
            raise ProtocolError(f"op {self.op!r} requires a graph name")
        if not isinstance(self.root, int) or isinstance(self.root, bool):
            raise ProtocolError(f"root must be an integer, got {self.root!r}")
        if self.config is not None and not isinstance(self.config, dict):
            raise ProtocolError("config must be an object of "
                                "DiggerBeesConfig overrides")
        if self.payload is not None and not isinstance(self.payload, dict):
            raise ProtocolError("payload must be an object")


@dataclass(frozen=True)
class Response:
    """One decoded daemon response."""

    op: str
    id: Any = None
    ok: bool = True
    result: Optional[Dict[str, Any]] = None
    error: Optional[Dict[str, str]] = None
    cached: bool = False
    batch: int = 1
    elapsed_ms: float = 0.0


_REQUEST_KEYS = ("op", "id", "graph", "root", "config", "payload",
                 "no_cache")
_RESPONSE_KEYS = ("op", "id", "ok", "result", "error", "cached", "batch",
                  "elapsed_ms")


def encode_request(req: Request) -> bytes:
    d: Dict[str, Any] = {"op": req.op}
    if req.id is not None:
        d["id"] = req.id
    if req.graph is not None:
        d["graph"] = req.graph
    if req.root:
        d["root"] = req.root
    if req.config is not None:
        d["config"] = req.config
    if req.payload is not None:
        d["payload"] = req.payload
    if req.no_cache:
        d["no_cache"] = True
    return (json.dumps(d, separators=(",", ":")) + "\n").encode("utf-8")


def _decode_line(line: bytes, what: str) -> Dict[str, Any]:
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"{what} line exceeds {MAX_LINE_BYTES} bytes")
    try:
        data = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed {what} line: {exc}") from None
    if not isinstance(data, dict):
        raise ProtocolError(f"{what} must be a JSON object, "
                            f"got {type(data).__name__}")
    return data


def decode_request(line: bytes) -> Request:
    data = _decode_line(line, "request")
    if "op" not in data:
        raise ProtocolError("request is missing 'op'")
    unknown = set(data) - set(_REQUEST_KEYS)
    if unknown:
        raise ProtocolError(f"unknown request field(s) {sorted(unknown)}")
    try:
        return Request(**data)
    except TypeError as exc:
        raise ProtocolError(f"bad request: {exc}") from None


def encode_response(resp: Response) -> bytes:
    d: Dict[str, Any] = {"op": resp.op, "id": resp.id, "ok": resp.ok}
    if resp.ok:
        d["result"] = resp.result
    else:
        d["error"] = resp.error
    d["cached"] = resp.cached
    d["batch"] = resp.batch
    d["elapsed_ms"] = resp.elapsed_ms
    return (json.dumps(d, separators=(",", ":")) + "\n").encode("utf-8")


def encode_response_with_raw_result(resp: Response, raw_result: str) -> bytes:
    """Encode a success response around an already-serialized result.

    The daemon memoizes the JSON serialization of each cached result so
    a cache hit does not re-``dumps`` a multi-thousand-entry parent list
    per request — at load-test rates that serialization dominates the
    hit path.  Produces byte-compatible output with
    :func:`encode_response` (the protocol tests assert it).
    """
    head = json.dumps({"op": resp.op, "id": resp.id},
                      separators=(",", ":"))[:-1]
    tail = json.dumps({"cached": resp.cached, "batch": resp.batch,
                       "elapsed_ms": resp.elapsed_ms},
                      separators=(",", ":"))[1:]
    return (head + ',"ok":true,"result":' + raw_result + "," +
            tail + "\n").encode("utf-8")


def decode_response(line: bytes) -> Response:
    data = _decode_line(line, "response")
    unknown = set(data) - set(_RESPONSE_KEYS)
    if unknown:
        raise ProtocolError(f"unknown response field(s) {sorted(unknown)}")
    if "op" not in data or "ok" not in data:
        raise ProtocolError("response is missing 'op'/'ok'")
    return Response(**data)


def error_response(req: Optional[Request], exc: BaseException, *,
                   op: str = "?", req_id: Any = None) -> Response:
    """Build the error response for ``exc`` (request may be undecodable)."""
    if req is not None:
        op, req_id = req.op, req.id
    return Response(op=op, id=req_id, ok=False,
                    error={"type": type(exc).__name__,
                           "message": str(exc)})


# ---------------------------------------------------------------------------
# Canonical result payloads.
# ---------------------------------------------------------------------------

def counters_to_wire(counters) -> Dict[str, Any]:
    """JSON-safe, canonical form of a :class:`~repro.sim.trace.SimCounters`.

    Dict-valued counters get string keys (JSON objects cannot key on
    ints or tuples); scalar counters stay ints.  Both the daemon and the
    serve-diff oracle canonicalize through this function, so equality of
    the wire forms is equality of the counters.
    """
    out: Dict[str, Any] = {}
    for k, v in vars(counters).items():
        if isinstance(v, dict):
            out[k] = {_dict_key(dk): int(dv) for dk, dv in sorted(v.items())}
        else:
            out[k] = int(v)
    return out


def _dict_key(k) -> str:
    if isinstance(k, tuple):
        return ",".join(str(int(x)) for x in k)
    return str(int(k))


def _traversal_to_dict(t) -> Dict[str, Any]:
    """Traversal keys every DFS-query payload shares."""
    return {
        "n_vertices": int(t.parent.shape[0]),
        "root": int(t.root),
        "parent": [int(p) for p in t.parent.tolist()],
        "visited": np.flatnonzero(t.visited).tolist(),
        "n_visited": int(t.n_visited),
        "edges_traversed": int(t.edges_traversed),
    }


def dfs_result_to_dict(res) -> Dict[str, Any]:
    """Canonical payload of one :class:`DiggerBeesResult`.

    ``visited`` is sent sparse (indices of visited vertices) — dense
    bool lists would dominate the payload on mostly-unreachable graphs —
    together with ``n_vertices`` so the dense array is recoverable.
    """
    return {
        **_traversal_to_dict(res.traversal),
        "cycles": int(res.cycles),
        "steps": int(res.engine.steps),
        "counters": counters_to_wire(res.counters),
    }


def frontier_result_to_dict(res) -> Dict[str, Any]:
    """Canonical payload of one :class:`~repro.core.frontier.FrontierResult`.

    Shares the traversal keys with :func:`dfs_result_to_dict` (sparse
    ``visited``, dense ``parent``); instead of simulated cycles/steps it
    carries the frontier engine's level profile, plus a ``backend``
    marker so clients can tell which answer family responded.  Swarm
    lanes are bit-identical to single-root frontier runs, so the payload
    is the same whichever tier ran.  It is a pure function of the graph
    and root (the min-parent tie-break is deterministic), so it caches
    and replays like any DFS payload.
    """
    return {
        **_traversal_to_dict(res.traversal),
        "backend": "frontier",
        "n_levels": int(res.n_levels),
        "pushes": int(res.pushes),
        "pulls": int(res.pulls),
    }
