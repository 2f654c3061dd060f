"""Traversal-as-a-service: a persistent query daemon over resident graphs.

The batch entry points (:mod:`repro.bench`, :mod:`repro.check`) pay
engine and graph setup on every invocation.  This package amortizes
that cost across a daemon lifetime: graphs are loaded once (and
exported to a mapped file when worker processes serve them), and
queried over a newline-delimited JSON protocol on a local socket.
Frontier-family queries against the same graph that arrive while every
executor slot is busy coalesce into batches that run in lockstep once
they are wide enough (:func:`repro.core.dispatch.run_batch`),
repeat queries are answered from a per-graph result cache, and every
response is bit-identical to direct execution — the serve-diff stage
of the :mod:`repro.check` oracle ladder enforces exactly that.

Layout: :mod:`~repro.serve.protocol` (wire format and canonical result
payloads), :mod:`~repro.serve.admission` (pure slot-bounded
admission and coalescing policy), :mod:`~repro.serve.corpus` (resident
graph set), :mod:`~repro.serve.cache` (per-graph result LRU with best-effort
disk spill), :mod:`~repro.serve.exec` (picklable query executors),
:mod:`~repro.serve.server` (the asyncio daemon),
:mod:`~repro.serve.client` (async + sync clients),
:mod:`~repro.serve.cli` (``python -m repro.serve``).
"""

from repro.serve.admission import Batch, BatchPolicy
from repro.serve.client import (
    AsyncServeClient,
    SyncServeClient,
    default_socket_path,
)
from repro.serve.corpus import ResidentCorpus, ResidentGraph, load_corpus
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    Request,
    Response,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from repro.serve.server import ServeServer

__all__ = [
    "PROTOCOL_VERSION",
    "Request",
    "Response",
    "encode_request",
    "decode_request",
    "encode_response",
    "decode_response",
    "Batch",
    "BatchPolicy",
    "ResidentCorpus",
    "ResidentGraph",
    "load_corpus",
    "ServeServer",
    "AsyncServeClient",
    "SyncServeClient",
    "default_socket_path",
]
