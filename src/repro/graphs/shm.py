"""Zero-copy CSR graph hand-off over POSIX shared memory.

The sweep fan-out (:mod:`repro.bench.harness`) runs many independent
``(method, graph, root)`` samples over a small set of graphs.  Pickling
a graph into every worker task costs one serialize + one deserialize +
one copy *per task*; for sweep workloads the graph payload dominates the
task payload by orders of magnitude.

:func:`export_csr` instead copies each distinct graph **once** into
named ``multiprocessing.shared_memory`` segments and returns a tiny
picklable *spec* (segment names + dtypes + lengths).  Workers
:func:`attach_csr` the spec and wrap NumPy arrays directly over the
shared buffers — no copy, no deserialization, and concurrent workers
map the same physical pages.  ``CSRGraph`` treats its arrays as
immutable, so sharing writable pages is safe by contract.

Lifecycle: the exporting process owns the segments; it keeps only
their names (its own mapping is closed once the arrays are copied in)
and :meth:`SharedCSR.close` unlinks them.  On Linux the unlink removes
the name while every already-attached mapping stays valid, so workers
holding cached graphs are unaffected.  The sweep fan-out takes its
exports from :func:`shared_spec`, a get-or-export registry: a graph
object is exported once and its names live as long as the graph does
(unlinked when it is collected, by :func:`release_shared` and at
exit), so a worker that attached it keeps using its copy across
fan-outs.  The serve corpus keeps its own exports
(:class:`repro.serve.corpus.ResidentGraph`), closed with their corpus
entry.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Dict, List, Tuple

import numpy as np

from repro.graphs.csr import CSRGraph

__all__ = ["SPEC_KEY", "SharedCSR", "export_csr", "attach_csr",
           "resolve_graph", "shared_spec", "release_shared"]

#: Marker key identifying a shared-graph spec dict in a task payload.
SPEC_KEY = "__csr_shm__"


class SharedCSR:
    """Parent-side handle: the picklable spec plus the owned segments.

    ``pid`` is the exporting process: only it may unlink the names.
    """

    __slots__ = ("spec", "pid", "_segments", "_closed")

    def __init__(self, spec: dict, segments: list):
        self.spec = spec
        self.pid = os.getpid()
        self._segments = segments
        self._closed = False

    def close(self) -> None:
        """Unlink the segment names (the exporter's own mapping was
        closed by :func:`export_csr`)."""
        if self._closed:
            return
        self._closed = True
        for shm in self._segments:
            try:
                shm.unlink()
            except OSError:  # pragma: no cover - already gone
                pass


def export_csr(graph: CSRGraph) -> SharedCSR:
    """Copy ``graph``'s arrays into shared memory; return the handle.

    Raises ``OSError`` where shared memory is unavailable, and
    ``ImportError`` on a platform without ``_posixshmem`` (callers fall
    back to pickling the graph itself on either).
    """
    from multiprocessing import shared_memory

    segments = []
    spec_segments: List[Tuple[str, str, int]] = []
    try:
        for arr in (graph.row_ptr, graph.column_idx):
            # Zero-length segments are invalid; over-allocate one byte.
            shm = shared_memory.SharedMemory(
                create=True, size=max(1, arr.nbytes))
            segments.append(shm)
            if arr.nbytes:
                view = np.frombuffer(shm.buf, dtype=arr.dtype,
                                     count=arr.size)
                view[:] = arr
                del view
            # The exporter never reads the copy: unmap it now and keep
            # only the name, so the pages count against the workers
            # that attach them, not against this process too.
            shm.close()
            spec_segments.append((shm.name, str(arr.dtype), int(arr.size)))
    except Exception:
        for shm in segments:
            try:
                shm.close()
                shm.unlink()
            except OSError:
                pass
        raise
    spec = {
        SPEC_KEY: True,
        "directed": graph.directed,
        "name": graph.name,
        "meta": dict(graph.meta),
        "segments": spec_segments,
    }
    return SharedCSR(spec, segments)


def attach_csr(spec: dict) -> Tuple[CSRGraph, list]:
    """Rebuild a :class:`CSRGraph` over the segments named in ``spec``.

    Returns ``(graph, segment_handles)``.  The caller must keep the
    handles referenced at least as long as the graph: the graph's arrays
    alias the mapped buffers, and a garbage-collected handle unmaps
    them.
    """
    from multiprocessing import shared_memory

    arrays = []
    handles = []
    for name, dtype, size in spec["segments"]:
        # Attaching re-registers the name with the resource tracker; under
        # the fork start method (Linux default) parent and workers share
        # one tracker process whose registry is a set, so the attach is a
        # no-op there and the parent's unlink clears the single entry —
        # no extra bookkeeping needed here.
        shm = shared_memory.SharedMemory(name=name)
        handles.append(shm)
        arrays.append(np.frombuffer(shm.buf, dtype=np.dtype(dtype),
                                    count=size))
    graph = CSRGraph(
        row_ptr=arrays[0],
        column_idx=arrays[1],
        directed=spec["directed"],
        name=spec["name"],
        meta=dict(spec["meta"]),
    )
    return graph, handles


#: Worker-side cache of attached graphs, keyed by the first segment name
#: (unique per export; an export lives as long as its graph in the
#: exporter, so every fan-out over that graph hits).  Bounded: a sweep
#: touches a handful of graphs, but a long-lived worker in a persistent
#: pool must not accumulate mappings without limit.
_WORKER_GRAPH_CACHE: Dict[str, tuple] = {}
_WORKER_GRAPH_CACHE_MAX = 32


def resolve_graph(graph):
    """The graph a task carries: a spec is attached (once per worker,
    then cached), a graph passes through."""
    if not (isinstance(graph, dict) and graph.get(SPEC_KEY)):
        return graph
    key = graph["segments"][0][0]
    hit = _WORKER_GRAPH_CACHE.get(key)
    if hit is not None:
        return hit[0]
    attached, handles = attach_csr(graph)
    if len(_WORKER_GRAPH_CACHE) >= _WORKER_GRAPH_CACHE_MAX:
        # FIFO eviction.  Release the graph before its handles: its
        # arrays export the mapped buffers, and a handle whose mapping
        # is still exported fails to close (BufferError in __del__).
        evicted, evicted_handles = _WORKER_GRAPH_CACHE.pop(
            next(iter(_WORKER_GRAPH_CACHE)))
        del evicted
        del evicted_handles
    _WORKER_GRAPH_CACHE[key] = (attached, handles)
    return attached


# ---------------------------------------------------------------------------
# Get-or-export registry: one export per live graph object.
# ---------------------------------------------------------------------------

#: Reentrant: a finalizer may run on this thread (a collection triggered
#: inside :func:`shared_spec`) while the lock is held.
_LOCK = threading.RLock()
#: id(graph) -> (weakref to the graph, its SharedCSR, the finalizer
#: that unlinks it).  The weakref tells a live entry from one whose id
#: a later object reuses; ``CSRGraph`` is unhashable (array fields), so
#: a ``WeakKeyDictionary`` cannot hold it.
_EXPORTS: Dict[int, tuple] = {}


def shared_spec(graph: CSRGraph) -> dict:
    """Spec of ``graph``'s export, exporting it on its first use.

    Later calls with the same graph object return the same spec, so a
    worker that already attached it reuses its copy.  Concurrent first
    uses export once.  The export is unlinked when the graph is
    collected, by :func:`release_shared`, or at exit, and only by the
    process that made it: a forked child inherits the registry but
    exports afresh and never unlinks its parent's names.  Raises like
    :func:`export_csr` where shared memory is unavailable.
    """
    key = id(graph)
    with _LOCK:
        entry = _EXPORTS.get(key)
        if (entry is not None and entry[0]() is graph
                and entry[1].pid == os.getpid()):
            return entry[1].spec
        shared = export_csr(graph)
        release = weakref.finalize(graph, _release, key, shared)
        _EXPORTS[key] = (weakref.ref(graph), shared, release)
        return shared.spec


def _release(key: int, shared: SharedCSR) -> None:
    with _LOCK:
        entry = _EXPORTS.get(key)
        if entry is not None and entry[1] is shared:
            del _EXPORTS[key]
    if shared.pid == os.getpid():
        shared.close()


def release_shared() -> None:
    """Unlink every export made by :func:`shared_spec`.

    The graphs stay usable; a graph's next :func:`shared_spec` exports
    it again.
    """
    with _LOCK:
        finalizers = [entry[2] for entry in _EXPORTS.values()]
    for release in finalizers:
        release()
