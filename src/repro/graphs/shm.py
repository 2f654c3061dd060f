"""Graph hand-off to worker processes through mapped ``.csr`` files.

The sweep fan-out (:mod:`repro.bench.harness`) and a worker-pool daemon
(:mod:`repro.serve`) run many independent tasks over a small set of
graphs.  Pickling a graph into every task costs one serialize + one
deserialize + one copy *per task*; the graph payload dominates the task
payload by orders of magnitude.

:func:`shared_spec` instead writes each graph object **once**, in the
corpus cache's format (:func:`repro.graphs.diskcache.write_csr`), to
``/dev/shm/psm_repro-<pid>-<random>.csr`` (the temp dir where there is
no ``/dev/shm``), and hands out a tiny picklable *spec*: that path plus
the graph's ``meta``.  Workers map the file read-only with the cache's
reader (:func:`repro.graphs.diskcache.read_csr`) once per export and
keep the graph (:func:`resolve_graph`): no copy, no deserialization,
and concurrent workers share the same pages.

Lifecycle: :func:`shared_spec` owns every export.  A graph object is
exported once and its file lives as long as the graph does: it is
unlinked when the graph is collected, by :func:`release_shared`, or at
exit, and only by the process that wrote it.  Unlinking removes the
name while every existing mapping stays valid, so workers holding a
cached graph are unaffected.  A process killed before it could unlink
leaves its files behind; the next process's first export deletes the
files of exporters that no longer run.
"""

from __future__ import annotations

import os
import re
import tempfile
import threading
import weakref
from pathlib import Path
from typing import Dict

from repro.graphs import diskcache
from repro.graphs.csr import CSRGraph

__all__ = ["SPEC_KEY", "export_csr", "resolve_graph", "shared_spec",
           "release_shared"]

#: Key of a spec's export path; marks a dict in a task payload as a spec.
SPEC_KEY = "__csr_export__"

#: Export file names: ``psm_`` (what leak checks count), then the
#: exporter's pid, so a later process can tell a dead exporter's files.
_PREFIX = "psm_repro-"
_NAME = re.compile(r"psm_repro-(\d+)-\w+\.csr")

#: Whether this process's first export has deleted dead exporters' files.
_PRUNED = False


def _running(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # another user's live process
        pass
    return True


def _prune_dead(d: str) -> None:
    """Delete the export files in ``d`` whose exporter no longer runs."""
    try:
        names = os.listdir(d)
    except OSError:
        return
    for name in names:
        m = _NAME.fullmatch(name)
        if m and not _running(int(m.group(1))):
            try:
                os.unlink(os.path.join(d, name))
            except OSError:
                pass


def export_csr(graph: CSRGraph) -> dict:
    """Write ``graph`` to a fresh export file; return its spec.

    Raises ``OSError`` where the file cannot be written (callers fall
    back to pickling the graph itself), and then leaves no file behind.
    """
    global _PRUNED
    d = "/dev/shm" if os.path.isdir("/dev/shm") else tempfile.gettempdir()
    if not _PRUNED:
        _PRUNED = True
        _prune_dead(d)
    fd, path = tempfile.mkstemp(prefix=f"{_PREFIX}{os.getpid()}-",
                                suffix=".csr", dir=d)
    try:
        with os.fdopen(fd, "wb") as fh:
            diskcache.write_csr(graph, fh)
    except BaseException:
        os.unlink(path)
        raise
    return {SPEC_KEY: path, "meta": dict(graph.meta)}


#: Worker-side cache of mapped exports, keyed by path (unique per
#: export; an export lives as long as its graph in the exporter, so
#: every fan-out over that graph hits).  Bounded: a sweep touches a
#: handful of graphs, but a long-lived worker in a persistent pool must
#: not accumulate mappings without limit.  An evicted graph's mapping
#: closes when the last array over it is dropped.
_WORKER_GRAPH_CACHE: Dict[str, CSRGraph] = {}
_WORKER_GRAPH_CACHE_MAX = 32


def resolve_graph(graph):
    """The graph a task carries: a spec is mapped (once per worker,
    then cached), a graph passes through.  A spec whose file is gone
    raises ``FileNotFoundError``."""
    if not (isinstance(graph, dict) and SPEC_KEY in graph):
        return graph
    path = graph[SPEC_KEY]
    hit = _WORKER_GRAPH_CACHE.get(path)
    if hit is None:
        hit = diskcache.read_csr(Path(path), graph["meta"])
        if len(_WORKER_GRAPH_CACHE) >= _WORKER_GRAPH_CACHE_MAX:
            del _WORKER_GRAPH_CACHE[next(iter(_WORKER_GRAPH_CACHE))]
        _WORKER_GRAPH_CACHE[path] = hit
    return hit


# ---------------------------------------------------------------------------
# Get-or-export registry: one export per live graph object.
# ---------------------------------------------------------------------------

#: Reentrant: a finalizer may run on this thread (a collection triggered
#: inside :func:`shared_spec`) while the lock is held.
_LOCK = threading.RLock()
#: id(graph) -> (weakref to the graph, its spec, the exporter's pid,
#: the finalizer that unlinks the file).  The weakref tells a live
#: entry from one whose id a later object reuses; ``CSRGraph`` is
#: unhashable (array fields), so a ``WeakKeyDictionary`` cannot hold it.
_EXPORTS: Dict[int, tuple] = {}


def shared_spec(graph: CSRGraph) -> dict:
    """Spec of ``graph``'s export, exporting it on its first use.

    Later calls with the same graph object return the same spec, so a
    worker that already mapped it reuses its copy.  Concurrent first
    uses export once.  The export is unlinked when the graph is
    collected, by :func:`release_shared`, or at exit, and only by the
    process that made it: a forked child inherits the registry but
    exports afresh and never unlinks its parent's files.  Raises like
    :func:`export_csr`.
    """
    key = id(graph)
    pid = os.getpid()
    with _LOCK:
        entry = _EXPORTS.get(key)
        if entry is not None and entry[0]() is graph and entry[2] == pid:
            return entry[1]
        spec = export_csr(graph)
        release = weakref.finalize(graph, _release, key, spec, pid)
        _EXPORTS[key] = (weakref.ref(graph), spec, pid, release)
        return spec


def _release(key: int, spec: dict, pid: int) -> None:
    with _LOCK:
        entry = _EXPORTS.get(key)
        if entry is not None and entry[1] is spec:
            del _EXPORTS[key]
    if pid == os.getpid():
        try:
            os.unlink(spec[SPEC_KEY])
        except FileNotFoundError:  # someone unlinked it already
            pass


def release_shared() -> None:
    """Unlink every export made by :func:`shared_spec`.

    The graphs stay usable; a graph's next :func:`shared_spec` exports
    it again.
    """
    with _LOCK:
        finalizers = [entry[3] for entry in _EXPORTS.values()]
    for release in finalizers:
        release()
