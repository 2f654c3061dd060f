"""Disk cache for generated corpus graphs.

Benchmark sweeps (Figures 5-10) regenerate the same synthetic corpus on
every invocation; generation cost rivals simulation cost for the larger
sizes.  This module memoizes *raw builder output* to files keyed by
``(kind, name, params, seed, CACHE_VERSION)`` so repeated runs skip
regeneration entirely.

Contract
--------
* The cache stores only the CSR structure, directedness and name;
  callers re-apply display metadata (``with_name``) after the cached
  build, so a cache hit is bit-for-bit equivalent to a rebuild for
  every simulation purpose.
* Format (version 3): one raw ``.csr`` file holding the 8-byte magic
  :data:`_MAGIC`; four little-endian int64 fields ``n_vertices + 1``,
  arc count, directed flag (0 or 1) and the name's length in bytes;
  ``row_ptr`` and ``column_idx`` as ``<i8``; then the UTF-8 name.
  :func:`write_csr` and :func:`read_csr` are also the graph hand-off
  to worker processes (:mod:`repro.graphs.shm`), so a graph has one
  format outside its process.
* A hit maps the entry read-only (``mmap.ACCESS_READ``), checks the
  header against the mapping's exact length, and builds the graph over
  plain read-only ``np.frombuffer`` views of the mapping: no byte of the
  file is copied and no container header is parsed, and a forked worker
  shares the mapped pages instead of counting a copy of them as its own
  memory.  A warm load of the 12 representative graphs took
  1.82-2.45 ms mapped against 4.13-5.67 ms read whole into memory
  (medians of 40 loads, four alternating process pairs on a 2-vCPU
  host), and each forked sweep worker's peak resident memory fell from
  39.1-39.4 to 35.3-35.6 MB; version 1's compressed ``.npz`` files took
  28-37 ms.  End to end, the benchmark sweep's ``setup_s`` (one such
  load) fell from 0.00441 to 0.00216 s (medians of 10 alternating 30-s
  pairs, all 10 won; docs/PERFORMANCE.md has every pair).
* Entries are only ever replaced (``os.replace`` of a finished temp
  file) or unlinked, never rewritten in place, so a live mapping keeps
  the values it was loaded with; truncating a mapped file in place would
  fault its readers.  Each live mapping holds one duplicated file
  descriptor until its graph is dropped.
* Writes are atomic (temp file + ``os.replace``), so concurrent sweep
  workers never observe a torn file.
* Empty, short, unreadable or inconsistent entries are discarded,
  counted in :func:`stats` as ``discarded`` and rebuilt; a hit builds a
  validated :class:`~repro.graphs.csr.CSRGraph`.
* Location: ``$REPRO_CORPUS_CACHE`` if set, else
  ``~/.cache/repro-diggerbees/corpus``.  Setting the variable to ``0``,
  ``off``, ``none``, ``disabled`` or the empty string disables caching;
  :func:`resolve_cache_dir` reads the serve result cache's settings the
  same way.
* Invalidation: bump :data:`CACHE_VERSION` when generator semantics
  or the file format change, or clear the cache (``clear_disk_cache``).
  The first :func:`cached_build` call per process and cache directory
  deletes what earlier versions left there: ``<stem>-<16 hex
  digits>.npz`` or ``.npy`` entries and their writers' ``tmp*.tmp.npz``
  or ``.npy`` files, and no other file; ``clear_disk_cache`` deletes
  those too.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import re
import struct
import tempfile
from pathlib import Path
from typing import BinaryIO, Callable, Mapping, Optional

import numpy as np

from repro.errors import GraphFormatError
from repro.graphs.csr import CSRGraph

__all__ = [
    "CACHE_VERSION",
    "ENV_VAR",
    "cache_dir",
    "cache_path",
    "cached_build",
    "clear_disk_cache",
    "stats",
    "reset_stats",
    "read_csr",
    "resolve_cache_dir",
    "write_csr",
]

#: Process-wide tally for :func:`cached_build` (benchmark reporting:
#: the micro-sweep prints these so a cold corpus cache — generation
#: cost showing up in the phase timings — is visible).  ``misses``
#: counts builder calls; ``discarded`` counts the misses whose entry
#: existed but was empty, short, unreadable or inconsistent.
_STATS = {"hits": 0, "misses": 0, "discarded": 0}


def stats() -> dict:
    """A copy of the current ``{"hits", "misses", "discarded"}`` tally."""
    return dict(_STATS)


def reset_stats() -> None:
    _STATS.update(dict.fromkeys(_STATS, 0))

#: Bump when generator output changes for identical (params, seed), or
#: when the file format changes (2: raw ``.npy`` records, not ``.npz``;
#: 3: one raw CSR file, not two ``.npy`` records).
CACHE_VERSION = 3

ENV_VAR = "REPRO_CORPUS_CACHE"

#: Cache-location settings that turn a disk cache off (compared
#: stripped and lower-cased).
_DISABLED = ("", "0", "off", "none", "disabled")

_SUFFIX = ".csr"

#: The names earlier versions gave their entries (1: ``.npz``, 2:
#: ``.npy``) and their writers' temp files.  Pruning and
#: :func:`clear_disk_cache` remove those and no other ``.npz`` or
#: ``.npy`` file, since the cache directory may be one the user also
#: keeps other files in.
_OLD_ENTRY = re.compile(r"(?:[A-Za-z0-9_-]+-[0-9a-f]{16}|tmp.*\.tmp)\.np[yz]")

#: The cache directories pruned so far in this process.
_PRUNED: set = set()

_MAGIC = b"REPROCSR"

#: Magic, then ``n_vertices + 1``, arc count, directed flag and name
#: length in bytes.
_HEADER = struct.Struct("<8s4q")

#: What reading an empty, short, unreadable or inconsistent entry raises
#: (mapping an empty file raises ValueError, and so does a name that is
#: not UTF-8, as ``UnicodeDecodeError``).
_BAD_ENTRY = (OSError, ValueError, GraphFormatError)


def resolve_cache_dir(setting: Optional[str], name: str) -> Optional[Path]:
    """The directory a cache-location ``setting`` names: None when it is
    ``0``, ``off``, ``none``, ``disabled`` or blank (any case),
    ``~/.cache/repro-diggerbees/<name>`` when it is unset (None)."""
    if setting is None:
        return Path.home() / ".cache" / "repro-diggerbees" / name
    if setting.strip().lower() in _DISABLED:
        return None
    return Path(setting).expanduser()


def cache_dir() -> Optional[Path]:
    """Resolve the cache directory, or None when caching is disabled."""
    return resolve_cache_dir(os.environ.get(ENV_VAR), "corpus")


def cache_path(kind: str, name: str, params: Mapping, seed: int) -> Optional[Path]:
    """Deterministic cache file path for one builder invocation."""
    d = cache_dir()
    if d is None:
        return None
    payload = json.dumps(
        {"kind": kind, "name": name, "params": dict(params),
         "seed": int(seed), "version": CACHE_VERSION},
        sort_keys=True, default=str,
    )
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
    stem = "".join(c if c.isalnum() or c in "-_" else "_"
                   for c in f"{kind}-{name}")
    return d / f"{stem}-{digest}{_SUFFIX}"


def write_csr(graph: CSRGraph, fh: BinaryIO) -> None:
    """Write ``graph`` as the one file :func:`read_csr` expects."""
    name = graph.name.encode("utf-8")
    fh.write(_HEADER.pack(_MAGIC, graph.row_ptr.size, graph.column_idx.size,
                          int(graph.directed), len(name)))
    fh.write(graph.row_ptr.astype("<i8", copy=False))
    fh.write(graph.column_idx.astype("<i8", copy=False))
    fh.write(name)


def read_csr(path: Path, meta: Optional[Mapping] = None) -> CSRGraph:
    """The graph stored at ``path``, over a read-only mapping of it,
    with ``meta`` (default ``{"source": "diskcache"}``); raises one of
    ``_BAD_ENTRY`` when the file is empty, short, unreadable or
    inconsistent."""
    fd = os.open(path, os.O_RDONLY)
    try:
        buf = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
    finally:
        os.close(fd)
    if len(buf) < _HEADER.size:
        raise ValueError(f"{path.name}: not a corpus cache entry")
    magic, n1, m, directed, name_len = _HEADER.unpack_from(buf)
    end = _HEADER.size + 8 * (n1 + m)
    if not (magic == _MAGIC and n1 >= 1 and m >= 0 and directed in (0, 1)
            and name_len >= 0 and len(buf) == end + name_len):
        raise ValueError(f"{path.name}: inconsistent corpus cache entry")
    arrays = np.frombuffer(buf, dtype="<i8", count=n1 + m,
                           offset=_HEADER.size)
    return CSRGraph(arrays[:n1], arrays[n1:], directed=bool(directed),
                    name=buf[end:].decode("utf-8"),
                    meta={"source": "diskcache"} if meta is None
                    else dict(meta))


def _prune_once(d: Path) -> None:
    """On the first call per process for ``d``, delete the entries and
    stray temp files earlier versions left there; best-effort, like
    every cache write."""
    if d in _PRUNED:
        return
    _PRUNED.add(d)
    try:
        names = os.listdir(d)
    except OSError:
        return
    for name in names:
        if _OLD_ENTRY.fullmatch(name):
            try:
                os.unlink(d / name)
            except OSError:
                pass


def cached_build(kind: str, name: str, params: Mapping, seed: int,
                 builder: Callable[[], CSRGraph]) -> CSRGraph:
    """Return the cached graph for this key, building (and caching) on miss.

    Caching is strictly best-effort: any I/O problem falls back to the
    builder so benchmarks never fail because of cache state.
    """
    path = cache_path(kind, name, params, seed)
    if path is None:
        _STATS["misses"] += 1
        return builder()
    _prune_once(path.parent)
    try:
        graph = read_csr(path)
    except FileNotFoundError:
        pass
    except _BAD_ENTRY:
        _STATS["discarded"] += 1
        try:
            path.unlink()
        except OSError:
            pass
    else:
        _STATS["hits"] += 1
        return graph
    _STATS["misses"] += 1
    graph = builder()
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                                   suffix=".tmp" + _SUFFIX)
        try:
            with os.fdopen(fd, "wb") as fh:
                write_csr(graph, fh)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError:
        pass
    return graph


def clear_disk_cache() -> int:
    """Delete every cached corpus file, stray temp files and earlier
    versions' entries included; returns the number removed."""
    d = cache_dir()
    if d is None or not d.exists():
        return 0
    removed = 0
    for f in d.iterdir():
        if f.suffix == _SUFFIX or _OLD_ENTRY.fullmatch(f.name):
            try:
                f.unlink()
                removed += 1
            except OSError:
                pass
    return removed
