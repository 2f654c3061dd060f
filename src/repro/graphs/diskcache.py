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
  ``row_ptr`` and ``column_idx`` as ``<i8``; then the UTF-8 name.  A
  hit is one read of the whole file: the header is checked against the
  file's exact length, and the graph's arrays are read-only
  ``np.frombuffer`` views of that one buffer, so no array is copied and
  no container header is parsed.  A warm load of the 12 representative
  graphs takes about half the time of version 2's two ``np.load``
  records (medians of 60 loads, 1.67-2.38 ms against 3.18-3.47 ms, four
  alternating process pairs on a 2-vCPU host); version 1's compressed
  ``.npz`` files took 28-37 ms.
* Writes are atomic (temp file + ``os.replace``), so concurrent sweep
  workers never observe a torn file.
* Short, unreadable or inconsistent entries are discarded, counted in
  :func:`stats` as ``discarded`` and rebuilt; a hit builds a validated
  :class:`~repro.graphs.csr.CSRGraph`.
* Location: ``$REPRO_CORPUS_CACHE`` if set, else
  ``~/.cache/repro-diggerbees/corpus``.  Setting the variable to ``0``,
  ``off``, ``none``, ``disabled`` or the empty string disables caching;
  :func:`resolve_cache_dir` reads the serve result cache's settings the
  same way.
* Invalidation: bump :data:`CACHE_VERSION` when generator semantics
  or the file format change, or delete the directory
  (``clear_disk_cache``, which also removes version-1 ``.npz`` and
  version-2 ``.npy`` files).
"""

from __future__ import annotations

import hashlib
import json
import os
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
    "resolve_cache_dir",
]

#: Process-wide tally for :func:`cached_build` (benchmark reporting:
#: the micro-sweep prints these so a cold corpus cache — generation
#: cost showing up in the phase timings — is visible).  ``misses``
#: counts builder calls; ``discarded`` counts the misses whose entry
#: existed but was short, unreadable or inconsistent.
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

#: The suffixes of earlier versions' entries, which ``clear_disk_cache``
#: also removes (1: ``.npz``, 2: ``.npy``).
_OLD_SUFFIXES = (".npz", ".npy")

_MAGIC = b"REPROCSR"

#: Magic, then ``n_vertices + 1``, arc count, directed flag and name
#: length in bytes.
_HEADER = struct.Struct("<8s4q")

#: What reading a short, unreadable or inconsistent entry raises (a
#: name that is not UTF-8 raises ``UnicodeDecodeError``, a ValueError).
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


def _write(graph: CSRGraph, fh: BinaryIO) -> None:
    """Write ``graph`` as the one file :func:`_read` expects."""
    name = graph.name.encode("utf-8")
    fh.write(_HEADER.pack(_MAGIC, graph.row_ptr.size, graph.column_idx.size,
                          int(graph.directed), len(name)))
    fh.write(graph.row_ptr.astype("<i8", copy=False))
    fh.write(graph.column_idx.astype("<i8", copy=False))
    fh.write(name)


def _read(path: Path) -> CSRGraph:
    """The graph stored at ``path``; raises one of ``_BAD_ENTRY`` when
    the file is short, unreadable or inconsistent."""
    buf = path.read_bytes()
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
                    meta={"source": "diskcache"})


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
    try:
        graph = _read(path)
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
                _write(graph, fh)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError:
        pass
    return graph


def clear_disk_cache() -> int:
    """Delete every cached corpus file, stray temp files and version-1
    and version-2 entries included; returns the number removed."""
    d = cache_dir()
    if d is None or not d.exists():
        return 0
    removed = 0
    for f in [f for suffix in (_SUFFIX, *_OLD_SUFFIXES)
              for f in d.glob("*" + suffix)]:
        try:
            f.unlink()
            removed += 1
        except OSError:
            pass
    return removed
