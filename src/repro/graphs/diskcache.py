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
* Format: one file of two plain ``.npy`` records, written with
  ``np.save`` and read back in order from one open handle with
  ``np.load(allow_pickle=False)``: an int64 array
  ``[n_vertices + 1, directed, *row_ptr, *column_idx]``, whose slices
  become the graph's arrays without a copy, then a one-element string
  array holding the name.  Nothing is compressed: the 12 representative
  graphs take 4.0 MB instead of the 0.8 MB of version 1's compressed
  ``.npz`` files, and a warm load of all 12 takes 14-31% of the
  ``.npz`` time (medians of 30 loads 4.0-10.8 ms against 28-37 ms,
  eight alternating process pairs on a 2-vCPU host): zlib and the zip
  container were most of a version-1 load.
* Writes are atomic (temp file + ``os.replace``), so concurrent sweep
  workers never observe a torn file.
* Short, unreadable or inconsistent entries are discarded and rebuilt;
  a hit builds a validated :class:`~repro.graphs.csr.CSRGraph`.
* Location: ``$REPRO_CORPUS_CACHE`` if set, else
  ``~/.cache/repro-diggerbees/corpus``.  Setting the variable to ``0``,
  ``off``, ``none``, ``disabled`` or the empty string disables caching;
  :func:`resolve_cache_dir` reads the serve result cache's settings the
  same way.
* Invalidation: bump :data:`CACHE_VERSION` when generator semantics
  or the file format change, or delete the directory
  (``clear_disk_cache``, which also removes version-1 ``.npz`` files).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zipfile
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

#: Process-wide hit/miss tally for :func:`cached_build` (benchmark
#: reporting: the micro-sweep prints these so a cold corpus cache —
#: generation cost showing up in the phase timings — is visible).
_STATS = {"hits": 0, "misses": 0}


def stats() -> dict:
    """A copy of the current ``{"hits": .., "misses": ..}`` tally."""
    return dict(_STATS)


def reset_stats() -> None:
    _STATS["hits"] = 0
    _STATS["misses"] = 0

#: Bump when generator output changes for identical (params, seed), or
#: when the file format changes (2: raw ``.npy`` records, not ``.npz``).
CACHE_VERSION = 2

ENV_VAR = "REPRO_CORPUS_CACHE"

#: Cache-location settings that turn a disk cache off (compared
#: stripped and lower-cased).
_DISABLED = ("", "0", "off", "none", "disabled")

_SUFFIX = ".npy"

#: What reading a short, unreadable or inconsistent entry raises
#: (``np.load`` opens a file that starts like a zip archive as one).
_BAD_ENTRY = (OSError, EOFError, ValueError, zipfile.BadZipFile,
              GraphFormatError)


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
    """Write ``graph`` as the two records :func:`_read` expects."""
    arrays = np.concatenate(([graph.row_ptr.size, int(graph.directed)],
                             graph.row_ptr, graph.column_idx))
    np.save(fh, arrays, allow_pickle=False)
    np.save(fh, np.array([graph.name]), allow_pickle=False)


def _read(path: Path) -> CSRGraph:
    """The graph stored at ``path``; raises one of ``_BAD_ENTRY`` when
    the file is short, unreadable or inconsistent."""
    with open(path, "rb") as fh:
        arrays = np.load(fh, allow_pickle=False)
        name = np.load(fh, allow_pickle=False)
        trailing = fh.read(1)
    if not (isinstance(arrays, np.ndarray) and arrays.dtype == np.int64
            and arrays.ndim == 1 and arrays.size >= 3
            and isinstance(name, np.ndarray) and name.dtype.kind == "U"
            and name.shape == (1,) and not trailing):
        raise ValueError(f"{path.name}: not a corpus cache entry")
    n1, directed = int(arrays[0]), int(arrays[1])
    if not (1 <= n1 <= arrays.size - 2 and directed in (0, 1)):
        raise ValueError(f"{path.name}: inconsistent corpus cache entry")
    return CSRGraph(arrays[2:2 + n1], arrays[2 + n1:],
                    directed=bool(directed), name=str(name[0]),
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
    """Delete every cached corpus file, version-1 ``.npz`` files
    included; returns the number removed."""
    d = cache_dir()
    if d is None or not d.exists():
        return 0
    removed = 0
    for f in [*d.glob("*" + _SUFFIX), *d.glob("*.npz")]:
        try:
            f.unlink()
            removed += 1
        except OSError:
            pass
    return removed
