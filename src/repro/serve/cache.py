"""Per-graph result cache for the traversal service.

Keyed like :mod:`repro.graphs.diskcache`: a query's cache key is the
SHA-256 of its canonical JSON description — ``(op, root, engine-config
overrides, graph fingerprint, CACHE_VERSION)`` — so two requests hit the
same entry iff they are semantically the same query against the same
graph *content* (the fingerprint hashes the CSR arrays, not the name).

Each resident graph gets its own bounded LRU.  An entry is one answer's
compact JSON text and nothing else: the daemon's hit path splices it
into the response and a spill writes it out verbatim, so neither ever
re-serializes a multi-thousand-entry parent array, and no decoded
answer (about 7x the size of its text) outlives the batch that
computed it.

Disk spill is strictly best-effort, mirroring the corpus cache's
contract: a corrupt, truncated, or version-skewed cache file is
discarded and the service degrades to recomputation — never to an
error.  Writes are atomic (temp file + ``os.replace``) and batched
(every :data:`FLUSH_EVERY` inserts, plus a final flush at shutdown).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from repro.graphs.diskcache import resolve_cache_dir

__all__ = [
    "CACHE_VERSION",
    "ENV_VAR",
    "FLUSH_EVERY",
    "default_cache_dir",
    "result_key",
    "GraphResultCache",
]

#: Bump when result payload semantics change for identical queries
#: (2: DFS payloads no longer carry ``counters.coldseg_compactions``).
CACHE_VERSION = 2

ENV_VAR = "REPRO_SERVE_CACHE"

#: Dirty-entry count at which the cache is spilled to disk.
FLUSH_EVERY = 64

_WHITESPACE = re.compile(r"[ \t\n\r]*")
_decode_value = json.JSONDecoder().raw_decode


def default_cache_dir(setting: Optional[str] = None) -> Optional[Path]:
    """Resolve the serve-cache directory, or None when disk is disabled.

    ``setting`` is ``ServeConfig.cache_dir``; when it is None,
    ``$REPRO_SERVE_CACHE`` stands in for it.  Same contract as
    :func:`repro.graphs.diskcache.cache_dir`: a disabled value turns
    disk spill off, and with neither set the directory is a sibling of
    the corpus cache.
    """
    if setting is None:
        setting = os.environ.get(ENV_VAR)
    return resolve_cache_dir(setting, "serve")


def result_key(op: str, root: int, config: Optional[Mapping],
               graph_fingerprint: str, backend: str = "dfs") -> str:
    """Deterministic cache key for one query (hex digest prefix).

    ``backend`` is the *resolved* engine family for DFS queries; only a
    non-default backend is keyed, so every existing DFS entry (memory or
    disk spill) stays addressable, while frontier answers can never be
    served to a DFS-backed daemon or vice versa.
    """
    payload: dict = {"op": op, "root": int(root),
                     "config": dict(config) if config else None,
                     "graph": graph_fingerprint, "version": CACHE_VERSION}
    if backend != "dfs":
        payload["backend"] = backend
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()[:24]


class GraphResultCache:
    """Bounded LRU of served results for one resident graph."""

    def __init__(self, graph_name: str, graph_fingerprint: str,
                 directory: Optional[Path], max_entries: int = 4096):
        self.graph_name = graph_name
        self.graph_fingerprint = graph_fingerprint
        self.max_entries = int(max_entries)
        self.hits = 0
        self.misses = 0
        self._dirty = 0
        #: key -> the answer's compact JSON text
        self._entries: "OrderedDict[str, str]" = OrderedDict()
        self._path: Optional[Path] = None
        if directory is not None and self.max_entries > 0:
            stem = "".join(c if c.isalnum() or c in "-_" else "_"
                           for c in graph_name)
            self._path = (Path(directory)
                          / f"{stem}-{graph_fingerprint}.json")
            self._load()

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[str]:
        """Look up ``key``; returns the answer's JSON text or None."""
        raw = self._entries.get(key)
        if raw is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return raw

    def put(self, key: str, raw: str) -> None:
        """Cache one answer as its compact JSON text (the bytes a
        response carries)."""
        if self.max_entries <= 0 or key in self._entries:
            return
        self._entries[key] = raw
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        self._dirty += 1
        if self._dirty >= FLUSH_EVERY:
            self.flush()

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, Any]:
        return {"entries": len(self._entries),
                "bytes": sum(map(len, self._entries.values())),
                "hits": self.hits, "misses": self.misses,
                "file": str(self._path) if self._path else None}

    # ------------------------------------------------------------------
    def _load(self) -> None:
        """Best-effort disk load; corrupt files are discarded.

        The spill is decoded one entry at a time: decoding it whole would
        briefly hold every answer decoded, about 8x the file.
        """
        path = self._path
        if path is None or not path.exists():
            return
        try:
            text = path.read_text(encoding="utf-8")
            header: Dict[str, Any] = {}

            def entry(key: str, pos: int) -> int:
                result, pos = _decode_value(text, pos)
                self._entries[key] = json.dumps(result,
                                                separators=(",", ":"))
                # flush() writes least- to most-recently used, so a
                # smaller capacity keeps the newest entries, as the LRU
                # would.
                if len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
                return pos

            def member(key: str, pos: int) -> int:
                if key == "entries":
                    header[key] = True
                    return _scan_object(text, pos, entry)
                header[key], pos = _decode_value(text, pos)
                return pos

            end = _scan_object(text, 0, member)
            if _WHITESPACE.match(text, end).end() != len(text):
                raise ValueError("data after the cache object")
            if (header.get("version") != CACHE_VERSION
                    or header.get("graph_fp") != self.graph_fingerprint
                    or "entries" not in header):
                raise ValueError("cache header mismatch")
        except Exception:
            # Corrupt/partial/version-skewed: recompute rather than fail.
            self._entries.clear()
            try:
                path.unlink()
            except OSError:
                pass

    def flush(self) -> None:
        """Best-effort atomic spill of the current entries to disk."""
        path = self._path
        if path is None or not self._dirty:
            return
        self._dirty = 0
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                                       suffix=".tmp.json")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as f:
                    # Entry by entry: a body joined in memory first
                    # would hold every cached text twice more.
                    f.write('{"version":%d,"graph_fp":%s,"entries":{' % (
                        CACHE_VERSION, json.dumps(self.graph_fingerprint)))
                    sep = ""
                    for key, raw in self._entries.items():
                        f.write(f"{sep}{json.dumps(key)}:")
                        f.write(raw)
                        sep = ","
                    f.write("}}")
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except OSError:
            pass


def _scan_object(text: str, pos: int, value) -> int:
    """Walk the JSON object at ``text[pos:]`` member by member.

    ``value(key, start)`` consumes each member's value, starting at
    ``start``, and returns the position after it.  Returns the position
    after the object; raises ``ValueError`` on malformed input.
    """
    pos = _WHITESPACE.match(text, pos).end()
    if text[pos:pos + 1] != "{":
        raise ValueError(f"expected an object at {pos}")
    pos = _WHITESPACE.match(text, pos + 1).end()
    if text[pos:pos + 1] == "}":
        return pos + 1
    while True:
        key, pos = _decode_value(text, pos)
        if not isinstance(key, str):
            raise ValueError(f"expected a key at {pos}")
        pos = _WHITESPACE.match(text, pos).end()
        if text[pos:pos + 1] != ":":
            raise ValueError(f"expected ':' at {pos}")
        pos = value(key, _WHITESPACE.match(text, pos + 1).end())
        pos = _WHITESPACE.match(text, pos).end()
        sep = text[pos:pos + 1]
        if sep == "}":
            return pos + 1
        if sep != ",":
            raise ValueError(f"expected ',' or '}}' at {pos}")
        pos = _WHITESPACE.match(text, pos + 1).end()
