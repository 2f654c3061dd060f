"""Resident graph corpus: load once, share everywhere.

The daemon's reason to exist is that every batch-mode entry point pays
engine + graph setup per invocation.  :class:`ResidentCorpus` pays it
exactly once: each graph is built (through the corpus disk cache where
applicable), fingerprinted, and exported into POSIX shared memory via
:mod:`repro.graphs.shm`, so worker processes attach the CSR arrays
zero-copy for the daemon's whole lifetime.

Where shared memory is unavailable — or a segment turns out to be
dangling at dispatch time (someone unlinked ``/dev/shm`` entries under
a live daemon) — the entry degrades to pickling the graph into worker
tasks: slower, never wrong.  The failure-path tests exercise exactly
this demotion.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ServeError
from repro.graphs.csr import CSRGraph

__all__ = [
    "graph_fingerprint",
    "ResidentGraph",
    "ResidentCorpus",
    "load_corpus",
    "CORPUS_SPECS",
]


def graph_fingerprint(graph: CSRGraph) -> str:
    """Content hash of a graph's CSR structure (name-independent)."""
    h = hashlib.sha256()
    h.update(b"directed" if graph.directed else b"undirected")
    h.update(np.ascontiguousarray(graph.row_ptr).tobytes())
    h.update(np.ascontiguousarray(graph.column_idx).tobytes())
    return h.hexdigest()[:16]


class ResidentGraph:
    """One resident graph: the in-process CSR plus its shm export."""

    __slots__ = ("name", "graph", "fingerprint", "shared", "shm_ok",
                 "_regime")

    def __init__(self, name: str, graph: CSRGraph, *, share: bool = True):
        self.name = name
        self.graph = graph
        self.fingerprint = graph_fingerprint(graph)
        self.shared = None
        self.shm_ok = False
        self._regime: Optional[str] = None
        if share:
            try:
                from repro.graphs.shm import export_csr

                self.shared = export_csr(graph)
                self.shm_ok = True
            except Exception:
                self.shared = None
                self.shm_ok = False

    def wire(self):
        """Worker-task payload: the shm spec when healthy, else the graph."""
        if self.shm_ok and self.shared is not None:
            return self.shared.spec
        return self.graph

    def demote(self) -> None:
        """Mark the shm export unusable (dangling segment observed)."""
        self.shm_ok = False

    def regime(self) -> str:
        """Routing regime, ``"narrow"`` or ``"wide"`` (memoized — one
        BFS per resident lifetime; :func:`repro.core.dispatch.graph_regime`).

        Backend dispatch keys on it per query; the graph is immutable
        (content changes re-register under a fresh entry), so computing
        it once per fingerprint is safe.
        """
        if self._regime is None:
            from repro.core.dispatch import graph_regime

            self._regime = graph_regime(self.graph)
        return self._regime

    def close(self) -> None:
        if self.shared is not None:
            self.shared.close()
            self.shared = None
        self.shm_ok = False

    def describe(self) -> Dict:
        return {
            "name": self.name,
            "fingerprint": self.fingerprint,
            "n_vertices": int(self.graph.n_vertices),
            "n_edges": int(self.graph.column_idx.shape[0]),
            "directed": bool(self.graph.directed),
            "shm": bool(self.shm_ok),
        }


class ResidentCorpus:
    """Named set of resident graphs owned by one daemon."""

    def __init__(self, *, share: bool = True):
        self._share = share
        self._entries: Dict[str, ResidentGraph] = {}

    def add(self, graph: CSRGraph, name: Optional[str] = None,
            ) -> ResidentGraph:
        """Register ``graph`` under ``name`` (default: its own name).

        Re-registering the same name with identical content is an
        idempotent no-op (returns the existing entry); different content
        replaces the entry — its fingerprint changes, so stale cache
        entries can never be served for the new graph.
        """
        name = name or graph.name
        if not name:
            raise ServeError("resident graphs need a non-empty name")
        existing = self._entries.get(name)
        if existing is not None:
            if existing.fingerprint == graph_fingerprint(graph):
                return existing
            existing.close()
        entry = ResidentGraph(name, graph, share=self._share)
        self._entries[name] = entry
        return entry

    def get(self, name: str) -> ResidentGraph:
        entry = self._entries.get(name)
        if entry is None:
            raise ServeError(
                f"unknown graph {name!r}; resident: {sorted(self._entries)}")
        return entry

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> List[str]:
        return sorted(self._entries)

    def describe(self) -> List[Dict]:
        return [self._entries[n].describe() for n in self.names()]

    def close(self) -> None:
        """Release every shm export (attached workers stay valid)."""
        for entry in self._entries.values():
            entry.close()


# ---------------------------------------------------------------------------
# Named corpus selectors for the CLI / load-test harness.
# ---------------------------------------------------------------------------

CORPUS_SPECS = ("micro", "representative", "demo")


def _micro_graphs() -> List[CSRGraph]:
    """The micro-bench sweep graphs (routed through the disk cache)."""
    from repro.graphs.collections import MICRO_SPECS

    out = []
    for spec in MICRO_SPECS:
        g = spec.build()
        if g.name != spec.name:
            g = g.with_name(spec.name)
        out.append((spec.name, g))
    return out


def load_corpus(spec: str = "micro", *, share: bool = True,
                ) -> ResidentCorpus:
    """Build a resident corpus from a selector string.

    ``"micro"`` — the fixed micro-bench sweep graphs (the load-test
    corpus); ``"representative"`` — the Table-4 stand-ins from
    :mod:`repro.graphs.collections`; ``"demo"`` — four tiny graphs
    (one directed, one shallow-wide) for smoke tests; anything else —
    comma-separated collection names.
    """
    corpus = ResidentCorpus(share=share)
    if spec == "micro":
        for name, g in _micro_graphs():
            corpus.add(g, name)
    elif spec == "representative":
        from repro.graphs import collections as col

        for g in col.representative_graphs():
            corpus.add(g)
    elif spec == "demo":
        from repro.graphs import generators as gen

        corpus.add(gen.path_graph(64), "demo_path64")
        corpus.add(gen.binary_tree(6), "demo_tree6")
        corpus.add(gen.citation_graph(48, seed=7, symmetrize=False),
                   "demo_dag48")
        corpus.add(gen.star_mesh(6, leaves_per_hub=9, seed=7),
                   "demo_starmesh60")
    else:
        from repro.graphs import collections as col

        for name in [s.strip() for s in spec.split(",") if s.strip()]:
            corpus.add(col.load(name), name)
    if not len(corpus):
        raise ServeError(f"corpus selector {spec!r} produced no graphs")
    return corpus
