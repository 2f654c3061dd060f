"""Compressed Sparse Row (CSR) graph substrate.

This is the input format of the paper (Algorithm 1 reads ``row_ptr`` /
``column_idx`` directly) and the single graph representation used by every
algorithm in this repository.  The class is a thin, immutable wrapper over
two NumPy arrays plus convenience constructors, transforms, and integrity
checks.

Conventions
-----------
* Vertices are ``0 .. n_vertices-1``.
* ``row_ptr`` has length ``n_vertices + 1``; the neighbours of ``u`` are
  ``column_idx[row_ptr[u]:row_ptr[u+1]]``.
* For undirected graphs every edge is stored in both directions
  (``directed=False`` is a statement about symmetry, checked on demand).
* ``n_edges`` counts *stored* directed arcs, matching the paper's MTEPS
  denominator (traversed edges).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GraphFormatError

__all__ = ["CSRGraph", "from_edges", "from_adjacency"]

_INDEX_DTYPE = np.int64


@dataclass(frozen=True)
class CSRGraph:
    """An immutable graph in CSR form.

    Parameters
    ----------
    row_ptr:
        Offsets array, shape ``(n_vertices + 1,)``, nondecreasing,
        ``row_ptr[0] == 0`` and ``row_ptr[-1] == len(column_idx)``.
    column_idx:
        Neighbour array; values in ``[0, n_vertices)``.
    directed:
        Whether the arc set is to be interpreted as directed.  An
        undirected graph stores both arc directions.
    name:
        Optional label used in reports.
    """

    row_ptr: np.ndarray
    column_idx: np.ndarray
    directed: bool = False
    name: str = ""
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        rp = np.ascontiguousarray(self.row_ptr, dtype=_INDEX_DTYPE)
        ci = np.ascontiguousarray(self.column_idx, dtype=_INDEX_DTYPE)
        object.__setattr__(self, "row_ptr", rp)
        object.__setattr__(self, "column_idx", ci)
        if rp.ndim != 1 or ci.ndim != 1:
            raise GraphFormatError("row_ptr and column_idx must be 1-D arrays")
        if rp.size == 0:
            raise GraphFormatError("row_ptr must have length >= 1")
        if rp[0] != 0:
            raise GraphFormatError(f"row_ptr[0] must be 0, got {rp[0]}")
        if rp[-1] != ci.size:
            raise GraphFormatError(
                f"row_ptr[-1]={rp[-1]} does not match len(column_idx)={ci.size}"
            )
        if np.any(np.diff(rp) < 0):
            raise GraphFormatError("row_ptr must be nondecreasing")
        n = rp.size - 1
        if ci.size and (ci.min() < 0 or ci.max() >= n):
            raise GraphFormatError(
                f"column_idx values must lie in [0, {n}), got range "
                f"[{ci.min()}, {ci.max()}]"
            )
        rp.setflags(write=False)
        ci.setflags(write=False)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        """Number of vertices."""
        return self.row_ptr.size - 1

    @property
    def n_edges(self) -> int:
        """Number of stored directed arcs (2x undirected edge count)."""
        return self.column_idx.size

    @property
    def n_undirected_edges(self) -> int:
        """``n_edges / 2`` for symmetric graphs (rounded up for odd arcs)."""
        return (self.n_edges + 1) // 2 if not self.directed else self.n_edges

    def degree(self, u: Optional[int] = None) -> np.ndarray:
        """Out-degree of ``u``, or the full out-degree array if ``u`` is None."""
        if u is None:
            return np.diff(self.row_ptr)
        self._check_vertex(u)
        return self.row_ptr[u + 1] - self.row_ptr[u]

    def neighbors(self, u: int) -> np.ndarray:
        """Read-only view of ``u``'s neighbour list."""
        self._check_vertex(u)
        return self.column_idx[self.row_ptr[u]: self.row_ptr[u + 1]]

    def iter_edges(self) -> Iterator[Tuple[int, int]]:
        """Yield every stored arc ``(u, v)`` in CSR order."""
        rp = self.row_ptr
        ci = self.column_idx
        for u in range(self.n_vertices):
            for j in range(rp[u], rp[u + 1]):
                yield u, int(ci[j])

    def edge_array(self) -> np.ndarray:
        """All stored arcs as an ``(n_edges, 2)`` array (vectorized)."""
        src = np.repeat(np.arange(self.n_vertices, dtype=_INDEX_DTYPE), self.degree())
        return np.column_stack([src, self.column_idx])

    def has_edge(self, u: int, v: int) -> bool:
        """True if arc ``(u, v)`` is stored (binary search if sorted, scan otherwise)."""
        self._check_vertex(u)
        self._check_vertex(v)
        nbrs = self.neighbors(u)
        if self.meta.get("sorted_neighbors"):
            pos = np.searchsorted(nbrs, v)
            return bool(pos < nbrs.size and nbrs[pos] == v)
        return bool(np.any(nbrs == v))

    def _check_vertex(self, u: int) -> None:
        if not (0 <= u < self.n_vertices):
            raise GraphFormatError(f"vertex {u} out of range [0, {self.n_vertices})")

    # ------------------------------------------------------------------
    # Transforms (each returns a new CSRGraph)
    # ------------------------------------------------------------------
    def with_name(self, name: str, **meta) -> "CSRGraph":
        """Copy with a new name and extra metadata entries."""
        merged = dict(self.meta)
        merged.update(meta)
        return CSRGraph(self.row_ptr, self.column_idx, self.directed, name, merged)

    def sort_neighbors(self) -> "CSRGraph":
        """Sort each adjacency list ascending (canonical / lexicographic form).

        Serial DFS on the sorted form produces the lexicographically
        smallest DFS tree, which is the oracle for NVG-DFS validation.
        """
        ci = self.column_idx.copy()
        rp = self.row_ptr
        for u in range(self.n_vertices):
            lo, hi = rp[u], rp[u + 1]
            if hi - lo > 1:
                ci[lo:hi] = np.sort(ci[lo:hi])
        meta = dict(self.meta)
        meta["sorted_neighbors"] = True
        return CSRGraph(rp, ci, self.directed, self.name, meta)

    def symmetrize(self) -> "CSRGraph":
        """Return the undirected closure: every arc gets its reverse.

        Duplicate arcs and self-loops introduced by the union are removed;
        this mirrors the standard SuiteSparse preprocessing used by graph
        traversal papers.
        """
        edges = self.edge_array()
        both = np.vstack([edges, edges[:, ::-1]])
        return from_edges(
            self.n_vertices,
            both,
            directed=False,
            name=self.name,
            dedupe=True,
            drop_self_loops=True,
            meta={**self.meta, "symmetrized": True},
        )

    def reverse(self) -> "CSRGraph":
        """Return the graph with every arc reversed (transpose)."""
        edges = self.edge_array()
        return from_edges(
            self.n_vertices,
            edges[:, ::-1],
            directed=self.directed,
            name=self.name,
            meta=dict(self.meta),
        )

    def permute(self, perm: Sequence[int]) -> "CSRGraph":
        """Relabel vertices: new id of old vertex ``u`` is ``perm[u]``.

        ``perm`` must be a permutation of ``range(n_vertices)``.  Used to
        randomize vertex order so results do not depend on generator
        labelling artifacts.
        """
        perm = np.asarray(perm, dtype=_INDEX_DTYPE)
        n = self.n_vertices
        if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
            raise GraphFormatError("perm must be a permutation of range(n_vertices)")
        edges = self.edge_array()
        remapped = np.column_stack([perm[edges[:, 0]], perm[edges[:, 1]]])
        return from_edges(n, remapped, directed=self.directed, name=self.name,
                          meta=dict(self.meta))

    def subgraph(self, vertices: Sequence[int]) -> "CSRGraph":
        """Induced subgraph on ``vertices`` (relabelled to 0..k-1 in order)."""
        verts = np.asarray(vertices, dtype=_INDEX_DTYPE)
        if verts.size != np.unique(verts).size:
            raise GraphFormatError("subgraph vertex list contains duplicates")
        if verts.size and (verts.min() < 0 or verts.max() >= self.n_vertices):
            raise GraphFormatError("subgraph vertex out of range")
        remap = np.full(self.n_vertices, -1, dtype=_INDEX_DTYPE)
        remap[verts] = np.arange(verts.size)
        edges = self.edge_array()
        mask = (remap[edges[:, 0]] >= 0) & (remap[edges[:, 1]] >= 0)
        kept = edges[mask]
        remapped = np.column_stack([remap[kept[:, 0]], remap[kept[:, 1]]])
        return from_edges(int(verts.size), remapped, directed=self.directed,
                          name=f"{self.name}#sub", meta=dict(self.meta))

    # ------------------------------------------------------------------
    # Checks and reports
    # ------------------------------------------------------------------
    def is_symmetric(self) -> bool:
        """True if every stored arc has its reverse stored."""
        edges = self.edge_array()
        fwd = set(map(tuple, edges.tolist()))
        return all((v, u) in fwd for (u, v) in fwd)

    def has_self_loops(self) -> bool:
        """True if any arc ``(u, u)`` is stored."""
        src = np.repeat(np.arange(self.n_vertices, dtype=_INDEX_DTYPE), self.degree())
        return bool(np.any(src == self.column_idx))

    def memory_bytes(self) -> int:
        """CSR footprint in bytes (the paper reports per-graph GPU memory)."""
        return int(self.row_ptr.nbytes + self.column_idx.nbytes)

    # ------------------------------------------------------------------
    # SciPy interop
    # ------------------------------------------------------------------
    def to_scipy(self):
        """The adjacency structure as a ``scipy.sparse.csr_matrix``.

        Values are all ones (pattern matrix); shape is square.
        """
        from scipy.sparse import csr_matrix

        n = self.n_vertices
        data = np.ones(self.n_edges, dtype=np.int8)
        return csr_matrix((data, self.column_idx, self.row_ptr), shape=(n, n))

    @classmethod
    def from_scipy(cls, matrix, *, directed: bool = True,
                   name: str = "") -> "CSRGraph":
        """Build a graph from any ``scipy.sparse`` matrix.

        The matrix must be square; values are discarded (structure only),
        explicit zeros included.  Converts to CSR format if needed.
        """
        mat = matrix.tocsr()
        rows, cols = mat.shape
        if rows != cols:
            raise GraphFormatError(
                f"adjacency matrix must be square, got {rows}x{cols}"
            )
        return cls(
            np.asarray(mat.indptr, dtype=_INDEX_DTYPE),
            np.asarray(mat.indices, dtype=_INDEX_DTYPE),
            directed=directed,
            name=name,
            meta={"source": "scipy"},
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "digraph" if self.directed else "graph"
        label = f" {self.name!r}" if self.name else ""
        return (
            f"CSRGraph({kind}{label}, n_vertices={self.n_vertices}, "
            f"n_edges={self.n_edges})"
        )


def from_edges(
    n_vertices: int,
    edges: Iterable[Tuple[int, int]],
    *,
    directed: bool = False,
    name: str = "",
    dedupe: bool = False,
    drop_self_loops: bool = False,
    sort_neighbors: bool = True,
    meta: Optional[dict] = None,
) -> CSRGraph:
    """Build a :class:`CSRGraph` from an iterable of ``(u, v)`` arcs.

    Parameters
    ----------
    dedupe:
        Remove duplicate arcs (SuiteSparse graphs are simple).
    drop_self_loops:
        Remove ``(u, u)`` arcs.
    sort_neighbors:
        Sort each adjacency list ascending (default; gives canonical CSR,
        required for the lexicographic-DFS oracle).
    """
    if n_vertices < 0:
        raise GraphFormatError(f"n_vertices must be >= 0, got {n_vertices}")
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                     dtype=_INDEX_DTYPE)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphFormatError(f"edges must be (m, 2)-shaped, got {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= n_vertices):
        raise GraphFormatError(
            f"edge endpoints must lie in [0, {n_vertices}), got range "
            f"[{arr.min()}, {arr.max()}]"
        )
    if drop_self_loops and arr.size:
        arr = arr[arr[:, 0] != arr[:, 1]]
    if dedupe and arr.size:
        arr = np.unique(arr, axis=0)

    counts = np.bincount(arr[:, 0], minlength=n_vertices).astype(_INDEX_DTYPE)
    row_ptr = np.zeros(n_vertices + 1, dtype=_INDEX_DTYPE)
    np.cumsum(counts, out=row_ptr[1:])

    order = np.argsort(arr[:, 0], kind="stable")
    column_idx = arr[order, 1].copy()
    if sort_neighbors:
        # Arcs are grouped by source after the stable sort; sorting (src, dst)
        # lexicographically sorts each adjacency list in one pass.
        order2 = np.lexsort((arr[:, 1], arr[:, 0]))
        column_idx = arr[order2, 1].copy()

    full_meta = dict(meta or {})
    if sort_neighbors:
        full_meta["sorted_neighbors"] = True
    return CSRGraph(row_ptr, column_idx, directed=directed, name=name, meta=full_meta)


def from_adjacency(
    adjacency: Sequence[Sequence[int]],
    *,
    directed: bool = False,
    name: str = "",
) -> CSRGraph:
    """Build a :class:`CSRGraph` from an adjacency-list-of-lists.

    Convenient for hand-written example graphs in tests; adjacency order
    is preserved exactly (no sorting), which matters when a test pins down
    a specific serial DFS traversal order.
    """
    n = len(adjacency)
    row_ptr = np.zeros(n + 1, dtype=_INDEX_DTYPE)
    cols: list = []
    for u, nbrs in enumerate(adjacency):
        row_ptr[u + 1] = row_ptr[u] + len(nbrs)
        cols.extend(int(v) for v in nbrs)
    column_idx = np.asarray(cols, dtype=_INDEX_DTYPE)
    return CSRGraph(row_ptr, column_idx, directed=directed, name=name)
