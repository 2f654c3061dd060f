"""Graph I/O: Matrix Market and edge lists.

The paper's artifact consumes SuiteSparse ``.mtx`` files; this module
implements the subset of the Matrix Market exchange format those graphs
use (``matrix coordinate pattern|real|integer general|symmetric``) plus a
plain edge-list reader and writer.  The one binary graph format is the
corpus disk cache's raw CSR file (:mod:`repro.graphs.diskcache`).
"""

from __future__ import annotations

import os
from typing import IO, Union

import numpy as np

from repro.errors import GraphFormatError
from repro.graphs.csr import CSRGraph, from_edges

__all__ = [
    "read_matrix_market",
    "write_matrix_market",
    "read_edge_list",
    "write_edge_list",
]

PathLike = Union[str, "os.PathLike[str]"]


def _open_maybe(path_or_file: Union[PathLike, IO], mode: str):
    if hasattr(path_or_file, "read") or hasattr(path_or_file, "write"):
        return path_or_file, False
    return open(path_or_file, mode), True


# ---------------------------------------------------------------------------
# Matrix Market
# ---------------------------------------------------------------------------

def read_matrix_market(path_or_file: Union[PathLike, IO], *, name: str = "") -> CSRGraph:
    """Parse a Matrix Market coordinate file into a :class:`CSRGraph`.

    Supported header: ``%%MatrixMarket matrix coordinate
    {pattern|real|integer|complex} {general|symmetric|skew-symmetric}``.
    Numeric values are discarded (traversal cares only about structure);
    symmetric storage is expanded to both arc directions; the matrix must
    be square.  1-based indices per the MM spec.
    """
    fh, should_close = _open_maybe(path_or_file, "r")
    try:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket"):
            raise GraphFormatError(f"not a MatrixMarket file: header={header!r}")
        parts = header.strip().split()
        if len(parts) < 5:
            raise GraphFormatError(f"malformed MatrixMarket header: {header!r}")
        _, obj, fmt, field, symmetry = parts[:5]
        if obj.lower() != "matrix" or fmt.lower() != "coordinate":
            raise GraphFormatError(
                f"only 'matrix coordinate' supported, got {obj!r} {fmt!r}"
            )
        field = field.lower()
        symmetry = symmetry.lower()
        if field not in ("pattern", "real", "integer", "complex"):
            raise GraphFormatError(f"unsupported field type {field!r}")
        if symmetry not in ("general", "symmetric", "skew-symmetric"):
            raise GraphFormatError(f"unsupported symmetry {symmetry!r}")

        # Skip comment lines.
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        dims = line.split()
        if len(dims) != 3:
            raise GraphFormatError(f"expected 'rows cols nnz', got {line!r}")
        nrows, ncols, nnz = (int(x) for x in dims)
        if nrows != ncols:
            raise GraphFormatError(
                f"adjacency matrix must be square, got {nrows}x{ncols}"
            )

        src = np.empty(nnz, dtype=np.int64)
        dst = np.empty(nnz, dtype=np.int64)
        k = 0
        for line in fh:
            line = line.strip()
            if not line or line.startswith("%"):
                continue
            toks = line.split()
            if len(toks) < 2:
                raise GraphFormatError(f"malformed entry line: {line!r}")
            if k >= nnz:
                raise GraphFormatError(f"more than the declared {nnz} entries")
            src[k] = int(toks[0]) - 1
            dst[k] = int(toks[1]) - 1
            k += 1
        if k != nnz:
            raise GraphFormatError(f"expected {nnz} entries, found {k}")
    finally:
        if should_close:
            fh.close()

    edges = np.column_stack([src, dst])
    symmetric = symmetry in ("symmetric", "skew-symmetric")
    if symmetric:
        edges = np.vstack([edges, edges[:, ::-1]])
    return from_edges(
        nrows,
        edges,
        directed=not symmetric,
        name=name,
        dedupe=True,
        drop_self_loops=True,
        meta={"source": "matrix_market", "mm_symmetry": symmetry},
    )


def write_matrix_market(graph: CSRGraph, path_or_file: Union[PathLike, IO]) -> None:
    """Write a graph as ``matrix coordinate pattern general`` (all stored arcs)."""
    fh, should_close = _open_maybe(path_or_file, "w")
    try:
        fh.write("%%MatrixMarket matrix coordinate pattern general\n")
        fh.write(f"% generated by repro; name={graph.name or 'unnamed'}\n")
        n = graph.n_vertices
        fh.write(f"{n} {n} {graph.n_edges}\n")
        for u, v in graph.iter_edges():
            fh.write(f"{u + 1} {v + 1}\n")
    finally:
        if should_close:
            fh.close()


# ---------------------------------------------------------------------------
# Edge lists
# ---------------------------------------------------------------------------

def read_edge_list(
    path_or_file: Union[PathLike, IO],
    *,
    n_vertices: int = 0,
    directed: bool = False,
    comment: str = "#",
    name: str = "",
) -> CSRGraph:
    """Read whitespace-separated ``u v`` pairs (SNAP text format).

    ``n_vertices`` defaults to ``max id + 1``.  For undirected graphs both
    arc directions are stored.
    """
    fh, should_close = _open_maybe(path_or_file, "r")
    try:
        pairs = []
        for line in fh:
            line = line.strip()
            if not line or line.startswith(comment):
                continue
            toks = line.split()
            if len(toks) < 2:
                raise GraphFormatError(f"malformed edge line: {line!r}")
            pairs.append((int(toks[0]), int(toks[1])))
    finally:
        if should_close:
            fh.close()
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if n_vertices == 0:
        n_vertices = int(arr.max()) + 1 if arr.size else 0
    if not directed and arr.size:
        arr = np.vstack([arr, arr[:, ::-1]])
    return from_edges(n_vertices, arr, directed=directed, name=name,
                      dedupe=True, drop_self_loops=True,
                      meta={"source": "edge_list"})


def write_edge_list(graph: CSRGraph, path_or_file: Union[PathLike, IO]) -> None:
    """Write all stored arcs as ``u v`` lines with a comment header."""
    fh, should_close = _open_maybe(path_or_file, "w")
    try:
        fh.write(f"# {graph.name or 'unnamed'}: {graph.n_vertices} vertices, "
                 f"{graph.n_edges} arcs\n")
        for u, v in graph.iter_edges():
            fh.write(f"{u} {v}\n")
    finally:
        if should_close:
            fh.close()
