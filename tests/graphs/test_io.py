"""Unit tests for graph I/O (Matrix Market, edge lists)."""

import io

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graphs import generators as gen
from repro.graphs.io import (
    read_edge_list,
    read_matrix_market,
    write_edge_list,
    write_matrix_market,
)


MM_GENERAL = """%%MatrixMarket matrix coordinate pattern general
% a comment
3 3 3
1 2
2 3
3 1
"""

MM_SYMMETRIC = """%%MatrixMarket matrix coordinate real symmetric
3 3 2
2 1 1.5
3 2 -2.0
"""


class TestMatrixMarket:
    def test_read_general(self):
        g = read_matrix_market(io.StringIO(MM_GENERAL), name="tri")
        assert g.n_vertices == 3
        assert g.n_edges == 3
        assert g.directed
        assert g.has_edge(0, 1) and g.has_edge(1, 2) and g.has_edge(2, 0)

    def test_read_symmetric_expands(self):
        g = read_matrix_market(io.StringIO(MM_SYMMETRIC))
        assert not g.directed
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert g.n_edges == 4

    def test_roundtrip(self, small_road):
        buf = io.StringIO()
        write_matrix_market(small_road, buf)
        buf.seek(0)
        g = read_matrix_market(buf)
        assert g.n_vertices == small_road.n_vertices
        assert g.n_edges == small_road.n_edges
        assert np.array_equal(g.row_ptr, small_road.row_ptr)
        assert np.array_equal(g.column_idx, small_road.column_idx)

    def test_roundtrip_file(self, tmp_path, tiny_tree):
        path = tmp_path / "g.mtx"
        write_matrix_market(tiny_tree, str(path))
        g = read_matrix_market(str(path))
        assert g.n_edges == tiny_tree.n_edges

    @pytest.mark.parametrize("text,err", [
        ("not a header\n1 1 0\n", "not a MatrixMarket"),
        ("%%MatrixMarket matrix array real general\n1 1 0\n", "coordinate"),
        ("%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n", "symmetry"),
        ("%%MatrixMarket matrix coordinate pattern general\n2 3 0\n", "square"),
        ("%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n", "expected 2"),
        ("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2\n2 1\n", "more than"),
    ])
    def test_malformed_rejected(self, text, err):
        with pytest.raises(GraphFormatError, match=err):
            read_matrix_market(io.StringIO(text))


class TestEdgeList:
    def test_read_basic(self):
        g = read_edge_list(io.StringIO("# comment\n0 1\n1 2\n"), directed=True)
        assert g.n_vertices == 3
        assert g.n_edges == 2

    def test_read_undirected_symmetrizes(self):
        g = read_edge_list(io.StringIO("0 1\n"))
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_explicit_vertex_count(self):
        g = read_edge_list(io.StringIO("0 1\n"), n_vertices=10, directed=True)
        assert g.n_vertices == 10

    def test_malformed_line(self):
        with pytest.raises(GraphFormatError):
            read_edge_list(io.StringIO("0\n"))

    def test_roundtrip(self, small_social):
        buf = io.StringIO()
        write_edge_list(small_social, buf)
        buf.seek(0)
        g = read_edge_list(buf, n_vertices=small_social.n_vertices)
        assert g.n_edges == small_social.n_edges
