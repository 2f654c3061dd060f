"""Tests for SciPy sparse-matrix interop."""

import numpy as np
import pytest
from scipy import sparse

from repro.errors import GraphFormatError
from repro.graphs import generators as gen
from repro.graphs.csr import CSRGraph


class TestToScipy:
    def test_roundtrip(self, small_road):
        mat = small_road.to_scipy()
        back = CSRGraph.from_scipy(mat, directed=small_road.directed)
        assert np.array_equal(back.row_ptr, small_road.row_ptr)
        assert np.array_equal(back.column_idx, small_road.column_idx)

    def test_shape_and_nnz(self, tiny_tree):
        mat = tiny_tree.to_scipy()
        assert mat.shape == (tiny_tree.n_vertices,) * 2
        assert mat.nnz == tiny_tree.n_edges

    def test_symmetric_graph_symmetric_matrix(self, small_road):
        mat = small_road.to_scipy()
        assert (mat != mat.T).nnz == 0


class TestFromScipy:
    def test_from_coo(self):
        coo = sparse.coo_matrix(
            (np.ones(3), ([0, 1, 2], [1, 2, 0])), shape=(3, 3))
        g = CSRGraph.from_scipy(coo, name="tri")
        assert g.has_edge(0, 1) and g.has_edge(2, 0)
        assert g.name == "tri"

    def test_rectangular_rejected(self):
        mat = sparse.csr_matrix(np.ones((2, 3)))
        with pytest.raises(GraphFormatError):
            CSRGraph.from_scipy(mat)

    def test_laplacian_structure(self):
        """Practical use: traverse the structure of a scipy-built grid."""
        from repro.validate import serial_dfs

        n = 5
        diags = sparse.diags([1, 1], [-1, 1], shape=(n, n), dtype=np.float64)
        g = CSRGraph.from_scipy(diags.tocsr(), directed=False)
        r = serial_dfs(g, 0)
        assert r.n_visited == n
