"""Tests for repro.graphs.ops — symmetrisation and Laplacians."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as sla

from repro.graphs import (
    adjacency_scaled,
    degrees,
    from_edges,
    is_structurally_symmetric,
    largest_connected_component,
    normalized_laplacian,
    symmetrize,
)


class TestSymmetrize:
    def test_directed_becomes_symmetric(self):
        A = from_edges([0, 1, 2], [1, 2, 0], (4, 4))
        S = symmetrize(A)
        assert is_structurally_symmetric(S)
        assert S.nnz == 6
        assert (S.data == 1.0).all()

    def test_values_are_unit_even_for_two_way_edges(self):
        A = from_edges([0, 1], [1, 0], (2, 2))  # already symmetric
        S = symmetrize(A)
        assert S[0, 1] == 1.0  # not 2.0

    def test_rectangular_raises(self):
        with pytest.raises(ValueError, match="square"):
            symmetrize(from_edges([0], [1], (2, 3)))


class TestLaplacian:
    def test_degrees_match_row_counts(self, tiny_matrix):
        d = degrees(tiny_matrix)
        assert np.array_equal(d, np.asarray((tiny_matrix != 0).sum(axis=1)).ravel())


class TestNormalizedLaplacian:
    def test_spectrum_in_0_2(self, small_powerlaw):
        Lhat = normalized_laplacian(small_powerlaw)
        lo = sla.eigsh(Lhat, k=1, which="SA", return_eigenvectors=False)[0]
        hi = sla.eigsh(Lhat, k=1, which="LA", return_eigenvectors=False)[0]
        assert lo > -1e-8
        assert hi < 2.0 + 1e-8

    def test_zero_eigenvalue_with_sqrt_degree_vector(self, small_grid):
        Lhat = normalized_laplacian(small_grid)
        v = np.sqrt(degrees(small_grid))
        v /= np.linalg.norm(v)
        assert np.linalg.norm(Lhat @ v) < 1e-9

    def test_isolated_vertex_no_nan(self):
        A = from_edges([0], [1], (3, 3), symmetrize=True)  # vertex 2 isolated
        Lhat = normalized_laplacian(A)
        assert np.isfinite(Lhat.toarray()).all()

    def test_scaled_adjacency_symmetric(self, small_powerlaw):
        S = adjacency_scaled(small_powerlaw)
        assert np.abs((S - S.T)).max() < 1e-12


class TestConnectedComponent:
    def test_already_connected(self, small_grid):
        A, kept = largest_connected_component(small_grid)
        assert A.shape == small_grid.shape
        assert len(kept) == small_grid.shape[0]

    def test_disconnected(self):
        # two triangles, one bigger clique of 4
        edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3), (3, 5), (4, 6)]
        r, c = zip(*edges)
        A = from_edges(np.array(r), np.array(c), (7, 7), symmetrize=True)
        sub, kept = largest_connected_component(A)
        assert sorted(kept.tolist()) == [3, 4, 5, 6]
        assert sub.shape == (4, 4)

    def test_empty_graph_single_component_each(self):
        A = sp.csr_matrix((3, 3))
        sub, kept = largest_connected_component(A)
        assert sub.shape == (1, 1)
        assert len(kept) == 1
