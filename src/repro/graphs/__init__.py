"""Sparse graph/matrix substrate.

Matrices throughout the library are ``scipy.sparse`` CSR matrices with
float64 values; a graph is represented by its (symmetric) adjacency
matrix, exactly as in the paper ("an undirected graph corresponds to a
symmetric sparse matrix").
"""

from .csr import (
    as_csr,
    from_edges,
    empty_csr,
    pattern_equal,
    is_structurally_symmetric,
    drop_diagonal,
    nonzeros_per_row,
    nonzeros_per_col,
)
from .ops import (
    symmetrize,
    degrees,
    normalized_laplacian,
    adjacency_scaled,
    largest_connected_component,
)
from .analysis import GraphStats, graph_stats, powerlaw_exponent_mle

__all__ = [
    "as_csr",
    "from_edges",
    "empty_csr",
    "pattern_equal",
    "is_structurally_symmetric",
    "drop_diagonal",
    "nonzeros_per_row",
    "nonzeros_per_col",
    "symmetrize",
    "degrees",
    "normalized_laplacian",
    "adjacency_scaled",
    "largest_connected_component",
    "GraphStats",
    "graph_stats",
    "powerlaw_exponent_mle",
]
