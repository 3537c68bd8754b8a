"""Graph-matrix operators used by the paper's experiments.

The eigensolver experiments (paper section 5.3) operate on the normalized
Laplacian  ``L_hat = I - D^{-1/2} A D^{-1/2}``  of the symmetrized adjacency
matrix ``A + A^T``. These constructions live here.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .csr import as_csr, nonzeros_per_row

__all__ = [
    "symmetrize",
    "degrees",
    "normalized_laplacian",
    "adjacency_scaled",
    "largest_connected_component",
]


def symmetrize(A) -> sp.csr_matrix:
    """Return the symmetric pattern ``A + A^T`` with unit values.

    The paper: "for unsymmetric matrices A, we constructed the symmetric
    matrix as A + A^T". We keep the *pattern* union with value 1.0 on every
    stored entry, matching the unweighted-graph semantics used throughout.
    """
    A = as_csr(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"symmetrize needs a square matrix, got {A.shape}")
    S = as_csr(A + A.T)
    S.data[:] = 1.0
    return S


def degrees(A) -> np.ndarray:
    """Vertex degrees of the graph of *A* (row counts of the symmetric pattern)."""
    return nonzeros_per_row(A).astype(np.float64)


def adjacency_scaled(A) -> sp.csr_matrix:
    """The symmetric normalization ``D^{-1/2} A D^{-1/2}``.

    Isolated vertices (degree 0) contribute zero rows/columns; their scale
    factor is defined as 0 so no NaN/Inf values appear in the result.
    """
    A = as_csr(A)
    d = degrees(A)
    with np.errstate(divide="ignore"):
        dinv_sqrt = np.where(d > 0, 1.0 / np.sqrt(np.maximum(d, 1e-300)), 0.0)
    Dinv = sp.diags(dinv_sqrt, format="csr")
    return as_csr(Dinv @ A @ Dinv)


def normalized_laplacian(A) -> sp.csr_matrix:
    """Normalized Laplacian ``L_hat = I - D^{-1/2} A D^{-1/2}``.

    This is the operator whose ten largest eigenpairs the paper computes
    with Block Krylov-Schur (motivated by bipartite-subgraph detection,
    reference [23] in the paper).
    """
    A = as_csr(A)
    n = A.shape[0]
    return as_csr(sp.identity(n, format="csr") - adjacency_scaled(A))


def largest_connected_component(A) -> tuple[sp.csr_matrix, np.ndarray]:
    """Restrict *A* to its largest connected component.

    Returns the induced submatrix and the array of original vertex ids kept.
    Useful for spectral experiments where disconnected fragments pollute the
    spectrum.
    """
    A = as_csr(A)
    ncomp, labels = sp.csgraph.connected_components(A, directed=False)
    if ncomp <= 1:
        return A, np.arange(A.shape[0], dtype=np.int64)
    sizes = np.bincount(labels, minlength=ncomp)
    keep = np.flatnonzero(labels == np.argmax(sizes)).astype(np.int64)
    return as_csr(A[np.ix_(keep, keep)]), keep
