"""Spectral graph analysis applications.

The paper's motivation for its eigensolver workload (section 1):
"Eigenvalues and eigenvectors of various forms of the graph Laplacian are
commonly used in clustering, partitioning, community detection, and
anomaly detection", and its concrete experiment targets bipartite-subgraph
search via the largest eigenpairs of the normalized Laplacian (Kirkland &
Paul, the paper's [23]). This module implements those downstream analyses
on top of the distributed solver, so the full pipeline — partition,
distribute, solve, analyse — runs end to end.

All routines accept a layout; heavy numerics go through the distributed
Krylov-Schur solver and are charged to its ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs.csr import as_csr
from .graphs.ops import degrees
from .layouts import make_layout
from .layouts.base import Layout
from .runtime import CAB, CostLedger, MachineModel
from .solvers import eigsh_dist, normalized_laplacian_operator

__all__ = ["spectral_embedding", "spectral_clustering", "bipartite_detection",
           "SpectralClusteringResult", "BipartiteResult", "kmeans"]


def spectral_embedding(
    A,
    dim: int = 8,
    layout: Layout | None = None,
    tol: float = 1e-4,
    seed: int = 0,
    machine: MachineModel = CAB,
) -> tuple[np.ndarray, CostLedger]:
    """Normalized-Laplacian eigenmap: the *dim* smallest nontrivial modes.

    Returns the (n, dim) embedding (rows scaled by 1/sqrt(degree), the
    standard normalised-cut coordinates) and the solve's cost ledger.
    """
    A = as_csr(A)
    layout = layout if layout is not None else make_layout("2d-gp-mc", A, 16, seed=seed)
    op = normalized_laplacian_operator(A, layout, machine)
    res = eigsh_dist(op, k=dim + 1, tol=tol, which="SA", seed=seed)
    # drop the trivial lambda=0 mode; degree-normalise the coordinates
    X = res.eigenvectors[:, 1: dim + 1]
    d = degrees(A)
    scale = np.where(d > 0, 1.0 / np.sqrt(np.maximum(d, 1e-300)), 0.0)
    return X * scale[:, None], op.ledger


def kmeans(
    X: np.ndarray, k: int, n_init: int = 4, max_iter: int = 100, seed: int = 0
) -> np.ndarray:
    """Plain Lloyd k-means with k-means++ seeding (self-contained).

    Returns cluster labels; ties and empty clusters are re-seeded from the
    farthest points. Good enough for spectral post-processing; not a
    general-purpose clustering library.
    """
    rng = np.random.default_rng(seed)
    n = len(X)
    best_labels, best_inertia = None, np.inf
    for _ in range(n_init):
        # k-means++ seeding
        centers = [X[rng.integers(n)]]
        for _ in range(1, k):
            d2 = np.min(
                [((X - c) ** 2).sum(axis=1) for c in centers], axis=0
            )
            total = d2.sum()
            probs = d2 / total if total > 0 else np.full(n, 1.0 / n)
            centers.append(X[rng.choice(n, p=probs)])
        C = np.array(centers)
        labels = np.zeros(n, dtype=np.int64)
        for _ in range(max_iter):
            dist = ((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
            new_labels = dist.argmin(axis=1)
            if (new_labels == labels).all():
                labels = new_labels
                break
            labels = new_labels
            for c in range(k):
                members = X[labels == c]
                if len(members):
                    C[c] = members.mean(axis=0)
                else:  # re-seed an empty cluster at the farthest point
                    far = dist.min(axis=1).argmax()
                    C[c] = X[far]
        inertia = ((X - C[labels]) ** 2).sum()
        if inertia < best_inertia:
            best_inertia, best_labels = inertia, labels
    return best_labels


@dataclass
class SpectralClusteringResult:
    """Clusters plus the modeled cost of the eigensolve behind them."""

    labels: np.ndarray
    embedding: np.ndarray
    ledger: CostLedger


def spectral_clustering(
    A,
    n_clusters: int,
    layout: Layout | None = None,
    tol: float = 1e-4,
    seed: int = 0,
    machine: MachineModel = CAB,
) -> SpectralClusteringResult:
    """Normalised-cut spectral clustering (Ng-Jordan-Weiss style)."""
    if n_clusters < 2:
        raise ValueError(f"n_clusters must be >= 2, got {n_clusters}")
    X, ledger = spectral_embedding(
        A, dim=n_clusters, layout=layout, tol=tol, seed=seed, machine=machine
    )
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    Xn = np.where(norms > 1e-12, X / np.maximum(norms, 1e-300), 0.0)
    labels = kmeans(Xn, n_clusters, seed=seed)
    return SpectralClusteringResult(labels=labels, embedding=X, ledger=ledger)


@dataclass
class BipartiteResult:
    """Near-bipartite structure certificate from the top of the spectrum.

    ``score`` = 2 - lambda_max(L_hat) (0 means exactly bipartite);
    ``sides`` splits vertices by the sign of the top eigenvector — for a
    bipartite graph this recovers the two colour classes exactly.
    """

    score: float
    eigenvalue: float
    sides: np.ndarray
    ledger: CostLedger


def bipartite_detection(
    A,
    layout: Layout | None = None,
    tol: float = 1e-6,
    seed: int = 0,
    machine: MachineModel = CAB,
) -> BipartiteResult:
    """The paper's Table-4 workload as an analysis: eigenvalues of L_hat
    near 2 certify (near-)bipartite subgraphs [Kirkland & Paul].

    Note: ``lambda_max = 2`` whenever *any* connected component is
    bipartite — an isolated edge already qualifies. For a meaningful
    verdict on a fragmented graph, pass its largest connected component
    (:func:`repro.graphs.largest_connected_component`).
    """
    A = as_csr(A)
    layout = layout if layout is not None else make_layout("2d-gp-mc", A, 16, seed=seed)
    op = normalized_laplacian_operator(A, layout, machine)
    res = eigsh_dist(op, k=1, tol=tol, which="LA", seed=seed)
    lam = float(res.eigenvalues[0])
    v = res.eigenvectors[:, 0]
    sides = (v >= 0).astype(np.int64)
    return BipartiteResult(score=2.0 - lam, eigenvalue=lam, sides=sides, ledger=op.ledger)
