"""LOBPCG — locally optimal block preconditioned conjugate gradient.

The paper (section 4): "Anasazi contains a collection of different
eigensolvers, including Block Krylov-Schur (BKS) and LOBPCG. Preliminary
experiments indicate BKS is effective for scale-free graphs, so we use it
in our experiments." This module supplies the LOBPCG side of that
preliminary comparison (``benchmarks/bench_ablation_solvers.py``).

Unpreconditioned LOBPCG (Knyazev 2001), blocked over all k requested
pairs: each iteration applies the operator to the residual block only
(operator images of X and P are tracked through the subspace rotations, so
the per-iteration matvec count is k — same as block Lanczos at width k),
forms the locally optimal subspace span[X, R, P], solves the <=3k x 3k
Rayleigh-Ritz problem, and updates X and the CG-like direction block P.
All dense work routes through the :class:`DistVectorSpace`, so layout
costs are charged exactly as in Krylov-Schur.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..runtime.distvector import VectorWork
from .operators import DistOperator

__all__ = ["lobpcg_dist", "LobpcgResult"]


@dataclass
class LobpcgResult:
    """Outcome of a LOBPCG run (largest-eigenvalue convention)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    iterations: int
    matvecs: int
    converged: bool


def _block_matvec(op: DistOperator, X: np.ndarray) -> np.ndarray:
    return np.column_stack([op.matvec(X[:, i]) for i in range(X.shape[1])])


def lobpcg_dist(
    op: DistOperator,
    k: int = 10,
    tol: float = 1e-3,
    max_iter: int = 500,
    seed: int = 0,
) -> LobpcgResult:
    """Compute the *k* largest eigenpairs of a distributed operator.

    Parameters mirror :func:`repro.solvers.krylov_schur.eigsh_dist` where
    they overlap; convergence requires every pair's residual norm below
    ``tol * max(|theta_i|, 1)``.

    Attainable accuracy: this implementation tracks operator images
    through least-squares basis transforms, which limits reliably
    reachable residuals to ~1e-5 relative. The paper's eigensolver
    tolerance (1e-3) is comfortably within range; for tighter tolerances
    use :func:`repro.solvers.krylov_schur.eigsh_dist`, which is also the
    paper's (and our) recommended solver for scale-free graphs.
    """
    n = op.n
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if 3 * k >= n:
        raise ValueError(f"need 3k < n, got k={k}, n={n}")
    space = op.space
    rng = np.random.default_rng(seed)

    X, _ = space.qr(rng.standard_normal((n, k)))
    AX = _block_matvec(op, X)
    P = np.zeros((n, 0))
    AP = np.zeros((n, 0))
    theta = np.zeros(k)
    resid = np.full(k, np.inf)

    for it in range(1, max_iter + 1):
        if it % 25 == 0:
            # the tracked image AX accumulates drift through the subspace
            # rotations (lstsq transforms); refresh it exactly so residual
            # estimates stay trustworthy on long runs
            AX = _block_matvec(op, X)
        # Rayleigh-Ritz within the block: rotating X to Ritz vectors pins
        # down near-degenerate pairs (clustered Laplacian spectra otherwise
        # rotate freely inside span(X) and residuals never settle)
        G = space.multi_dot(X, AX)  # (k, k) Rayleigh block
        G = (G + G.T) / 2.0
        vals, W = np.linalg.eigh(G)
        ordw = np.argsort(vals)[::-1]
        theta = vals[ordw]
        X = space.gemm(X, W[:, ordw])
        AX = space.gemm(AX, W[:, ordw])
        R = space.multi_axpy(X, np.diag(theta), AX)  # AX - X diag(theta)
        resid = np.linalg.norm(R, axis=0)
        space.charge(VectorWork(2.0 * k))  # k residual norms: streaming, no allreduce
        scale = np.maximum(np.abs(theta), 1.0)
        if (resid <= tol * scale).all():
            order = np.argsort(theta)[::-1]
            return LobpcgResult(theta[order], X[:, order], resid[order],
                                it, op.matvec_count, True)

        AR = _block_matvec(op, R)  # the only matvecs of the iteration

        # orthogonalise [R P] against X, tracking operator images through
        # the same linear maps (A is linear: A(M - X h) = AM - AX h)
        M = np.column_stack([R, P])
        AM = np.column_stack([AR, AP])
        h = space.multi_dot(X, M)
        M = space.multi_axpy(X, h, M)
        AM = space.multi_axpy(AX, h, AM)
        Q, Rfac = space.qr(M)
        diag = np.abs(np.diag(Rfac))
        keep = diag > 1e-10 * max(diag.max(initial=0.0), 1e-300)
        if not keep.any():
            break  # subspace exhausted: X is invariant to round-off
        # transform AM by the same basis change (least squares handles the
        # dropped, numerically dependent columns)
        T = np.linalg.lstsq(Rfac, np.eye(Rfac.shape[0])[:, keep], rcond=None)[0]
        Qc = Q[:, keep]
        AQc = space.gemm(AM, T)

        S = np.column_stack([X, Qc])
        AS = np.column_stack([AX, AQc])
        Hs = space.multi_dot(S, AS)
        Hs = (Hs + Hs.T) / 2.0
        vals, vecs = np.linalg.eigh(Hs)
        Y = vecs[:, np.argsort(vals)[::-1][:k]]

        X_new = space.gemm(S, Y)
        AX_new = space.gemm(AS, Y)
        cx = space.multi_dot(X, X_new)
        P = space.multi_axpy(X, cx, X_new)
        AP = space.multi_axpy(AX, cx, AX_new)
        X, AX = X_new, AX_new
        # re-orthonormalise X to stop drift from accumulating over sweeps
        X, Rx = space.qr(X)
        AX = space.gemm(AX, np.linalg.lstsq(Rx, np.eye(k), rcond=None)[0])

    order = np.argsort(theta)[::-1]
    return LobpcgResult(theta[order], X[:, order], resid[order],
                        max_iter, op.matvec_count, False)
