"""Krylov-Schur eigensolver (symmetric: thick-restart Lanczos).

This is the role Trilinos Anasazi's Block Krylov-Schur plays in the paper
(section 4), at the paper's configuration: block size one ("we use block
size one, as we did not observe any advantage of larger blocks on
scale-free graphs"), computing the ten largest eigenpairs of the
normalized Laplacian to tolerance 1e-3.

For symmetric operators Krylov-Schur reduces to thick-restart Lanczos
(Stewart 2001, Wu & Simon 2000): expand to m columns, Rayleigh-Ritz,
keep the l best Ritz pairs plus the residual direction (the "Schur
restart" — a diagonal block with an arrowhead coupling row), and resume
expansion from column l.

Checkpoint/restart
------------------
The restart boundary is a natural checkpoint: the solver's entire state is
the basis ``V``, the Rayleigh-quotient matrix ``H``, the carried-column
count ``l``, the restart index, and the RNG's bit-generator state (used
only to refill degenerate directions, but captured so a resumed run
replays the original bit-for-bit). :class:`CheckpointConfig` asks the
solver to snapshot that state every *every* restarts (optionally persisted
as ``.npz``); passing the snapshot back via ``resume=`` continues the
solve exactly where it stopped and converges to the same eigenpairs the
uninterrupted run reaches. Each snapshot's modeled write cost is charged
to the ledger's ``checkpoint`` phase
(:meth:`~repro.runtime.distvector.DistVectorSpace.charge_checkpoint`).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .operators import DistOperator

__all__ = ["eigsh_dist", "KrylovSchurResult", "Checkpoint", "CheckpointConfig"]


@dataclass
class KrylovSchurResult:
    """Outcome of a Krylov-Schur eigensolve.

    ``eigenvalues`` are sorted by the requested criterion (best first);
    ``residuals`` are the Lanczos residual-norm estimates
    ``|beta * s_{m,i}|`` for each returned pair.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    restarts: int
    matvecs: int
    converged: bool


@dataclass
class Checkpoint:
    """Resumable solver state captured at a thick-restart boundary.

    ``V``/``H`` are the (n, m+1) basis and Rayleigh-quotient matrix after
    the contraction, ``l`` the carried columns, ``restart`` the index the
    resumed loop continues from, ``matvec_count`` the applications already
    spent (folded into the resumed result's count), and ``rng_state`` the
    NumPy bit-generator state so the continuation is bit-identical to the
    uninterrupted run. ``k``/``which``/``tol`` pin the solve configuration;
    resuming under a different one is refused.
    """

    V: np.ndarray
    H: np.ndarray
    l: int
    restart: int
    matvec_count: int
    rng_state: dict
    k: int
    which: str
    tol: float

    def save(self, path: str | os.PathLike) -> None:
        """Persist as an ``.npz`` archive (no pickling; portable)."""
        np.savez_compressed(
            path,
            V=self.V,
            H=self.H,
            l=self.l,
            restart=self.restart,
            matvec_count=self.matvec_count,
            rng_state=json.dumps(self.rng_state),
            k=self.k,
            which=self.which,
            tol=self.tol,
        )

    @classmethod
    def load(cls, path: str | os.PathLike) -> "Checkpoint":
        """Load a snapshot written by :meth:`save`."""
        with np.load(path, allow_pickle=False) as z:
            return cls(
                V=z["V"],
                H=z["H"],
                l=int(z["l"]),
                restart=int(z["restart"]),
                matvec_count=int(z["matvec_count"]),
                rng_state=json.loads(str(z["rng_state"])),
                k=int(z["k"]),
                which=str(z["which"]),
                tol=float(z["tol"]),
            )


@dataclass
class CheckpointConfig:
    """Periodic-snapshot policy for :func:`eigsh_dist`.

    Snapshot every *every* thick restarts; when *path* is set each
    snapshot overwrites that ``.npz`` file (the latest one is all a
    restart needs). The solver always stores the most recent snapshot in
    ``latest``, so in-memory round-trips need no filesystem.
    """

    every: int = 5
    path: str | os.PathLike | None = None
    latest: Checkpoint | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ValueError(f"checkpoint interval must be >= 1, got {self.every}")


def expand_krylov(
    op: DistOperator,
    V: np.ndarray,
    H: np.ndarray,
    j_start: int,
    j_end: int,
    rng: np.random.Generator,
) -> int:
    """Grow an orthonormal basis V (n, m+1) from column j_start to j_end.

    Maintains the Arnoldi relation ``A V_j = V_{j+1} H_{j+1,j}`` with H
    symmetric up to round-off (we store the full projection, which makes
    the thick-restart arrowhead blocks come out automatically). Returns
    the final column count reached (early exit on breakdown).

    Reorthogonalisation is full (two passes of classical Gram-Schmidt
    against the whole basis) on purpose: scale-free Laplacian spectra are
    clustered near their top and selective schemes lose orthogonality
    quickly. The paper's Anasazi configuration likewise carries the full
    basis.
    """
    space = op.space
    for j in range(j_start, j_end):
        w = op.matvec(V[:, j])
        # two-pass CGS against all current columns
        h1 = space.multi_dot(V[:, : j + 1], w)
        w = space.multi_axpy(V[:, : j + 1], h1, w)
        h2 = space.multi_dot(V[:, : j + 1], w)
        w = space.multi_axpy(V[:, : j + 1], h2, w)
        H[: j + 1, j] = h1 + h2
        beta = space.norm(w)
        H[j + 1, j] = beta
        H[j, j + 1] = beta
        if beta <= 1e-14 * max(abs(H[j, j]), 1.0):
            # invariant subspace: restart with a fresh random direction
            w = rng.standard_normal(op.n)
            h = space.multi_dot(V[:, : j + 1], w)
            w = space.multi_axpy(V[:, : j + 1], h, w)
            nw = space.norm(w)
            if nw <= 1e-14:
                return j + 1
            V[:, j + 1] = w / nw
            H[j + 1, j] = 0.0
            H[j, j + 1] = 0.0
        else:
            V[:, j + 1] = w / beta
    return j_end


def _select(theta: np.ndarray, which: str) -> np.ndarray:
    """Ordering of Ritz values, best first, for the given criterion."""
    if which == "LA":
        return np.argsort(theta)[::-1]
    if which == "SA":
        return np.argsort(theta)
    if which == "LM":
        return np.argsort(np.abs(theta))[::-1]
    raise ValueError(f"which must be 'LA', 'SA' or 'LM', got {which!r}")


def eigsh_dist(
    op: DistOperator,
    k: int = 10,
    tol: float = 1e-3,
    which: str = "LA",
    m: int | None = None,
    max_restarts: int = 300,
    v0: np.ndarray | None = None,
    seed: int = 0,
    block_size: int = 1,
    checkpoint: CheckpointConfig | None = None,
    resume: "Checkpoint | str | os.PathLike | None" = None,
) -> KrylovSchurResult:
    """Compute the *k* extremal eigenpairs of a distributed operator.

    Parameters
    ----------
    op:
        Distributed symmetric operator (its ledger accumulates the modeled
        time: SpMV phases from the matvecs, "vector-ops" from the dense
        work — the split the paper analyses in Table 5).
    k:
        Number of eigenpairs (paper: 10).
    tol:
        Relative residual tolerance (paper: 1e-3).
    which:
        "LA" largest algebraic (paper's choice for L_hat), "SA", "LM".
    m:
        Max basis size before restart; default ``max(2k + 10, 30)``.
    max_restarts:
        Restart budget; ``converged=False`` on exhaustion.
    v0, seed:
        Start vector (paper: random) and RNG seed.
    block_size:
        Lanczos block width. The paper evaluated block sizes and settled on
        one ("we did not observe any advantage of larger blocks on
        scale-free graphs"); ``block_size > 1`` runs the genuine block
        variant so that finding can be reproduced
        (``benchmarks/bench_ablation_blocksize.py``).
    checkpoint:
        Periodic-snapshot policy (:class:`CheckpointConfig`); snapshots
        land in ``checkpoint.latest`` (and ``checkpoint.path`` when set)
        and their modeled write cost is charged to the ledger's
        ``checkpoint`` phase. Block solves (``block_size > 1``) do not
        support checkpointing.
    resume:
        A :class:`Checkpoint` (or path to a saved one) to continue from;
        ``v0``/``seed`` are then ignored — the snapshot carries the basis
        and the RNG state, so the continuation is bit-identical to the
        uninterrupted solve.
    """
    n = op.n
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    m = m if m is not None else max(2 * k + 10, 30)
    m = min(m, n - 1 - block_size)
    if m <= k + 1:
        raise ValueError(f"basis size m={m} too small for k={k} (n={n})")
    if block_size > 1:
        if checkpoint is not None or resume is not None:
            raise ValueError("checkpoint/resume is only supported for block_size=1")
        return _eigsh_block(op, k, tol, which, m, max_restarts, v0, seed, block_size)
    rng = np.random.default_rng(seed)
    space = op.space

    V = np.zeros((n, m + 1))
    H = np.zeros((m + 1, m + 1))
    l = 0  # columns carried over from the previous restart
    restart0 = 0
    matvec_offset = 0
    if resume is not None:
        ck = resume if isinstance(resume, Checkpoint) else Checkpoint.load(resume)
        if ck.V.shape != V.shape:
            raise ValueError(
                f"checkpoint basis {ck.V.shape} does not fit this solve "
                f"(expected {V.shape}; n, m and block_size must match)"
            )
        if (ck.k, ck.which) != (k, which) or ck.tol != tol:
            raise ValueError(
                f"checkpoint was taken for (k={ck.k}, which={ck.which!r}, "
                f"tol={ck.tol}), refusing to resume with (k={k}, "
                f"which={which!r}, tol={tol})"
            )
        V[:, :] = ck.V
        H[:, :] = ck.H
        l = ck.l
        restart0 = ck.restart
        matvec_offset = ck.matvec_count
        rng.bit_generator.state = ck.rng_state
    else:
        start = v0 if v0 is not None else rng.standard_normal(n)
        nrm = space.norm(start)
        if nrm <= 0:
            raise ValueError("start vector must be nonzero")
        V[:, 0] = start / nrm

    theta = np.zeros(m)
    S = np.eye(m)
    resid = np.full(m, np.inf)
    for restart in range(restart0, max_restarts):
        expand_krylov(op, V, H, l, m, rng)
        theta, S = np.linalg.eigh(H[:m, :m])
        order = _select(theta, which)
        theta, S = theta[order], S[:, order]
        resid = np.abs(H[m, :m] @ S)  # = |beta * s_{m-1,i}| after expansion
        scale = np.maximum(np.abs(theta[:k]), 1.0)
        nconv = int((resid[:k] <= tol * scale).sum())
        if nconv >= k:
            X = space.gemm(V[:, :m], S[:, :k])
            return KrylovSchurResult(
                theta[:k], X, resid[:k], restart,
                op.matvec_count + matvec_offset, True,
            )

        # --- thick restart: keep l best Ritz pairs + the residual vector ---
        l = min(k + (m - k) // 2, m - 1)
        Y = space.gemm(V[:, :m], S[:, :l])
        b = H[m, :m] @ S[:, :l]  # coupling row of the arrowhead
        V[:, :l] = Y
        V[:, l] = V[:, m]
        H[:, :] = 0.0
        H[:l, :l] = np.diag(theta[:l])
        H[l, :l] = b
        H[:l, l] = b

        if checkpoint is not None and (restart + 1) % checkpoint.every == 0:
            ck = Checkpoint(
                V=V.copy(), H=H.copy(), l=l, restart=restart + 1,
                matvec_count=op.matvec_count + matvec_offset,
                rng_state=rng.bit_generator.state,
                k=k, which=which, tol=tol,
            )
            checkpoint.latest = ck
            if checkpoint.path is not None:
                ck.save(checkpoint.path)
            space.charge_checkpoint(m + 1)

    theta_k, S_k = theta[:k], S[:, :k]
    X = space.gemm(V[:, :m], S_k)
    return KrylovSchurResult(
        theta_k, X, resid[:k], max_restarts, op.matvec_count + matvec_offset, False
    )


def _expand_block(op, V, H, c0: int, m: int, b: int, rng) -> None:
    """Grow the basis blockwise from column *c0* to *m* (+ residual block).

    Processes blocks of up to *b* columns: apply the operator, two-pass
    block CGS against all previous columns, thin QR for the next block.
    Maintains ``A V_m = V_{m+b'} H`` with symmetric H.
    """
    space = op.space
    c = c0
    while c < m:
        bp = min(b, m - c)
        W = op.matvec_block(V[:, c: c + bp])
        h1 = space.multi_dot(V[:, : c + bp], W)
        W = space.multi_axpy(V[:, : c + bp], h1, W)
        h2 = space.multi_dot(V[:, : c + bp], W)
        W = space.multi_axpy(V[:, : c + bp], h2, W)
        H[: c + bp, c: c + bp] = h1 + h2
        Q, R = space.qr(W)
        # rank-deficient block: refill dead directions with random vectors
        # orthogonalised against everything so far (rare; keeps QR valid)
        dead = np.abs(np.diag(R)) <= 1e-12
        if dead.any():
            for i in np.flatnonzero(dead):
                w = rng.standard_normal(op.n)
                h = space.multi_dot(V[:, : c + bp], w)
                w = space.multi_axpy(V[:, : c + bp], h, w)
                W[:, i] = w
            Q, R_new = space.qr(W)
            R = np.where(dead[None, :] | dead[:, None], 0.0, R_new)
            R[np.ix_(~dead, ~dead)] = R_new[np.ix_(~dead, ~dead)]
            R = np.triu(R)
        V[:, c + bp: c + 2 * bp] = Q
        H[c + bp: c + 2 * bp, c: c + bp] = R
        H[c: c + bp, c + bp: c + 2 * bp] = R.T
        c += bp


def _eigsh_block(op, k, tol, which, m, max_restarts, v0, seed, b) -> KrylovSchurResult:
    """Block Krylov-Schur (thick-restart block Lanczos). See eigsh_dist."""
    n = op.n
    # the residual block must always be exactly b wide (the restart copies
    # it verbatim), so every expansion span — m from 0, m - l after a
    # restart — must be a multiple of b
    m = int(np.ceil(m / b) * b)
    if m + b >= n:
        raise ValueError(f"basis m={m} + block {b} exceeds n={n}")
    rng = np.random.default_rng(seed)
    space = op.space
    V = np.zeros((n, m + b))
    H = np.zeros((m + b, m + b))
    X0 = rng.standard_normal((n, b))
    if v0 is not None:
        X0[:, 0] = v0
    Q, _ = space.qr(X0)
    V[:, :b] = Q
    l = 0

    theta = np.zeros(m)
    S = np.eye(m)
    resid = np.full(m, np.inf)
    for restart in range(max_restarts):
        _expand_block(op, V, H, l, m, b, rng)
        theta, S = np.linalg.eigh(H[:m, :m])
        order = _select(theta, which)
        theta, S = theta[order], S[:, order]
        # residual of Ritz pair i: || B s_i || with B the coupling block
        B = H[m: m + b, :m]
        resid = np.linalg.norm(B @ S, axis=0)
        scale = np.maximum(np.abs(theta[:k]), 1.0)
        if int((resid[:k] <= tol * scale).sum()) >= k:
            X = space.gemm(V[:, :m], S[:, :k])
            return KrylovSchurResult(theta[:k], X, resid[:k], restart, op.matvec_count, True)

        l = min(k + (m - k) // 2, m - b)
        r = (m - l) % b
        if r:
            l -= b - r  # keep the expansion span a multiple of b
        if l < 1:
            raise RuntimeError(f"restart size degenerate: l={l}, m={m}, b={b}")
        Y = space.gemm(V[:, :m], S[:, :l])
        Bl = B @ S[:, :l]  # (b, l) coupling of the kept Ritz vectors
        V[:, :l] = Y
        V[:, l: l + b] = V[:, m: m + b]
        H[:, :] = 0.0
        H[:l, :l] = np.diag(theta[:l])
        H[l: l + b, :l] = Bl
        H[:l, l: l + b] = Bl.T

    X = space.gemm(V[:, :m], S[:, :k])
    return KrylovSchurResult(theta[:k], X, resid[:k], max_restarts, op.matvec_count, False)
