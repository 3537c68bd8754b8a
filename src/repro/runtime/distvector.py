"""Distributed dense vectors and multivectors with cost accounting.

Elementwise vector arithmetic needs no communication, so the *values* are
held globally (the math is identical to the per-rank computation); what a
distribution changes is the *time*: each rank streams only its owned
entries, so every operation is charged ``gamma_mem * (streamed doubles on
the busiest rank)`` plus a log-p latency tree for reductions. This is
precisely the mechanism behind the paper's Table 5: under 2D-GP the
hollywood-2009 vector imbalance reaches 45.6, and vector-heavy solver
phases (orthogonalisation) blow up even though SpMV itself is fast —
multiconstraint partitioning (2D-GP-MC) fixes it.

Each operation records its work as a layout-free :class:`VectorWork` and
prices it with :meth:`VectorWork.seconds`; a recorded solve replays its
summed work through the same function under any other distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .machine import CAB, MachineModel
from .maps import Map
from .trace import CostLedger

__all__ = ["DistVectorSpace", "VectorWork"]


@dataclass(slots=True)
class VectorWork:
    """Dense vector work in layout-free units (per owned entry).

    ``stream_factor``: doubles streamed per owned entry;
    ``gemm_flop_factor``: flops per owned entry (QR, basis rotations);
    ``scalar_reductions``: 1-word allreduces;
    ``vector_reductions`` / ``vector_reduction_words``: multi-word
    allreduces and the words they carry in total.
    """

    stream_factor: float = 0.0
    gemm_flop_factor: float = 0.0
    scalar_reductions: int = 0
    vector_reductions: int = 0
    vector_reduction_words: int = 0

    def __iadd__(self, other: VectorWork) -> VectorWork:
        self.stream_factor += other.stream_factor
        self.gemm_flop_factor += other.gemm_flop_factor
        self.scalar_reductions += other.scalar_reductions
        self.vector_reductions += other.vector_reductions
        self.vector_reduction_words += other.vector_reduction_words
        return self

    def seconds(self, max_local: int, nprocs: int, machine: MachineModel) -> float:
        """Modeled seconds of this work when the busiest of *nprocs* ranks
        owns *max_local* entries: streaming and flops scale with the
        busiest rank (vector imbalance), reductions with the log-p tree."""
        vec = machine.gamma_mem * self.stream_factor * max_local
        vec += machine.gamma_flop * self.gemm_flop_factor * max_local
        allreduce = machine.allreduce_time(nprocs)
        vec += self.scalar_reductions * allreduce
        vec += self.vector_reductions * allreduce  # latency part
        # bandwidth part of the m-word reductions beyond the 1-word latency term
        extra_words = self.vector_reduction_words - self.vector_reductions
        if extra_words > 0 and nprocs > 1:
            hops = int(np.ceil(np.log2(nprocs)))
            vec += hops * machine.beta * extra_words
        return vec


def _ncols(X: np.ndarray) -> int:
    return X.shape[1] if X.ndim == 2 else 1


class DistVectorSpace:
    """Factory/cost-model for vectors distributed by a :class:`Map`.

    A "space" bundles the ownership map, the machine model and the ledger;
    solvers create one and route every dense operation through it so that
    vector imbalance is charged consistently. ``work`` sums the
    :class:`VectorWork` of every operation so far.
    """

    def __init__(self, vmap: Map, machine: MachineModel = CAB, ledger: CostLedger | None = None):
        self.map = vmap
        self.machine = machine
        self.ledger = ledger if ledger is not None else CostLedger()
        self.work = VectorWork()
        self._max_local = int(vmap.counts().max()) if vmap.nprocs else 0

    @property
    def n(self) -> int:
        """Global vector length."""
        return self.map.n

    def charge(self, work: VectorWork) -> None:
        """Record *work* and charge its seconds to ``vector-ops``."""
        self.work += work
        t = work.seconds(self._max_local, self.map.nprocs, self.machine)
        self.ledger.add("vector-ops", t)

    # -- operations (numerics global, cost distributed) ---------------------

    def dot(self, x: np.ndarray, y: np.ndarray) -> float:
        """Global inner product: local dot + allreduce."""
        self.charge(VectorWork(2.0, scalar_reductions=1))
        return float(x @ y)

    def norm(self, x: np.ndarray) -> float:
        """2-norm: local sum of squares + allreduce + sqrt."""
        self.charge(VectorWork(2.0, scalar_reductions=1))
        return float(np.linalg.norm(x))

    def axpy(self, a: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Return ``a*x + y`` (3 streams per owned entry: read x,y, write)."""
        self.charge(VectorWork(3.0))
        return a * x + y

    def scale(self, a: float, x: np.ndarray) -> np.ndarray:
        """Return ``a*x``."""
        self.charge(VectorWork(2.0))
        return a * x

    def multi_dot(self, basis: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``basis.T @ x`` for an (n, m) basis: one fused pass + allreduce.

        The classical-Gram-Schmidt projection kernel: m dot products that
        share one sweep over x, then a single m-word allreduce. *x* may be
        an (n, b) block (block solvers): cost scales with b.
        """
        m, b = _ncols(basis), _ncols(x)
        self.charge(VectorWork(float(b * (m + 1)), vector_reductions=1,
                               vector_reduction_words=m * b))
        return basis.T @ x

    def multi_axpy(self, basis: np.ndarray, coef: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``x - basis @ coef``: the CGS update sweep (block-aware)."""
        m, b = _ncols(basis), _ncols(x)
        self.charge(VectorWork(float(b * (m + 2))))
        return x - basis @ coef

    def qr(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Thin QR of an (n, b) block — the block-Lanczos normalisation.

        Modeled as TSQR: each rank factorises its owned rows (2*n_local*b^2
        flops) and the b x b R factors combine up a log-p tree.
        """
        b = _ncols(X)
        self.charge(VectorWork(2.0 * b, 2.0 * b * b, vector_reductions=1,
                               vector_reduction_words=b * b))
        Q, R = np.linalg.qr(X.reshape(len(X), -1))
        return Q, R

    def gemm(self, V: np.ndarray, S: np.ndarray) -> np.ndarray:
        """``V @ S`` (basis rotation at a thick restart).

        Each rank transforms its owned rows: ``2*m*l`` flops per owned row
        plus streaming the old basis in and the new one out.
        """
        m, l = S.shape
        self.charge(VectorWork(float(m + l), 2.0 * m * l))
        return V @ S

    def charge_checkpoint(self, ncols: int) -> float:
        """Charge one coordinated snapshot of *ncols* distributed vectors.

        Every rank streams its owned slice of the basis to stable storage —
        one alpha message plus beta per double, the busiest rank setting
        the pace (the same postal accounting as a communication phase) —
        charged to the ``checkpoint`` phase. Returns the modeled seconds.
        """
        t = self.machine.alpha + self.machine.beta * float(self._max_local) * ncols
        self.ledger.add("checkpoint", t)
        return t
