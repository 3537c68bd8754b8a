"""Structural analysis of scale-free graphs.

Provides the statistics of the paper's Table 1 (rows, nonzeros, max
nonzeros/row) plus the power-law diagnostics used to verify that our
synthetic proxy corpus actually *is* scale-free (heavy-tailed degree
distribution), which is the property all the paper's conclusions rest on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import as_csr, nonzeros_per_row

__all__ = ["GraphStats", "graph_stats", "powerlaw_exponent_mle"]


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics in the shape of the paper's Table 1."""

    name: str
    n_rows: int
    n_nonzeros: int
    max_nnz_per_row: int
    mean_nnz_per_row: float
    powerlaw_gamma: float
    #: ratio max-degree / mean-degree: >> 1 signals a heavy tail. Mesh
    #: graphs sit near 1; the paper's matrices sit in the 10^2..10^5 range.
    skew: float

    def row(self) -> tuple:
        """Tuple in Table-1 column order (name, #rows, #nonzeros, max nnz/row)."""
        return (self.name, self.n_rows, self.n_nonzeros, self.max_nnz_per_row)


def graph_stats(A, name: str = "") -> GraphStats:
    """Compute :class:`GraphStats` for matrix *A*."""
    A = as_csr(A)
    nnz_row = nonzeros_per_row(A)
    mean = float(nnz_row.mean()) if A.shape[0] else 0.0
    mx = int(nnz_row.max()) if A.shape[0] else 0
    gamma = powerlaw_exponent_mle(nnz_row)
    return GraphStats(
        name=name,
        n_rows=A.shape[0],
        n_nonzeros=A.nnz,
        max_nnz_per_row=mx,
        mean_nnz_per_row=mean,
        powerlaw_gamma=gamma,
        skew=mx / mean if mean > 0 else 0.0,
    )


def powerlaw_exponent_mle(degrees: np.ndarray, dmin: int = 2) -> float:
    """Continuous MLE estimate of the power-law exponent gamma.

    Uses the standard Clauset-Shalizi-Newman estimator
    ``gamma = 1 + n / sum(ln(d_i / (dmin - 1/2)))`` over degrees >= dmin.
    Returns ``nan`` when fewer than 10 degrees qualify (too little tail to
    fit). This is a diagnostic, not a rigorous fit — good enough to check a
    generator produced a heavy tail of roughly the intended exponent.
    """
    d = np.asarray(degrees, dtype=np.float64)
    d = d[d >= dmin]
    if d.size < 10:
        return float("nan")
    return float(1.0 + d.size / np.sum(np.log(d / (dmin - 0.5))))
