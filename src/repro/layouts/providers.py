"""Row-partition (rpart) providers: block, random, and partitioner-based.

These produce the ``rpart`` vector of Algorithm 1 — the assignment of
matrix rows/columns (and vector entries) to p parts — which both the 1D
layouts and the 2D Cartesian construction consume.
"""

from __future__ import annotations

import numpy as np

from ..partitioning import partition_matrix

__all__ = ["block_rpart", "random_rpart", "partitioned_rpart"]


def block_rpart(n: int, nparts: int) -> np.ndarray:
    """Contiguous blocks of ~n/p consecutive rows (Epetra's default map).

    Uses the standard balanced split: the first ``n % p`` parts get
    ``ceil(n/p)`` rows, the rest ``floor(n/p)``.
    """
    if nparts < 1:
        raise ValueError(f"nparts must be >= 1, got {nparts}")
    return (np.arange(n, dtype=np.int64) * nparts) // max(n, 1)


def random_rpart(n: int, nparts: int, seed: int = 0) -> np.ndarray:
    """Uniform random owner per row (the paper's randomisation, section 2.4).

    Each row is assigned independently and uniformly; in expectation both
    rows and nonzeros balance, at the price of destroying any locality.
    """
    if nparts < 1:
        raise ValueError(f"nparts must be >= 1, got {nparts}")
    rng = np.random.default_rng(seed)
    return rng.integers(0, nparts, size=n, dtype=np.int64)


def partitioned_rpart(A, nparts: int, method: str = "gp", seed: int = 0) -> np.ndarray:
    """rpart from the graph/hypergraph partitioner (see ``partition_matrix``)."""
    return partition_matrix(A, nparts, method=method, seed=seed).part
