"""Regular mesh graphs.

The paper repeatedly contrasts scale-free graphs with mesh-based
scientific-computing graphs ("randomization is a poor load balancing method
for finite elements"). These generators supply that contrast case for tests
and ablation benches: on meshes, graph partitioning should crush random and
block layouts on communication volume.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..graphs.csr import from_edges

__all__ = ["grid2d"]


def grid2d(nx: int, ny: int) -> sp.csr_matrix:
    """5-point-stencil grid graph on an ``nx x ny`` lattice."""
    if nx < 1 or ny < 1:
        raise ValueError(f"grid dimensions must be positive, got {nx}x{ny}")
    idx = np.arange(nx * ny, dtype=np.int64).reshape(nx, ny)
    right_s, right_d = idx[:, :-1].ravel(), idx[:, 1:].ravel()
    down_s, down_d = idx[:-1, :].ravel(), idx[1:, :].ravel()
    src = np.concatenate([right_s, down_s])
    dst = np.concatenate([right_d, down_d])
    return from_edges(src, dst, (nx * ny, nx * ny), symmetrize=True)
