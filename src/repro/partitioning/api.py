"""Front-door partitioning API.

``partition_matrix`` is what the layout layer calls: it hides the choice
between the graph partitioner (ParMETIS's role — method ``"gp"``), the
hypergraph partitioner (Zoltan PHG's role — ``"hp"``) and the
multiconstraint variant (``"gp-mc"``, balancing rows *and* nonzeros, used
by the paper's eigensolver experiments).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import perf
from .hkway import hypergraph_recursive_bisection
from .hypergraph import Hypergraph
from .kway import kway_balance_refine, recursive_bisection
from .partgraph import PartGraph

__all__ = ["partition_matrix", "PartitionResult", "PARTITION_METHODS"]

#: Methods accepted by :func:`partition_matrix`.
PARTITION_METHODS = ("gp", "hp", "gp-mc")


@dataclass(frozen=True)
class PartitionResult:
    """A k-way row/column partition of a matrix.

    Attributes
    ----------
    part:
        int64 part id per row (``rpart`` in the paper's Algorithm 1).
    nparts, method, seed:
        How it was produced.
    edgecut:
        Graph edge cut (gp methods) or connectivity-1 cut (hp) — the
        partitioner's own objective value, for diagnostics.
    imbalance:
        Realised max/avg imbalance per balance constraint.
    """

    part: np.ndarray
    nparts: int
    method: str
    seed: int
    edgecut: float
    imbalance: tuple[float, ...]


def partition_matrix(
    A,
    nparts: int,
    method: str = "gp",
    seed: int = 0,
    ub: float = 1.10,
    jobs: int | None = None,
    executor=None,
    **kwargs,
) -> PartitionResult:
    """Partition the rows/columns of square matrix *A* into *nparts* parts.

    Parameters
    ----------
    A:
        Square sparse matrix (any scipy-coercible form). The partitioners
        operate on the symmetrised pattern.
    nparts:
        Number of parts (= number of processes p in the paper).
    method:
        ``"gp"``  — multilevel graph partitioning, balancing nonzeros
        (the paper's default for SpMV layouts);
        ``"hp"``  — multilevel hypergraph partitioning on the column-net
        model, balancing nonzeros (used for the paper's largest matrices);
        ``"gp-mc"`` — graph partitioning with two balance constraints,
        rows and nonzeros (the paper's 1D/2D-GP-MC eigensolver variants).
    seed:
        Deterministic seed.
    ub:
        K-way imbalance tolerance (1.10 = 10%). Note that on scale-free
        graphs a single hub row can exceed the average part weight, in
        which case the realised imbalance is vertex-granularity-bound.
    jobs, executor:
        Fan the recursive-bisection tree across a process pool
        (:mod:`repro.parallel`). ``jobs=None``/``1`` keeps the serial
        reference path; results are bit-identical either way.
    kwargs:
        Forwarded to the bisection driver (``min_coarse``, ``n_initial``,
        ``refine_passes``).
    """
    if method not in PARTITION_METHODS:
        if method == "hp-mc":
            raise ValueError(
                "multiconstraint partitioning is not available with the "
                "hypergraph partitioner (the paper hits the same limitation: "
                "'multiconstraint partitioning was not available with "
                "hypergraph partitioning')"
            )
        raise ValueError(f"unknown method {method!r}; choose from {PARTITION_METHODS}")
    if nparts < 1:
        raise ValueError(f"nparts must be >= 1, got {nparts}")

    parallel_rb = (jobs is not None and int(jobs) != 1) or executor is not None

    if method == "hp":
        with perf.phase("build-graph"):
            hg = Hypergraph.from_matrix_column_net(A, vertex_weights="nnz")
        if parallel_rb:
            from ..parallel import parallel_hypergraph_recursive_bisection

            part = parallel_hypergraph_recursive_bisection(
                hg, nparts, ub=ub, seed=seed, jobs=jobs, executor=executor, **kwargs
            )
        else:
            part = hypergraph_recursive_bisection(hg, nparts, ub=ub, seed=seed, **kwargs)
        # hypergraph FM controls the cut well but leaves more imbalance than
        # the graph path; reuse the k-way balance repair on the adjacency
        # structure (balance is a vertex-weight property, not a cut-model
        # property, so the graph view is the right tool for both methods).
        # Rows are repaired alongside nonzeros: an nnz-only-balanced
        # partition of a power-law graph concentrates low-degree rows, and
        # the resulting vector imbalance poisons every vector-bound use of
        # the partition (the production tools this emulates do not exhibit
        # that pathology at their operating scale)
        g_bal = PartGraph.from_matrix(A, vertex_weights=("unit", "nnz"))
        with perf.phase("balance-repair"):
            part = kway_balance_refine(
                g_bal, part, nparts, ub=np.array([1.15, max(ub, 1.25)])
            )
        cut = hg.cut_connectivity_minus_one(part, nparts)
        imb = tuple(float(x) for x in g_bal.imbalance(part, nparts))  # (rows, nnz)
        return PartitionResult(part, nparts, method, seed, float(cut), imb)

    weights = ("unit", "nnz") if method == "gp-mc" else "nnz"
    with perf.phase("build-graph"):
        g = PartGraph.from_matrix(A, vertex_weights=weights)
    if parallel_rb:
        from ..parallel import parallel_recursive_bisection

        part = parallel_recursive_bisection(
            g, nparts, ub=ub, seed=seed, jobs=jobs, executor=executor, **kwargs
        )
    else:
        part = recursive_bisection(g, nparts, ub=ub, seed=seed, **kwargs)
    imb = tuple(float(x) for x in g.imbalance(part, nparts))
    return PartitionResult(part, nparts, method, seed, g.edgecut(part), imb)
