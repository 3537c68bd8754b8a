"""Front-door partitioning API.

``partition_matrix`` is what the layout layer calls: it hides the choice
between the graph partitioner (ParMETIS's role — method ``"gp"``), the
hypergraph partitioner (Zoltan PHG's role — ``"hp"``) and the
multiconstraint variant (``"gp-mc"``, balancing rows *and* nonzeros, used
by the paper's eigensolver experiments).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .. import perf
from ..parallel import _worker_pool
from . import hkway, kway
from ._util import check_part_vector, run_task, walk_rb
from .hypergraph import Hypergraph
from .partgraph import PartGraph

__all__ = ["partition_matrix", "PartitionResult", "PARTITION_METHODS"]


class _Recipe(NamedTuple):
    """How one partition method turns a matrix into a k-way partition."""

    #: ``A -> structure`` the RB tree is walked on (a pool task: picklable)
    build: Callable
    #: ``(structure, nparts) -> node function`` for the walker
    node: Callable
    #: vertex weights of the :class:`PartGraph` the k-way repair balances
    repair_weights: str | tuple[str, ...]
    #: ``ub -> tolerance`` of that repair (scalar or per constraint)
    repair_ub: Callable
    #: ``(structure, part, nparts) -> the partitioner's own objective value``
    cut: Callable


def _graph_recipe(weights) -> _Recipe:
    # a graph method walks and repairs the same PartGraph, at the caller's ub
    return _Recipe(
        build=partial(PartGraph.from_matrix, vertex_weights=weights),
        node=lambda g, nparts: kway._split,
        repair_weights=weights,
        repair_ub=lambda ub: ub,
        cut=lambda g, part, nparts: g.edgecut(part),
    )


_RECIPES = {
    "gp": _graph_recipe("nnz"),
    "hp": _Recipe(
        build=partial(Hypergraph.from_matrix_column_net, vertex_weights="nnz"),
        node=hkway._node,
        # hypergraph FM controls the cut well but leaves more imbalance than
        # the graph path; reuse the k-way balance repair on the adjacency
        # structure (balance is a vertex-weight property, not a cut-model
        # property, so the graph view is the right tool for both methods).
        # Rows are repaired alongside nonzeros: an nnz-only-balanced
        # partition of a power-law graph concentrates low-degree rows, and
        # the resulting vector imbalance poisons every vector-bound use of
        # the partition (the production tools this emulates do not exhibit
        # that pathology at their operating scale)
        repair_weights=("unit", "nnz"),
        repair_ub=lambda ub: np.array([1.15, max(ub, 1.25)]),
        cut=lambda hg, part, nparts: float(hg.cut_connectivity_minus_one(part, nparts)),
    ),
    "gp-mc": _graph_recipe(("unit", "nnz")),
}

#: Methods accepted by :func:`partition_matrix`.
PARTITION_METHODS = tuple(_RECIPES)


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


def _repair(src, method: str, part: np.ndarray, nparts: int, ub: float):
    """The recipe's repair step: k-way balance repair as *method* does it.

    *src* is the matrix, or an already built balance graph of it. Returns
    the repaired part vector and its per-constraint imbalance. Also what
    repairs a nested-derived partition at its coarser part count
    (:func:`repro.bench.harness.cached_rpart`).
    """
    recipe = _RECIPES[method]
    g = (
        src
        if isinstance(src, PartGraph)
        else PartGraph.from_matrix(src, vertex_weights=recipe.repair_weights)
    )
    with perf.phase("balance-repair"):
        part = kway.kway_balance_refine(g, part, nparts, ub=recipe.repair_ub(ub))
    imb = tuple(float(x) for x in g.imbalance(part, nparts))
    return check_part_vector(part, g.n, nparts), imb


def partition_matrix(
    A,
    nparts: int,
    method: str = "gp",
    seed: int = 0,
    ub: float = 1.10,
    jobs: int | None = None,
    executor=None,
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
        Run the build, every recursive-bisection node and the balance
        repair as tasks of a process pool — *executor*, or a fresh
        ``jobs``-worker pool — instead of inline. The tree walk is the
        same function either way (:func:`repro.partitioning._util.walk_rb`)
        and completion order cannot reach the result, so the part vector
        is bit-identical at any ``jobs``.
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
    recipe = _RECIPES[method]
    with _worker_pool(jobs, executor) as pool:
        with perf.phase("build-graph"):
            built = run_task(pool, recipe.build, A)
        part = walk_rb(recipe.node(built, nparts), built, nparts, ub, seed, pool)
        # a graph method's structure is its balance graph; hp's is rebuilt from A
        src = built if isinstance(built, PartGraph) else A
        part, imb = run_task(pool, _repair, src, method, part, nparts, ub)
    return PartitionResult(part, nparts, method, seed, recipe.cut(built, part, nparts), imb)
