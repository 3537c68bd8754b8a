"""repro — reproduction of *Scalable Matrix Computations on Large Scale-Free
Graphs Using 2D Graph Partitioning* (Boman, Devine, Rajamanickam, SC13).

The package is organised in layers, bottom-up:

``repro.graphs``
    Sparse-matrix/graph substrate: CSR helpers, symmetrisation, Laplacians,
    structural analysis of scale-free graphs.
``repro.generators``
    Scale-free graph generators (R-MAT, BTER, Chung-Lu, preferential
    attachment) plus mesh graphs and the proxy corpus standing in for the
    paper's ten input matrices.
``repro.io``
    MatrixMarket reader/writer.
``repro.partitioning``
    From-scratch multilevel graph and hypergraph partitioners (the role
    ParMETIS / Zoltan PHG play in the paper), including multiconstraint
    balancing.
``repro.layouts``
    The data distributions compared in the paper: 1D-Block, 1D-Random,
    1D-GP/HP, 2D-Block, 2D-Random and the paper's contribution,
    2D Cartesian graph partitioning (Algorithms 1 and 2).
``repro.runtime``
    Simulated distributed-memory machine: Epetra-style maps, import/export
    communication plans, distributed matrices/vectors, the four-phase
    parallel SpMV with exact numerics, communication metrics, and an
    alpha-beta-gamma cost model that turns the exact communication counts
    into modeled wall-clock time.
``repro.solvers``
    Distributed iterative solvers: Krylov-Schur (the role of Anasazi
    BKS), LOBPCG, the power method / PageRank.
``repro.bench``
    Experiment harness regenerating every table and figure of the paper's
    evaluation section.

Quickstart::

    from repro import generators, layouts, runtime
    A = generators.rmat(scale=14, edge_factor=8, seed=1)
    layout = layouts.make_layout("2d-gp", A, nprocs=64, seed=0)
    dist = runtime.DistSparseMatrix.from_layout(A, layout)
    stats = dist.comm_stats()
    print(stats.max_messages, stats.total_comm_volume)
"""

from . import graphs, generators, io, partitioning, layouts, runtime, solvers, bench, spectral

__all__ = [
    "spectral",
    "graphs",
    "generators",
    "io",
    "partitioning",
    "layouts",
    "runtime",
    "solvers",
    "bench",
    "__version__",
]

__version__ = "1.0.0"
