"""From-scratch multilevel graph and hypergraph partitioners.

This subpackage plays the role ParMETIS 4.0.2 and Zoltan's parallel
hypergraph partitioner (PHG) play in the paper: given a sparse matrix, it
produces the row/column part vector ``rpart`` that Algorithm 1 consumes.

Both follow the cited tools' multilevel scheme, written once in
:func:`multilevel_bisect` (the input's type picks the substrate pieces):

coarsening
    heavy-edge matching (graphs) / heavy-overlap matching (hypergraphs),
    implemented as a vectorised handshake matching;
initial partitioning
    greedy growing (through edges or nets), spectral (Fiedler) bisection
    for graphs and random starts, best-of-k after refinement;
refinement
    Fiduccia-Mattheyses boundary refinement with hill-climbing and
    multiconstraint balance support;
k-way
    recursive bisection with hierarchical part numbering, so partitions
    for any power-of-two part count nest inside the finest one.

Front door: :func:`repro.partitioning.partition_matrix`.
"""

from .partgraph import PartGraph
from .hypergraph import Hypergraph
from .bisect import multilevel_bisect
from .kway import derive_nested_partition
from .hkway import hypergraph_recursive_bisection
from .api import PARTITION_METHODS, partition_matrix, PartitionResult

__all__ = [
    "PartGraph",
    "Hypergraph",
    "multilevel_bisect",
    "hypergraph_recursive_bisection",
    "derive_nested_partition",
    "partition_matrix",
    "PartitionResult",
    "PARTITION_METHODS",
]
