"""A tour of the partitioning stack: from multilevel bisection to
Algorithm 2's Cartesian nonzero mapping.

Four stops:

1. partition a mesh — the case graph partitioners were built for — and a
   scale-free graph, comparing edge cut against random assignment;
2. inspect the multilevel machinery (coarsening levels, cut/balance);
3. apply the paper's Algorithm 2 to turn the 1D partition into a 2D
   Cartesian nonzero distribution, and verify the O(sqrt(p)) message
   property by brute force;
4. render a small grid partition as ASCII art, because seeing is believing.

Run:  python examples/partitioning_tour.py
"""

import numpy as np

from repro.generators import grid2d, load_corpus_matrix
from repro.layouts import cartesian_layout, nonzero_partition
from repro.partitioning import Hypergraph, PartGraph, multilevel_bisect, partition_matrix
from repro.partitioning.coarsen import coarsen_to
from repro.partitioning.hcoarsen import hcoarsen_level
from repro.runtime import DistSparseMatrix, comm_stats


def stop1_mesh_vs_scalefree() -> None:
    print("=== 1. mesh vs scale-free: how much structure is there? ===")
    rng = np.random.default_rng(0)
    for name, A in (("mesh 48x48", grid2d(48, 48)),
                    ("com-orkut proxy", load_corpus_matrix("com-orkut"))):
        g = PartGraph.from_matrix(A, "nnz")
        res = partition_matrix(A, 16, method="gp", seed=0)
        rnd_cut = g.edgecut(rng.integers(0, 16, g.n))
        print(f"  {name:18s} GP cut {res.edgecut:>9.0f}  random cut {rnd_cut:>9.0f} "
              f" ratio {res.edgecut / rnd_cut:.2f}  imbalance {res.imbalance[0]:.2f}")
    print("  (meshes: partitioning crushes random; scale-free: smaller but "
          "real gains — the paper's 'contrary to popular belief' finding)\n")


def stop2_multilevel() -> None:
    print("=== 2. inside the multilevel partitioner ===")
    A = load_corpus_matrix("bter")
    g = PartGraph.from_matrix(A, "nnz")
    hg = Hypergraph.from_matrix_column_net(A, "nnz")
    # one coarsen-until loop; the level step is the only per-structure part
    levels = coarsen_to(g, 120, np.random.default_rng(0))
    hlevels = coarsen_to(hg, 120, np.random.default_rng(0), level=hcoarsen_level)
    print(f"  graph coarsening ladder:      {[lv[0].n for lv in levels]}")
    print(f"  hypergraph coarsening ladder: {[lv[0].n for lv in hlevels]}")
    print(f"  edges kept coarse: {levels[-1][0].nedges} of {g.nedges}")
    # one multilevel bisection; the input's type picks refiner and cut
    print(f"  bisection edge cut (graph):              {g.edgecut(multilevel_bisect(g)):.0f}")
    print(f"  bisection connectivity-1 (hypergraph):   "
          f"{hg.cut_connectivity_minus_one(multilevel_bisect(hg), 2):.0f}\n")


def stop3_algorithm2() -> None:
    print("=== 3. Algorithm 2: Cartesian nonzero mapping ===")
    A = load_corpus_matrix("cit-Patents")
    pr = pc = 4
    res = partition_matrix(A, pr * pc, method="gp", seed=0)
    procrow, proccol = nonzero_partition(res.part, pr, pc)
    print(f"  phi(k) = rpart(k) mod {pr}, psi(k) = rpart(k) div {pr}")
    layout = cartesian_layout("2D-GP", A, res.part, pr, pc)
    dist = DistSparseMatrix(A, layout)
    s = comm_stats(dist)
    print(f"  brute-force check over the real communication plans:")
    print(f"    max messages/process = {s.max_messages}  "
          f"(bound: pr + pc - 2 = {pr + pc - 2})")
    print(f"    expand volume {s.expand_volume}, fold volume {s.fold_volume}\n")
    assert s.max_messages <= pr + pc - 2


def stop4_ascii_art() -> None:
    print("=== 4. a 24x24 mesh, 8 GP parts ===")
    nx = ny = 24
    A = grid2d(nx, ny)
    res = partition_matrix(A, 8, method="gp", seed=0)
    glyphs = "0123456789abcdef"
    for i in range(nx):
        print("  " + "".join(glyphs[res.part[i * ny + j]] for j in range(ny)))
    print(f"\n  cut: {res.edgecut:.0f} edges, imbalance {res.imbalance[0]:.2f}")


if __name__ == "__main__":
    stop1_mesh_vs_scalefree()
    stop2_multilevel()
    stop3_algorithm2()
    stop4_ascii_art()
