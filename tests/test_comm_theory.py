"""Theory cross-checks between the partitioning models and the runtime.

The paper (section 2.2) leans on a classical exactness result: "hypergraph
partitioning can be used to accurately model communication volume". These
tests verify our stack realises the theory *exactly* — the column-net
connectivity-1 cut of a row partition equals the expand volume the runtime
actually schedules, message bounds match the analysis of section 3.2, and
1D/2D layouts built from the same rpart move the volumes the paper's
analysis says they move. The same bound caps how many peers must help
rebuild a dead rank's state (``recovery_peers``).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.generators import rmat
from repro.layouts import make_layout, oned_layout, random_rpart, process_grid_shape
from repro.partitioning import Hypergraph
from repro.runtime import (
    DistSparseMatrix,
    comm_stats,
    max_recovery_peers,
    recovery_peers,
)


class TestHypergraphExactness:
    """Column-net connectivity-1 == expand volume for 1D layouts."""

    @given(scale=st.integers(4, 7), p=st.integers(2, 8), seed=st.integers(0, 20))
    @settings(max_examples=25, deadline=None)
    def test_conn_minus_one_equals_expand_volume(self, scale, p, seed):
        A = rmat(scale, 4, seed=seed)
        rpart = random_rpart(A.shape[0], p, seed=seed + 1)
        layout = oned_layout("1D", rpart, p)
        dist = DistSparseMatrix(A, layout)
        stats = comm_stats(dist)

        hg = Hypergraph.from_matrix_column_net(A)
        cut = hg.cut_connectivity_minus_one(rpart, p)
        assert stats.expand_volume == cut
        assert stats.fold_volume == 0  # 1D: no fold phase

    def test_graph_edgecut_upper_bounds_volume(self, small_powerlaw):
        """The edge cut over-counts volume (multiple cut edges to one part
        cost one transfer) — why hypergraphs are the exact model."""
        from repro.partitioning import PartGraph

        p = 6
        rpart = random_rpart(small_powerlaw.shape[0], p, seed=3)
        g = PartGraph.from_matrix(small_powerlaw, "unit")
        layout = oned_layout("1D", rpart, p)
        stats = comm_stats(DistSparseMatrix(small_powerlaw, layout))
        assert stats.expand_volume <= 2 * g.edgecut(rpart)


class TestSection32Analysis:
    """The analytic properties claimed in the paper's section 3.2."""

    @given(scale=st.integers(4, 7), pr=st.integers(2, 4), pc=st.integers(2, 4),
           seed=st.integers(0, 20))
    @settings(max_examples=25, deadline=None)
    def test_message_bound_any_rpart(self, scale, pr, pc, seed):
        """Number of messages per process is pr + pc - 2 — for ANY rpart."""
        A = rmat(scale, 4, seed=seed)
        p = pr * pc
        lay = make_layout("2d-random", A, p, seed=seed, grid=(pr, pc))
        stats = comm_stats(DistSparseMatrix(A, lay))
        assert stats.max_messages <= pr + pc - 2

    def test_vector_balance_equals_1d(self, small_powerlaw):
        """'The load balance in the vector is the same as for the 1D
        partitioning method' — rpart owns the vector in both."""
        p = 8
        rpart = random_rpart(small_powerlaw.shape[0], p, seed=1)
        one = make_layout("1d-gp", small_powerlaw, p, rpart=rpart)
        two = make_layout("2d-gp", small_powerlaw, p, rpart=rpart)
        d1 = DistSparseMatrix(small_powerlaw, one)
        d2 = DistSparseMatrix(small_powerlaw, two)
        assert d1.vector_map.imbalance() == d2.vector_map.imbalance()

    def test_2d_from_same_rpart_changes_messages_not_rows(self, small_powerlaw):
        """Algorithm 1 keeps the row/vector assignment of the 1D method and
        re-partitions only the edges: same vector map, fewer messages."""
        p = 16
        rpart = random_rpart(small_powerlaw.shape[0], p, seed=2)
        one = DistSparseMatrix(small_powerlaw, make_layout("1d-gp", small_powerlaw, p, rpart=rpart))
        two = DistSparseMatrix(small_powerlaw, make_layout("2d-gp", small_powerlaw, p, rpart=rpart))
        assert np.array_equal(one.vector_map.owner, two.vector_map.owner)
        s1, s2 = comm_stats(one), comm_stats(two)
        pr, pc = process_grid_shape(p)
        assert s2.max_messages <= pr + pc - 2 < s1.max_messages

    def test_diagonal_entries_live_with_vector(self, small_powerlaw):
        """'We desire a matrix distribution in which the diagonal entries
        are spread among all p processes' — a_kk is owned by x_k's owner."""
        import scipy.sparse as sp

        A = small_powerlaw + sp.identity(small_powerlaw.shape[0], format="csr")
        lay = make_layout("2d-random", A, 6, seed=4)
        diag_ranks = lay.nonzero_owner(
            np.arange(A.shape[0]), np.arange(A.shape[0])
        )
        assert np.array_equal(diag_ranks, lay.vector_part)


def _peers_by_message(dist, rank):
    """Naive oracle: walk every import and fold message one at a time."""
    peers = set()
    for plan in (dist.import_plan, dist.fold_plan):
        for src, dst in zip(plan.src.tolist(), plan.dst.tolist()):
            if src == rank:
                peers.add(dst)
            if dst == rank:
                peers.add(src)
    peers.discard(rank)
    return len(peers)


class TestRecoveryPeers:
    """Rebuilding a dead rank touches exactly the ranks it exchanges
    messages with — inside its process row and column for 2D layouts."""

    @pytest.mark.parametrize("method", ["1d-gp", "2d-block", "2d-random"])
    def test_peers_match_per_message_oracle(self, small_rmat, method):
        dist = DistSparseMatrix(small_rmat, make_layout(method, small_rmat, 16, seed=1))
        for rank in range(dist.nprocs):
            assert recovery_peers(dist, rank) == _peers_by_message(dist, rank)

    def test_2d_recovery_bounded_1d_gp_not(self, small_rmat):
        """At p=64, 2D layouts recover through at most pr + pc - 2 peers;
        1D-GP of a scale-free graph does not."""
        p, pr, pc = 64, 8, 8
        bound = pr + pc - 2
        for method in ("2d-block", "2d-random"):
            dist = DistSparseMatrix(small_rmat, make_layout(method, small_rmat, p, seed=0))
            assert max_recovery_peers(dist) <= bound
        dist1d = DistSparseMatrix(small_rmat, make_layout("1d-gp", small_rmat, p))
        assert max_recovery_peers(dist1d) > bound
