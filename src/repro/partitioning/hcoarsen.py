"""Hypergraph coarsening via heavy-overlap handshake matching.

Vertices that share many (small) nets should merge: collapsing them removes
those nets from consideration and preserves the connectivity cut. We build
the similarity graph ``S = H'^T diag(1/(size-1)) H'`` (the inner-product /
heavy-connectivity measure used by PaToH and Zoltan PHG), where ``H'``
excludes very large nets — a hub column with thousands of pins would
otherwise create a quadratic-size similarity clique while carrying almost
no matching signal. Matching on S reuses the graph handshake matcher.

:func:`similarity_graph` builds the scaled incidence directly from the
kept rows' CSR arrays (no intermediate ``diags @ Hs`` matmul) and drops
the diagonal of the product with one mask pass (no ``setdiag``);
:func:`hcontract` relabels pins with one sorted packed-key pass (net id,
coarse pin). The seed ``H @ P`` contraction stays as
:func:`_hcontract_reference`, the bit-identity oracle the tests call
directly.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .. import perf
from ..graphs.csr import as_csr
from ._util import weights_by_part
from .coarsen import _coarse_map, handshake_matching
from .hypergraph import Hypergraph
from .partgraph import PartGraph

__all__ = ["similarity_graph", "hcontract", "hcoarsen_level"]


def similarity_graph(hg: Hypergraph, max_net_size: int = 50) -> PartGraph:
    """Vertex-similarity graph weighted by shared-net overlap."""
    sizes = hg.net_sizes()
    keep = (sizes >= 2) & (sizes <= max_net_size)
    Hs = hg.H[keep]
    if Hs.nnz == 0:
        # no usable nets: empty similarity graph (matching degenerates to
        # singletons, coarsening stalls and the driver stops)
        empty = sp.csr_matrix((hg.n, hg.n))
        return PartGraph.from_scipy(empty, hg.vwgt)
    w = 1.0 / np.maximum(sizes[keep] - 1, 1)
    scale = np.sqrt(w * hg.netwgt[keep])
    # diags(scale) @ Hs multiplies every (binary) pin entry of row e by
    # scale[e]: with data 1.0 the products are exactly scale[e], so the
    # scaled incidence can be assembled from Hs's own CSR arrays with a
    # repeat — same pattern, bit-equal data, no SpGEMM
    data = np.repeat(scale, np.diff(Hs.indptr))
    Hw = sp.csr_matrix((data, Hs.indices, Hs.indptr), shape=Hs.shape)
    S = as_csr(Hw.T @ Hw)
    # ``S.setdiag(0.0); S.eliminate_zeros()`` leaves the off-diagonal
    # entries of the canonical S in place (as_csr already dropped every
    # stored zero); one mask pass selects the same slots without scipy's
    # per-entry diagonal lookup, which cost as much as the product itself
    rows = np.repeat(np.arange(hg.n), np.diff(S.indptr))
    off = S.indices != rows
    xadj = np.zeros(hg.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[off], minlength=hg.n), out=xadj[1:])
    return PartGraph(xadj, S.indices[off], S.data[off], hg.vwgt)


def hcontract(hg: Hypergraph, match: np.ndarray) -> tuple[Hypergraph, np.ndarray]:
    """Contract matched vertex pairs; drop nets that fall below 2 pins."""
    return _hcontract_vector(hg, match)


def _hcontract_reference(hg: Hypergraph, match: np.ndarray) -> tuple[Hypergraph, np.ndarray]:
    """Seed contraction (oracle): pin relabeling via the ``H @ P`` matmul."""
    n = hg.n
    cmap, nc = _coarse_map(match)
    P = sp.csr_matrix((np.ones(n), (np.arange(n), cmap)), shape=(n, nc))
    Hc = as_csr(hg.H @ P)
    Hc.data[:] = 1.0
    keep = np.diff(Hc.indptr) >= 2
    vwgt_c = weights_by_part(cmap, hg.vwgt, nc)
    return Hypergraph(as_csr(Hc[keep]), vwgt_c, hg.netwgt[keep]), cmap


def _hcontract_vector(hg: Hypergraph, match: np.ndarray) -> tuple[Hypergraph, np.ndarray]:
    """Sort-based contraction: relabel pins, dedupe (net, coarse-pin) pairs.

    ``H @ P`` maps every pin of net e to its coarse vertex and merges
    duplicates (two matched pins of the same net become one coarse pin);
    the resulting data counts are >= 1, so the reference's
    ``eliminate_zeros`` inside ``as_csr`` never fires and its
    ``data[:] = 1.0`` erases the counts anyway. The same set arrives
    without a matmul: pack each pin as ``net_id * nc + cmap[pin]``, sort,
    drop duplicates. Sorting the packed key yields nets ascending with
    coarse pins ascending inside each net — the canonical CSR layout
    ``as_csr`` produces — so the incidence arrays are identical. The
    below-2-pin net filter and the net-weight restriction then operate on
    identical inputs in both kernels.
    """
    cmap, nc = _coarse_map(match)
    H = hg.H
    net_of_pin = np.repeat(
        np.arange(hg.nnets, dtype=np.int64), np.diff(H.indptr)
    )
    key = net_of_pin * np.int64(nc) + cmap[H.indices]
    key = np.unique(key)  # sorts and dedupes merged pins in one pass
    nets = key // nc
    pins = key % nc
    counts = np.bincount(nets, minlength=hg.nnets)
    keep = counts >= 2

    # compact to kept nets: pins are already grouped by net in net order
    keep_pin = keep[nets]
    pins = pins[keep_pin]
    indptr = np.zeros(int(keep.sum()) + 1, dtype=np.int64)
    np.cumsum(counts[keep], out=indptr[1:])
    Hc = sp.csr_matrix(
        (np.ones(len(pins)), pins, indptr), shape=(len(indptr) - 1, nc)
    )
    return Hypergraph(Hc, weights_by_part(cmap, hg.vwgt, nc), hg.netwgt[keep]), cmap


def hcoarsen_level(
    hg: Hypergraph,
    rng: np.random.Generator,
    max_vertex_weight: np.ndarray | None = None,
) -> tuple[Hypergraph, np.ndarray]:
    """One coarsening level: similarity, matching, contraction (profiled)."""
    with perf.phase("similarity"):
        sim = similarity_graph(hg)
    with perf.phase("match"):
        match = handshake_matching(sim, rng, max_vertex_weight=max_vertex_weight)
    with perf.phase("contract"):
        return hcontract(hg, match)
