"""Synthetic graph generators.

The paper evaluates on matrices from the UF collection / SNAP plus generated
R-MAT (Graph500 parameters) and BTER matrices. The real datasets are not
redistributable here, so :mod:`repro.generators.corpus` builds scaled-down
*proxies* with matched structural signatures from the generators in this
subpackage (see DESIGN.md section 2 for the substitution argument).

All generators are deterministic given a ``seed`` and return symmetric
unweighted adjacency matrices in canonical CSR form with empty diagonal.
"""

from .rmat import rmat, rmat_edges, GRAPH500_PARAMS
from .chunglu import chung_lu, powerlaw_degree_sequence
from .prefattach import preferential_attachment
from .bter import bter
from .webgraph import webgraph
from .meshes import grid2d
from .corpus import corpus_names, load_corpus_matrix, corpus_spec, CorpusSpec

__all__ = [
    "rmat",
    "rmat_edges",
    "GRAPH500_PARAMS",
    "chung_lu",
    "powerlaw_degree_sequence",
    "preferential_attachment",
    "bter",
    "webgraph",
    "grid2d",
    "corpus_names",
    "load_corpus_matrix",
    "corpus_spec",
    "CorpusSpec",
]
