"""MatrixMarket coordinate-format reader/writer.

Supports the subset of the format the paper's inputs use: ``matrix
coordinate`` with field ``real``/``integer``/``pattern`` and symmetry
``general``/``symmetric``. Implemented directly on :func:`numpy.loadtxt`
rather than ``scipy.io.mmread`` so that (a) pattern files get unit values
consistent with the rest of the library, and (b) symmetric storage is
expanded the way the paper stores graphs (both (i,j) and (j,i)).
"""

from __future__ import annotations

import gzip
import io
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from ..graphs.csr import as_csr, from_edges

__all__ = ["read_matrix_market", "write_matrix_market"]

_FIELDS = {"real", "integer", "pattern"}
_SYMMETRIES = {"general", "symmetric"}


def _open_text(path: str | Path):
    path = Path(path)
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="ascii")
    return open(path, "r", encoding="ascii")


def read_matrix_market(path: str | Path) -> sp.csr_matrix:
    """Read a MatrixMarket coordinate file (optionally gzipped) into CSR.

    Symmetric storage is expanded to the full pattern; pattern files get
    value 1.0 on every entry. Raises ``ValueError`` on headers outside the
    supported subset (array format, complex/hermitian/skew matrices).
    """
    with _open_text(path) as fh:
        header = fh.readline().strip().split()
        if len(header) < 5 or header[0] != "%%MatrixMarket" or header[1] != "matrix":
            raise ValueError(f"not a MatrixMarket matrix file: {path}")
        fmt, field, symmetry = header[2], header[3], header[4].lower()
        if fmt != "coordinate":
            raise ValueError(f"only coordinate format supported, got {fmt!r}")
        if field not in _FIELDS:
            raise ValueError(f"unsupported field {field!r} (supported: {sorted(_FIELDS)})")
        if symmetry not in _SYMMETRIES:
            raise ValueError(
                f"unsupported symmetry {symmetry!r} (supported: {sorted(_SYMMETRIES)})"
            )
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        m, n, nnz = (int(tok) for tok in line.split())
        data = np.loadtxt(fh, ndmin=2) if nnz else np.empty((0, 3))
    if data.shape[0] != nnz:
        raise ValueError(f"expected {nnz} entries, file has {data.shape[0]}")
    rows = data[:, 0].astype(np.int64) - 1  # 1-based -> 0-based
    cols = data[:, 1].astype(np.int64) - 1
    if field == "pattern":
        vals = np.ones(nnz)
    else:
        vals = data[:, 2].astype(np.float64)
    if symmetry == "symmetric":
        off = rows != cols
        rows = np.concatenate([rows, cols[off]])
        cols = np.concatenate([cols, rows[: nnz][off]])
        vals = np.concatenate([vals, vals[off]])
    return from_edges(rows, cols, (m, n), values=vals)


def load_matrix(ref: str) -> tuple[str, sp.csr_matrix]:
    """Resolve *ref*, a corpus name or a MatrixMarket path, to ``(name, A)``.

    *name* is the corpus name or the file's base name. Raises
    ``FileNotFoundError`` when *ref* is neither, so each caller can report
    that in its own error type.
    """
    from ..generators.corpus import CORPUS, load_corpus_matrix

    if ref in CORPUS:
        return ref, load_corpus_matrix(ref)
    path = Path(ref)
    if not path.exists():
        raise FileNotFoundError(f"{ref!r} is neither a corpus name nor a file")
    return path.name, read_matrix_market(path)


def write_matrix_market(path: str | Path, A, pattern: bool = False) -> None:
    """Write *A* as a general coordinate MatrixMarket file.

    With ``pattern=True`` only the structure is written (the natural choice
    for adjacency matrices, and ~40% smaller files).
    """
    A = as_csr(A).tocoo()
    field = "pattern" if pattern else "real"
    path = Path(path)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate {field} general\n")
        fh.write(f"{A.shape[0]} {A.shape[1]} {A.nnz}\n")
        if pattern:
            np.savetxt(fh, np.column_stack([A.row + 1, A.col + 1]), fmt="%d %d")
        else:
            np.savetxt(
                fh,
                np.column_stack([A.row + 1, A.col + 1, A.data]),
                fmt="%d %d %.17g",
            )
