"""Matrix I/O.

The paper reads its inputs from MatrixMarket files (UF collection / SNAP
exports). We provide a self-contained MatrixMarket coordinate reader/writer
so users can run the full pipeline on the real datasets when they have
them, and :func:`load_matrix`, the one "corpus name or file" resolver the
CLI, the server and the load generator share.
"""

from .matrixmarket import load_matrix, read_matrix_market, write_matrix_market

__all__ = ["load_matrix", "read_matrix_market", "write_matrix_market"]
