"""Tests for the MatrixMarket reader/writer."""

import gzip

import numpy as np
import pytest

from repro.graphs import from_edges, pattern_equal
from repro.generators.corpus import load_corpus_matrix
from repro.io import load_matrix, read_matrix_market, write_matrix_market


class TestRoundtrip:
    def test_real_general(self, tmp_path, small_rmat):
        path = tmp_path / "a.mtx"
        write_matrix_market(path, small_rmat)
        B = read_matrix_market(path)
        assert pattern_equal(small_rmat, B)
        assert np.allclose((small_rmat - B).data, 0.0) if (small_rmat - B).nnz else True

    def test_pattern_mode(self, tmp_path, small_grid):
        path = tmp_path / "p.mtx"
        write_matrix_market(path, small_grid, pattern=True)
        B = read_matrix_market(path)
        assert pattern_equal(small_grid, B)
        assert (B.data == 1.0).all()
        assert "pattern" in path.read_text().splitlines()[0]

    def test_values_preserved(self, tmp_path):
        A = from_edges([0, 1], [1, 0], (2, 2), values=[2.5, -1.25])
        path = tmp_path / "v.mtx"
        write_matrix_market(path, A)
        B = read_matrix_market(path)
        assert B[0, 1] == 2.5 and B[1, 0] == -1.25


class TestSymmetricExpansion:
    def test_symmetric_file_expands(self, tmp_path):
        path = tmp_path / "s.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "% a comment line\n"
            "3 3 3\n"
            "1 1 5.0\n"
            "2 1 1.0\n"
            "3 2 2.0\n"
        )
        A = read_matrix_market(path)
        assert A.nnz == 5  # diagonal once, off-diagonals twice
        assert A[0, 1] == 1.0 and A[1, 0] == 1.0
        assert A[0, 0] == 5.0


class TestGzip:
    def test_gz_file(self, tmp_path, small_grid):
        plain = tmp_path / "g.mtx"
        write_matrix_market(plain, small_grid)
        gz = tmp_path / "g.mtx.gz"
        gz.write_bytes(gzip.compress(plain.read_bytes()))
        assert pattern_equal(read_matrix_market(gz), small_grid)


class TestErrors:
    def test_not_matrixmarket(self, tmp_path):
        p = tmp_path / "x.mtx"
        p.write_text("hello\n1 1 1\n")
        with pytest.raises(ValueError, match="not a MatrixMarket"):
            read_matrix_market(p)

    def test_array_format_rejected(self, tmp_path):
        p = tmp_path / "x.mtx"
        p.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
        with pytest.raises(ValueError, match="coordinate"):
            read_matrix_market(p)

    def test_complex_rejected(self, tmp_path):
        p = tmp_path / "x.mtx"
        p.write_text("%%MatrixMarket matrix coordinate complex general\n1 1 0\n")
        with pytest.raises(ValueError, match="field"):
            read_matrix_market(p)

    def test_hermitian_rejected(self, tmp_path):
        p = tmp_path / "x.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n")
        with pytest.raises(ValueError, match="symmetry"):
            read_matrix_market(p)

    def test_wrong_entry_count(self, tmp_path):
        p = tmp_path / "x.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n")
        with pytest.raises(ValueError, match="entries"):
            read_matrix_market(p)

    def test_integer_field_supported(self, tmp_path):
        p = tmp_path / "x.mtx"
        p.write_text("%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2 7\n")
        A = read_matrix_market(p)
        assert A[0, 1] == 7.0


class TestLoadMatrix:
    def test_corpus_name_file_and_neither(self, tmp_path, small_grid):
        name, A = load_matrix("rmat_22")
        assert name == "rmat_22" and A is load_corpus_matrix("rmat_22")
        path = tmp_path / "g.mtx"
        write_matrix_market(path, small_grid)
        name, A = load_matrix(str(path))
        assert name == "g.mtx" and pattern_equal(A, small_grid)
        with pytest.raises(FileNotFoundError, match="neither a corpus name nor a file"):
            load_matrix(str(tmp_path / "missing.mtx"))
