"""Tests for repro.partitioning._util — segment primitives."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.partitioning._util import (
    check_part_vector,
    gather_csr_slots,
    gather_slices,
    segment_argmax,
    segment_argmax_last,
    segment_sum,
    weights_by_part,
)


@st.composite
def segments(draw):
    nseg = draw(st.integers(1, 12))
    lens = draw(st.lists(st.integers(0, 8), min_size=nseg, max_size=nseg))
    xadj = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
    vals = draw(
        st.lists(
            st.floats(-100, 100, allow_nan=False), min_size=int(xadj[-1]), max_size=int(xadj[-1])
        )
    )
    return np.array(vals), xadj


class TestSegmentArgmax:
    @given(segments())
    @settings(max_examples=100, deadline=None)
    def test_matches_python_reference(self, data):
        vals, xadj = data
        got = segment_argmax(vals, xadj)
        for i in range(len(xadj) - 1):
            seg = vals[xadj[i]: xadj[i + 1]]
            if len(seg) == 0:
                assert got[i] == -1
            else:
                assert xadj[i] <= got[i] < xadj[i + 1]
                assert vals[got[i]] == seg.max()

    def test_empty_values(self):
        out = segment_argmax(np.array([]), np.array([0, 0, 0]))
        assert out.tolist() == [-1, -1]


class TestSegmentArgmaxLast:
    """segment_argmax_last is the reduceat twin of the lexsort argmax; the
    matching kernels' bit-identity rests on the two never disagreeing."""

    @given(segments())
    @settings(max_examples=100, deadline=None)
    def test_identical_to_lexsort_form(self, data):
        vals, xadj = data
        assert np.array_equal(segment_argmax_last(vals, xadj), segment_argmax(vals, xadj))

    def test_ties_resolve_to_last_slot(self):
        vals = np.array([5.0, 7.0, 7.0, 1.0, 1.0])
        xadj = np.array([0, 3, 5])
        got = segment_argmax_last(vals, xadj)
        assert got.tolist() == [2, 4]
        assert np.array_equal(got, segment_argmax(vals, xadj))

    def test_all_neg_inf_segments(self):
        """A fully masked segment still has an argmax (-inf == -inf): the
        last slot — on which callers then apply their validity filter."""
        vals = np.array([-np.inf, -np.inf, 3.0, -np.inf])
        xadj = np.array([0, 2, 2, 4])
        got = segment_argmax_last(vals, xadj)
        assert got.tolist() == [1, -1, 2]
        assert np.array_equal(got, segment_argmax(vals, xadj))

    def test_empty_segments_give_minus_one(self):
        vals = np.array([2.0, 4.0])
        xadj = np.array([0, 0, 2, 2])
        assert segment_argmax_last(vals, xadj).tolist() == [-1, 1, -1]

    def test_empty_values(self):
        out = segment_argmax_last(np.array([]), np.array([0, 0, 0]))
        assert out.tolist() == [-1, -1]


class TestSegmentSum:
    @given(segments())
    @settings(max_examples=100, deadline=None)
    def test_matches_python_reference(self, data):
        vals, xadj = data
        got = segment_sum(vals, xadj)
        for i in range(len(xadj) - 1):
            assert np.isclose(got[i], vals[xadj[i]: xadj[i + 1]].sum())

    def test_empty_segments_give_zero(self):
        vals = np.array([1.0, 2.0, 3.0])
        xadj = np.array([0, 0, 3, 3, 3])
        assert segment_sum(vals, xadj).tolist() == [0.0, 6.0, 0.0, 0.0]

    def test_empty_values(self):
        assert segment_sum(np.array([]), np.array([0, 0])).tolist() == [0.0]


class TestGatherSlices:
    def _csr(self):
        indptr = np.array([0, 2, 2, 5, 6])
        indices = np.array([10, 11, 20, 21, 22, 30])
        return indptr, indices

    def test_matches_concatenation(self):
        indptr, indices = self._csr()
        rows = np.array([2, 0, 2])
        got = gather_slices(indptr, indices, rows)
        expect = np.concatenate(
            [indices[indptr[r]: indptr[r + 1]] for r in rows]
        )
        assert np.array_equal(got, expect)

    def test_single_row(self):
        indptr, indices = self._csr()
        assert gather_slices(indptr, indices, np.array([3])).tolist() == [30]

    def test_empty_rows_and_empty_result(self):
        indptr, indices = self._csr()
        assert len(gather_slices(indptr, indices, np.array([], dtype=np.int64))) == 0
        assert len(gather_slices(indptr, indices, np.array([1]))) == 0


class TestGatherCsrSlots:
    def _csr(self):
        return np.array([0, 2, 2, 5, 6])

    def test_slots_and_subindptr(self):
        indptr = self._csr()
        slots, sub = gather_csr_slots(indptr, np.array([2, 1, 0]))
        assert slots.tolist() == [2, 3, 4, 0, 1]
        assert sub.tolist() == [0, 3, 3, 5]

    def test_single_row(self):
        slots, sub = gather_csr_slots(self._csr(), np.array([3]))
        assert slots.tolist() == [5]
        assert sub.tolist() == [0, 1]

    def test_empty_rows(self):
        slots, sub = gather_csr_slots(self._csr(), np.array([], dtype=np.int64))
        assert len(slots) == 0
        assert sub.tolist() == [0]


class TestCheckPartVector:
    def test_valid(self):
        p = check_part_vector([0, 1, 2], 3, 3)
        assert p.dtype == np.int64

    def test_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            check_part_vector([0, 1], 3, 2)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            check_part_vector([0, 5], 2, 3)


class TestWeightsByPart:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_add_at(self, data):
        """The per-constraint bincount histogram is bit-identical to an
        np.add.at accumulation (both sum in vertex order), including empty
        parts and part counts above ``max(part) + 1``."""
        ncon = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(0, 40))
        used = data.draw(st.integers(1, 6))
        nparts = data.draw(st.integers(used, used + 3))
        part = np.array(
            data.draw(st.lists(st.integers(0, used - 1), min_size=n, max_size=n)),
            dtype=np.int64,
        )
        w = st.floats(0, 1e6, allow_nan=False)
        vwgt = np.array(
            data.draw(st.lists(w, min_size=n * ncon, max_size=n * ncon))
        ).reshape(n, ncon)
        expect = np.zeros((nparts, ncon))
        np.add.at(expect, part, vwgt)
        got = weights_by_part(part, vwgt, nparts)
        assert got.shape == (nparts, ncon)
        assert np.array_equal(got, expect)
