"""Tests for the bench harness, profiles and reporting."""

import numpy as np

from repro.bench import (
    PAPER_TO_PROXY_PROCS,
    cached_rpart,
    fraction_best,
    format_seconds,
    format_table,
    gp_or_hp,
    layout_for,
    performance_profile,
    profile_value_at,
    reduction_vs_best,
    run_spmv_cell,
    spmv_grid,
    table2_rows,
)
from repro.bench import eigen, harness
from repro.bench.harness import SpmvRecord
from repro.runtime import CommStats
from repro.runtime.store import matrix_hash


class TestPartitionCache:
    def test_cache_roundtrip(self, small_powerlaw, tmp_path):
        p1 = cached_rpart(small_powerlaw, "gp", 4, seed=0, cache_dir=tmp_path)
        files = list(tmp_path.glob("*.npy"))
        assert len(files) == 1
        p2 = cached_rpart(small_powerlaw, "gp", 4, seed=0, cache_dir=tmp_path)
        assert np.array_equal(p1, p2)
        assert len(list(tmp_path.glob("*.npy"))) == 1  # no duplicate entries

    def test_nested_derivation(self, small_powerlaw, tmp_path):
        fine = cached_rpart(small_powerlaw, "gp", 16, seed=0, cache_dir=tmp_path)
        coarse = cached_rpart(
            small_powerlaw, "gp", 4, seed=0, cache_dir=tmp_path, nested_from=16
        )
        assert np.array_equal(coarse, fine * 4 // 16)

    def test_entries_are_keyed_by_partitioner_code(
        self, small_powerlaw, tmp_path, monkeypatch
    ):
        """A changed partitioner source misses the entries older code made."""
        calls = []
        real = harness.partition_matrix

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "partition_matrix", counting)
        first = cached_rpart(small_powerlaw, "gp", 4, seed=0, cache_dir=tmp_path)
        cached_rpart(small_powerlaw, "gp", 4, seed=0, cache_dir=tmp_path)
        assert len(calls) == 1  # the fill, then a hit
        monkeypatch.setattr(harness, "code_fingerprint", lambda *sources: "0" * 12)
        again = cached_rpart(small_powerlaw, "gp", 4, seed=0, cache_dir=tmp_path)
        assert len(calls) == 2  # recomputed under the new fingerprint
        assert np.array_equal(first, again)
        # ... and the write evicted the older code's entry
        assert len(list(tmp_path.glob("*_gp_k4_s0.npy"))) == 1

    def test_a_write_evicts_other_generations(
        self, small_powerlaw, tmp_path, monkeypatch
    ):
        """A write under fingerprint B removes what A, or code from before
        fingerprints, wrote for the same entry, and nothing else."""
        part = cached_rpart(small_powerlaw, "gp", 4, seed=0, cache_dir=tmp_path)
        [written] = tmp_path.glob("*_gp_k4_s0.npy")
        mhash = matrix_hash(small_powerlaw)
        legacy = tmp_path / f"{mhash}_gp_k4_s0.npy"
        np.save(legacy, part)
        cached_rpart(small_powerlaw, "gp", 4, seed=1, cache_dir=tmp_path)
        monkeypatch.setattr(harness, "code_fingerprint", lambda *sources: "b" * 12)
        cached_rpart(small_powerlaw, "gp", 4, seed=0, cache_dir=tmp_path)
        assert not written.exists() and not legacy.exists()
        assert (tmp_path / f"{mhash}_{'b' * 12}_gp_k4_s0.npy").exists()
        assert len(list(tmp_path.glob("*_s1.npy"))) == 1  # another key survives
        assert len(list(tmp_path.glob("*.npy"))) == 2

    def test_different_seeds_different_entries(self, small_powerlaw, tmp_path):
        cached_rpart(small_powerlaw, "gp", 4, seed=0, cache_dir=tmp_path)
        cached_rpart(small_powerlaw, "gp", 4, seed=1, cache_dir=tmp_path)
        assert len(list(tmp_path.glob("*.npy"))) == 2


class TestEigenProfileCache:
    """The eigen benches' solve profiles are cached like rparts."""

    @staticmethod
    def _counting(monkeypatch, tmp_path, A) -> list:
        calls = []
        real = eigen.solve_profile

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(eigen, "load_corpus_matrix", lambda name: A)
        monkeypatch.setattr(eigen, "solve_profile", counting)
        return calls

    def test_entries_are_keyed_by_solver_code(
        self, small_powerlaw, tmp_path, monkeypatch
    ):
        """A changed solver source misses the profiles older code made."""
        calls = self._counting(monkeypatch, tmp_path, small_powerlaw)
        first = eigen._one_profile("m", 2, 1e-3, 0)
        eigen._one_profile("m", 2, 1e-3, 0)
        assert len(calls) == 1  # the fill, then a hit
        monkeypatch.setattr(eigen, "code_fingerprint", lambda *sources: "0" * 12)
        again = eigen._one_profile("m", 2, 1e-3, 0)
        assert len(calls) == 2  # recomputed under the new fingerprint
        assert again.matvecs == first.matvecs
        assert np.array_equal(again.eigenvalues, first.eigenvalues)
        # ... and the write evicted the older code's entry
        name = f"{matrix_hash(small_powerlaw)}_{'0' * 12}_profile_k2_t0.001_s0.npz"
        assert [p.name for p in tmp_path.glob("*profile*")] == [name]

    def test_torn_file_is_a_miss(self, small_powerlaw, tmp_path, monkeypatch):
        calls = self._counting(monkeypatch, tmp_path, small_powerlaw)
        first = eigen._one_profile("m", 2, 1e-3, 0)
        [path] = tmp_path.glob("*profile*")
        path.write_bytes(path.read_bytes()[:100])
        again = eigen._one_profile("m", 2, 1e-3, 0)
        assert len(calls) == 2
        assert again.matvecs == first.matvecs
        assert [p.name for p in tmp_path.glob("*profile*")] == [path.name]


class TestHarness:
    def test_gp_or_hp_follows_paper(self):
        assert gp_or_hp("com-orkut", "2d") == "2d-gp"
        assert gp_or_hp("rmat_24", "2d") == "2d-hp"
        # uk-2005 diverges deliberately (see corpus.py): paper chose HP for
        # scale reasons that do not bind at proxy size
        assert gp_or_hp("uk-2005", "1d") == "1d-gp"

    def test_paper_proc_mapping(self):
        assert PAPER_TO_PROXY_PROCS[64] == 4
        assert PAPER_TO_PROXY_PROCS[16384] == 1024

    def test_run_cell_validates(self, small_powerlaw, tmp_path):
        rec = run_spmv_cell(
            small_powerlaw, "toy", "2d-random", 4, cache_dir=tmp_path
        )
        assert rec.method == "2D-Random"
        assert rec.validation_error < 1e-10
        assert rec.time100 > 0

    def test_run_cell_skips_validation_at_scale(self, small_powerlaw, tmp_path):
        rec = run_spmv_cell(
            small_powerlaw, "toy", "2d-random", 256, cache_dir=tmp_path
        )
        assert np.isnan(rec.validation_error)

    def test_grid_shape(self, small_powerlaw, tmp_path):
        recs = spmv_grid(
            {"toy": small_powerlaw}, ["1d-block", "2d-block"], procs=(4, 16),
            cache_dir=tmp_path,
        )
        assert len(recs) == 4
        assert {r.nprocs for r in recs} == {4, 16}

    def test_layout_for_uses_cache(self, small_powerlaw, tmp_path):
        layout_for(small_powerlaw, "1d-gp", 4, cache_dir=tmp_path)
        assert len(list(tmp_path.glob("*.npy"))) == 1


def _mkrec(matrix, method, p, t):
    stats = CommStats(p, 1.0, 1.0, 0, 0, 0, 0, 0, 0)
    return SpmvRecord(matrix, method, p, t, stats, float("nan"))


class TestProfiles:
    def test_always_best_method_is_vertical_line(self):
        recs = [_mkrec("a", "X", 4, 1.0), _mkrec("a", "Y", 4, 2.0),
                _mkrec("b", "X", 4, 3.0), _mkrec("b", "Y", 4, 9.0)]
        prof = performance_profile(recs)
        assert fraction_best(prof, "X") == 1.0
        assert fraction_best(prof, "Y") == 0.0
        assert profile_value_at(prof, "Y", 2.0) == 0.5  # b is 3x worse
        assert profile_value_at(prof, "Y", 3.1) == 1.0

    def test_paper_figure6_reading(self):
        """Reproduce the paper's worked example: (x=2, y=0.4) means 40% of
        instances within 2x of best."""
        recs = []
        for i in range(10):
            recs.append(_mkrec(f"m{i}", "best", 4, 1.0))
            recs.append(_mkrec(f"m{i}", "slow", 4, 1.5 if i < 4 else 4.0))
        prof = performance_profile(recs)
        assert np.isclose(profile_value_at(prof, "slow", 2.0), 0.4)


class TestReporting:
    def test_format_seconds(self):
        assert format_seconds(123.4) == "123.4"
        assert format_seconds(1.5) == "1.50"
        assert format_seconds(0.1234) == "0.1234"

    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [(1, 22), (333, 4)])
        lines = out.splitlines()
        assert len(lines) == 4
        assert len(set(len(ln) for ln in lines)) == 1  # all same width

    def test_reduction_vs_best(self):
        times = {"2D-GP/HP": 0.5, "1D-Block": 2.0, "2D-Random": 1.0}
        assert np.isclose(reduction_vs_best(times, "2D-GP/HP"), 50.0)
        # negative when ours is slower than the best other (uk-2005 case)
        times = {"2D-GP/HP": 1.2, "2D-Random": 1.0}
        assert reduction_vs_best(times, "2D-GP/HP") < 0

    def test_table2_rows_merge_gp_hp_column(self):
        recs = [
            _mkrec("m", "1D-Block", 4, 4.0), _mkrec("m", "1D-Random", 4, 3.0),
            _mkrec("m", "1D-HP", 4, 2.0), _mkrec("m", "2D-Block", 4, 2.5),
            _mkrec("m", "2D-Random", 4, 1.5), _mkrec("m", "2D-HP", 4, 1.0),
        ]
        rows = table2_rows(recs)
        assert len(rows) == 1
        row = rows[0]
        assert row[0] == "m" and row[1] == 4
        assert row[-1] == "33.3%"  # 1.0 vs next best 1.5
