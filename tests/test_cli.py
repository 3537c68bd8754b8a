"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.io import write_matrix_market


@pytest.fixture
def mtx_file(tmp_path, small_powerlaw):
    path = tmp_path / "g.mtx"
    write_matrix_market(path, small_powerlaw, pattern=True)
    return str(path)


class TestCli:
    def test_corpus_lists_ten(self, capsys):
        assert main(["corpus"]) == 0
        out = capsys.readouterr().out
        assert "hollywood-2009" in out and "rmat_26" in out

    def test_stats_on_corpus_name(self, capsys):
        assert main(["stats", "rmat_22"]) == 0
        out = capsys.readouterr().out
        assert "nonzeros" in out and "power-law" in out

    def test_stats_on_file(self, mtx_file, capsys):
        assert main(["stats", mtx_file]) == 0
        assert "rows" in capsys.readouterr().out

    def test_unknown_matrix_errors(self):
        with pytest.raises(SystemExit, match="neither"):
            main(["stats", "no-such-thing"])

    def test_partition_saves_output(self, mtx_file, tmp_path, capsys):
        out_file = tmp_path / "part.npy"
        assert main(["partition", mtx_file, "-k", "4", "-o", str(out_file)]) == 0
        part = np.load(out_file)
        assert part.max() == 3
        assert "imbalance" in capsys.readouterr().out

    def test_partition_profile_prints_phase_table(self, mtx_file, capsys):
        assert main(["partition", mtx_file, "-k", "4", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "imbalance" in out  # normal output still present
        for phase in ("coarsen", "initial", "refine", "bisect", "match", "contract"):
            assert phase in out
        assert "seconds" in out and "calls" in out

    def test_spmv_comparison(self, mtx_file, capsys):
        assert main([
            "spmv", mtx_file, "-p", "4", "--methods", "1d-block", "2d-random",
        ]) == 0
        out = capsys.readouterr().out
        assert "1D-Block" in out and "2D-Random" in out

    def test_eigen_comparison(self, mtx_file, capsys):
        assert main([
            "eigen", mtx_file, "-p", "4", "-k", "3", "--tol", "1e-2",
            "--methods", "1d-block", "2d-random",
        ]) == 0
        out = capsys.readouterr().out
        assert "matvecs" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_regress_check_missing_goldens_exits_3(self, tmp_path, capsys):
        assert main([
            "regress", "check", "--golden-dir", str(tmp_path / "nowhere"),
        ]) == 3
        assert "regress generate" in capsys.readouterr().out

    def test_seed_flag_uniform_across_subcommands(self):
        from repro.cli import build_parser

        parser = build_parser()
        for argv in (
            ["partition", "x", "-k", "2", "--seed", "7"],
            ["spmv", "x", "--seed", "7"],
            ["eigen", "x", "--seed", "7"],
            ["regress", "check", "--seed", "7"],
            ["serve", "--seed", "7"],
        ):
            assert parser.parse_args(argv).seed == 7

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_serve_jobs_zero_or_below_means_all_cores(self, monkeypatch, tmp_path, jobs):
        """``serve --jobs`` reads like every other ``--jobs``: 0 = all cores."""
        import repro.serve
        from repro.parallel import resolve_jobs

        configs = []

        class _Server:
            def __init__(self, config):
                configs.append(config)

            async def serve(self, on_started=None):
                pass

        monkeypatch.setattr(repro.serve, "MatvecServer", _Server)
        assert main(["serve", "--socket", str(tmp_path / "s.sock"), "--jobs", jobs]) == 0
        assert configs[0].pool_workers == resolve_jobs(0)

    @pytest.mark.parametrize("soak_fails", [False, True])
    def test_serve_chaos_removes_its_temp_dir(self, monkeypatch, soak_fails):
        """``serve chaos`` leaves nothing in /tmp, whether its soak passes
        or raises: the generated matrix, socket and caches go with it."""
        import os

        import repro.cli

        seen = []

        def soak(socket_path, matrix, **kwargs):
            seen.append(os.path.dirname(socket_path))
            assert os.path.exists(socket_path) and os.path.exists(matrix)
            if soak_fails:
                raise RuntimeError("soak failed")
            return 0

        monkeypatch.setattr(repro.cli, "_run_chaos_soak_against", soak)
        if soak_fails:
            with pytest.raises(RuntimeError, match="soak failed"):
                main(["serve", "chaos"])
        else:
            assert main(["serve", "chaos"]) == 0
        [tmp] = seen
        assert os.path.basename(tmp).startswith("repro-chaos-")
        assert not os.path.exists(tmp)

    def test_partition_methods_come_from_the_partitioner(self):
        from repro.cli import build_parser
        from repro.partitioning import PARTITION_METHODS

        parser = build_parser()
        sub = next(a for a in parser._actions if a.dest == "command")
        method = next(a for a in sub.choices["partition"]._actions if a.dest == "method")
        assert tuple(method.choices) == PARTITION_METHODS


class TestCacheCli:
    """`repro cache` over a store holding one compiled engine."""

    def _populated_store(self, mtx_file, tmp_path):
        from repro.bench.harness import engine_store_key
        from repro.io import read_matrix_market
        from repro.layouts import make_layout
        from repro.runtime import CAB, DistSparseMatrix
        from repro.runtime.store import EngineStore

        store = tmp_path / "engines"
        A = read_matrix_market(mtx_file)
        dist = DistSparseMatrix(A, make_layout("2d-random", A, 4), CAB)
        EngineStore(store).save(
            engine_store_key(A, "2d-random", 4), dist.engine, {"matrix": mtx_file}
        )
        return store

    def test_list_shows_the_artifact(self, mtx_file, tmp_path, capsys):
        store = self._populated_store(mtx_file, tmp_path)
        artifacts = list(store.glob("*.engine.npz"))
        assert len(artifacts) == 1
        assert main(["cache", "list", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "_2d-random_k4_s0" in out
        assert "ok" in out
        assert "1 artifact(s)" in out

    def test_evict_by_key_then_missing_is_nonzero(
        self, mtx_file, tmp_path, capsys
    ):
        store = self._populated_store(mtx_file, tmp_path)
        key = next(store.glob("*.engine.npz")).name.removesuffix(".engine.npz")
        assert main(["cache", "evict", key, "--store", str(store)]) == 0
        assert "evicted" in capsys.readouterr().out
        assert main(["cache", "evict", key, "--store", str(store)]) == 1

    def test_clear_empties_the_store(self, mtx_file, tmp_path, capsys):
        store = self._populated_store(mtx_file, tmp_path)
        assert main(["cache", "clear", "--store", str(store)]) == 0
        assert "removed 1 artifact(s)" in capsys.readouterr().out
        assert main(["cache", "list", "--store", str(store)]) == 0
        assert "empty" in capsys.readouterr().out
