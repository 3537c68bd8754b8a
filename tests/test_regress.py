"""Tests for the golden-invariant regression harness (repro.regress)."""

import json

import pytest

from repro.cli import main
from repro.layouts import make_layout
from repro.regress import (
    SCHEMA_VERSION,
    GridSpec,
    cell_key,
    cell_metrics,
    check_goldens,
    compute_matrix_cells,
    diff_golden_dirs,
    format_mismatches,
    generate_goldens,
    golden_path,
    load_golden,
)
from repro.runtime import CAB, DistSparseMatrix

# rmat_22 is the smallest corpus matrix (~8k rows) and block/random
# layouts need no partitioner, so this grid computes in well under a
# second while still exercising both 1D and 2D plan structure.
TINY_SPEC = GridSpec(
    matrices=("rmat_22",), procs=(4,), methods=("1d-block", "2d-block")
)


@pytest.fixture(scope="module")
def tiny_golden_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    generate_goldens(TINY_SPEC, d)
    return d


def _perturb(golden_dir, matrix, mutate):
    payload = load_golden(golden_dir, matrix)
    mutate(payload)
    golden_path(golden_dir, matrix).write_text(json.dumps(payload))


class TestCellMetrics:
    def test_matches_comm_plan_state(self, small_powerlaw):
        lay = make_layout("2d-random", small_powerlaw, 4, seed=0)
        dist = DistSparseMatrix(small_powerlaw, lay, CAB)
        cell = cell_metrics(dist)
        assert cell["nnz"] == small_powerlaw.nnz
        assert cell["expand_volume"] == dist.import_plan.total_volume
        assert cell["fold_messages"] == dist.fold_plan.nmessages
        assert cell["expand_max_sent_messages"] == dist.import_plan.sent_counts().max()
        assert cell["modeled_spmv100_seconds"] == pytest.approx(
            dist.modeled_spmv_seconds(100)
        )

    def test_two_tier_types(self, small_powerlaw):
        """Ints are exact invariants, floats are modeled/ratio metrics."""
        lay = make_layout("1d-block", small_powerlaw, 4)
        cell = cell_metrics(DistSparseMatrix(small_powerlaw, lay, CAB))
        for key, value in cell.items():
            if key.startswith("modeled_") or key.endswith("_imbalance"):
                assert isinstance(value, float), key
            else:
                assert isinstance(value, int), key

    def test_no_spmv_executed(self, small_powerlaw, monkeypatch):
        lay = make_layout("1d-block", small_powerlaw, 4)
        dist = DistSparseMatrix(small_powerlaw, lay, CAB)
        monkeypatch.setattr(
            DistSparseMatrix, "spmv", lambda *a, **k: pytest.fail("spmv ran")
        )
        cell_metrics(dist)

    def test_deterministic(self):
        from repro.generators import load_corpus_matrix

        A = load_corpus_matrix("rmat_22")
        a = compute_matrix_cells(A, TINY_SPEC, "rmat_22")
        b = compute_matrix_cells(A, TINY_SPEC, "rmat_22")
        assert a == b

    def test_plan_invariants_consistent(self, small_powerlaw):
        lay = make_layout("2d-block", small_powerlaw, 4)
        dist = DistSparseMatrix(small_powerlaw, lay, CAB)
        inv = dist.import_plan.invariants()
        assert inv["messages"] == dist.import_plan.nmessages
        assert inv["volume"] == dist.import_plan.total_volume
        assert all(isinstance(v, int) for v in inv.values())


class TestRoundTrip:
    def test_generate_then_check_passes(self, tiny_golden_dir):
        mismatches, ncells = check_goldens(TINY_SPEC, tiny_golden_dir)
        assert mismatches == []
        assert ncells == 2

    def test_golden_file_shape(self, tiny_golden_dir):
        payload = load_golden(tiny_golden_dir, "rmat_22")
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["machine"] == "cab"
        assert set(payload["cells"]) == {"1d-block@p4", "2d-block@p4"}

    def test_missing_golden_reported(self, tmp_path):
        mismatches, _ = check_goldens(TINY_SPEC, tmp_path / "nowhere")
        assert len(mismatches) == 1
        assert "no golden file" in mismatches[0].note


class TestPerturbations:
    def test_integer_drift_caught_with_cell_named(self, tmp_path):
        generate_goldens(TINY_SPEC, tmp_path)
        _perturb(
            tmp_path,
            "rmat_22",
            lambda p: p["cells"]["2d-block@p4"].__setitem__(
                "expand_messages", p["cells"]["2d-block@p4"]["expand_messages"] + 1
            ),
        )
        mismatches, _ = check_goldens(TINY_SPEC, tmp_path)
        assert len(mismatches) == 1
        m = mismatches[0]
        assert m.matrix == "rmat_22"
        assert (m.cell, m.metric) == ("2d-block@p4", "expand_messages")
        assert "drifted by -1" in m.note  # current relative to (perturbed) golden
        report = format_mismatches(mismatches)
        assert "2d-block@p4" in report and "expand_messages" in report

    def test_code_change_caught_after_a_passing_run(self, tmp_path, monkeypatch):
        """Nothing cached between runs stands in for the computation: a
        metric change right after a passing check is reported per cell."""
        import repro.regress.grid as grid

        gdir, cache = tmp_path / "golden", tmp_path / "cache"
        generate_goldens(TINY_SPEC, gdir, cache_dir=cache)
        assert check_goldens(TINY_SPEC, gdir, cache_dir=cache) == ([], 2)
        real = grid.cell_metrics

        def bumped(dist):
            cell = real(dist)
            cell["max_messages"] += 1
            return cell

        monkeypatch.setattr(grid, "cell_metrics", bumped)
        mismatches, _ = check_goldens(TINY_SPEC, gdir, cache_dir=cache)
        assert {(m.cell, m.metric) for m in mismatches} == {
            ("1d-block@p4", "max_messages"),
            ("2d-block@p4", "max_messages"),
        }

    def test_float_within_rtol_passes(self, tmp_path):
        generate_goldens(TINY_SPEC, tmp_path)
        _perturb(
            tmp_path,
            "rmat_22",
            lambda p: p["cells"]["1d-block@p4"].__setitem__(
                "modeled_spmv100_seconds",
                p["cells"]["1d-block@p4"]["modeled_spmv100_seconds"] * (1 + 1e-12),
            ),
        )
        mismatches, _ = check_goldens(TINY_SPEC, tmp_path)
        assert mismatches == []

    def test_float_beyond_rtol_fails(self, tmp_path):
        generate_goldens(TINY_SPEC, tmp_path)
        _perturb(
            tmp_path,
            "rmat_22",
            lambda p: p["cells"]["1d-block@p4"].__setitem__(
                "modeled_spmv100_seconds",
                p["cells"]["1d-block@p4"]["modeled_spmv100_seconds"] * 1.01,
            ),
        )
        mismatches, _ = check_goldens(TINY_SPEC, tmp_path)
        assert len(mismatches) == 1
        assert "rtol" in mismatches[0].note

    def test_missing_cell_and_extra_metric(self, tmp_path):
        generate_goldens(TINY_SPEC, tmp_path)

        def mutate(p):
            del p["cells"]["1d-block@p4"]
            del p["cells"]["2d-block@p4"]["fold_volume"]

        _perturb(tmp_path, "rmat_22", mutate)
        mismatches, _ = check_goldens(TINY_SPEC, tmp_path)
        notes = sorted(m.note for m in mismatches)
        assert any("no golden entry" in n for n in notes)
        assert any("absent from golden" in n for n in notes)

    def test_schema_bump_forces_regeneration(self, tmp_path):
        generate_goldens(TINY_SPEC, tmp_path)
        _perturb(tmp_path, "rmat_22", lambda p: p.__setitem__("schema", 999))
        mismatches, _ = check_goldens(TINY_SPEC, tmp_path)
        assert len(mismatches) == 1
        assert "schema" in mismatches[0].note

    def test_spec_header_mismatch_reported(self, tmp_path):
        generate_goldens(TINY_SPEC, tmp_path)
        _perturb(tmp_path, "rmat_22", lambda p: p.__setitem__("seed", 7))
        mismatches, _ = check_goldens(TINY_SPEC, tmp_path)
        assert any(m.metric == "seed" for m in mismatches)


class TestDiffDirs:
    def test_identical_trees_no_differences(self, tiny_golden_dir):
        assert diff_golden_dirs(tiny_golden_dir, tiny_golden_dir) == []

    def test_reports_any_drift_exactly(self, tiny_golden_dir, tmp_path):
        generate_goldens(TINY_SPEC, tmp_path)
        _perturb(
            tmp_path,
            "rmat_22",
            lambda p: p["cells"]["1d-block@p4"].__setitem__(
                "modeled_sum_seconds",
                p["cells"]["1d-block@p4"]["modeled_sum_seconds"] + 1e-15,
            ),
        )
        mismatches = diff_golden_dirs(tiny_golden_dir, tmp_path)
        assert [m.metric for m in mismatches] == ["modeled_sum_seconds"]

    def test_one_sided_file(self, tiny_golden_dir, tmp_path):
        mismatches = diff_golden_dirs(tiny_golden_dir, tmp_path)
        assert len(mismatches) == 1
        assert "only in one tree" in mismatches[0].note


class TestCli:
    ARGS = ["--matrices", "rmat_22", "--procs", "4"]

    def _patch_methods(self, monkeypatch):
        # route the CLI's GridSpec through the tiny two-method grid
        import repro.cli as cli_mod

        monkeypatch.setattr(
            cli_mod, "_regress_spec", lambda args: TINY_SPEC, raising=True
        )

    def test_generate_check_roundtrip(self, tmp_path, monkeypatch, capsys):
        self._patch_methods(monkeypatch)
        gdir = str(tmp_path / "golden")
        assert main(["regress", "generate", "--golden-dir", gdir, *self.ARGS]) == 0
        assert main(["regress", "check", "--golden-dir", gdir, *self.ARGS]) == 0
        assert "regress check OK" in capsys.readouterr().out

    def test_check_fails_with_named_cell_and_report(
        self, tmp_path, monkeypatch, capsys
    ):
        self._patch_methods(monkeypatch)
        gdir = tmp_path / "golden"
        assert main(["regress", "generate", "--golden-dir", str(gdir), *self.ARGS]) == 0
        _perturb(
            gdir,
            "rmat_22",
            lambda p: p["cells"]["2d-block@p4"].__setitem__(
                "max_messages", p["cells"]["2d-block@p4"]["max_messages"] + 1
            ),
        )
        report = tmp_path / "diff.txt"
        rc = main([
            "regress", "check", "--golden-dir", str(gdir),
            "--report", str(report), *self.ARGS,
        ])
        assert rc == 1
        out = capsys.readouterr().out
        assert "regress check FAILED" in out
        assert "2d-block@p4" in out
        assert "2d-block@p4" in report.read_text()

    def test_diff_subcommand(self, tmp_path, monkeypatch, capsys):
        self._patch_methods(monkeypatch)
        a, b = tmp_path / "a", tmp_path / "b"
        generate_goldens(TINY_SPEC, a)
        generate_goldens(TINY_SPEC, b)
        assert main(["regress", "diff", str(a), str(b)]) == 0
        _perturb(b, "rmat_22", lambda p: p.__setitem__("seed", 3))
        assert main(["regress", "diff", str(a), str(b)]) == 1
        assert "header" in capsys.readouterr().out

    def test_non_corpus_matrix_rejected(self):
        with pytest.raises(SystemExit, match="not a corpus matrix"):
            main(["regress", "check", "--matrices", "no-such-matrix"])


class TestGridSpec:
    def test_default_spec_covers_corpus(self):
        from repro.generators import corpus_names
        from repro.regress import DEFAULT_SPEC

        assert DEFAULT_SPEC.matrices == tuple(corpus_names())
        assert DEFAULT_SPEC.procs == (4, 16, 64)
        assert DEFAULT_SPEC.methods_for("com-orkut") == [
            "1d-block", "1d-random", "1d-gp", "2d-block", "2d-random", "2d-gp",
        ]
        assert "2d-hp" in DEFAULT_SPEC.methods_for("rmat_24")

    def test_bad_machine_rejected(self):
        with pytest.raises(ValueError, match="unknown machine"):
            GridSpec(matrices=("rmat_22",), machine="cray-1")

    def test_cell_key_is_stable(self):
        assert cell_key("2D-GP", 64) == "2d-gp@p64"


def test_checked_in_goldens_are_current_schema():
    """Every golden shipped in tests/golden/ parses and matches the schema."""
    from pathlib import Path

    golden_dir = Path(__file__).parent / "golden"
    files = sorted(golden_dir.glob("*.json"))
    assert files, "tests/golden/ is empty — run `python -m repro regress generate`"
    for path in files:
        payload = json.loads(path.read_text())
        assert payload["schema"] == SCHEMA_VERSION, path.name
        assert payload["matrix"] == path.stem
        assert payload["cells"], path.name
        for key, cell in payload["cells"].items():
            assert "@p" in key
            assert {"nnz", "max_messages", "expand_volume",
                    "modeled_spmv100_seconds"} <= set(cell), (path.name, key)
