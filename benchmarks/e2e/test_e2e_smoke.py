"""Smoke test of the end-to-end benchmark (``pytest benchmarks/e2e``).

Not part of tier-1 (``testpaths = ["tests"]``). Two ``--smoke`` passes on
2k-row inputs check the contract between ``BENCHMARK.json``,
``metrics.json`` and what ``run.py`` prints, that exact metrics are exact,
and that the trace nests.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import record  # noqa: E402
import compare  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def smoke_pass(out: Path) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "1",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text()), proc.stdout


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    return smoke_pass(tmp / "a.json"), smoke_pass(tmp / "b.json")


@pytest.fixture(scope="module")
def catalog():
    return record.load_catalog()


def test_catalog_shape(catalog):
    bench = catalog["benchmark"]
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    names = [m["name"] for g in ("workloads", "end_to_end", "per_layer") for m in bench[g]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = catalog["end_to_end"]["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_moves_targets_exist(catalog):
    for name, info in catalog["per_layer"].items():
        for metric, workload in info["moves"]:
            assert metric in catalog["end_to_end"], (name, metric)
            assert workload in catalog["workloads"], (name, workload)


def test_printed_names_are_the_catalog(passes, catalog):
    (rec, stdout), _ = passes
    assert set(rec["workloads"]) == set(catalog["workloads"])
    for name, w in rec["workloads"].items():
        assert set(w["end_to_end"]) == set(catalog["end_to_end"]), name
        assert set(w["per_layer"]) == set(catalog["per_layer"]), name
        assert w["failed"] == 0, w["failures"]
        for group in ("end_to_end", "per_layer"):
            for metric, entry in w[group].items():
                assert entry["basis"] in record.BASES
                assert re.search(
                    rf"^{name}\s+{re.escape(metric)}\s+\S+\s+{re.escape(entry['unit'])}\s",
                    stdout, re.M,
                ), (name, metric)
    assert rec["schema"] == record.SCHEMA
    assert {"nproc", "cpu_model", "caches", "python", "numpy", "scipy", "blas"} <= set(
        rec["host"]
    )


def test_exact_metrics_repeat_exactly(passes):
    (rec_a, _), (rec_b, _) = passes
    _, exact, problems = compare.compare(rec_a, rec_b)
    assert not exact
    assert not problems


def test_trace_nests_and_self_times_are_non_negative(passes, catalog):
    for name in catalog["workloads"]:
        trace = json.loads((record.OUT / f"trace_{name}.json").read_text())
        spans = {s["id"]: s for s in trace["spans"]}
        assert spans
        for s in spans.values():
            assert s["workload"] == name
            assert s["end"] >= s["start"]
            if s["parent"] is not None:
                up = spans[s["parent"]]
                assert up["start"] - 1e-9 <= s["start"] and s["end"] <= up["end"] + 1e-9, s
        assert all(v >= -1e-6 for v in trace["self_seconds"].values()), trace["self_seconds"]
