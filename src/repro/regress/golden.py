"""Golden files: serialization, two-tier comparison, readable diffs.

One JSON file per matrix under ``tests/golden/``, schema-versioned, with
deterministic key order so regenerated files diff cleanly in review. The
tolerance policy lives in :func:`compare_matrix`: JSON ints must match
bit-exactly, JSON floats to a relative tolerance (:data:`DEFAULT_RTOL`);
a type change between the two tiers is itself a failure.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from ..bench.reporting import format_table
from ..generators.corpus import load_corpus_matrix
from .grid import GridSpec, compute_matrix_cells

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_GOLDEN_DIR",
    "DEFAULT_RTOL",
    "Mismatch",
    "golden_path",
    "golden_payload",
    "write_golden",
    "load_golden",
    "compare_matrix",
    "generate_goldens",
    "check_goldens",
    "diff_golden_dirs",
    "format_mismatches",
]

#: Bump when the cell metric set or file layout changes shape.
SCHEMA_VERSION = 1

#: Where CI and the CLI look for goldens (relative to the repo root).
DEFAULT_GOLDEN_DIR = Path("tests/golden")

#: Default rtol for the float tier — absorbs float reassociation across
#: numpy versions, nothing structural (integer drift is never tolerated).
DEFAULT_RTOL = 1e-9

#: Header fields of a golden payload that must match the checking spec.
_HEADER_FIELDS = ("schema", "matrix", "machine", "seed", "procs", "methods")


@dataclass(frozen=True)
class Mismatch:
    """One divergence between golden and computed state.

    ``cell`` is a grid-cell key ("2d-gp@p64"), or "header" for file-level
    problems. ``golden``/``computed`` are the two values (None when one
    side is absent). ``note`` says which tier failed and by how much.
    """

    matrix: str
    cell: str
    metric: str
    golden: object
    computed: object
    note: str

    def row(self) -> tuple:
        g = "-" if self.golden is None else self.golden
        c = "-" if self.computed is None else self.computed
        return (self.matrix, self.cell, self.metric, g, c, self.note)


def golden_path(golden_dir: Path, matrix: str) -> Path:
    """File that holds *matrix*'s golden cells."""
    return Path(golden_dir) / f"{matrix}.json"


def golden_payload(matrix: str, spec: GridSpec, cells: dict) -> dict:
    """The on-disk document: header fields + the cell metrics."""
    return {
        "schema": SCHEMA_VERSION,
        "matrix": matrix,
        "machine": spec.machine,
        "seed": spec.seed,
        "procs": sorted(spec.procs),
        "methods": spec.methods_for(matrix),
        "cells": cells,
    }


def write_golden(golden_dir: Path, matrix: str, payload: dict) -> Path:
    """Serialize deterministically (sorted keys, trailing newline)."""
    path = golden_path(golden_dir, matrix)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_golden(golden_dir: Path, matrix: str) -> dict | None:
    """Load *matrix*'s golden payload, or None if the file is absent."""
    path = golden_path(golden_dir, matrix)
    if not path.exists():
        return None
    return json.loads(path.read_text())


def _compare_value(
    matrix: str, cell: str, metric: str, golden, computed, rtol: float
) -> Mismatch | None:
    """Apply the two-tier policy to one (golden, computed) pair."""
    if isinstance(golden, bool) or isinstance(computed, bool):
        note = "unexpected bool metric"
        return Mismatch(matrix, cell, metric, golden, computed, note)
    if isinstance(golden, int) != isinstance(computed, int):
        note = "metric changed tier (int <-> float)"
        return Mismatch(matrix, cell, metric, golden, computed, note)
    if isinstance(golden, int):
        if golden != computed:
            note = f"integer invariant drifted by {computed - golden:+d}"
            return Mismatch(matrix, cell, metric, golden, computed, note)
        return None
    rel = abs(golden - computed) / max(abs(golden), abs(computed), 1e-300)
    if rel > rtol:
        note = f"rel err {rel:.2e} > rtol {rtol:g}"
        return Mismatch(matrix, cell, metric, golden, computed, note)
    return None


def _compare_cells(
    matrix: str, golden_cells: dict, computed_cells: dict, rtol: float
) -> list[Mismatch]:
    out: list[Mismatch] = []

    def add(cell: str, metric: str, golden, computed, note: str) -> None:
        out.append(Mismatch(matrix, cell, metric, golden, computed, note))

    for key in sorted(golden_cells.keys() | computed_cells.keys()):
        if key not in computed_cells:
            add(key, "-", "present", None, "cell missing from recomputed grid")
            continue
        if key not in golden_cells:
            add(key, "-", None, "present", "cell has no golden entry (regenerate)")
            continue
        gold, got = golden_cells[key], computed_cells[key]
        for metric in sorted(gold.keys() | got.keys()):
            if metric not in got:
                add(key, metric, gold[metric], None, "missing from recomputation")
            elif metric not in gold:
                add(key, metric, None, got[metric], "absent from golden (regenerate)")
            else:
                m = _compare_value(matrix, key, metric, gold[metric], got[metric], rtol)
                if m is not None:
                    out.append(m)
    return out


def compare_matrix(
    matrix: str,
    payload: dict | None,
    computed_cells: dict,
    spec: GridSpec,
    rtol: float = DEFAULT_RTOL,
) -> list[Mismatch]:
    """Check one matrix's golden payload against freshly computed cells."""
    if payload is None:
        note = "no golden file — run `repro regress generate`"
        return [Mismatch(matrix, "header", "file", None, None, note)]
    if payload.get("schema") != SCHEMA_VERSION:
        note = "schema version mismatch — regenerate goldens"
        got = payload.get("schema")
        return [Mismatch(matrix, "header", "schema", got, SCHEMA_VERSION, note)]
    expected = golden_payload(matrix, spec, computed_cells)
    out: list[Mismatch] = []
    for field in _HEADER_FIELDS:
        if field == "schema":
            continue
        if payload.get(field) != expected[field]:
            note = "golden generated under a different spec"
            got = payload.get(field)
            out.append(Mismatch(matrix, "header", field, got, expected[field], note))
    out.extend(_compare_cells(matrix, payload.get("cells", {}), computed_cells, rtol))
    return out


def _matrix_cells_task(args: tuple) -> dict:
    """Recompute one matrix's grid cells — the regress fan-out unit.

    Module-level so it pickles into pool workers. The matrix itself ships
    in the args when the caller supplied one (tests); corpus matrices are
    regenerated worker-side from the name, which is cheaper than pickling
    them across. Cell computation is pure; all golden-file reads/writes
    stay in the parent.
    """
    name, A, spec, cache_dir = args
    if A is None:
        A = load_corpus_matrix(name)
    return compute_matrix_cells(A, spec, name, cache_dir)


def _all_matrix_cells(
    spec: GridSpec,
    cache_dir: Path | None,
    matrices: dict | None,
    jobs: int | None,
) -> list[dict]:
    tasks = [
        (name, matrices.get(name) if matrices is not None else None, spec, cache_dir)
        for name in spec.matrices
    ]
    from ..parallel import parallel_map

    return parallel_map(_matrix_cells_task, tasks, jobs=jobs)


def generate_goldens(
    spec: GridSpec,
    golden_dir: Path = DEFAULT_GOLDEN_DIR,
    cache_dir: Path | None = None,
    matrices: dict | None = None,
    progress: Callable[[str], None] | None = None,
    jobs: int | None = None,
) -> list[Path]:
    """Recompute the grid and (over)write one golden file per matrix.

    ``jobs`` fans the per-matrix recomputation across a process pool;
    the emitted files are byte-identical to a serial run.
    """
    paths = []
    all_cells = _all_matrix_cells(spec, cache_dir, matrices, jobs)
    for i, (name, cells) in enumerate(zip(spec.matrices, all_cells), 1):
        paths.append(write_golden(golden_dir, name, golden_payload(name, spec, cells)))
        if progress is not None:
            progress(f"[{i}/{len(spec.matrices)}] {name}: wrote {len(cells)} cells")
    return paths


def check_goldens(
    spec: GridSpec,
    golden_dir: Path = DEFAULT_GOLDEN_DIR,
    cache_dir: Path | None = None,
    matrices: dict | None = None,
    rtol: float = DEFAULT_RTOL,
    progress: Callable[[str], None] | None = None,
    jobs: int | None = None,
) -> tuple[list[Mismatch], int]:
    """Check the whole grid. Returns (mismatches, cells checked).

    Every cell is recomputed from the current code (see
    :mod:`repro.regress.grid`). ``jobs`` parallelises the recomputation
    only; comparison against the goldens is cheap and stays in the
    parent, in matrix order.
    """
    mismatches: list[Mismatch] = []
    ncells = 0
    total = len(spec.matrices)
    all_cells = _all_matrix_cells(spec, cache_dir, matrices, jobs)
    for i, (name, cells) in enumerate(zip(spec.matrices, all_cells), 1):
        ncells += len(cells)
        found = compare_matrix(name, load_golden(golden_dir, name), cells, spec, rtol)
        mismatches.extend(found)
        if progress is not None:
            verdict = "ok" if not found else f"{len(found)} mismatch(es)"
            progress(f"[{i}/{total}] {name}: {len(cells)} cells, {verdict}")
    return mismatches, ncells


def diff_golden_dirs(dir_a: Path, dir_b: Path) -> list[Mismatch]:
    """Exact comparison of two golden trees (no recomputation, rtol=0).

    Review aid for PRs that regenerate goldens: every differing header
    field or metric is reported, however small.
    """
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    stems_a = {p.stem for p in dir_a.glob("*.json")}
    stems_b = {p.stem for p in dir_b.glob("*.json")}
    out: list[Mismatch] = []
    for name in sorted(stems_a | stems_b):
        a, b = load_golden(dir_a, name), load_golden(dir_b, name)
        if a is None or b is None:
            lacking = dir_a if a is None else dir_b
            note = f"only in one tree ({lacking.name} lacks it)"
            ga = "present" if a else None
            gb = "present" if b else None
            out.append(Mismatch(name, "header", "file", ga, gb, note))
            continue
        for field in _HEADER_FIELDS:
            if a.get(field) != b.get(field):
                got_a, got_b = a.get(field), b.get(field)
                m = Mismatch(name, "header", field, got_a, got_b, "header differs")
                out.append(m)
        out.extend(_compare_cells(name, a.get("cells", {}), b.get("cells", {}), 0.0))
    return out


def format_mismatches(mismatches: list[Mismatch]) -> str:
    """Render mismatches as the aligned per-cell table CI prints/uploads."""
    if not mismatches:
        return "no differences"
    return format_table(
        ["matrix", "cell", "metric", "golden", "current", "why"],
        [m.row() for m in mismatches],
        align="lllrrl",
    )
