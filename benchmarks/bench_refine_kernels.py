"""FM refinement kernel bench: vectorised vs reference, bit-identity gated.

The multilevel partitioner is the dominant end-to-end cost of every sweep
in this repo, and FM refinement is its inner loop. This bench drives the
shipped FM passes and the seed pass they replaced (see
:mod:`repro.partitioning.refine`; the oracle is swapped in by
``tests.oracles.reference_kernels``, production has no switch) across
the whole proxy corpus and gates on the two claims the vectorisation
makes:

1. **bit identity** — the vector kernel replays the reference kernel's
   exact move sequence. Checked twice: ``fm_refine`` on a random bisection
   of every corpus matrix, and a full k-way ``partition_matrix`` per
   corpus matrix both ways (coarsening, initial partitions and
   every projection level in the loop);
2. **speedup** — aggregate ``sum(reference) / sum(vector)`` time of the
   refinement stage must be at least 3x (full mode only).

Results land in ``BENCH_refine.json`` at the repo root, including the
:mod:`repro.perf` phase breakdown of one profiled vector-kernel partition,
so future PRs have a perf trajectory.

Run directly (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_refine_kernels.py [--smoke]

``--smoke`` shrinks to two small matrices and skips the 3x gate (CI sanity
run; the identity gates still apply).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))  # tests.oracles: the reference-kernel switch
OUT_PATH = REPO_ROOT / "BENCH_refine.json"

SPEEDUP_GATE = 3.0
NPARTS = 8


def _best_of(fn, repeats: int = 3) -> float:
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run(smoke: bool) -> tuple[list[str], dict]:
    from repro import perf
    from repro.generators import load_corpus_matrix, rmat
    from repro.generators.corpus import corpus_names
    from repro.partitioning import partition_matrix
    from repro.partitioning.initial import random_bisection
    from repro.partitioning.partgraph import PartGraph
    from repro.partitioning.refine import fm_refine
    from tests.oracles import reference_kernels

    if smoke:
        matrices = {
            "rmat(scale=10)": rmat(10, 8, seed=1),
            "rmat(scale=11)": rmat(11, 6, seed=2),
        }
    else:
        matrices = {name: load_corpus_matrix(name) for name in corpus_names()}

    failures: list[str] = []
    rows = []
    tot_ref = tot_vec = 0.0

    for name, A in matrices.items():
        g = PartGraph.from_matrix(A, vertex_weights="nnz")
        part0 = random_bisection(g, 0.5, np.random.default_rng(0))

        # refinement timing + identity on a random bisection (the worst
        # case for FM: huge boundary, long move sequences)
        out = {}
        times = {}
        with reference_kernels():
            times["reference"] = _best_of(
                lambda: out.__setitem__("reference", fm_refine(g, part0))
            )
        times["vector"] = _best_of(lambda: out.__setitem__("vector", fm_refine(g, part0)))
        refine_identical = bool(np.array_equal(out["reference"], out["vector"]))
        if not refine_identical:
            failures.append(
                f"{name}: fm_refine kernels diverge on "
                f"{int(np.sum(out['reference'] != out['vector']))} of {g.n} vertices"
            )

        # full-pipeline identity: k-way partition on the oracles vs production
        parts = {"vector": partition_matrix(A, NPARTS, method="gp", seed=0).part}
        with reference_kernels():
            parts["reference"] = partition_matrix(A, NPARTS, method="gp", seed=0).part
        partition_identical = bool(np.array_equal(parts["reference"], parts["vector"]))
        if not partition_identical:
            failures.append(
                f"{name}: k-way partitions diverge on "
                f"{int(np.sum(parts['reference'] != parts['vector']))} of {g.n} vertices"
            )

        tot_ref += times["reference"]
        tot_vec += times["vector"]
        rows.append({
            "matrix": name,
            "n": int(A.shape[0]),
            "nnz": int(A.nnz),
            "fm_reference_seconds": times["reference"],
            "fm_vector_seconds": times["vector"],
            "fm_speedup": times["reference"] / times["vector"],
            "refine_bit_identical": refine_identical,
            "partition_bit_identical": partition_identical,
        })
        print(
            f"[bench_refine_kernels] {name:16s} "
            f"ref={times['reference']:.3f}s vec={times['vector']:.3f}s "
            f"speedup={times['reference'] / times['vector']:.2f}x "
            f"identical={refine_identical and partition_identical}"
        )

    aggregate = tot_ref / tot_vec
    all_identical = all(
        r["refine_bit_identical"] and r["partition_bit_identical"] for r in rows
    )

    # phase breakdown of one profiled vector-kernel partition, for the
    # perf trajectory (which stage future optimisations should chase)
    profile_matrix = rows[-1]["matrix"]
    with perf.profile() as prof:
        partition_matrix(matrices[profile_matrix], NPARTS, method="gp", seed=0)

    return failures, {
        "bench": "refine_kernels",
        "mode": "smoke" if smoke else "full",
        "nparts": NPARTS,
        "speedup_gate": SPEEDUP_GATE,
        "matrices": rows,
        "aggregate_fm_reference_seconds": tot_ref,
        "aggregate_fm_vector_seconds": tot_vec,
        "aggregate_fm_speedup": aggregate,
        "bit_identical": all_identical,
        "profile": {
            "matrix": profile_matrix,
            "total_seconds": prof.total_seconds(),
            "phases": prof.as_dict(),
        },
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="two small matrices, no speedup gate (CI sanity run)")
    args = ap.parse_args()

    failures, result = run(args.smoke)
    OUT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    print(f"[bench_refine_kernels] wrote {OUT_PATH}")
    print(
        "  aggregate fm_refine: {aggregate_fm_reference_seconds:.3f}s (reference) "
        "-> {aggregate_fm_vector_seconds:.3f}s (vector), "
        "{aggregate_fm_speedup:.2f}x, bit_identical={bit_identical}".format(**result)
    )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        raise SystemExit(1)
    if not args.smoke and result["aggregate_fm_speedup"] < SPEEDUP_GATE:
        raise SystemExit(
            f"aggregate fm_refine speedup {result['aggregate_fm_speedup']:.2f}x "
            f"below the {SPEEDUP_GATE:.0f}x gate"
        )


if __name__ == "__main__":
    main()
