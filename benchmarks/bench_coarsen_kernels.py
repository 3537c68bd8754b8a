"""Coarsening kernel bench: vectorised vs reference, bit-identity gated.

Coarsening is the other half of the multilevel partitioner's cost (FM
refinement being the first, see ``bench_refine_kernels.py``). This bench
drives the shipped coarsening stages and the seed oracles they replaced
(:mod:`repro.partitioning.coarsen`; oracles are called directly or
swapped in by ``tests.oracles.reference_kernels``, production has no
switch) across the whole proxy corpus and gates on the claims the
vectorisation makes:

1. **bit identity** — checked at every granularity: the matching vector
   of ``handshake_matching``, the coarse CSR arrays of ``contract``, the
   full ``coarsen_to`` level stack (graphs and cmaps), a k-way
   ``partition_matrix`` per corpus matrix both ways, and the
   hypergraph path (``coarsen_to`` stack with ``hcoarsen_level`` + hp
   partition, the latter with hypergraph FM on ``hrefine._pass_reference``
   too) on the hypergraph-partitioned corpus entries;
2. **speedup** — aggregate ``sum(reference) / sum(vector)`` time of
   ``coarsen_to`` must be at least 3x, with per-stage floors of 2x for
   matching and 1.25x for contraction (full mode only; the contraction
   floor is lower because the reference it replaces is scipy's compiled
   ``P^T W P`` triple product, not pure-Python loops);
3. **balance** — in the embedded :mod:`repro.perf` profile of one
   vector-kernel partition of the largest corpus matrix, neither
   ``bisect/coarsen`` nor ``bisect/refine`` may exceed 50% of total
   wall-clock: after this bench, no single stage dominates the
   partitioner (full mode only).

Results land in ``BENCH_coarsen.json`` at the repo root.

Run directly (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_coarsen_kernels.py [--smoke]

``--smoke`` shrinks to two small matrices and skips the speedup/balance
gates (CI sanity run; every identity gate still applies).
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
OUT_PATH = REPO_ROOT / "BENCH_coarsen.json"

AGGREGATE_GATE = 3.0
MATCH_GATE = 2.0
# The reference contraction is scipy's compiled P^T W P; the sort-based
# kernel beats it 1.3-2.1x per matrix, so its floor sits below the 2x
# that applies to the (formerly pure-numpy-loop) matching stage.
CONTRACT_GATE = 1.25
SHARE_GATE = 0.5
NPARTS = 8
#: hp identity is checked on the corpus entries the paper partitioned
#: with the hypergraph tool (capped for runtime; gp covers every matrix)
HP_MATRICES = ("hollywood-2009", "rmat_22")
PROFILE_MATRIX = "rmat_26"


def _best_of(fn, repeats: int = 3) -> float:
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _graphs_equal(a, b) -> bool:
    return (
        np.array_equal(a.xadj, b.xadj)
        and np.array_equal(a.adjncy, b.adjncy)
        and np.array_equal(a.adjwgt, b.adjwgt)
        and np.array_equal(a.vwgt, b.vwgt)
    )


def _stacks_equal(sa, sb) -> bool:
    if len(sa) != len(sb):
        return False
    for (ga, ca), (gb, cb) in zip(sa, sb):
        if not _graphs_equal(ga, gb):
            return False
        if (ca is None) != (cb is None):
            return False
        if ca is not None and not np.array_equal(ca, cb):
            return False
    return True


def run(smoke: bool) -> tuple[list[str], dict]:
    from repro import perf
    from repro.generators import load_corpus_matrix, rmat
    from repro.generators.corpus import corpus_names
    from repro.partitioning import partition_matrix
    from repro.partitioning.coarsen import (
        _contract_reference,
        _handshake_matching_reference,
        coarsen_to,
        contract,
        handshake_matching,
    )
    from repro.partitioning.hcoarsen import hcoarsen_level
    from repro.partitioning.hypergraph import Hypergraph
    from repro.partitioning.partgraph import PartGraph
    from tests.oracles import reference_kernels

    if smoke:
        matrices = {
            "rmat(scale=10)": rmat(10, 8, seed=1),
            "rmat(scale=11)": rmat(11, 6, seed=2),
        }
        hp_names = ("rmat(scale=10)",)
        profile_name = "rmat(scale=11)"
    else:
        matrices = {name: load_corpus_matrix(name) for name in corpus_names()}
        hp_names = HP_MATRICES
        profile_name = PROFILE_MATRIX

    failures: list[str] = []
    rows = []
    tot = {"match": [0.0, 0.0], "contract": [0.0, 0.0], "coarsen": [0.0, 0.0]}

    for name, A in matrices.items():
        g = PartGraph.from_matrix(A, vertex_weights="nnz")
        max_w = g.total_weight() * 0.25
        times: dict[str, dict[str, float]] = {"match": {}, "contract": {}, "coarsen": {}}

        # stage identity + timing on the finest level (the widest one)
        matches = {}
        for kern, match_fn in (
            ("reference", _handshake_matching_reference),
            ("vector", handshake_matching),
        ):
            times["match"][kern] = _best_of(
                lambda k=kern, fn=match_fn: matches.__setitem__(
                    k, fn(g, np.random.default_rng(0), max_vertex_weight=max_w)
                )
            )
        match_identical = bool(np.array_equal(matches["reference"], matches["vector"]))
        if not match_identical:
            failures.append(
                f"{name}: handshake_matching kernels diverge on "
                f"{int(np.sum(matches['reference'] != matches['vector']))} of {g.n} vertices"
            )

        coarse = {}
        for kern, contract_fn in (("reference", _contract_reference), ("vector", contract)):
            times["contract"][kern] = _best_of(
                lambda k=kern, fn=contract_fn: coarse.__setitem__(k, fn(g, matches["vector"]))
            )
        contract_identical = bool(
            _graphs_equal(coarse["reference"][0], coarse["vector"][0])
            and np.array_equal(coarse["reference"][1], coarse["vector"][1])
        )
        if not contract_identical:
            failures.append(f"{name}: contract kernels produce different coarse graphs")

        # whole-stack identity + timing (what the partitioner actually runs)
        stacks = {}

        def build_stack(kern):
            stacks[kern] = coarsen_to(g, 64, np.random.default_rng(0))

        with reference_kernels():
            times["coarsen"]["reference"] = _best_of(lambda: build_stack("reference"))
        times["coarsen"]["vector"] = _best_of(lambda: build_stack("vector"))
        stack_identical = _stacks_equal(stacks["reference"], stacks["vector"])
        if not stack_identical:
            failures.append(f"{name}: coarsen_to level stacks diverge")

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

        hp_identical = None
        if name in hp_names:
            hg = Hypergraph.from_matrix_column_net(A, vertex_weights="nnz")
            hstacks = {
                "vector": coarsen_to(hg, 64, np.random.default_rng(0), level=hcoarsen_level)
            }
            hparts = {"vector": partition_matrix(A, NPARTS, method="hp", seed=0).part}
            with reference_kernels():
                hstacks["reference"] = coarsen_to(
                    hg, 64, np.random.default_rng(0), level=hcoarsen_level
                )
                hparts["reference"] = partition_matrix(A, NPARTS, method="hp", seed=0).part
            hstack_ok = len(hstacks["reference"]) == len(hstacks["vector"]) and all(
                np.array_equal(ca, cb)
                for (_, ca), (_, cb) in zip(hstacks["reference"][1:], hstacks["vector"][1:])
            )
            hp_identical = bool(
                hstack_ok and np.array_equal(hparts["reference"], hparts["vector"])
            )
            if not hp_identical:
                failures.append(f"{name}: hypergraph coarsening/refinement kernels diverge")

        for stage in tot:
            tot[stage][0] += times[stage]["reference"]
            tot[stage][1] += times[stage]["vector"]
        identical = (
            match_identical and contract_identical and stack_identical
            and partition_identical and hp_identical is not False
        )
        rows.append({
            "matrix": name,
            "n": int(A.shape[0]),
            "nnz": int(A.nnz),
            **{
                f"{stage}_{kern}_seconds": times[stage][kern]
                for stage in ("match", "contract", "coarsen")
                for kern in ("reference", "vector")
            },
            "coarsen_speedup": times["coarsen"]["reference"] / times["coarsen"]["vector"],
            "match_bit_identical": match_identical,
            "contract_bit_identical": contract_identical,
            "coarsen_stack_bit_identical": stack_identical,
            "partition_bit_identical": partition_identical,
            "hp_bit_identical": hp_identical,
        })
        print(
            f"[bench_coarsen_kernels] {name:16s} "
            f"coarsen ref={times['coarsen']['reference']:.3f}s "
            f"vec={times['coarsen']['vector']:.3f}s "
            f"speedup={rows[-1]['coarsen_speedup']:.2f}x identical={identical}"
        )

    aggregates = {
        f"aggregate_{stage}_speedup": ref / vec
        for stage, (ref, vec) in tot.items()
    }
    all_identical = all(
        r["match_bit_identical"] and r["contract_bit_identical"]
        and r["coarsen_stack_bit_identical"] and r["partition_bit_identical"]
        and r["hp_bit_identical"] is not False
        for r in rows
    )

    # stage-balance gate: profile one vector-kernel partition of the
    # largest matrix; after this bench neither coarsening nor refinement
    # may dominate end-to-end partition time
    best = None
    for _ in range(3):
        with perf.profile() as prof:
            partition_matrix(matrices[profile_name], NPARTS, method="gp", seed=0)
        if best is None or prof.total_seconds() < best.total_seconds():
            best = prof
    total_s = best.total_seconds()
    coarsen_s = best.seconds("bisect/coarsen")
    refine_s = best.seconds("bisect/refine")

    return failures, {
        "bench": "coarsen_kernels",
        "mode": "smoke" if smoke else "full",
        "nparts": NPARTS,
        "aggregate_speedup_gate": AGGREGATE_GATE,
        "match_speedup_gate": MATCH_GATE,
        "contract_speedup_gate": CONTRACT_GATE,
        "share_gate": SHARE_GATE,
        "matrices": rows,
        **{
            f"aggregate_{stage}_{kern}_seconds": tot[stage][i]
            for stage in ("match", "contract", "coarsen")
            for i, kern in enumerate(("reference", "vector"))
        },
        **aggregates,
        "bit_identical": all_identical,
        "profile": {
            "matrix": profile_name,
            "total_seconds": total_s,
            "coarsen_seconds": coarsen_s,
            "refine_seconds": refine_s,
            "coarsen_share": coarsen_s / total_s,
            "refine_share": refine_s / total_s,
            "phases": best.as_dict(),
        },
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="two small matrices, identity gates only (CI sanity run)")
    args = ap.parse_args()

    failures, result = run(args.smoke)
    OUT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    print(f"[bench_coarsen_kernels] wrote {OUT_PATH}")
    print(
        "  aggregate coarsen_to: {aggregate_coarsen_reference_seconds:.3f}s (reference) "
        "-> {aggregate_coarsen_vector_seconds:.3f}s (vector), "
        "{aggregate_coarsen_speedup:.2f}x, bit_identical={bit_identical}".format(**result)
    )
    prof = result["profile"]
    print(
        "  profile[{matrix}]: total {total_seconds:.2f}s, "
        "coarsen {coarsen_share:.1%}, refine {refine_share:.1%}".format(**prof)
    )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        raise SystemExit(1)
    if not args.smoke:
        gates = [
            ("aggregate coarsen_to", result["aggregate_coarsen_speedup"], AGGREGATE_GATE),
            ("matching stage", result["aggregate_match_speedup"], MATCH_GATE),
            ("contraction stage", result["aggregate_contract_speedup"], CONTRACT_GATE),
        ]
        for label, got, floor in gates:
            if got < floor:
                raise SystemExit(
                    f"{label} speedup {got:.2f}x below the {floor:g}x gate"
                )
        for stage in ("coarsen", "refine"):
            if prof[f"{stage}_share"] >= SHARE_GATE:
                raise SystemExit(
                    f"bisect/{stage} is {prof[f'{stage}_share']:.1%} of partition "
                    f"wall-clock on {prof['matrix']} (gate: < {SHARE_GATE:.0%})"
                )


if __name__ == "__main__":
    main()
