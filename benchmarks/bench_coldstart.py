"""Cold-path acceleration: compiled-engine artifact store, gated corpus-wide.

The whole point of :mod:`repro.runtime.store` is that a process should
pay partition → maps → plan → compile **once per machine**, not once per
process. This bench measures and gates that claim in three stages:

**Identity** (per corpus matrix, at the paper's 2D method):

* the vectorized :class:`~repro.runtime.distmatrix.DistSparseMatrix`
  assembly produces bit-identical blocks, maps, and ``spmv`` output to
  the retained per-rank oracle (``_assemble_blocks_reference``);
* an engine round-tripped through the store — saved, then reconstructed
  from the zero-copy mmap reader — produces bit-identical ``spmv`` *and*
  ``spmm`` output to the compiled original.

**Cold-start speedup** (the headline gate): with the partition cache
warm in both arms, the *compile* arm builds layout + DistSparseMatrix +
engine from the cached rpart, while the *store* arm reconstructs the
same engine from its artifact. Aggregated over the corpus, the store
arm must be at least ``--min-speedup`` (default 5) times faster.

**Serve first-request latency**: two fresh servers against the same
warm partition cache — one with the engine store disabled (its first
``partition`` request pays a full build, ``engine_source: "built"``),
one against a pre-warmed store (``engine_source: "disk"`` from an mmap
load). The disk-backed first request must be at least 2x faster, and
both sources must report as expected.

Gates (exit 1, ``"ok": false`` in ``BENCH_coldstart.json``):

* zero identity failures — kernels or store round-trip, any matrix;
* aggregate store-vs-compile speedup >= ``--min-speedup`` (default 5);
* serve first-request: sources correct, disk >= 2x faster than built.

Run directly (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_coldstart.py [--smoke]

``--smoke`` covers the three smallest corpus matrices; the full run
covers all ten.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_coldstart.json"

SMOKE_MATRICES = ("hollywood-2009", "com-orkut", "cit-Patents")
PROCS = 16


def _kernel_identity(A, layout, machine) -> list[str]:
    """Vectorised assembly vs the per-rank oracle: blocks, maps, spmv bits."""
    from repro.runtime import DistSparseMatrix
    from repro.runtime.distmatrix import _assemble_blocks_reference, _rank_local_coo

    fails: list[str] = []
    dv = DistSparseMatrix(A, layout, machine)
    _, *intermediates = _rank_local_coo(dv.A_global, layout)
    # the oracle's blocks, compiled by the same (lazy) engine
    dr = DistSparseMatrix(A, layout, machine)
    dr.row_maps, dr.col_maps, dr.local_blocks = _assemble_blocks_reference(
        *intermediates
    )
    for r in range(dv.nprocs):
        if not np.array_equal(dv.row_maps[r], dr.row_maps[r]):
            fails.append(f"rank {r}: row map differs between kernels")
        if not np.array_equal(dv.col_maps[r], dr.col_maps[r]):
            fails.append(f"rank {r}: col map differs between kernels")
        bv, br = dv.local_blocks[r], dr.local_blocks[r]
        if not (
            np.array_equal(bv.data, br.data)
            and np.array_equal(bv.indices, br.indices)
            and np.array_equal(bv.indptr, br.indptr)
        ):
            fails.append(f"rank {r}: local block differs between kernels")
    x = np.random.default_rng(11).standard_normal(A.shape[0])
    if not np.array_equal(dv.spmv(x), dr.spmv(x)):
        fails.append("spmv differs between assembly kernels")
    return fails


def _store_identity(engine, key, store) -> tuple[list[str], bool]:
    """Save + reload *engine*; return (failures, mmapped)."""
    store.save(key, engine)
    loaded = store.load(key)
    if loaded is None:
        return [f"store miss immediately after save for {key}"], False
    fails: list[str] = []
    rng = np.random.default_rng(23)
    x = rng.standard_normal(engine.n)
    X = rng.standard_normal((engine.n, 4))
    if not np.array_equal(engine.spmv(x), loaded.engine.spmv(x)):
        fails.append(f"loaded spmv diverged for {key}")
    if not np.array_equal(engine.spmm(X), loaded.engine.spmm(X)):
        fails.append(f"loaded spmm diverged for {key}")
    return fails, loaded.mmapped


def _time_best(fn, reps: int) -> float:
    best = np.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _serve_phase(
    matrix: str, store_dir: Path, timeout: float
) -> tuple[list[str], dict]:
    """First-request latency: engine store off vs pre-warmed store on."""
    from repro.serve import ServeClient, ServeConfig, start_in_thread

    fails: list[str] = []
    pid = os.getpid()

    def first_request(tag: str, **cfg_kw) -> tuple[dict, float]:
        sock = f"/tmp/repro-cold-{pid}-{tag}.sock"
        handle = start_in_thread(ServeConfig(socket_path=sock, **cfg_kw))
        try:
            with ServeClient(sock, timeout=timeout) as c:
                t0 = time.perf_counter()
                resp, _ = c.request(
                    {"op": "partition", "matrix": matrix, "procs": PROCS}
                )
                dt = time.perf_counter() - t0
                c.request({"op": "shutdown"})
        finally:
            handle.stop()
        return resp, dt

    # pre-warm the store (and the partition cache) with one throwaway server
    resp, _ = first_request("warm", engine_store_dir=str(store_dir))
    if not resp.get("ok"):
        return [f"serve warm-up failed: {resp.get('error')}"], {}

    resp_off, t_off = first_request("off", use_engine_store=False)
    resp_on, t_on = first_request("on", engine_store_dir=str(store_dir))

    if resp_off.get("engine_source") != "built":
        fails.append(
            f"store-off server reported engine_source="
            f"{resp_off.get('engine_source')!r}, expected 'built'"
        )
    if resp_on.get("engine_source") != "disk":
        fails.append(
            f"store-on server reported engine_source="
            f"{resp_on.get('engine_source')!r}, expected 'disk'"
        )
    speedup = t_off / max(t_on, 1e-9)
    if speedup < 2.0:
        fails.append(
            f"serve first request: disk-backed {t_on * 1e3:.1f} ms is only "
            f"{speedup:.2f}x faster than built {t_off * 1e3:.1f} ms (floor 2x)"
        )
    return fails, {
        "matrix": matrix,
        "procs": PROCS,
        "first_request_built_seconds": round(t_off, 6),
        "first_request_disk_seconds": round(t_on, 6),
        "first_request_speedup": round(speedup, 3),
        "engine_source_off": resp_off.get("engine_source"),
        "engine_source_on": resp_on.get("engine_source"),
        "mmapped": resp_on.get("mmapped"),
    }


def run(smoke: bool, min_speedup: float) -> tuple[list[str], dict]:
    from repro.bench.harness import engine_store_key, gp_or_hp, layout_for
    from repro.generators.corpus import CORPUS, load_corpus_matrix
    from repro.runtime import CAB, DistSparseMatrix
    from repro.runtime.store import EngineStore

    matrices = list(SMOKE_MATRICES) if smoke else list(CORPUS)
    reps = 2 if smoke else 3
    failures: list[str] = []
    per_matrix: dict[str, dict] = {}
    total_compile = 0.0
    total_load = 0.0

    tmp = Path(tempfile.mkdtemp(prefix="repro-coldstart-", dir="/tmp"))
    store = EngineStore(tmp / "engines")
    try:
        for name in matrices:
            A = load_corpus_matrix(name)
            method = gp_or_hp(name, "2d")
            # warm the partition cache so both arms start from a cached rpart
            layout = layout_for(A, method, PROCS)
            kernel_fails = _kernel_identity(A, layout, CAB)

            dist = DistSparseMatrix(A, layout, CAB)
            engine = dist.engine
            key = engine_store_key(A, method, PROCS)
            store_fails, mmapped = _store_identity(engine, key, store)
            failures += [f"{name}: {f}" for f in kernel_fails + store_fails]

            # compile arm: cached rpart -> layout -> dist -> engine
            def compile_arm():
                lay = layout_for(A, method, PROCS)
                d = DistSparseMatrix(A, lay, CAB)
                _ = d.engine

            t_compile = _time_best(compile_arm, reps)
            # store arm: artifact -> engine (same partition-cache-warm start)
            t_load = _time_best(lambda: store.load(key), max(reps, 5))
            total_compile += t_compile
            total_load += t_load
            per_matrix[name] = {
                "n": int(A.shape[0]),
                "nnz": int(A.nnz),
                "method": method,
                "compile_seconds": round(t_compile, 6),
                "store_load_seconds": round(t_load, 6),
                "speedup": round(t_compile / max(t_load, 1e-9), 2),
                "mmapped": mmapped,
                "artifact_bytes": store.path(key).stat().st_size,
                "identical": not (kernel_fails or store_fails),
            }

        aggregate = total_compile / max(total_load, 1e-9)
        if aggregate < min_speedup:
            failures.append(
                f"aggregate store speedup {aggregate:.1f}x is below the "
                f"{min_speedup:.0f}x floor "
                f"(compile {total_compile:.3f}s vs load {total_load:.3f}s)"
            )

        serve_fails, serve = _serve_phase(
            matrices[0], tmp / "serve-engines", timeout=600.0
        )
        failures += serve_fails
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    payload = {
        "bench": "coldstart",
        "mode": "smoke" if smoke else "full",
        "procs": PROCS,
        "min_speedup": min_speedup,
        "matrices": per_matrix,
        "aggregate_compile_seconds": round(total_compile, 6),
        "aggregate_load_seconds": round(total_load, 6),
        "aggregate_speedup": round(total_compile / max(total_load, 1e-9), 2),
        "identity_checked": len(matrices),
        "serve": serve,
        "ok": not failures,
    }
    return failures, payload


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="three smallest matrices (CI sanity run)")
    ap.add_argument("--min-speedup", type=float, default=5.0,
                    help="aggregate store-vs-compile floor (default: 5.0)")
    args = ap.parse_args(argv)

    failures, payload = run(args.smoke, args.min_speedup)
    OUT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    for name, rec in payload["matrices"].items():
        print(f"{name} ({rec['method']}, n={rec['n']}):")
        print(f"  compile    {rec['compile_seconds'] * 1e3:9.1f} ms")
        print(f"  store load {rec['store_load_seconds'] * 1e3:9.1f} ms "
              f"({rec['speedup']:.0f}x, mmapped={rec['mmapped']})")
    print(f"aggregate: {payload['aggregate_speedup']:.1f}x over "
          f"{len(payload['matrices'])} matrices "
          f"(floor {payload['min_speedup']:.0f}x)")
    serve = payload.get("serve") or {}
    if serve:
        print(f"serve first request: built "
              f"{serve['first_request_built_seconds'] * 1e3:.1f} ms -> disk "
              f"{serve['first_request_disk_seconds'] * 1e3:.1f} ms "
              f"({serve['first_request_speedup']:.1f}x)")
    print(f"wrote {OUT_PATH.relative_to(REPO_ROOT)}")
    if failures:
        print("\nFAILURES:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
