"""Thread-parallel apply: corpus-wide bit-identity and nnz-balance gates.

:mod:`repro.runtime.threads` slices each compiled operator into
nnz-balanced contiguous row blocks and fans a multiply across the shared
GIL-releasing pool. This bench measures and gates the two claims that
make that safe to ship:

**Bit-identity** (per corpus matrix, at the paper's 2D method, at every
thread budget in 1/2/4/8): ``spmv``, ``spmm``, ``spmv_with_partials``
and the ABFT checksum arrays produced by the threaded apply equal
the serial fused-multiply oracle (a budget of 1) **exactly** —
``np.array_equal``, never a tolerance.

**Balance** (the headline gate): per-block multiply times are measured
*serially* and replayed — threaded time at budget T is the bottleneck
(slowest) block per operator phase, exactly the replay basis the PR-4
schedule gates use (``schedule_makespan``), so the gate is
host-independent and does not flake on small CI runners. Aggregated over
the corpus, the replayed ``spmm`` speedup at 8 threads must be at least
``--min-speedup`` (default 2.5). Wall-clock speedups are *recorded* for
every budget alongside ``host_cpus`` but never hard-gated: a 1- or
2-core runner cannot show an 8-thread wall win, while the replay number
is a pure property of the nnz split.

**Serve uplift**: a server with ``engine_threads=8`` runs the batched
load phase from ``bench_serve_load`` on the warm matrix; throughput is
recorded against the committed ``BENCH_serve.json`` batched baseline
(recorded, not gated — the baseline was measured on a different host),
while divergences and errors gate at zero: threading must be invisible
on the wire.

Gates (exit 1, ``"ok": false`` in ``BENCH_threads.json``):

* ``bit_identical`` true for every matrix at every thread budget;
* aggregate replayed spmm speedup at 8 threads >= ``--min-speedup``;
* serve phase: zero divergences, zero errors, health reports the
  configured thread budget.

Run directly (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_engine_threads.py [--smoke]

``--smoke`` covers the three smallest corpus matrices; the full run
covers all ten.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_threads.json"
BASELINE_PATH = REPO_ROOT / "BENCH_serve.json"

SMOKE_MATRICES = ("hollywood-2009", "com-orkut", "cit-Patents")
PROCS = 16
THREAD_BUDGETS = (1, 2, 4, 8)
GATED_BUDGET = 8


def _time_best(fn, reps: int) -> float:
    best = np.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _identity_at(engine, budget: int, baseline: dict) -> list[str]:
    """Threaded-vs-serial exact equality for every apply path."""
    fails: list[str] = []
    engine.set_threads(budget)
    y = engine.spmv(baseline["x"])
    if not np.array_equal(y, baseline["spmv"]):
        fails.append(f"spmv diverged at {budget} threads")
    if not np.array_equal(engine.spmm(baseline["X"]), baseline["spmm"]):
        fails.append(f"spmm diverged at {budget} threads")
    yp, partials = engine.spmv_with_partials(baseline["x"])
    if not (
        np.array_equal(yp, baseline["spmv"])
        and np.array_equal(partials, baseline["partials"])
    ):
        fails.append(f"spmv_with_partials diverged at {budget} threads")
    check = engine.abft_check(baseline["x"], partials, yp)
    if not (
        np.array_equal(check.rank_discrepancy, baseline["abft_disc"])
        and np.array_equal(check.rank_threshold, baseline["abft_thr"])
    ):
        fails.append(f"ABFT checksum arrays diverged at {budget} threads")
    if check.detected:
        fails.append(f"ABFT flagged a clean run at {budget} threads")
    # the detector must still fire through the threaded path (additive so
    # a zero-valued slot cannot silently absorb the corruption)
    bad = partials.copy()
    bad[len(bad) // 2] += 1e-3 * (float(np.abs(partials).max()) + 1.0)
    if not engine.abft_check(baseline["x"], bad).detected:
        fails.append(f"ABFT missed injected corruption at {budget} threads")
    return fails


def _serial_baseline(engine, rng) -> dict:
    """Oracle outputs from the fused serial apply (budget 1), plus the inputs."""
    x = rng.standard_normal(engine.n)
    X = rng.standard_normal((engine.n, 8))
    engine.set_threads(1)
    y, partials = engine.spmv_with_partials(x)
    check = engine.abft_check(x, partials, y)
    return {
        "x": x,
        "X": X,
        "spmv": engine.spmv(x),
        "spmm": engine.spmm(X),
        "partials": partials,
        "abft_disc": check.rank_discrepancy,
        "abft_thr": check.rank_threshold,
    }


def _replay(engine, k: int, reps: int, rng) -> dict[int, dict]:
    """Serially-measured per-block times, replayed per thread budget.

    The fused two-multiply spmm is the denominator; the replayed
    threaded time at budget T is ``max_b t(local block b) + max_b
    t(fold block b)`` over the plan's blocks — the bottleneck block per
    phase is the critical path when each block runs on its own thread.
    """
    local, fold = engine._local, engine._fold
    X = rng.standard_normal((engine.n, k))
    P = local @ X
    t_serial = _time_best(lambda: local @ X, reps) + _time_best(
        lambda: fold @ P, reps
    )
    out: dict[int, dict] = {}
    for t in THREAD_BUDGETS:
        engine.set_threads(t)
        plan = engine._plan()
        bottleneck = 0.0
        for op_blocks, rhs in ((plan.local_blocks, X), (plan.fold_blocks, P)):
            times = [
                _time_best(lambda M=M: M @ rhs, reps)
                for _, _, M in op_blocks
            ]
            bottleneck += max(times) if times else 0.0
        wall = _time_best(lambda: engine.spmm(X), reps)
        out[t] = {
            "replay_seconds": bottleneck,
            "serial_seconds": t_serial,
            "replay_speedup": round(t_serial / max(bottleneck, 1e-12), 3),
            "wall_seconds": round(wall, 6),
            "wall_speedup": round(t_serial / max(wall, 1e-12), 3),
            "plan": engine.plan_stats(),
        }
    return out


def _serve_phase(matrix: str, timeout: float) -> tuple[list[str], dict]:
    """Batched load against a threaded server; wire-invisible threading."""
    from repro.serve import ServeClient, ServeConfig, run_loadgen, start_in_thread

    fails: list[str] = []
    sock = f"/tmp/repro-threads-{os.getpid()}.sock"
    handle = start_in_thread(
        ServeConfig(socket_path=sock, engine_threads=GATED_BUDGET)
    )
    try:
        with ServeClient(sock, timeout=timeout) as c:
            resp, _ = c.request(
                {"op": "partition", "matrix": matrix, "procs": PROCS}
            )
            if not resp.get("ok"):
                return [f"serve warm-up failed: {resp.get('error')}"], {}
            health, _ = c.request({"op": "health"})
        batched = run_loadgen(
            sock, matrix, procs=PROCS, concurrency=16,
            requests_per_client=10, check=True,
        )
        with ServeClient(sock, timeout=timeout) as c:
            c.request({"op": "shutdown"})
    finally:
        handle.stop()

    if health.get("engine_threads") != GATED_BUDGET:
        fails.append(
            f"health reported engine_threads="
            f"{health.get('engine_threads')!r}, expected {GATED_BUDGET}"
        )
    if batched.errors:
        fails.append(f"threaded serve: {batched.errors} request error(s)")
    if batched.divergences:
        fails.append(
            f"threaded serve: {batched.divergences} bitwise divergence(s) "
            f"— threading must be invisible on the wire"
        )
    baseline_rps = None
    if BASELINE_PATH.exists():
        base = json.loads(BASELINE_PATH.read_text())
        rec = base.get("matrices", {}).get(matrix, {}).get("batched", {})
        baseline_rps = rec.get("throughput_rps")
    rps = batched.throughput_rps
    return fails, {
        "matrix": matrix,
        "procs": PROCS,
        "engine_threads": GATED_BUDGET,
        "throughput_rps": round(rps, 3),
        "p99_ms": round(batched.p99_ms, 4),
        "divergences": batched.divergences,
        "errors": batched.errors,
        "baseline_batched_rps": baseline_rps,
        "uplift_vs_baseline": (
            round(rps / baseline_rps, 3) if baseline_rps else None
        ),
    }


def run(smoke: bool, min_speedup: float) -> tuple[list[str], dict]:
    from repro.bench.harness import gp_or_hp, layout_for
    from repro.generators.corpus import CORPUS, load_corpus_matrix
    from repro.runtime import CAB, DistSparseMatrix

    matrices = list(SMOKE_MATRICES) if smoke else list(CORPUS)
    k = 8 if smoke else 16
    reps = 2 if smoke else 3
    failures: list[str] = []
    per_matrix: dict[str, dict] = {}
    total_serial = 0.0
    total_replay = 0.0

    rng = np.random.default_rng(17)
    for name in matrices:
        A = load_corpus_matrix(name)
        method = gp_or_hp(name, "2d")
        layout = layout_for(A, method, PROCS)
        engine = DistSparseMatrix(A, layout, CAB).engine

        baseline = _serial_baseline(engine, rng)
        identity_fails: list[str] = []
        for t in THREAD_BUDGETS:
            identity_fails += _identity_at(engine, t, baseline)
        failures += [f"{name}: {f}" for f in identity_fails]

        replay = _replay(engine, k, reps, rng)
        gated = replay[GATED_BUDGET]
        total_serial += gated["serial_seconds"]
        total_replay += gated["replay_seconds"]
        per_matrix[name] = {
            "n": int(A.shape[0]),
            "nnz": int(A.nnz),
            "method": method,
            "bit_identical": not identity_fails,
            "thread_budgets": {
                str(t): {
                    key: rec[key]
                    for key in (
                        "replay_speedup", "wall_speedup",
                        "wall_seconds", "plan",
                    )
                }
                for t, rec in replay.items()
            },
            "serial_spmm_seconds": round(gated["serial_seconds"], 6),
            "replay_spmm_seconds_t8": round(gated["replay_seconds"], 6),
            "replay_speedup_t8": gated["replay_speedup"],
        }

    aggregate = total_serial / max(total_replay, 1e-12)
    if aggregate < min_speedup:
        failures.append(
            f"aggregate replayed spmm speedup {aggregate:.2f}x at "
            f"{GATED_BUDGET} threads is below the {min_speedup:.1f}x floor "
            f"(serial {total_serial:.4f}s vs bottleneck {total_replay:.4f}s)"
        )

    serve_fails, serve = _serve_phase(matrices[0], timeout=600.0)
    failures += serve_fails

    payload = {
        "bench": "engine_threads",
        "mode": "smoke" if smoke else "full",
        "procs": PROCS,
        "host_cpus": os.cpu_count() or 1,
        "thread_budgets": list(THREAD_BUDGETS),
        "gated_budget": GATED_BUDGET,
        "min_speedup": min_speedup,
        "spmm_width": k,
        "matrices": per_matrix,
        "bit_identical": all(
            rec["bit_identical"] for rec in per_matrix.values()
        ),
        "aggregate_serial_seconds": round(total_serial, 6),
        "aggregate_replay_seconds": round(total_replay, 6),
        "aggregate_replay_speedup": round(aggregate, 3),
        "serve": serve,
        "ok": not failures,
    }
    return failures, payload


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="three smallest matrices (CI sanity run)")
    ap.add_argument("--min-speedup", type=float, default=2.5,
                    help="aggregate replayed spmm floor at 8 threads "
                         "(default: 2.5)")
    args = ap.parse_args(argv)

    failures, payload = run(args.smoke, args.min_speedup)
    OUT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    for name, rec in payload["matrices"].items():
        budgets = rec["thread_budgets"]
        line = ", ".join(
            f"t={t}: {budgets[str(t)]['replay_speedup']:.2f}x"
            for t in THREAD_BUDGETS
        )
        print(f"{name} ({rec['method']}, n={rec['n']}, "
              f"identical={rec['bit_identical']}):")
        print(f"  replay {line}")
    print(f"aggregate replayed spmm speedup at {payload['gated_budget']} "
          f"threads: {payload['aggregate_replay_speedup']:.2f}x over "
          f"{len(payload['matrices'])} matrices "
          f"(floor {payload['min_speedup']:.1f}x, "
          f"host_cpus={payload['host_cpus']})")
    serve = payload.get("serve") or {}
    if serve:
        uplift = serve.get("uplift_vs_baseline")
        print(f"serve (engine_threads={serve['engine_threads']}): "
              f"{serve['throughput_rps']:.0f} rps, "
              f"divergences={serve['divergences']}"
              + (f", {uplift:.2f}x committed batched baseline"
                 if uplift else ""))
    print(f"wrote {OUT_PATH.relative_to(REPO_ROOT)}")
    if failures:
        print("\nFAILURES:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
