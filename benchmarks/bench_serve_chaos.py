"""Chaos-soak the matvec server: seeded wire faults, bit-identical answers.

Boots a fault-injectable :class:`repro.serve.server.MatvecServer`
in-process, then drives closed-loop load from
:func:`repro.serve.loadgen.run_chaos_soak` — every session a
:class:`~repro.serve.resilience.RetryingClient` (idempotency keys,
decorrelated-jitter backoff, circuit breaker) — through a seeded
:class:`~repro.serve.chaos.ChaosProxy`. Phases:

* **baseline** — the same retrying client stack straight at the server,
  no proxy: the fault-free p99 the inflation gate divides against;
* one **focused phase per wire fault class** (torn / corrupt / reset /
  delay / drop at elevated probability) so every class demonstrably
  executes and recovers;
* one **combined phase** with every wire class active plus seeded
  slow-engine injections (a real ``slow_ms`` stall in the server);
* one **worker-kill exercise**: a cold engine key whose pool partition
  is killed mid-build (real ``os._exit`` in the worker) and retried.

Gates (exit 1, ``"ok": false`` in ``BENCH_chaos.json``):

* **zero bitwise divergences and zero lost acknowledged requests** in
  every phase — faults may cost retries and latency, never wrong bits;
* zero logical requests exhausting their retry budget (every request is
  eventually answered within its deadline);
* every scheduled injection class executed at least once (the five wire
  classes from the proxy ledgers, worker kill, slow engine);
* the server's own fault log holds at least one ``worker-death`` and
  one ``slow-engine`` event;
* combined-phase p99 within ``--max-p99-inflation-ms`` of baseline p99.

Run directly (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_serve_chaos.py [--smoke]

``--smoke`` shrinks the request counts for CI; the weekly full run soaks
longer at higher concurrency.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_chaos.json"

#: Focused per-class probability for the single-class phases.
FOCUS_P = 0.2
#: Combined-phase schedule (every wire class active).
COMBINED = dict(p_torn=0.03, p_corrupt=0.05, p_reset=0.03, p_delay=0.08,
                p_drop=0.03, delay_ms=3.0)


def _soak(socket_path, warm_path, matrix, procs, seed, chaos_seed,
          concurrency, requests, **kw):
    from repro.serve.loadgen import run_chaos_soak

    return run_chaos_soak(
        socket_path,
        matrix,
        procs=procs,
        seed=seed,
        warm_socket_path=warm_path,
        chaos_seed=chaos_seed,
        concurrency=concurrency,
        requests_per_client=requests,
        attempt_deadline_s=2.0,
        total_deadline_s=120.0,
        **kw,
    )


def _evict_rpart(matrix: str, procs: int, seed: int) -> None:
    """Drop the cached partition AND engine artifact: force a cold build.

    Both must go — an engine-store hit would skip the pool partition
    entirely, so a kill injection stamped on the warm-up request would
    never fire on a warm rerun.
    """
    from repro.bench.harness import rpart_cache_path
    from repro.generators.corpus import CORPUS, load_corpus_matrix
    from repro.runtime.store import EngineKey, EngineStore, matrix_hash

    kind = CORPUS[matrix].partitioner
    mhash = matrix_hash(load_corpus_matrix(matrix))
    rpart_cache_path(mhash, kind, procs, seed).unlink(missing_ok=True)
    EngineStore().evict(EngineKey(mhash, f"2d-{kind}", procs, seed))


def run(smoke: bool, concurrency: int, chaos_seed: int,
        max_p99_inflation_ms: float) -> tuple[list[str], dict]:
    from repro.serve import (
        ChaosSchedule,
        ServeClient,
        ServeConfig,
        start_chaos_proxy,
        start_in_thread,
    )

    matrix, procs = "hollywood-2009", 16
    seed = 9999  # private partition seed: the soak owns its cache entries
    requests = 10 if smoke else 40
    failures: list[str] = []
    phases: dict[str, dict] = {}

    pid = os.getpid()
    sock = f"/tmp/repro-chaos-{pid}.sock"
    handle = start_in_thread(
        ServeConfig(socket_path=sock, allow_fault_injection=True)
    )
    wire_totals: dict[str, int] = {}
    try:
        # -- baseline: retrying clients, no proxy, no injections ----------
        baseline = _soak(sock, sock, matrix, procs, seed, chaos_seed,
                         concurrency, requests)
        phases["baseline"] = {"result": baseline.as_dict()}

        # -- focused wire-fault phases ------------------------------------
        wire_phases = [
            ("torn", ChaosSchedule(seed=chaos_seed + 1, p_torn=FOCUS_P)),
            ("corrupt", ChaosSchedule(seed=chaos_seed + 2, p_corrupt=FOCUS_P)),
            ("reset", ChaosSchedule(seed=chaos_seed + 3, p_reset=FOCUS_P)),
            ("delay", ChaosSchedule(seed=chaos_seed + 4, p_delay=FOCUS_P,
                                    delay_ms=3.0)),
            ("drop", ChaosSchedule(seed=chaos_seed + 5, p_drop=FOCUS_P)),
            ("combined", ChaosSchedule(seed=chaos_seed, **COMBINED)),
        ]
        for name, schedule in wire_phases:
            listen = f"{sock}.{name}"
            proxy = start_chaos_proxy(sock, listen, schedule)
            try:
                res = _soak(
                    listen, sock, matrix, procs, seed, chaos_seed,
                    concurrency, requests,
                    p_slow=0.1 if name == "combined" else 0.0,
                )
                counts = proxy.proxy.executed_counts()
            finally:
                proxy.stop()
            res.injected_wire = counts
            phases[name] = {
                "schedule": schedule.probabilities(),
                "result": res.as_dict(),
            }
            for k, v in counts.items():
                wire_totals[k] = wire_totals.get(k, 0) + v
            if name != "combined" and counts.get(name, 0) < 1:
                failures.append(
                    f"{name}: focused schedule executed no {name!r} injection"
                )

        # -- worker-kill exercise: cold key, death mid-partition ----------
        kill_seed = seed - 1
        _evict_rpart(matrix, procs, kill_seed)
        kill = _soak(sock, sock, matrix, procs, kill_seed, chaos_seed,
                     2, max(requests // 2, 5), inject_kill=True)
        phases["worker-kill"] = {"result": kill.as_dict()}

        # -- invariants across every phase --------------------------------
        for name, rec in phases.items():
            r = rec["result"]
            if r["divergences"]:
                failures.append(
                    f"{name}: {r['divergences']} bitwise divergence(s) — "
                    f"a fault reached a client as wrong data"
                )
            if r["lost_acked"]:
                failures.append(
                    f"{name}: {r['lost_acked']} acknowledged request(s) lost"
                )
            if r["failed"]:
                failures.append(
                    f"{name}: {r['failed']} request(s) exhausted their "
                    f"retry budget"
                )

        for kind in ("torn", "corrupt", "reset", "delay", "drop"):
            if wire_totals.get(kind, 0) < 1:
                failures.append(f"injection class {kind!r} never executed")
        if kill.injected_semantic.get("kill_worker", 0) < 1:
            failures.append("injection class 'kill_worker' never executed")
        combined_sem = phases["combined"]["result"]["injected_semantic"]
        if combined_sem.get("slow_engine", 0) < 1:
            failures.append("injection class 'slow_engine' never executed")

        # -- the server's fault log ---------------------------------------
        with ServeClient(sock, timeout=30.0) as c:
            stats, _ = c.request({"op": "stats"})
        events = stats.get("fault_events", [])
        logged = {
            "worker_deaths": sum(e["kind"] == "worker-death" for e in events),
            "slow_engine_events": sum(e["kind"] == "slow-engine" for e in events),
        }
        if logged["worker_deaths"] < 1:
            failures.append("the server logged no worker-death event")
        if logged["slow_engine_events"] < 1:
            failures.append("the server logged no slow-engine event")

        # -- latency inflation ---------------------------------------------
        inflation = phases["combined"]["result"]["p99_ms"] - baseline.p99_ms
        if inflation > max_p99_inflation_ms:
            failures.append(
                f"combined-phase p99 inflated {inflation:.0f} ms over the "
                f"fault-free baseline (bound {max_p99_inflation_ms:.0f} ms)"
            )
    finally:
        try:
            with ServeClient(sock, timeout=10.0) as c:
                c.request({"op": "shutdown"})
        except OSError:
            pass
        handle.stop()

    payload = {
        "bench": "serve_chaos",
        "smoke": smoke,
        "matrix": matrix,
        "procs": procs,
        "seed": seed,
        "chaos_seed": chaos_seed,
        "concurrency": concurrency,
        "host_cpus": os.cpu_count() or 1,
        "max_p99_inflation_ms": max_p99_inflation_ms,
        "phases": phases,
        "wire_injections": wire_totals,
        "fault_events": logged,
        "p99_inflation_ms": round(inflation, 3),
        "divergences": sum(p["result"]["divergences"] for p in phases.values()),
        "lost_acked": sum(p["result"]["lost_acked"] for p in phases.values()),
        "ok": not failures,
    }
    return failures, payload


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="fewer requests per phase (CI sanity run)")
    ap.add_argument("--concurrency", type=int, default=4,
                    help="concurrent retrying sessions per phase (default: 4)")
    ap.add_argument("--chaos-seed", type=int, default=7,
                    help="seed for schedules and retry jitter (default: 7)")
    ap.add_argument("--max-p99-inflation-ms", type=float, default=4500.0,
                    help="combined-phase p99 minus baseline p99 ceiling "
                         "(default: 4500 — ~2 attempt deadlines + backoff)")
    args = ap.parse_args(argv)

    failures, payload = run(
        args.smoke, args.concurrency, args.chaos_seed, args.max_p99_inflation_ms
    )
    OUT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    for name, rec in payload["phases"].items():
        r = rec["result"]
        print(f"{name:<12} answered {r['answered']}/{r['requests']}, "
              f"retries {r['retries']}, deduped {r['deduped']}, "
              f"p99 {r['p99_ms']:.1f} ms, divergences {r['divergences']}, "
              f"lost_acked {r['lost_acked']}")
    print(f"wire injections: {payload['wire_injections']}")
    print(f"fault events: {payload['fault_events']}")
    print(f"p99 inflation: {payload['p99_inflation_ms']:.1f} ms")
    print(f"wrote {OUT_PATH.relative_to(REPO_ROOT)}")
    if failures:
        print("\nFAILURES:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
