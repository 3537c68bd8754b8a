"""Load-test the matvec server: batching throughput, latency, bit-identity.

Boots a :class:`repro.serve.server.MatvecServer` in-process (own event
loop thread, real unix socket — the same wire every external client
uses), warms one engine per matrix through the ``partition`` op, then
runs three closed-loop load phases per matrix with the generator from
:mod:`repro.serve.loadgen`:

* **serial** — one session, back-to-back requests: the per-request floor
  a one-shot client pays, and the baseline the batching gate divides by;
* **batched** — ``--concurrency`` sessions against the same server, so
  concurrent requests coalesce into ``spmm`` flushes;
* **batch-off** — same concurrency against a second server with
  ``max_batch=1``: isolates how much of the concurrent gain is batching
  versus mere request pipelining, reported as ``batching_gain``.

Every timed request is checked ``np.array_equal`` against a reference
engine built locally from the same partition cache — the server's
batched answers must match the serial answers bit for bit.

One fault exercise follows: a ``partition`` request for a cold key with
``fault: {kill_worker: true}``. The injected death is real
(``os._exit`` in the pool worker); the gate demands the request still
complete, retried on the rebuilt pool rather than degraded to the
in-process path.

Gates (exit 1, ``"ok": false`` in ``BENCH_serve.json``):

* batched throughput >= ``--min-speedup`` x serial (default 2.0) on the
  warm matrix at the default concurrency of 16;
* batched p99 latency <= ``--max-p99-ms`` (host-calibrated ceiling);
* zero bitwise divergences, zero request errors, in every phase;
* the worker-death request completes with ``worker_deaths >= 1``,
  ``partition_source == "pool"`` and not ``degraded``.

Run directly (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_serve_load.py [--smoke]

``--smoke`` serves the smallest corpus matrix with fewer requests for CI
sanity runs; the full run covers two matrices at higher request counts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_serve.json"


def _phase(socket_path, matrix, procs, concurrency, requests, check=True):
    from repro.serve import run_loadgen

    return run_loadgen(
        socket_path,
        matrix,
        procs=procs,
        concurrency=concurrency,
        requests_per_client=requests,
        check=check,
    )


def run(
    smoke: bool, concurrency: int, min_speedup: float, max_p99_ms: float
) -> tuple[list[str], dict]:
    from repro.serve import ServeClient, ServeConfig, start_in_thread

    if smoke:
        matrices = [("hollywood-2009", 16)]
        serial_requests, per_client = 100, 10
    else:
        matrices = [("hollywood-2009", 16), ("com-orkut", 16)]
        serial_requests, per_client = 400, 40

    pid = os.getpid()
    sock = f"/tmp/repro-bench-{pid}.sock"
    sock_off = f"/tmp/repro-bench-{pid}-off.sock"
    failures: list[str] = []
    per_matrix: dict[str, dict] = {}

    handle = start_in_thread(
        ServeConfig(socket_path=sock, allow_fault_injection=True)
    )
    handle_off = start_in_thread(
        ServeConfig(socket_path=sock_off, max_batch=1)
    )
    try:
        for name, procs in matrices:
            # warm: one partition request per server (shared on-disk cache,
            # so the second server pays only an engine compile)
            with ServeClient(sock, timeout=600.0) as c:
                resp, _ = c.request({"op": "partition", "matrix": name, "procs": procs})
                if not resp.get("ok"):
                    failures.append(f"{name}: warm partition failed: {resp.get('error')}")
                    continue
                cold_partition_s = resp.get("partition_seconds", 0.0)
            with ServeClient(sock_off, timeout=600.0) as c:
                c.request({"op": "partition", "matrix": name, "procs": procs})

            serial = _phase(sock, name, procs, 1, serial_requests)
            batched = _phase(sock, name, procs, concurrency, per_client)
            batchoff = _phase(sock_off, name, procs, concurrency, per_client, check=False)

            speedup = batched.throughput_rps / max(serial.throughput_rps, 1e-9)
            batching_gain = batched.throughput_rps / max(batchoff.throughput_rps, 1e-9)
            per_matrix[name] = {
                "procs": procs,
                "cold_partition_seconds": cold_partition_s,
                "serial": serial.as_dict(),
                "batched": batched.as_dict(),
                "batch_off": batchoff.as_dict(),
                "speedup_vs_serial": round(speedup, 3),
                "batching_gain_vs_pipelining": round(batching_gain, 3),
            }
            for phase_name, res in (
                ("serial", serial), ("batched", batched), ("batch-off", batchoff)
            ):
                if res.errors:
                    failures.append(f"{name}/{phase_name}: {res.errors} request error(s)")
                if res.divergences:
                    failures.append(
                        f"{name}/{phase_name}: {res.divergences} bitwise "
                        f"divergence(s) — batched answers differ from serial"
                    )
            if speedup < min_speedup:
                failures.append(
                    f"{name}: batched throughput {batched.throughput_rps:.0f} rps is "
                    f"{speedup:.2f}x serial ({serial.throughput_rps:.0f} rps), below "
                    f"the {min_speedup:.1f}x floor at concurrency {concurrency}"
                )
            if batched.p99_ms > max_p99_ms:
                failures.append(
                    f"{name}: batched p99 {batched.p99_ms:.1f} ms exceeds the "
                    f"{max_p99_ms:.0f} ms ceiling"
                )

        # fault exercise: cold key (unseen seed -> partition-cache miss), one
        # injected worker death; the request must complete off the rebuilt
        # pool
        fault_matrix, fault_procs = matrices[0]
        # the injected death only happens if a partition actually runs, so
        # evict any cached rpart for the fault key (prior runs share the
        # cache directory) to guarantee a cold pool partition
        from repro.bench.harness import rpart_cache_path
        from repro.generators.corpus import CORPUS, load_corpus_matrix
        from repro.runtime.store import EngineKey, EngineStore, matrix_hash

        fault_kind = CORPUS[fault_matrix].partitioner
        fault_hash = matrix_hash(load_corpus_matrix(fault_matrix))
        rpart_cache_path(fault_hash, fault_kind, fault_procs, 9999).unlink(
            missing_ok=True
        )
        # ... and the engine artifact for the same key: a store hit would
        # skip the partition entirely and the injection would never fire
        fault_method = f"2d-{fault_kind}"
        EngineStore().evict(EngineKey(fault_hash, fault_method, fault_procs, 9999))
        t0 = time.perf_counter()
        with ServeClient(sock, timeout=600.0) as c:
            resp, _ = c.request({
                "op": "partition", "matrix": fault_matrix, "procs": fault_procs,
                "seed": 9999, "fault": {"kill_worker": True},
            })
        fault = {
            "matrix": fault_matrix,
            "procs": fault_procs,
            "ok": bool(resp.get("ok")),
            "wall_seconds": round(time.perf_counter() - t0, 3),
            "worker_deaths": resp.get("worker_deaths", 0),
            "degraded": resp.get("degraded"),
            "partition_source": resp.get("partition_source"),
        }
        if not fault["ok"]:
            failures.append(f"fault exercise: request failed: {resp.get('error')}")
        elif fault["worker_deaths"] < 1:
            failures.append("fault exercise: no worker death was observed")
        elif fault["partition_source"] != "pool" or fault["degraded"]:
            failures.append(
                "fault exercise: the killed partition was not retried on the "
                f"pool (source {fault['partition_source']!r}, "
                f"degraded {fault['degraded']})"
            )
    finally:
        try:
            with ServeClient(sock, timeout=10.0) as c:
                c.request({"op": "shutdown"})
        except OSError:
            pass
        try:
            with ServeClient(sock_off, timeout=10.0) as c:
                c.request({"op": "shutdown"})
        except OSError:
            pass
        handle.stop()
        handle_off.stop()

    payload = {
        "bench": "serve_load",
        "smoke": smoke,
        "concurrency": concurrency,
        "host_cpus": os.cpu_count() or 1,
        "min_speedup": min_speedup,
        "max_p99_ms": max_p99_ms,
        "matrices": per_matrix,
        "fault": fault,
        "ok": not failures,
    }
    return failures, payload


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="smallest matrix, fewer requests (CI sanity run)")
    ap.add_argument("--concurrency", type=int, default=16,
                    help="concurrent sessions in the batched phases (default: 16)")
    ap.add_argument("--min-speedup", type=float, default=2.0,
                    help="batched-over-serial throughput floor (default: 2.0)")
    ap.add_argument("--max-p99-ms", type=float, default=None,
                    help="batched p99 latency ceiling in ms "
                         "(default: 150 smoke / 50 full)")
    args = ap.parse_args(argv)
    max_p99 = args.max_p99_ms if args.max_p99_ms is not None else (
        150.0 if args.smoke else 50.0
    )

    failures, payload = run(args.smoke, args.concurrency, args.min_speedup, max_p99)
    OUT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    for name, rec in payload["matrices"].items():
        print(f"{name} (p={rec['procs']}):")
        print(f"  serial       {rec['serial']['throughput_rps']:.0f} rps, "
              f"p99 {rec['serial']['p99_ms']:.2f} ms")
        print(f"  batched      {rec['batched']['throughput_rps']:.0f} rps, "
              f"p99 {rec['batched']['p99_ms']:.2f} ms, "
              f"mean batch {rec['batched']['mean_batch_size']:.1f}")
        print(f"  batch-off    {rec['batch_off']['throughput_rps']:.0f} rps")
        print(f"  speedup      {rec['speedup_vs_serial']:.2f}x serial "
              f"(batching gain {rec['batching_gain_vs_pipelining']:.2f}x)")
        print(f"  divergences  {rec['batched']['divergences']} + "
              f"{rec['serial']['divergences']}")
    fault = payload["fault"]
    print(f"fault: deaths={fault['worker_deaths']} source={fault['partition_source']} "
          f"degraded={fault['degraded']}")
    print(f"wrote {OUT_PATH.relative_to(REPO_ROOT)}")
    if failures:
        print("\nFAILURES:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
