"""The repo's end-to-end benchmark: one command, five workloads.

Two ways in::

    python benchmarks/e2e/run.py [--runs N] [--seed S] [--trace 1] [--smoke]
    python benchmarks/e2e/run.py --workload NAME --seed S --seconds T --trace 0|1

The first form is the full pass: every workload in a fresh subprocess
(``--runs`` seeds each, plus one traced run with ``--trace 1``), every
metric printed by name with its unit, and the shared record written to
``benchmarks/e2e/out/result.json``. The second form is one run of one
workload — what the full pass spawns and what a driver calls directly.
It prints the same table and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}

``--trace 0`` reports every end-to-end metric of ``BENCHMARK.json``,
measured with tracing off; ``--trace 1`` makes the traced run and reports
every per-layer metric, and writes ``out/trace_<workload>.json``.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
DEFAULT_SECONDS = 16.0
SMOKE_SECONDS = 1.5


def one_run(args) -> int:
    """Run one workload in this process; print its table and result line."""
    # one BLAS/OpenMP thread: the engine's own pool is the only parallelism
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(  # for the server child
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))

    import record
    import session

    import_s = time.perf_counter() - _PROCESS_START
    catalog = record.load_catalog()
    table = session.SMOKE if args.smoke else session.WORKLOADS
    if set(table) != set(catalog["workloads"]):
        raise SystemExit("workloads in session.py and BENCHMARK.json disagree")
    spec = table[args.workload]
    traced = args.trace == 1
    tag = f"{args.workload}_s{args.seed}_t{args.trace}"
    workdir = record.OUT / "tmp" / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    sess = session.Session(
        args.workload, spec, args.seed, args.seconds, traced, workdir,
        setup_repeats=1 if args.smoke else session.SETUP_REPEATS,
    )
    try:
        sess.run(import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    group = "per_layer" if traced else "end_to_end"
    wanted = catalog[group]
    missing = sorted(set(wanted) - set(sess.samples))
    if missing:
        raise SystemExit(f"{args.workload}: no samples for {missing}")
    detail, metrics = {}, {}
    for name, info in wanted.items():
        summary = record.summarize(sess.samples[name], info["better"])
        detail[name] = {"unit": info["unit"], "basis": info["basis"], **summary}
        metrics[name] = {"value": summary["quiet"], "unit": info["unit"]}
        print(f"{name:<40} {summary['quiet']:>14.6g} {info['unit']:<8} "
              f"basis={info['basis']:<8} n={summary['n']}")
    checks = sess.checks
    for note in checks.notes:
        print(f"FAILED: {note}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    record.OUT.mkdir(exist_ok=True)
    (record.OUT / f"run_{tag}.json").write_text(json.dumps({
        "schema": record.SCHEMA, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "input": {"matrix": spec.matrix, "method": spec.method, "procs": spec.procs},
        **{k: result[k] for k in ("correct", "attempted", "failed")},
        "failures": checks.notes, "metrics": detail,
    }, indent=1))
    if traced:
        sess.tr.dump(record.OUT / f"trace_{args.workload}.json")
    print(json.dumps(result))
    return 0


def full_pass(args) -> int:
    """Every workload in its own subprocess; merge into ``out/result.json``."""
    import record

    catalog = record.load_catalog()
    plan = [(seed, 0) for seed in range(args.seed, args.seed + args.runs)]
    if args.trace == 1:
        plan.append((args.seed, 1))
    out: dict = {}
    failed_any = False
    for name in catalog["workloads"]:
        runs = []
        for seed, trace in plan:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            took = time.perf_counter() - t0
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                raise SystemExit(f"{name} seed {seed} trace {trace} exited "
                                 f"{proc.returncode}")
            tag = f"{name}_s{seed}_t{trace}"
            run = json.loads((record.OUT / f"run_{tag}.json").read_text())
            run["process_seconds"] = took
            runs.append(run)
            print(f"-- {name} seed {seed} trace {trace}: {took:.1f} s, "
                  f"{run['attempted']} checked, {run['failed']} failed")
            for note in run["failures"]:
                print(f"   FAILED: {note}")
        out[name] = merge_runs(catalog, runs)
        failed_any |= out[name]["failed"] > 0
        print_workload(name, out[name])
    payload = {
        "schema": record.SCHEMA,
        "git_sha": record.git_sha(),
        "host": record.host_fingerprint(),
        "seed": args.seed, "runs": args.runs, "seconds": args.seconds,
        "smoke": args.smoke,
        "workloads": out,
    }
    dest = Path(args.out) if args.out else record.OUT / "result.json"
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_text(json.dumps(payload, indent=1))
    print(f"wrote {os.path.relpath(dest)}")
    return 1 if failed_any else 0


def merge_runs(catalog: dict, runs: list[dict]) -> dict:
    """One workload's record: per metric, the per-run medians summarised."""
    import record

    merged = {
        "input": runs[0]["input"],
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "failures": [n for r in runs for n in r["failures"]],
        "end_to_end": {}, "per_layer": {},
    }
    merged["failed_share"] = merged["failed"] / merged["attempted"]
    for group, trace in (("end_to_end", 0), ("per_layer", 1)):
        mine = [r for r in runs if r["trace"] == trace]
        if not mine:
            continue
        for name, info in catalog[group].items():
            per_run = [r["metrics"][name] for r in mine]
            merged[group][name] = {
                "unit": info["unit"], "basis": info["basis"], "better": info["better"],
                **record.summarize([m["quiet"] for m in per_run]),
                "runs": [
                    {"seed": r["seed"], **{k: m[k] for k in m if k not in ("unit", "basis")}}
                    for r, m in zip(mine, per_run)
                ],
            }
    return merged


def print_workload(name: str, merged: dict) -> None:
    import record

    for group in ("end_to_end", "per_layer"):
        for metric, e in merged[group].items():
            sp = record.spread(e)
            tail = f"spread={sp:.3f}" if sp is not None else ""
            print(f"{name:<13} {metric:<40} {e['median']:>14.6g} {e['unit']:<8} "
                  f"basis={e['basis']:<8} runs={e['n']} {tail}")
    print(f"{name:<13} {'failed_share':<40} {merged['failed_share']:>14.6g} "
          f"{'ratio':<8} basis=count    ({merged['failed']} of {merged['attempted']})")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run this one workload in-process")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help=f"timed budget of one run (default {DEFAULT_SECONDS:g})")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="2k-row inputs; the whole pass stays under 30 s")
    ap.add_argument("--runs", type=int, default=1,
                    help="full pass: seeds per workload (seed, seed+1, ...)")
    ap.add_argument("--out", help="full pass: write the record here")
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS
    if args.workload:
        return one_run(args)
    return full_pass(args)


if __name__ == "__main__":
    sys.exit(main())
