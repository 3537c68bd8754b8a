"""Command-line interface: ``python -m repro <command>``.

Commands mirror the production workflow the paper describes — partition
once on a workstation, reuse for many analyses:

``corpus``
    List the built-in proxy matrices and their Table-1 statistics.
``stats MATRIX``
    Structural statistics of a matrix (corpus name or MatrixMarket path).
``partition MATRIX -k K [--method gp|hp|gp-mc] [-o OUT.npy]``
    Run the partitioner; prints cut/imbalance, optionally saves rpart.
``spmv MATRIX -p P [--methods ...]``
    Compare data layouts for SpMV on the simulated machine (a Table-2 row).
``eigen MATRIX -p P [--methods ...] [-k K]``
    Compare layouts for the normalized-Laplacian eigensolve (a Table-4 row).
``regress {generate,check,diff}``
    Golden-invariant regression harness: snapshot the plan-level metrics
    of the layout x matrix x p grid, or check the working tree against
    the snapshots in ``tests/golden/`` (see :mod:`repro.regress`).
``serve --socket PATH [--preload MATRIX...]``
    Long-lived matvec server on a unix socket: compiled engines stay
    resident behind an LRU, concurrent matvecs coalesce into batched
    ``spmm`` calls, cold partitions run on a resilient worker pool (see
    :mod:`repro.serve`). ``--preload`` builds or loads engines before the
    server accepts load; a ``partition`` request does the same at run
    time and reports the tier its engine came from.
``cache {list,evict,clear}``
    Inspect or drop compiled-engine artifacts in the persistent store
    (see :mod:`repro.runtime.store`).
``serve chaos [--seed S]``
    Self-contained chaos demo: boots a fault-injectable server plus a
    seeded :class:`~repro.serve.chaos.ChaosProxy` (torn frames,
    corruption, resets, delays, drops) and soaks it with retrying
    clients, asserting every acknowledged answer is bit-identical to a
    local reference engine (see DESIGN.md §13).
``loadgen MATRIX --socket PATH [--deadline S] [--chaos]``
    Closed-loop load generator against a running server; reports
    throughput, latency percentiles, bitwise divergences and deadline
    expiries. ``--chaos`` interposes a seeded chaos proxy and drives
    the load through retrying clients instead.

Every subcommand that uses randomness (partitioning, solver start
vectors, chaos schedules) takes the same ``--seed`` flag; one seed makes
the whole pipeline — partitions, start vectors, modeled seconds —
bit-reproducible.

Heavy subcommands additionally share a ``--jobs N`` flag that fans
independent work (RB subtrees, sweep cells) across a process pool
(:mod:`repro.parallel`). Output is bit-identical to a serial run at any
job count — parallelism is an execution detail, never a result
parameter.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

__all__ = ["main"]


def _load(matrix: str):
    from .generators.corpus import CORPUS
    from .io import load_matrix

    try:
        return load_matrix(matrix)[1]
    except FileNotFoundError:
        raise SystemExit(
            f"error: {matrix!r} is neither a corpus name nor a file "
            f"(corpus: {', '.join(CORPUS)})"
        ) from None


def _cmd_corpus(_args) -> int:
    from .bench.reporting import format_table
    from .generators.corpus import CORPUS, load_corpus_matrix
    from .graphs import graph_stats

    rows = []
    for name, spec in CORPUS.items():
        s = graph_stats(load_corpus_matrix(name), name)
        rows.append((name, spec.partitioner, s.n_rows, s.n_nonzeros,
                     s.max_nnz_per_row, spec.description))
    print(format_table(["name", "part", "rows", "nnz", "max/row", "description"], rows))
    return 0


def _cmd_stats(args) -> int:
    from .graphs import graph_stats

    A = _load(args.matrix)
    s = graph_stats(A, args.matrix)
    print(f"rows           {s.n_rows}")
    print(f"nonzeros       {s.n_nonzeros}")
    print(f"max nnz/row    {s.max_nnz_per_row}")
    print(f"mean nnz/row   {s.mean_nnz_per_row:.2f}")
    print(f"power-law MLE  {s.powerlaw_gamma:.2f}")
    print(f"skew (max/avg) {s.skew:.1f}")
    return 0


def _cmd_partition(args) -> int:
    from . import perf
    from .partitioning import partition_matrix

    A = _load(args.matrix)
    if args.profile:
        with perf.profile() as prof:
            res = partition_matrix(
                A, args.nparts, method=args.method, seed=args.seed, jobs=args.jobs
            )
    else:
        prof = None
        res = partition_matrix(
            A, args.nparts, method=args.method, seed=args.seed, jobs=args.jobs
        )
    print(f"method     {res.method}")
    print(f"parts      {res.nparts}")
    print(f"cut        {res.edgecut:.0f}")
    print(f"imbalance  {', '.join(f'{x:.3f}' for x in res.imbalance)}")
    if prof is not None:
        print()
        print(prof.report())
    if args.output:
        np.save(args.output, res.part)
        print(f"saved rpart to {args.output}")
    return 0


def _cmd_spmv(args) -> int:
    from .bench.harness import _spmv_cell_task, default_cache_dir
    from .bench.reporting import format_table
    from .parallel import parallel_map

    A = _load(args.matrix)
    cache_dir = default_cache_dir()
    tasks = [
        (A, args.matrix, method, args.procs, args.seed, cache_dir)
        for method in args.methods
    ]
    rows = []
    for rec in parallel_map(_spmv_cell_task, tasks, jobs=args.jobs):
        rows.append((rec.method, f"{rec.stats.nnz_imbalance:.2f}",
                     rec.stats.max_messages, rec.stats.total_comm_volume,
                     f"{rec.time100:.4f}"))
    print(format_table(["layout", "imbal(nz)", "max msgs", "total CV", "t(100 SpMV)"], rows))
    return 0


def _cmd_eigen(args) -> int:
    from .bench.reporting import format_table
    from .bench.harness import layout_for
    from .graphs import normalized_laplacian
    from .runtime import CAB, DistSparseMatrix
    from .solvers import modeled_solve_seconds, solve_profile

    A = _load(args.matrix)
    Lhat = normalized_laplacian(A)
    prof = solve_profile(Lhat, k=args.k, tol=args.tol, seed=args.seed)
    rows = []
    for method in args.methods:
        layout = layout_for(A, method, args.procs, seed=args.seed)
        dist = DistSparseMatrix(Lhat, layout, CAB)
        total, spmv = modeled_solve_seconds(prof, dist)
        rows.append((layout.name, prof.matvecs, f"{spmv:.4f}", f"{total:.4f}",
                     f"{dist.vector_map.imbalance():.2f}"))
    print(format_table(["layout", "matvecs", "SpMV t", "solve t", "vec imbal"], rows))
    if not prof.converged:
        print("warning: eigensolve did not converge at the requested tolerance")
    return 0


def _regress_spec(args):
    from .generators.corpus import CORPUS
    from .regress import DEFAULT_SPEC, GridSpec

    if args.matrices is None and args.procs is None and args.seed == 0:
        return DEFAULT_SPEC
    matrices = tuple(args.matrices) if args.matrices else DEFAULT_SPEC.matrices
    for name in matrices:
        if name not in CORPUS:
            raise SystemExit(
                f"error: {name!r} is not a corpus matrix (corpus: {', '.join(CORPUS)})"
            )
    procs = tuple(args.procs) if args.procs else DEFAULT_SPEC.procs
    return GridSpec(matrices=matrices, procs=procs, seed=args.seed)


def _cmd_regress(args) -> int:
    from .regress import (
        check_goldens,
        diff_golden_dirs,
        format_mismatches,
        generate_goldens,
    )

    if args.action == "diff":
        mismatches = diff_golden_dirs(args.dir_a, args.dir_b)
        print(format_mismatches(mismatches))
        return 1 if mismatches else 0

    spec = _regress_spec(args)
    golden_dir = Path(args.golden_dir)
    cache_dir = Path(args.cache_dir) if args.cache_dir else None
    if args.action == "generate":
        paths = generate_goldens(
            spec, golden_dir, cache_dir=cache_dir, progress=print, jobs=args.jobs
        )
        print(f"wrote {len(paths)} golden file(s) under {golden_dir}")
        return 0

    # distinguish "no snapshots at all" (exit 3, before the expensive
    # recompute) from "snapshots disagree" (exit 1)
    from .regress import golden_path

    if not any(golden_path(golden_dir, m).exists() for m in spec.matrices):
        print(
            f"regress check: no golden snapshots under {golden_dir} — "
            f"run `python -m repro regress generate` first"
        )
        return 3

    mismatches, ncells = check_goldens(
        spec, golden_dir, cache_dir=cache_dir, rtol=args.rtol, progress=print,
        jobs=args.jobs,
    )
    if not mismatches:
        print(
            f"regress check OK: {ncells} cells across {len(spec.matrices)} "
            f"matrices match {golden_dir}"
        )
        return 0
    report = format_mismatches(mismatches)
    print(f"regress check FAILED: {len(mismatches)} mismatch(es) in {ncells} cells")
    print(report)
    if args.report:
        Path(args.report).write_text(report + "\n")
        print(f"diff report written to {args.report}")
    return 1


def _cmd_serve(args) -> int:
    import asyncio

    from .parallel import resolve_jobs
    from .serve import MatvecServer, ServeConfig

    if args.mode == "chaos":
        return _cmd_serve_chaos(args)
    if not args.socket:
        print("error: --socket is required (except in 'serve chaos' mode)",
              file=sys.stderr)
        return 2
    config = ServeConfig(
        socket_path=args.socket,
        max_batch=args.max_batch,
        batch_deadline_ms=args.deadline_ms,
        max_engines=args.max_engines,
        max_resident_bytes=(
            int(args.max_resident_mb * 1024 * 1024) if args.max_resident_mb else None
        ),
        partition_timeout_s=args.partition_timeout,
        partition_retries=args.partition_retries,
        pool_workers=resolve_jobs(args.jobs),
        cache_dir=args.cache_dir,
        allow_fault_injection=args.allow_fault_injection,
        preload=tuple(args.preload or ()),
        default_seed=args.seed,
        engine_store_dir=args.engine_store_dir,
        use_engine_store=not args.no_engine_store,
    )
    server = MatvecServer(config)

    def on_started(srv: MatvecServer) -> None:
        print(f"serving on {config.socket_path}")
        for ref in config.preload:
            print(f"preloaded {ref}")

    try:
        asyncio.run(server.serve(on_started=on_started))
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_cache(args) -> int:
    """Inspect/evict compiled-engine artifacts (``repro cache ...``)."""
    from .bench.reporting import format_table
    from .runtime.store import EngineStore

    store = EngineStore(args.store) if args.store else EngineStore()
    if args.action == "list":
        entries = store.entries()
        if not entries:
            print(f"engine store {store.root}: empty")
            return 0
        rows = [
            (e.get("key") or e["file"], e.get("matrix") or "-",
             e.get("n") or "-", e["status"], e["bytes"])
            for e in entries
        ]
        print(format_table(["key", "matrix", "n", "status", "bytes"], rows))
        total = sum(e["bytes"] for e in entries)
        print(f"{len(entries)} artifact(s), {total} bytes under {store.root}")
        return 0
    if args.action == "evict":
        missing = 0
        for key in args.keys:
            if store.evict(key):
                print(f"evicted {key}")
            else:
                print(f"no artifact for {key}", file=sys.stderr)
                missing += 1
        return 1 if missing else 0
    # clear
    removed = store.clear()
    print(f"removed {removed} artifact(s) from {store.root}")
    return 0


def _default_chaos_schedule(seed: int):
    """The stock schedule CLI chaos runs use: every wire class active."""
    from .serve import ChaosSchedule

    return ChaosSchedule(
        seed=seed, p_torn=0.03, p_corrupt=0.05, p_reset=0.03,
        p_delay=0.08, p_drop=0.03, delay_ms=3.0,
    )


def _print_chaos_result(result) -> int:
    """Print a chaos soak summary; nonzero on a violated invariant."""
    d = result.as_dict()
    width = max(len(k) for k in d)
    for k, v in d.items():
        print(f"{k:<{width}}  {v}")
    if result.divergences or result.lost_acked:
        print("FAILED: a fault was returned to a client as wrong data")
        return 1
    if result.failed:
        print("FAILED: request(s) exhausted their retry budget")
        return 1
    print("OK: every acknowledged answer bit-identical under chaos")
    return 0


def _run_chaos_soak_against(
    server_socket: str,
    matrix: str,
    *,
    chaos_seed: int,
    procs: int,
    seed: int,
    method: str = "2d-gp",
    concurrency: int = 4,
    requests_per_client: int = 25,
) -> int:
    """Interpose a chaos proxy on *server_socket* and soak through it."""
    import os

    from .serve import start_chaos_proxy
    from .serve.loadgen import run_chaos_soak

    listen = server_socket + ".chaos"
    proxy = start_chaos_proxy(
        server_socket, listen, _default_chaos_schedule(chaos_seed)
    )
    try:
        result = run_chaos_soak(
            listen,
            matrix,
            method=method,
            procs=procs,
            seed=seed,
            warm_socket_path=server_socket,
            chaos_seed=chaos_seed,
            concurrency=concurrency,
            requests_per_client=requests_per_client,
            attempt_deadline_s=2.0,
            inject_kill=True,
            p_slow=0.05,
        )
        result.injected_wire = proxy.proxy.executed_counts()
    finally:
        proxy.stop()
        if os.path.exists(listen):  # pragma: no cover - defensive cleanup
            os.unlink(listen)
    return _print_chaos_result(result)


def _cmd_serve_chaos(args) -> int:
    """Self-contained chaos demo: server + proxy + seeded soak, one command.

    Boots a fault-injectable server on a private socket (a generated
    scale-10 RMAT graph unless ``--preload`` names a matrix), interposes
    the chaos proxy, runs the soak and reports the invariant verdict.
    """
    import os
    import tempfile

    from .serve import ServeConfig, start_in_thread

    # the generated matrix, socket and caches go with the directory
    with tempfile.TemporaryDirectory(prefix="repro-chaos-", dir="/tmp") as tmp:
        matrix = args.preload[0] if args.preload else None
        if matrix is None:
            from .generators import rmat
            from .io import write_matrix_market

            A = rmat(scale=10, edge_factor=8, seed=args.seed)
            matrix = os.path.join(tmp, "rmat10.mtx")
            write_matrix_market(matrix, A)
            print(f"generated {matrix} (rmat scale 10, seed {args.seed})")
        config = ServeConfig(
            socket_path=args.socket or os.path.join(tmp, "serve.sock"),
            max_batch=args.max_batch,
            batch_deadline_ms=args.deadline_ms,
            cache_dir=args.cache_dir or os.path.join(tmp, "cache"),
            allow_fault_injection=True,
        )
        handle = start_in_thread(config)
        print(f"chaos target on {config.socket_path} (seed {args.seed})")
        try:
            return _run_chaos_soak_against(
                config.socket_path,
                matrix,
                chaos_seed=args.seed,
                procs=4,
                seed=0,
            )
        finally:
            handle.stop()


def _cmd_loadgen(args) -> int:
    from .serve import run_loadgen

    if args.chaos:
        return _run_chaos_soak_against(
            args.socket,
            args.matrix,
            chaos_seed=args.chaos_seed,
            procs=args.procs,
            seed=args.seed,
            method=args.method,
            concurrency=args.concurrency,
            requests_per_client=args.requests,
        )
    result = run_loadgen(
        args.socket,
        args.matrix,
        method=args.method,
        procs=args.procs,
        seed=args.seed,
        concurrency=args.concurrency,
        requests_per_client=args.requests,
        check=not args.no_check,
        encoding=args.encoding,
        deadline=args.deadline,
    )
    d = result.as_dict()
    width = max(len(k) for k in d if k != "batch_sizes")
    for k, v in d.items():
        if k != "batch_sizes":
            print(f"{k:<{width}}  {v}")
    if result.batch_sizes:
        sizes = ", ".join(f"{k}x{v}" for k, v in sorted(result.batch_sizes.items()))
        print(f"{'batch_sizes':<{width}}  {sizes}")
    if result.errors or result.divergences:
        print("FAILED: errors or bitwise divergences observed")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .partitioning import PARTITION_METHODS

    parser = argparse.ArgumentParser(
        prog="repro", description="2D Cartesian graph partitioning toolkit (SC13 reproduction)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # one --seed, shared verbatim by every randomness-using subcommand:
    # a single value reproduces the whole pipeline bit-for-bit
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument(
        "--seed", type=int, default=0,
        help="RNG seed for partitioning, start vectors and fault schedules "
             "(default: 0; one seed makes the run bit-reproducible)",
    )

    # one --jobs, shared by every heavy subcommand: results are
    # bit-identical at any value, so it is safe to tune per machine
    jobbed = argparse.ArgumentParser(add_help=False)
    jobbed.add_argument(
        "--jobs", type=int, default=None,
        help="process-pool workers for independent work (default: serial; "
             "0 = all cores; output is identical at any job count)",
    )

    sub.add_parser("corpus", help="list the proxy corpus").set_defaults(fn=_cmd_corpus)

    p = sub.add_parser("stats", help="matrix structural statistics")
    p.add_argument("matrix")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("partition", help="run the graph/hypergraph partitioner",
                       parents=[seeded, jobbed])
    p.add_argument("matrix")
    p.add_argument("-k", "--nparts", type=int, required=True)
    p.add_argument("--method", choices=PARTITION_METHODS, default="gp")
    p.add_argument("-o", "--output", help="save the part vector as .npy")
    p.add_argument("--profile", action="store_true",
                   help="print a phase-time breakdown (coarsen/initial/refine/project, "
                        "with per-level match/contract under coarsen)")
    p.set_defaults(fn=_cmd_partition)

    default_methods = ["1d-block", "1d-random", "1d-gp", "2d-block", "2d-random", "2d-gp"]
    p = sub.add_parser("spmv", help="compare SpMV data layouts",
                       parents=[seeded, jobbed])
    p.add_argument("matrix")
    p.add_argument("-p", "--procs", type=int, default=64)
    p.add_argument("--methods", nargs="+", default=default_methods)
    p.set_defaults(fn=_cmd_spmv)

    p = sub.add_parser("eigen", help="compare layouts for the eigensolver",
                       parents=[seeded])
    p.add_argument("matrix")
    p.add_argument("-p", "--procs", type=int, default=64)
    p.add_argument("-k", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--methods", nargs="+",
                   default=["1d-block", "2d-block", "2d-gp", "2d-gp-mc"])
    p.set_defaults(fn=_cmd_eigen)

    p = sub.add_parser(
        "regress", help="golden-invariant regression harness (see tests/golden/)"
    )
    rsub = p.add_subparsers(dest="action", required=True)
    common = argparse.ArgumentParser(add_help=False, parents=[seeded, jobbed])
    common.add_argument("--golden-dir", default="tests/golden",
                        help="golden tree location (default: tests/golden)")
    common.add_argument("--matrices", nargs="+",
                        help="corpus subset (default: all ten)")
    common.add_argument("--procs", nargs="+", type=int,
                        help="process counts (default: 4 16 64)")
    common.add_argument("--cache-dir",
                        help="partition cache (default: $REPRO_CACHE_DIR)")
    g = rsub.add_parser("generate", parents=[common],
                        help="recompute the grid and (over)write goldens")
    g.set_defaults(fn=_cmd_regress)
    c = rsub.add_parser("check", parents=[common],
                        help="recompute the grid and compare against goldens")
    c.add_argument("--rtol", type=float, default=1e-9,
                   help="relative tolerance for modeled-seconds metrics")
    c.add_argument("--report", help="also write the mismatch table to this file")
    c.set_defaults(fn=_cmd_regress)
    d = rsub.add_parser("diff", help="compare two golden trees file-by-file")
    d.add_argument("dir_a")
    d.add_argument("dir_b")
    d.set_defaults(fn=_cmd_regress)

    p = sub.add_parser(
        "serve", help="long-lived batched matvec server (see DESIGN.md §12)",
        parents=[seeded, jobbed],
    )
    p.add_argument("mode", nargs="?", choices=("chaos",),
                   help="'chaos': self-contained seeded chaos demo — boots a "
                        "server + ChaosProxy and soaks it with retrying "
                        "clients (see DESIGN.md §13)")
    p.add_argument("--socket", help="unix socket path to listen on "
                                    "(required except in chaos mode)")
    p.add_argument("--max-batch", type=int, default=16,
                   help="matvecs coalesced per spmm flush (default: 16)")
    p.add_argument("--deadline-ms", type=float, default=2.0,
                   help="max wait for a batch to fill before flushing "
                        "(default: 2.0)")
    p.add_argument("--max-engines", type=int, default=8,
                   help="resident compiled engines before LRU eviction")
    p.add_argument("--max-resident-mb", type=float, default=None,
                   help="optional byte budget for resident engines")
    p.add_argument("--partition-timeout", type=float, default=300.0,
                   help="per-request timeout for a cold pool partition (s)")
    p.add_argument("--partition-retries", type=int, default=2,
                   help="retries after a worker death or timeout (default: 2)")
    p.add_argument("--cache-dir", help="partition cache (default: $REPRO_CACHE_DIR)")
    p.add_argument("--preload", nargs="+", metavar="MATRIX",
                   help="matrices to partition and compile before accepting load")
    p.add_argument("--allow-fault-injection", action="store_true",
                   help="honor fault:{kill_worker, slow_ms} requests "
                        "(for tests and benches only)")
    p.add_argument("--engine-store-dir", default=None, metavar="DIR",
                   help="compiled-engine artifact store directory "
                        "(default: engines/ under the partition cache)")
    p.add_argument("--no-engine-store", action="store_true",
                   help="disable the on-disk engine store (every cold start "
                        "rebuilds from the partition)")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "cache", help="inspect/evict compiled-engine artifacts "
                      "(see DESIGN.md §14)"
    )
    csub = p.add_subparsers(dest="action", required=True)
    ccommon = argparse.ArgumentParser(add_help=False)
    ccommon.add_argument("--store", default=None, metavar="DIR",
                         help="store directory (default: "
                              "$REPRO_ENGINE_STORE_DIR, else engines/ under "
                              "the partition cache)")
    c = csub.add_parser("list", parents=[ccommon],
                        help="list artifacts with status (ok/stale/corrupt)")
    c.set_defaults(fn=_cmd_cache)
    c = csub.add_parser("evict", parents=[ccommon],
                        help="drop artifacts by key "
                             "(e.g. 69caba9d744c_2d-gp_k8_s0)")
    c.add_argument("keys", nargs="+", help="engine keys to drop")
    c.set_defaults(fn=_cmd_cache)
    c = csub.add_parser("clear", parents=[ccommon],
                        help="drop every artifact in the store")
    c.set_defaults(fn=_cmd_cache)

    p = sub.add_parser(
        "loadgen", help="closed-loop load generator against a running server",
        parents=[seeded],
    )
    p.add_argument("matrix")
    p.add_argument("--socket", required=True, help="server unix socket path")
    p.add_argument("--method", default="2d-gp")
    p.add_argument("-p", "--procs", type=int, default=16)
    p.add_argument("-c", "--concurrency", type=int, default=16,
                   help="concurrent closed-loop sessions (default: 16)")
    p.add_argument("-n", "--requests", type=int, default=50,
                   help="timed requests per session (default: 50)")
    p.add_argument("--no-check", action="store_true",
                   help="skip the bitwise divergence check against a local "
                        "reference engine")
    p.add_argument("--encoding", choices=("bin", "b64", "list"), default="bin",
                   help="vector wire encoding (default: bin)")
    p.add_argument("--deadline", type=float, default=None,
                   help="per-request deadline in seconds; expiries are "
                        "reported as a distinct 'timeouts' outcome class")
    p.add_argument("--chaos", action="store_true",
                   help="interpose a seeded chaos proxy and drive load "
                        "through retrying clients (server must run with "
                        "--allow-fault-injection)")
    p.add_argument("--chaos-seed", type=int, default=7,
                   help="seed for the chaos schedule and retry jitter "
                        "(default: 7)")
    p.set_defaults(fn=_cmd_loadgen)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
