"""Process-pool execution layer: worker pools and sweep fan-out.

The paper treats partitioning as a reusable pre-processing step; PR 1
made the modeled machine fast, which left host wall-clock dominated by
the *partitioner* and by cell sweeps that run strictly serially. This
module supplies the pools that parallelise both without changing a
single output bit:

recursive bisection over a pool
    After a bisection, the two induced subgraphs are independent — the
    classic parallel-RB observation of multilevel partitioners (METIS,
    Zoltan PHG). There is one RB tree walker,
    :func:`repro.partitioning._util.walk_rb`; handed an executor
    (``partition_matrix(..., jobs=N)`` / ``executor=pool``) it ships every
    tree node as one picklable task
    (:func:`repro.partitioning.kway._split` / ``hkway._split``) and
    submits children as soon as their parent lands. Seeds and part ids
    are pure functions of tree position, so completion order cannot
    influence the result. This module only creates the pool
    (:func:`_worker_pool`).

sweep fan-out
    :func:`parallel_map` fans independent cells (one corpus matrix's
    grid column, one regression golden) across workers.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    TimeoutError as FutureTimeoutError,
)
from contextlib import contextmanager
from threading import Lock

__all__ = [
    "resolve_jobs",
    "parallel_map",
    "ResilientPool",
    "PoolTaskFailed",
]


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``--jobs`` value: None/1 -> serial, 0 or negative -> all cores."""
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs <= 0:
        return max(os.cpu_count() or 1, 1)
    return jobs


#: BLAS/OpenMP thread-count knobs a worker process must pin to 1.
_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


#: Thread-count setters an OpenBLAS build may export: the reference name
#: and the prefixed / 64-bit-integer builds numpy and scipy wheels ship.
_OPENBLAS_SETTERS = tuple(
    f"{prefix}_set_num_threads{suffix}"
    for prefix in ("openblas", "scipy_openblas")
    for suffix in ("", "64_")
)


def _pin_loaded_openblas() -> None:
    """Set every OpenBLAS mapped into this process to one thread.

    Finds the libraries through ``/proc/self/maps`` and calls each one's
    own setter through ``ctypes``; a no-op where there is no such file.
    """
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps}
    except OSError:
        return
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        names = [name for name in _OPENBLAS_SETTERS if hasattr(lib, name)]
        if names:
            setter = getattr(lib, names[0])
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setter(1)


def _pin_worker_threads() -> None:
    """Process-pool worker initializer: one BLAS/OpenMP thread per worker.

    Process- and thread-parallelism must never nest — J workers each
    spinning T BLAS threads oversubscribes the machine J*T-fold and
    makes every latency measurement a lie. Every pool this module (and
    :class:`ResilientPool`) creates runs this in each worker. A worker
    has usually loaded numpy (and with it OpenBLAS) before its
    initializer runs — inherited under ``fork``, imported while
    unpickling this function under ``spawn`` and ``forkserver`` — and an
    OpenBLAS reads the environment only when it loads, so each loaded one
    is also set through its own setter. The environment pins cover the
    libraries loaded later. Results are unaffected either way; this is
    purely a scheduling guard.
    """
    for var in _THREAD_ENV_VARS:
        os.environ[var] = "1"
    _pin_loaded_openblas()


@contextmanager
def _worker_pool(jobs: int | None, executor: Executor | None = None):
    """Yield the executor pool tasks should run on, or None for "inline".

    The one place a ``jobs=N`` process pool is created: *executor* if the
    caller brought one (left open), else a fresh pinned pool for
    ``jobs`` > 1 (shut down on exit), else None.
    """
    njobs = resolve_jobs(jobs)
    if executor is not None or njobs <= 1:
        yield executor
        return
    with ProcessPoolExecutor(
        max_workers=njobs, initializer=_pin_worker_threads
    ) as pool:
        yield pool


def parallel_map(fn, items, jobs: int | None = None, executor: Executor | None = None):
    """Order-preserving map over a process pool.

    Falls back to a plain serial loop when the pool would not help
    (fewer than two items or jobs), so callers can pass ``--jobs``
    straight through. *fn* and every item must be picklable.
    """
    items = list(items)
    njobs = max(1, min(resolve_jobs(jobs), len(items)))
    with _worker_pool(njobs, executor) as pool:
        if pool is None:
            return [fn(item) for item in items]
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# resilient one-shot pool (serve cold path)
# ---------------------------------------------------------------------------


class PoolTaskFailed(RuntimeError):
    """A :meth:`ResilientPool.run` task exhausted its retry budget.

    ``attempts`` is the number of attempts made; ``causes`` the short
    description of each attempt's failure, in order — so a server can put
    an honest story in its degraded-path response.
    """

    def __init__(self, message: str, attempts: int, causes: list[str]):
        super().__init__(message)
        self.attempts = attempts
        self.causes = causes


def _pool_start_method() -> str:
    """Start method for :class:`ResilientPool` workers.

    ``fork`` is out: the pool is created from a threaded process (the
    serve event loop), and forking a threaded process can deadlock on
    locks the forked copy will never see released. ``forkserver`` forks
    workers from a clean single-threaded helper; ``spawn`` is the
    fallback where it does not exist. Both re-import the parent's
    ``__main__`` for pickling fidelity, which breaks when the pool is
    created in a process whose main module is not a real file (``python
    -c``, stdin, a REPL) — for that case, drop the bogus ``__file__`` so
    the children skip the re-import; task functions live in importable
    modules, and ``sys.path`` still propagates.
    """
    main = sys.modules.get("__main__")
    main_file = getattr(main, "__file__", None)
    if (
        main is not None
        and getattr(main, "__spec__", None) is None
        and main_file is not None
        and not os.path.exists(main_file)
    ):
        del main.__file__
    methods = multiprocessing.get_all_start_methods()
    return "forkserver" if "forkserver" in methods else "spawn"


class ResilientPool:
    """Process pool for one-shot tasks that survives worker death.

    ``ProcessPoolExecutor`` has all-or-nothing failure semantics: one
    worker dying (OOM kill, segfault, fault injection) breaks the whole
    executor and every pending future. A long-lived server cannot accept
    that, so this wrapper rebuilds the pool and retries the task, a
    bounded number of times, and enforces a per-task timeout by the only
    means an abandoned process task allows — discarding the pool. Each
    broken-pool incident is counted in :attr:`deaths`, which the server
    reports in its ``stats``.

    The task callable receives the attempt index as its final positional
    argument; deterministic tasks ignore it, fault-injection tasks use it
    to die only on attempt 0 (which is what makes "a killed worker is
    retried and completes" testable).
    """

    def __init__(self, max_workers: int = 1, max_retries: int = 2):
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self._max_workers = max_workers
        self._max_retries = max_retries
        self._pool: ProcessPoolExecutor | None = None
        self._lock = Lock()
        #: broken-pool incidents observed (worker death, abandoned timeout)
        self.deaths = 0
        self.retries = 0

    def _checkout(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self._max_workers,
                    mp_context=multiprocessing.get_context(_pool_start_method()),
                    initializer=_pin_worker_threads,
                )
            return self._pool

    def _discard(self, pool: ProcessPoolExecutor) -> None:
        """Drop *pool* (broken or hosting an abandoned task) for rebuild."""
        with self._lock:
            if self._pool is pool:
                self._pool = None
            self.deaths += 1
        pool.shutdown(wait=False, cancel_futures=True)

    def run(self, fn, *args, timeout: float | None = None, retries: int | None = None):
        """Run ``fn(*args, attempt)`` in a worker; retry on death/timeout.

        Raises :class:`PoolTaskFailed` once the budget (``retries`` + 1
        attempts, default from the constructor) is spent. Exceptions the
        task itself raises are *not* retried — they are deterministic and
        would fail identically again — only infrastructure failures are.
        """
        attempts = (self._max_retries if retries is None else int(retries)) + 1
        causes: list[str] = []
        for attempt in range(attempts):
            pool = self._checkout()
            try:
                return pool.submit(fn, *args, attempt).result(timeout=timeout)
            except BrokenExecutor:
                causes.append(f"attempt {attempt}: worker died")
                self._discard(pool)
            except FutureTimeoutError:
                causes.append(f"attempt {attempt}: timed out after {timeout}s")
                self._discard(pool)
            if attempt + 1 < attempts:
                self.retries += 1
        raise PoolTaskFailed(
            f"task failed after {attempts} attempt(s): {'; '.join(causes)}",
            attempts,
            causes,
        )

    def shutdown(self) -> None:
        """Release the worker processes (idempotent)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
