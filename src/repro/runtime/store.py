"""Persistent compiled-engine artifact store with zero-copy loads.

The paper's central economy is amortization: pay an expensive setup
phase once, then run many cheap SpMVs. The partition cache
(:func:`repro.bench.harness.cached_rpart`) already amortizes the
partitioner across processes, but every *new process* still re-ran the
rest of the cold path — :class:`~repro.runtime.distmatrix.DistSparseMatrix`
construction, ``CommPlan.build``, and the
:class:`~repro.runtime.engine.SpmvEngine` compile — on every serve cold
start and bench run. This module persists the *end product* of that
pipeline: the two compiled CSR operators, the slot→rank vector, and the
operator shapes, as one uncompressed ``.npz`` artifact keyed exactly
like the partition cache.

Key discipline (shared with the partition cache)
------------------------------------------------
Artifacts are keyed by :class:`EngineKey` — ``(matrix content hash,
layout method, procs, seed)`` — where :func:`matrix_hash` is the same
sha1-of-structure digest ``cached_rpart`` names its files by, so one
hash identifies a matrix across both caches. Like an rpart file name,
an artifact's file name also carries a code fingerprint (see
Invalidation).

Write discipline (shared with the partition cache)
--------------------------------------------------
Writers land artifacts via a pid/thread-suffixed tmp file and one
atomic ``os.replace`` (:func:`_atomic_write`, which the partition
cache's ``atomic_save_npy`` shares), so concurrent writers of the same
key race only on the rename and readers can never observe a torn file.
Before the rename, the artifact is **verified**: it is read back
through the same loader clients use and the reconstructed engine's
``spmv``/``spmm`` must be *bit-identical* to the in-memory one on a
seeded probe (plus a member-by-member byte comparison). A machine that
cannot round-trip its own artifact raises :class:`StoreVerifyError`
instead of publishing it.

Read discipline
---------------
Loads are **zero-copy** where the platform allows: the zip local
headers are parsed once, each member's ``.npy`` payload is located at
its absolute file offset, each payload is CRC-checked against the zip
directory in one sequential pass, and the arrays are built with
``np.frombuffer`` over a single ``np.memmap`` of the artifact — no
deserialization, no copies. (``np.load(..., mmap_mode=...)`` does not
mmap npz members, hence the explicit reader.) Any structural surprise
falls back to a plain ``np.load`` copy; any corruption — truncated
zip, damaged headers, a failed CRC on either path — is treated as a
**miss**, so a damaged entry costs a rebuild (which atomically
replaces it), never a crash or a wrong answer.

Invalidation
------------
Every artifact carries ``schema = ARTIFACT_SCHEMA`` in its metadata
member; readers treat any other value as a miss, so a file in an older
format is rebuilt, not mis-loaded. What the engine computes is keyed by
the file name, which carries the :func:`code_fingerprint` of
:data:`ENGINE_SOURCES`: an engine compiled by other code is a miss, and
the save of its rebuild deletes it (:func:`evict_other_generations`,
which the partition cache shares). Content addressing handles matrix
changes. The store serves only the consumers that load engines — the
server, ``repro cache``, the cold-start bench and the e2e benchmark
session — and never the golden check (:mod:`repro.regress`), which
recomputes every cell; CI keeps no engine store.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import struct
import threading
import zipfile
import zlib
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import BinaryIO

import numpy as np

from ..graphs.csr import as_csr
from .engine import SpmvEngine

__all__ = [
    "ARTIFACT_SCHEMA",
    "ENGINE_SOURCES",
    "EngineKey",
    "EngineStore",
    "LoadedEngine",
    "StoreVerifyError",
    "code_fingerprint",
    "default_cache_dir",
    "default_store_dir",
    "evict_other_generations",
    "matrix_hash",
]

#: Serialized-artifact schema version. Bump whenever the member layout
#: changes; readers treat any other value as a miss (stale artifact →
#: rebuild, never a mis-load). v3 dropped v2's persisted apply-plan row
#: splits (``plan_*`` members, ``dims[6]``); v4 dropped the
#: ``slot_rank`` member.
ARTIFACT_SCHEMA = 4

#: The sources, under ``repro/``, that shape a compiled engine: the
#: partition, the layout built on it, and the maps, plan, assembly and
#: compile of the runtime. Their fingerprint names every artifact.
ENGINE_SOURCES = (
    "partitioning",
    "graphs",
    "layouts",
    "runtime/maps.py",
    "runtime/plan.py",
    "runtime/distmatrix.py",
    "runtime/engine.py",
)

_PACKAGE_ROOT = Path(__file__).resolve().parent.parent

#: a cache file name: matrix hash, the code fingerprint (absent from
#: names written before fingerprints), then the rest of the key
_CACHE_NAME = re.compile(r"([^_]+)_(?:[0-9a-f]{12}_)?(.+)")

#: npz member names an artifact must carry besides ``meta``.
_MEMBERS = (
    "dims",
    "local_data",
    "local_indices",
    "local_indptr",
    "fold_data",
    "fold_indices",
    "fold_indptr",
)


def matrix_hash(A) -> str:
    """Content hash of a CSR structure (the cache/store key prefix).

    sha1 over ``indptr`` + ``indices`` truncated to 12 hex chars — the
    same digest the partition cache files are named by, so one hash
    identifies a matrix across both caches.
    """
    A = as_csr(A)
    h = hashlib.sha1()
    h.update(np.ascontiguousarray(A.indptr).tobytes())
    h.update(np.ascontiguousarray(A.indices).tobytes())
    return h.hexdigest()[:12]


@cache
def code_fingerprint(*sources: str) -> str:
    """sha1 of the named sources, hashed once per process per tuple.

    Each source is a path under ``repro/``: a subpackage (every ``.py``
    in it, recursively) or one module. The matrix reaches a cache key
    through its content hash, so generators need no part in it.
    """
    h = hashlib.sha1()
    for sub in sources:
        root = _PACKAGE_ROOT / sub
        for path in [root] if root.is_file() else sorted(root.rglob("*.py")):
            h.update(path.relative_to(_PACKAGE_ROOT).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:12]


def _generations(directory: Path, name: str) -> list[Path]:
    """The files in *directory* naming *name*'s entry under any fingerprint."""
    m = _CACHE_NAME.fullmatch(name)
    if m is None:
        return []
    return [
        p
        for p in directory.glob(f"{m[1]}_*{m[2]}")
        if (g := _CACHE_NAME.fullmatch(p.name)) and g.groups() == m.groups()
    ]


def evict_other_generations(path: Path) -> None:
    """After a cache write, delete *path*'s entry under any other code
    fingerprint: nothing reads it again."""
    for p in _generations(path.parent, path.name):
        if p != path:
            p.unlink(missing_ok=True)


@dataclass(frozen=True)
class EngineKey:
    """Identity of one compiled engine (mirrors the partition-cache key)."""

    matrix_hash: str
    method: str
    procs: int
    seed: int

    def __str__(self) -> str:
        return f"{self.matrix_hash}_{self.method}_k{self.procs}_s{self.seed}"


@cache
def _ensure_dir(base: Path) -> Path:
    base.mkdir(parents=True, exist_ok=True)
    return base


def default_cache_dir() -> Path:
    """Partition cache location (override with $REPRO_CACHE_DIR).

    The environment variable is re-read on every call (tests and CLI
    subprocesses point it at scratch space), but the mkdir happens once
    per distinct directory per process.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    base = Path(env) if env else Path.home() / ".cache" / "repro-partitions"
    return _ensure_dir(base)


def default_store_dir(cache_dir: Path | str | None = None) -> Path:
    """Engine-store location: $REPRO_ENGINE_STORE_DIR, else ``engines/``
    under the partition cache (*cache_dir*, or :func:`default_cache_dir`).

    So everything that points the partition cache at scratch space
    (tests, benches, serve fixtures) gets a hermetic engine store too.
    """
    env = os.environ.get("REPRO_ENGINE_STORE_DIR")
    base = Path(env) if env else Path(cache_dir or default_cache_dir()) / "engines"
    base.mkdir(parents=True, exist_ok=True)
    return base


class StoreVerifyError(RuntimeError):
    """A just-written artifact failed its read-back bit-identity check."""


@dataclass
class LoadedEngine:
    """One successful store load: the engine plus artifact provenance."""

    engine: SpmvEngine
    meta: dict
    #: True when the arrays are zero-copy views over the mapped file
    mmapped: bool
    path: Path


def _meta_array(meta: dict) -> np.ndarray:
    return np.frombuffer(
        json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8
    ).copy()


def _decode_meta(arr: np.ndarray) -> dict:
    meta = json.loads(np.asarray(arr, dtype=np.uint8).tobytes().decode())
    if not isinstance(meta, dict):
        raise ValueError("artifact meta is not an object")
    return meta


def _atomic_write(
    path: Path,
    write: Callable[[BinaryIO], object],
    check: Callable[[Path], None] | None = None,
) -> None:
    """Land *path* atomically: ``write`` fills a tmp file, ``check`` (if
    given) may reject it by raising, then one ``os.replace`` publishes it.

    The tmp name carries the pid *and* the thread id, so concurrent
    writers of one path — processes or threads of one process — never
    share a tmp file and race only on the rename. The tmp file never
    survives, whether the write, the check or the rename fails.
    """
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}-{threading.get_ident()}")
    try:
        with open(tmp, "wb") as f:
            write(f)
        if check is not None:
            check(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _probe_rng(key: EngineKey) -> np.random.Generator:
    """Deterministic per-key RNG for save-time verification probes."""
    digest = hashlib.sha1(str(key).encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def _read_npz_mmap(path: Path) -> dict[str, np.ndarray]:
    """Zero-copy npz read: frombuffer views over one memmap of *path*.

    Every member's payload is CRC-checked against the zip directory
    before its view is handed out — one sequential pass over the mapped
    bytes, no deserialization and no copies, so a bit flip anywhere in
    an array lands as corruption, exactly like the ``np.load`` fallback.

    Raises on any structural surprise (compressed member, unexpected
    npy version, object dtype, damaged header) or CRC mismatch — the
    caller falls back to a plain ``np.load`` copy, which re-checks zip
    CRCs as it reads, and treats a second failure as a miss.
    """
    out: dict[str, np.ndarray] = {}
    raw = np.memmap(path, mode="r", dtype=np.uint8)
    with zipfile.ZipFile(path) as zf, open(path, "rb") as f:
        for info in zf.infolist():
            if info.compress_type != zipfile.ZIP_STORED:
                raise ValueError(f"compressed member {info.filename!r}")
            name = info.filename
            if name.endswith(".npy"):
                name = name[:-4]
            f.seek(info.header_offset)
            hdr = f.read(30)
            if len(hdr) != 30 or hdr[:4] != b"PK\x03\x04":
                raise ValueError(f"bad local header for {info.filename!r}")
            name_len, extra_len = struct.unpack("<HH", hdr[26:30])
            payload = info.header_offset + 30 + name_len + extra_len
            if zlib.crc32(raw[payload : payload + info.file_size]) != info.CRC:
                raise ValueError(f"CRC mismatch for member {info.filename!r}")
            f.seek(payload)
            version = np.lib.format.read_magic(f)
            if version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(f)
            elif version == (2, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(f)
            else:
                raise ValueError(f"unsupported npy format version {version}")
            if dtype.hasobject:
                raise ValueError("object arrays are not artifact material")
            if fortran and len(shape) > 1:
                raise ValueError("fortran-order members are not supported")
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            arr = np.frombuffer(raw, dtype=dtype, count=count, offset=f.tell())
            out[name] = arr.reshape(shape)
    return out


def _read_artifact(path: Path) -> tuple[dict[str, np.ndarray], bool]:
    """``(arrays, mmapped)`` for *path*; raises if unreadable either way."""
    try:
        return _read_npz_mmap(path), True
    except Exception:
        pass  # structural surprise or damage: the copy path decides
    with np.load(path, allow_pickle=False) as z:
        return {k: z[k] for k in z.files}, False


class EngineStore:
    """Content-hash-keyed persistent store of compiled SpMV engines.

    One instance is cheap (a directory handle plus counters); every
    operation re-resolves paths so concurrent stores over the same
    directory compose through the filesystem, exactly like the
    partition cache.
    """

    def __init__(self, root: Path | str | None = None):
        self.root = Path(root) if root is not None else default_store_dir()
        self.root.mkdir(parents=True, exist_ok=True)
        self.counters = {
            "hits": 0,
            "misses": 0,
            "stale": 0,
            "corrupt": 0,
            "saves": 0,
            "mmap_loads": 0,
            "copy_loads": 0,
        }

    def path(self, key: EngineKey) -> Path:
        """Where *key*'s engine, compiled by the current code, is stored."""
        fp = code_fingerprint(*ENGINE_SOURCES)
        return self.root / (
            f"{key.matrix_hash}_{fp}_{key.method}_k{key.procs}_s{key.seed}.engine.npz"
        )

    # -- write path --------------------------------------------------------

    def save(
        self,
        key: EngineKey,
        engine: SpmvEngine,
        extra_meta: dict | None = None,
    ) -> Path:
        """Persist *engine* under *key* atomically; returns the path.

        The tmp file is read back through the client loader and checked
        bit-identical — members byte-equal and ``spmv``/``spmm`` equal on
        a seeded probe — before the rename publishes it. An existing
        entry is replaced atomically.
        """
        path = self.path(key)
        meta = {
            "schema": ARTIFACT_SCHEMA,
            "key": str(key),
            "matrix_hash": key.matrix_hash,
            "method": key.method,
            "procs": key.procs,
            "seed": key.seed,
            "n": int(engine.n),
            "engine_nbytes": int(engine.nbytes),
        }
        if extra_meta:
            meta.update(extra_meta)
        arrays = engine.to_arrays()
        _atomic_write(
            path,
            lambda f: np.savez(f, meta=_meta_array(meta), **arrays),
            check=lambda tmp: self._verify(tmp, key, engine, arrays),
        )
        evict_other_generations(path)
        self.counters["saves"] += 1
        return path

    def _verify(
        self, tmp: Path, key: EngineKey, engine: SpmvEngine, arrays: dict
    ) -> None:
        loaded, _ = _read_artifact(tmp)
        for name in _MEMBERS:
            if not np.array_equal(arrays[name], loaded[name]):
                raise StoreVerifyError(
                    f"artifact member {name!r} did not round-trip for {key}"
                )
        clone = SpmvEngine.from_arrays(loaded)
        rng = _probe_rng(key)
        x = rng.standard_normal(engine.n)
        X = rng.standard_normal((engine.n, 2))
        if not np.array_equal(engine.spmv(x), clone.spmv(x)):
            raise StoreVerifyError(f"loaded spmv diverged from compiled for {key}")
        if not np.array_equal(engine.spmm(X), clone.spmm(X)):
            raise StoreVerifyError(f"loaded spmm diverged from compiled for {key}")

    # -- read path ---------------------------------------------------------

    def load(self, key: EngineKey) -> LoadedEngine | None:
        """Reconstruct the engine for *key*, or ``None`` on any miss.

        Misses include: no artifact, stale schema, and corruption of
        any kind (the caller rebuilds and the save replaces the entry).
        """
        path = self.path(key)
        if not path.exists():
            self.counters["misses"] += 1
            return None
        try:
            arrays, mmapped = _read_artifact(path)
            meta = _decode_meta(arrays.pop("meta"))
            if meta.get("schema") != ARTIFACT_SCHEMA:
                self.counters["stale"] += 1
                return None
            engine = SpmvEngine.from_arrays(arrays)
        except Exception:
            self.counters["corrupt"] += 1
            return None
        self.counters["hits"] += 1
        self.counters["mmap_loads" if mmapped else "copy_loads"] += 1
        return LoadedEngine(engine=engine, meta=meta, mmapped=mmapped, path=path)

    @staticmethod
    def _raw_meta(path: Path) -> dict | None:
        try:
            with zipfile.ZipFile(path) as zf, zf.open("meta.npy") as f:
                return _decode_meta(np.lib.format.read_array(f, allow_pickle=False))
        except Exception:
            return None

    # -- maintenance -------------------------------------------------------

    def entries(self) -> list[dict]:
        """One record per artifact on disk (``repro cache list``)."""
        current = f"_{code_fingerprint(*ENGINE_SOURCES)}_"
        out = []
        for p in sorted(self.root.glob("*.engine.npz")):
            rec: dict = {"file": p.name, "bytes": p.stat().st_size}
            meta = self._raw_meta(p)
            if meta is None:
                rec["status"] = "corrupt"
            else:
                for field_name in ("key", "n", "procs", "method", "seed", "schema"):
                    rec[field_name] = meta.get(field_name)
                rec["matrix"] = meta.get("matrix")
                fresh = meta.get("schema") == ARTIFACT_SCHEMA and current in p.name
                rec["status"] = "ok" if fresh else "stale"
            out.append(rec)
        return out

    def evict(self, key: EngineKey | str) -> bool:
        """Drop every generation of one entry; True if any existed.

        A string names the entry as ``repro cache list`` shows it: its
        key, or its file name without ``.engine.npz``.
        """
        found = _generations(self.root, f"{key}.engine.npz")
        for p in found:
            p.unlink(missing_ok=True)
        return bool(found)

    def clear(self) -> int:
        """Drop every entry; returns the count removed."""
        removed = 0
        for p in self.root.glob("*.engine.npz"):
            p.unlink(missing_ok=True)
            removed += 1
        return removed

    def stats_dict(self) -> dict:
        """JSON view for serve ``stats`` and the cache CLI."""
        files = list(self.root.glob("*.engine.npz"))
        return {
            "dir": str(self.root),
            "entries": len(files),
            "bytes": sum(p.stat().st_size for p in files),
            "counters": dict(self.counters),
        }
