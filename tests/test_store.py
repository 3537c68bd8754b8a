"""The compiled-engine artifact store: identity, atomicity, invalidation.

The contracts under test:

* **round-trip identity** — an engine reconstructed from its artifact
  (zero-copy mmap path included) is bit-identical through ``spmv``,
  ``spmm`` and the partial-sum split;
* **corruption safety** — a damaged or truncated artifact is a clean
  miss (rebuild), never a crash or a wrong answer, and a save
  atomically replaces it;
* **concurrency** — racing writers of the same key never leave a torn
  artifact visible to readers;
* **invalidation** — artifacts with a different schema stamp are stale
  misses, so engines serialized by older code are rebuilt, not
  mis-loaded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.layouts import make_layout
from repro.runtime import DistSparseMatrix, SpmvEngine
from repro.runtime.store import (
    ARTIFACT_SCHEMA,
    EngineKey,
    EngineStore,
    StoreVerifyError,
    default_store_dir,
    matrix_hash,
)

PROCS = 8


@pytest.fixture(scope="module")
def compiled(small_rmat):
    """One compiled engine + its key, shared across the module."""
    layout = make_layout("2d-random", small_rmat, PROCS, seed=0)
    dist = DistSparseMatrix(small_rmat, layout)
    key = EngineKey(matrix_hash(small_rmat), "2d-random", PROCS, 0)
    return small_rmat, dist.engine, key


class TestEngineKey:
    def test_str_matches_partition_cache_form(self):
        key = EngineKey("a" * 12, "2d-gp", 16, 3)
        assert str(key) == "aaaaaaaaaaaa_2d-gp_k16_s3"

    def test_matrix_hash_is_structural(self, small_rmat):
        h = matrix_hash(small_rmat)
        assert len(h) == 12
        assert matrix_hash(small_rmat) == h
        B = small_rmat.copy()
        B.data = B.data * 2.0  # values don't enter the structure hash
        assert matrix_hash(B) == h

    def test_default_store_dir_honors_cache_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE_STORE_DIR", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert default_store_dir() == tmp_path / "engines"
        monkeypatch.setenv("REPRO_ENGINE_STORE_DIR", str(tmp_path / "x"))
        assert default_store_dir() == tmp_path / "x"


class _Tampered:
    """Engine whose ``to_arrays`` disagrees with its spmv — must not publish."""

    def __init__(self, engine, arrays):
        self._engine = engine
        self._arrays = arrays

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def to_arrays(self):
        return self._arrays


class TestRoundTrip:
    def test_to_from_arrays_bit_identical(self, compiled, rng):
        A, engine, _ = compiled
        clone = SpmvEngine.from_arrays(engine.to_arrays())
        x = rng.standard_normal(A.shape[0])
        assert np.array_equal(engine.spmv(x), clone.spmv(x))

    def test_mmap_load_spmv_spmm(self, compiled, tmp_path, rng):
        A, engine, key = compiled
        store = EngineStore(tmp_path)
        store.save(key, engine)
        loaded = store.load(key)
        assert loaded is not None and loaded.mmapped
        x = rng.standard_normal(A.shape[0])
        X = rng.standard_normal((A.shape[0], 3))
        assert np.array_equal(engine.spmv(x), loaded.engine.spmv(x))
        assert np.array_equal(engine.spmm(X), loaded.engine.spmm(X))
        # the partial-sum split runs from the mmapped CSR, bit for bit
        y, partials = loaded.engine.spmv_with_partials(x)
        y0, partials0 = engine.spmv_with_partials(x)
        assert np.array_equal(y, y0) and np.array_equal(partials, partials0)
        assert np.array_equal(loaded.engine.fold(partials), y0)
        assert store.counters["hits"] == 1
        assert store.counters["mmap_loads"] == 1

    def test_loaded_operators_are_readonly_views(self, compiled, tmp_path):
        """Zero-copy loads hand out views the kernels must never mutate."""
        _, engine, key = compiled
        store = EngineStore(tmp_path)
        store.save(key, engine)
        loaded = store.load(key)
        assert loaded.mmapped
        with pytest.raises((ValueError, RuntimeError)):
            loaded.engine._local.data[0] = 99.0

    def test_members_are_stored_uncompressed(self, compiled, tmp_path):
        """The zero-copy reader depends on ZIP_STORED members."""
        _, engine, key = compiled
        store = EngineStore(tmp_path)
        path = store.save(key, engine)
        with zipfile.ZipFile(path) as zf:
            assert all(i.compress_type == zipfile.ZIP_STORED for i in zf.infolist())

    def test_meta_carries_key_and_extras(self, compiled, tmp_path):
        _, engine, key = compiled
        store = EngineStore(tmp_path)
        store.save(key, engine, extra_meta={"matrix": "m"})
        meta = store.load(key).meta
        assert meta["key"] == str(key)
        assert meta["schema"] == ARTIFACT_SCHEMA
        assert meta["matrix"] == "m"
        assert meta["n"] == engine.n

    def test_verify_rejects_broken_serialization(self, compiled, tmp_path):
        _, engine, key = compiled
        store = EngineStore(tmp_path)
        arrays = engine.to_arrays()
        arrays["local_data"] = arrays["local_data"].copy()
        arrays["local_data"][0] += 1.0
        with pytest.raises(StoreVerifyError):
            store.save(key, _Tampered(engine, arrays))
        assert not store.path(key).exists()  # nothing published
        assert not list(Path(tmp_path).glob("*.tmp-*"))  # no debris


class TestCorruption:
    def _saved(self, compiled, tmp_path):
        _, engine, key = compiled
        store = EngineStore(tmp_path)
        path = store.save(key, engine)
        return store, key, path

    def test_flipped_byte_is_a_miss(self, compiled, tmp_path):
        store, key, path = self._saved(compiled, tmp_path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert store.load(key) is None
        assert store.counters["corrupt"] == 1

    def test_truncation_is_a_miss(self, compiled, tmp_path):
        store, key, path = self._saved(compiled, tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 3])
        assert store.load(key) is None
        assert store.counters["corrupt"] == 1

    def test_rebuild_atomically_replaces_damage(self, compiled, tmp_path):
        _, engine, key = compiled
        store, _, path = self._saved(compiled, tmp_path)
        path.write_bytes(b"garbage")
        assert store.load(key) is None  # clean miss, no crash
        store.save(key, engine)  # the rebuild path
        assert store.load(key) is not None
        assert not list(Path(tmp_path).glob("*.tmp-*"))

    @pytest.mark.parametrize("stale", ["future", "v2-with-plans"])
    def test_stale_schema_is_a_miss_not_a_misload(self, compiled, tmp_path, stale):
        _, engine, _ = compiled
        store, key, path = self._saved(compiled, tmp_path)
        # rewrite the meta member with another schema, keeping the zip valid
        with np.load(path) as z:
            members = {k: z[k] for k in z.files}
        meta = json.loads(members["meta"].tobytes().decode())
        if stale == "future":
            meta["schema"] = ARTIFACT_SCHEMA + 1
        else:
            # what schema 2 wrote: the budget as dims[6] plus plan splits
            meta["schema"] = 2
            members["dims"] = np.append(members["dims"], 1)
            for op in ("local", "fold"):
                nrows = len(members[f"{op}_indptr"]) - 1
                members[f"plan_{op}_splits"] = np.array([0, nrows], dtype=np.int64)
        members["meta"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8
        ).copy()
        with open(path, "wb") as f:
            np.savez(f, **members)
        assert store.load(key) is None
        assert store.counters["stale"] == 1
        assert store.counters["corrupt"] == 0
        assert store.entries()[0]["status"] == "stale"
        store.save(key, engine)  # the rebuild path replaces the stale entry
        loaded = store.load(key)
        assert loaded is not None and loaded.meta["schema"] == ARTIFACT_SCHEMA
        assert store.entries()[0]["status"] == "ok"
        x = np.random.default_rng(5).standard_normal(engine.n)
        assert np.array_equal(loaded.engine.spmv(x), engine.spmv(x))

    def test_a_save_evicts_other_generations(self, compiled, tmp_path, monkeypatch):
        """A save under fingerprint B removes what A, or code from before
        fingerprints, stored under the same key, and nothing else."""
        from repro.runtime import store as store_module

        _, engine, key = compiled
        store, _, old = self._saved(compiled, tmp_path)
        legacy = tmp_path / f"{key}.engine.npz"
        legacy.write_bytes(old.read_bytes())
        other = store.save(EngineKey(key.matrix_hash, key.method, key.procs, 9), engine)
        monkeypatch.setattr(store_module, "code_fingerprint", lambda *s: "b" * 12)
        assert store.load(key) is None  # an engine of other code is a miss
        new = store.save(key, engine)
        assert "_bbbbbbbbbbbb_" in new.name
        assert not old.exists() and not legacy.exists()
        assert sorted(tmp_path.glob("*.engine.npz")) == sorted([new, other])
        status = {e["file"]: e["status"] for e in store.entries()}
        assert status == {new.name: "ok", other.name: "stale"}

    def test_entries_and_evict(self, compiled, tmp_path):
        store, key, _ = self._saved(compiled, tmp_path)
        entries = store.entries()
        assert [e["key"] for e in entries] == [str(key)]
        assert entries[0]["status"] == "ok"
        assert store.evict(key)
        assert not store.evict(key)  # already gone
        assert store.entries() == []
        assert store.clear() == 0


_WRITER_SCRIPT = """
import sys
import scipy.sparse as sp
from repro.layouts import make_layout
from repro.runtime import DistSparseMatrix
from repro.runtime.store import EngineKey, EngineStore, matrix_hash

mtx_path, store_dir, reps = sys.argv[1], sys.argv[2], int(sys.argv[3])
A = sp.load_npz(mtx_path)
engine = DistSparseMatrix(A, make_layout("2d-random", A, {procs}, seed=0)).engine
store = EngineStore(store_dir)
key = EngineKey(matrix_hash(A), "2d-random", {procs}, 0)
for _ in range(reps):
    store.save(key, engine)
"""


class TestConcurrency:
    def test_racing_writers_never_tear(self, compiled, tmp_path):
        import scipy.sparse as sp

        A, engine, key = compiled
        mtx = tmp_path / "a.npz"
        sp.save_npz(mtx, A)
        store_dir = tmp_path / "store"
        script = _WRITER_SCRIPT.format(procs=PROCS)
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(mtx), str(store_dir), "3"],
                env=os.environ.copy(),
            )
            for _ in range(3)
        ]
        reader = EngineStore(store_dir)
        x = np.random.default_rng(5).standard_normal(A.shape[0])
        want = engine.spmv(x)
        # hammer the read path while the writers race on the same key
        while any(w.poll() is None for w in writers):
            loaded = reader.load(key)
            if loaded is not None:
                assert np.array_equal(loaded.engine.spmv(x), want)
        assert all(w.wait(timeout=120) == 0 for w in writers)
        loaded = reader.load(key)
        assert loaded is not None
        assert np.array_equal(loaded.engine.spmv(x), want)
        assert reader.counters["corrupt"] == 0
        assert not list(store_dir.glob("*.tmp-*"))
