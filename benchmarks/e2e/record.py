"""The shared benchmark record: catalog, sample summaries, host fingerprint.

``BENCHMARK.json`` (repo root) carries exactly the keys the benchmark
contract allows: names, units, direction and bounds. What the contract
has no key for — each metric's ``basis`` (wall / count / model /
computed), its one-line definition and, for per-layer metrics, the
end-to-end metric and workload it ``moves`` — lives next to this file in
``metrics.json``. :func:`load_catalog` joins the two and refuses a
mismatch, so neither can drift.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
SCHEMA = "repro.bench.e2e/1"

BASES = ("wall", "count", "model", "computed")


def load_catalog() -> dict:
    """``BENCHMARK.json`` joined with ``metrics.json``.

    Returns ``{"benchmark": <BENCHMARK.json>, "end_to_end": {name: info},
    "per_layer": {name: info}, "workloads": [names]}`` where ``info`` has
    ``unit``, ``better``, ``basis``, ``what`` and (end-to-end) ``bound`` or
    (per-layer) ``moves``.
    """
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    extra = json.loads((HERE / "metrics.json").read_text())
    out = {
        "benchmark": bench,
        "workloads": [w["name"] for w in bench["workloads"]],
    }
    for group in ("end_to_end", "per_layer"):
        declared = {m["name"]: dict(m) for m in bench[group]}
        described = extra[group]
        if set(declared) != set(described):
            odd = sorted(set(declared) ^ set(described))
            raise SystemExit(f"BENCHMARK.json and metrics.json disagree on {group}: {odd}")
        for name, info in declared.items():
            info.update(described[name])
            if info["basis"] not in BASES:
                raise SystemExit(f"{name}: unknown basis {info['basis']!r}")
        out[group] = declared
    return out


def summarize(samples, better: str = "lower") -> dict:
    """Median with min/max (and quartiles from four samples up).

    ``quiet`` is the median of the better half of the samples (the faster
    half of a timing, the higher half of a rate). This host is a shared
    2-vCPU VM whose neighbours only ever add time, in bursts that can cover
    more than half of a run's repeats: the plain median then moves 6-9 %
    between runs of one commit where the quiet-half median moves 2-3 %, so
    it is the value a run reports. A percentile is only given where at
    least ten samples lie beyond it: ``p90`` needs 100, ``p99`` 1000.
    """
    xs = sorted(float(v) for v in samples)
    n = len(xs)
    half = xs[: (n + 1) // 2] if better == "lower" else xs[n // 2 :]
    out = {"n": n, "quiet": statistics.median(half), "median": statistics.median(xs),
           "min": xs[0], "max": xs[-1]}
    if n >= 4:
        q1, _, q3 = statistics.quantiles(xs, n=4)
        out["q1"], out["q3"] = q1, q3
    for label, frac in (("p90", 0.90), ("p99", 0.99)):
        if n * (1.0 - frac) >= 10:
            out[label] = xs[min(n - 1, int(frac * n))]
    return out


def spread(summary: dict) -> float | None:
    """Run-to-run spread as a share of the median (IQR; range under 4)."""
    if summary["n"] < 2 or not summary["median"]:
        return None
    lo, hi = summary.get("q1", summary["min"]), summary.get("q3", summary["max"])
    return (hi - lo) / abs(summary["median"])


def _read_first(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def host_fingerprint() -> dict:
    """What a later reader needs to judge whether two records compare."""
    import numpy
    import scipy

    cpu_model = None
    cpuinfo = _read_first("/proc/cpuinfo") or ""
    for line in cpuinfo.splitlines():
        if line.lower().startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    if base.is_dir():
        for idx in sorted(base.glob("index*")):
            level, kind = _read_first(idx / "level"), _read_first(idx / "type")
            size = _read_first(idx / "size")
            if level and size:
                caches[f"L{level}{'' if kind == 'Unified' else (kind or '')[:1].lower()}"] = size
    blas = None
    try:
        cfg = numpy.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {}).get("name")
    except TypeError:  # numpy < 1.25 has no mode=
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor() or None,
        "caches": caches,
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def git_sha() -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None
