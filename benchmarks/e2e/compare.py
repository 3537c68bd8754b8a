"""Compare two benchmark records: ``python benchmarks/e2e/compare.py A.json B.json``.

One row per workload x end-to-end metric with both medians, the ratio
B / A (A is the base), each side's run-to-run spread and a verdict:

``ok``          B is no worse than A by more than the metric's bound
                (the one ``BENCHMARK.json`` fixes)
``regressed``   B is worse than A by more than the bound
``unresolved``  either side's spread between runs (quartile distance as a
                share of the median; the range under four runs) is wider
                than the bound, so the records cannot tell

Then every ``count`` / ``model`` per-layer metric whose value differs, since
those repeat exactly on one commit. Exit status is 1 on any ``regressed``
row or any failed operation in either record, else 0.
"""

from __future__ import annotations

import json
import sys

from record import load_catalog, spread


def worsening(a: float, b: float, better: str) -> float:
    """How much worse B is than A, as a share of A (negative = better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    return (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)


def compare(rec_a: dict, rec_b: dict) -> tuple[list[tuple], list[tuple], list[str]]:
    bounds = {name: m["bound"] for name, m in load_catalog()["end_to_end"].items()}
    rows, exact, problems = [], [], []
    for name, wa in rec_a["workloads"].items():
        wb = rec_b["workloads"].get(name)
        if wb is None:
            problems.append(f"{name}: missing from B")
            continue
        for side, w in (("A", wa), ("B", wb)):
            if w["failed"]:
                problems.append(f"{name}: failed_share {w['failed_share']:.3g} in {side}")
        for metric, ea in wa["end_to_end"].items():
            eb = wb["end_to_end"].get(metric)
            if eb is None:
                problems.append(f"{name}/{metric}: missing from B")
                continue
            bound = bounds[metric]
            worse = worsening(ea["median"], eb["median"], ea["better"])
            spreads = [spread(ea), spread(eb)]
            widest = max((s for s in spreads if s is not None), default=0.0)
            if widest > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
            else:
                verdict = "ok"
            rows.append((name, metric, ea["unit"], ea["median"], eb["median"],
                         eb["median"] / ea["median"] if ea["median"] else float("nan"),
                         spreads, ea["n"], eb["n"], bound, verdict))
        for metric, ea in wa["per_layer"].items():
            eb = wb["per_layer"].get(metric)
            if eb and ea["basis"] in ("count", "model") and ea["median"] != eb["median"]:
                exact.append((name, metric, ea["basis"], ea["median"], eb["median"]))
    return rows, exact, problems


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    rec_a, rec_b = (json.load(open(p)) for p in argv)
    if rec_a["host"] != rec_b["host"]:
        print("note: the two records come from different hosts; wall metrics "
              "do not compare")
    rows, exact, problems = compare(rec_a, rec_b)
    print(f"{'workload':<13} {'metric':<18} {'A':>12} {'B':>12} {'B/A':>7} "
          f"{'spreadA':>8} {'spreadB':>8} {'runs':>5} {'bound':>6}  verdict")
    for name, metric, unit, a, b, ratio, spreads, na, nb, bound, verdict in rows:
        sa, sb = (f"{s:.3f}" if s is not None else "-" for s in spreads)
        print(f"{name:<13} {metric:<18} {a:>12.6g} {b:>12.6g} {ratio:>7.3f} "
              f"{sa:>8} {sb:>8} {na:>2}/{nb:<2} {bound:>6.2f}  {verdict} [{unit}]")
    for name, metric, basis, a, b in exact:
        print(f"changed {basis}: {name} {metric}: {a!r} -> {b!r}")
    for p in problems:
        print(f"problem: {p}")
    tally = {v: sum(r[-1] == v for r in rows) for v in ("ok", "regressed", "unresolved")}
    print(f"{tally['ok']} ok, {tally['regressed']} regressed, "
          f"{tally['unresolved']} unresolved, {len(exact)} exact metrics changed, "
          f"{len(problems)} problems")
    return 1 if tally["regressed"] or problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
