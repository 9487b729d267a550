"""``compare A.json B.json``: is B worse than A beyond a bound?

One row per (workload, metric).  ``worse`` is the share of A's value by
which B moved in the bad direction; a row fails when that exceeds the
metric's bound.  ``failed_share`` has no ratio bound: any failure in B
fails the row.  Exit status 1 on any failing row — the tool the A/A
criterion and every later change uses.

Either side may be a comma-separated *set* of result files, compared
by the median of each metric: on a shared machine one run is one
sample of the neighbours' mood, a median of several is the code.
"""

from __future__ import annotations

import argparse
import json
import statistics

from . import spec


def worsening(better: str, a: float, b: float) -> float:
    """Share of ``a`` by which ``b`` is worse (negative = better)."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    moved = (b - a) / abs(a)
    return moved if better == "lower" else -moved


def compare(a: dict, b: dict) -> list:
    """Rows ``(workload, metric, a, b, worse, bound, ok)``."""
    rows = []
    for name in spec.WORKLOADS:
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        ma = a["workloads"][name]["metrics"]
        mb = b["workloads"][name]["metrics"]
        for metric, _, better, bound in spec.END_TO_END:
            worse = worsening(better, ma[metric], mb[metric])
            rows.append((
                name, metric, ma[metric], mb[metric], worse, bound,
                worse <= bound,
            ))
        rows.append((
            name, "failed_share", ma["failed_share"], mb["failed_share"],
            mb["failed_share"], 0.0, mb["failed_share"] == 0,
        ))
    return rows


def load_set(paths: str) -> dict:
    """One result, or the per-metric median of a comma-separated set."""
    results = []
    for path in paths.split(","):
        with open(path) as handle:
            results.append(json.load(handle))
    merged = {"provenance": results[0]["provenance"], "workloads": {}}
    for name in results[0]["workloads"]:
        runs = [r["workloads"][name]["metrics"] for r in results]
        merged["workloads"][name] = {"metrics": {
            metric: statistics.median(run[metric] for run in runs)
            for metric in runs[0]
        }}
    return merged


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e compare")
    parser.add_argument("a", help="baseline result file(s), comma-separated")
    parser.add_argument("b", help="candidate result file(s)")
    args = parser.parse_args(argv)
    a = load_set(args.a)
    b = load_set(args.b)
    ha = a["provenance"]["constants_sha256"]
    hb = b["provenance"]["constants_sha256"]
    if ha != hb:
        print(f"warning: workload constants differ ({ha[:12]} vs {hb[:12]})")
    rows = compare(a, b)
    print(
        f"{'workload':<14}{'metric':<24}{'A':>14}{'B':>14}"
        f"{'worse':>9}{'bound':>8}"
    )
    for name, metric, va, vb, worse, bound, ok in rows:
        print(
            f"{name:<14}{metric:<24}{va:>14.6g}{vb:>14.6g}"
            f"{worse:>+9.1%}{bound:>8.1%}{'' if ok else '  WORSE'}"
        )
    bad = [row for row in rows if not row[-1]]
    print(f"{len(rows)} rows, {len(bad)} beyond bound")
    return 1 if bad else 0
