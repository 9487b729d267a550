"""``spread``: how steady is each end-to-end metric on this machine?

Runs every workload ``--runs`` times, each with another seed, exactly
as the driver does, and prints for each (workload, metric) the median
and the distance between the first and third quartile as a share of
the median, next to the metric's bound.  A metric is steady enough when
its spread stays below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics

from . import spec
from .harness import run_workload


#: Seeds ``_FIRST_SEED .. _FIRST_SEED + runs - 1``: none is the default.
_FIRST_SEED = 101


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, quartiles as ``statistics.quantiles``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e spread")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=float(spec.RUN_SECONDS))
    parser.add_argument("--workload", action="append",
                        choices=sorted(spec.WORKLOADS))
    parser.add_argument("--out", help="also write every run as JSON")
    args = parser.parse_args(argv)
    runs = {}
    unsteady = 0
    for name in args.workload or list(spec.WORKLOADS):
        runs[name] = [
            run_workload(name, _FIRST_SEED + i, args.seconds, False)
            for i in range(args.runs)
        ]
        failed = sum(run["failed"] for run in runs[name])
        print(f"\n== {name}: {args.runs} seeds, {failed} failed operations")
        print(f"  {'metric':<24}{'median':>14}{'spread':>9}{'bound':>8}")
        for metric, _, _, bound in spec.END_TO_END:
            values = [run["metrics"][metric] for run in runs[name]]
            spread = quartile_spread(values)
            # setup_s is judged on its medians only, not its spread.
            loose = metric != "setup_s" and spread > bound / 3
            unsteady += loose
            print(
                f"  {metric:<24}{statistics.median(values):>14.6g}"
                f"{spread:>9.2%}{bound:>8.0%}"
                f"{'  > bound/3' if loose else ''}"
            )
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(runs, handle, indent=1, sort_keys=True)
    print(f"\n{unsteady} metric(s) spread wider than a third of the bound")
    return 0
