"""Command line of the end-to-end benchmark.

``python3 -m benchmarks.e2e``
    all four workloads, untraced then traced; prints every metric and
    writes a result file ``compare`` can read.
``python3 -m benchmarks.e2e --workload W --seed N --seconds S --trace T``
    one contract run: the last stdout line is the result object.
``python3 -m benchmarks.e2e compare A.json B.json``
    apply each metric's bound per workload; exit 1 on a regression.
``python3 -m benchmarks.e2e spread [--runs 10]``
    run every workload on ten seeds and print each metric's spread.
``python3 -m benchmarks.e2e manifest``
    print what ``BENCHMARK.json`` must contain.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from . import spec


def _run_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python3 -m benchmarks.e2e", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=float(spec.RUN_SECONDS),
        help="measured window per run",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="0 end-to-end metrics, 1 per-layer metrics "
        "(default: both passes, all workloads)",
    )
    parser.add_argument("--scale", choices=("full", "smoke"),
                        default="full")
    parser.add_argument(
        "--out", type=pathlib.Path, default=spec.OUT_DIR / "result.json",
        help="result file of the all-workloads run",
    )
    return parser


def _child_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    return parser


def _print_table(name: str, result: dict) -> None:
    print(f"\n== {name} ==  {spec.WORKLOADS[name]['why']}")
    print(f"  {'end-to-end metric':<44}{'value':>16}  unit, better, bound")
    for metric, unit, better, bound in spec.END_TO_END:
        value = result["metrics"][metric]
        print(f"  {metric:<44}{value:>16.6g}  {unit}, {better}, {bound:g}")
    failed = result["metrics"]["failed_share"]
    print(f"  {'failed_share':<44}{failed:>16.6g}  share, must stay 0")
    print(f"  {'layer metric (traced pass)':<44}{'value':>16}  unit, better")
    for metric, unit, better in spec.PER_LAYER:
        value = result["layers"][metric]
        print(f"  {metric:<44}{value:>16.6g}  {unit}, {better}")
    shares = ", ".join(
        f"{layer} {share:.1%}"
        for layer, share in result["layer_busy_share"].items()
    )
    print(f"  traced busy-time share: {shares}")


def _run_all(args) -> int:
    """Both passes over every workload (or the one named)."""
    from .harness import run_workload

    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    results = {}
    for name in names:
        untraced = run_workload(
            name, args.seed, args.seconds, False, args.scale
        )
        traced = run_workload(
            name, args.seed, args.seconds, True, args.scale
        )
        untraced["layers"] = traced["layers"]
        untraced["layer_busy_share"] = traced["layer_busy_share"]
        untraced["missing_trace_targets"] = traced["missing_trace_targets"]
        untraced["failed"] += traced["failed"]
        results[name] = untraced
        _print_table(name, untraced)
    payload = {
        "provenance": spec.provenance(args.seed),
        "seconds": args.seconds,
        "scale": args.scale,
        "workloads": results,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=1, sort_keys=True))
    failed = sum(result["failed"] for result in results.values())
    print(f"\nresult written to {args.out}; failed operations: {failed}")
    return 1 if failed else 0


def main(argv) -> int:
    if argv and argv[0] == "child":
        from .harness import child_main

        return child_main(_child_parser().parse_args(argv[1:]))
    if argv and argv[0] == "compare":
        from .compare import main as compare_main

        return compare_main(argv[1:])
    if argv and argv[0] == "spread":
        from .spread import main as spread_main

        return spread_main(argv[1:])
    if argv and argv[0] == "manifest":
        print(json.dumps(spec.manifest(), indent=2))
        return 0
    args = _run_parser().parse_args(argv)
    if not (spec.REPO / "src" / "repro").is_dir():
        print(
            f"benchmarks.e2e: no src/repro under {spec.REPO}: nothing "
            "to measure", file=sys.stderr,
        )
        return 2
    if args.workload is None or args.trace is None:
        return _run_all(args)
    from .harness import contract_line, run_workload

    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        args.scale,
    )
    print(contract_line(result))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
