"""Runs one workload: the child process that measures, and the parent
that spawns it, bounds its wall clock, repeats set-up and checks for
leaked shared memory.

One subprocess per workload, so ``setup_s`` and ``rss_peak_mb`` belong
to that workload alone; the pool under ``wire_mixed`` uses ``spawn``,
which is why every entry point sits behind ``__main__``.
"""

from __future__ import annotations

import asyncio
import glob
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from . import layers, spec
from .meter import rss_peak_mib
from .tracer import Tracer

_SHM_GLOB = "/dev/shm/ferex*"


def _delta(before: dict, after: dict) -> tuple:
    """(differenced counters, gauges as read after the window)."""
    gauges = {k: v for k, v in after.items() if k.startswith("gauge.")}
    counted = {
        k: v - before.get(k, 0)
        for k, v in after.items()
        if not k.startswith("gauge.")
    }
    return counted, gauges


async def _measure(args, spawned_at: float) -> dict:
    from .workloads import WORKLOAD_CLASSES

    workload = WORKLOAD_CLASSES[args.workload](
        spec.sizes(args.workload, args.scale), args.seed
    )
    tracer = Tracer() if args.trace else None
    result = {"workload": args.workload, "trace": int(args.trace)}
    try:
        if tracer is None:
            await workload.setup()
        else:
            with tracer:
                await workload.setup()
        result["setup_s"] = time.time() - spawned_at
        if args.setup_only:
            return result
        pre = await workload.verify()
        if tracer is None:
            before = workload.counters()
            meter = await workload.window(args.seconds)
        else:
            share = spec.TRACE_REFERENCE_SHARE
            reference = (
                await workload.window(args.seconds * share)
            ).summary()
            before = workload.counters()
            with tracer:
                meter = await workload.window(args.seconds * (1 - share))
        stats = meter.summary()
        after = workload.counters()
        post = await workload.verify()
        counted, gauges = _delta(before, after)
        wrong = pre["wrong"] + post["wrong"]
        verified = 2 * workload.sizes["verify_queries"]
        result.update({
            "attempted": stats["attempted"] + verified,
            "failed": stats["failed"] + wrong,
            "stats": stats,
            "metrics": {
                "qps": stats["qps"],
                "latency_p50_ms": stats["latency_p50_ms"],
                "latency_p95_ms": stats["latency_p95_ms"],
                "recall_at_10": pre["recall_at_10"],
                "bytes_per_query": workload.bytes_moved(counted, stats),
                "cpu_s_per_kquery": stats["cpu_s_per_kquery"],
                "rss_peak_mb": rss_peak_mib(workload.worker_pids),
            },
        })
        if tracer is not None:
            window = (meter.t_open, meter.t_close)
            result["layers"], result["layer_busy_share"] = layers.compute(
                tracer.spans, tracer.layer_of, window, stats, reference,
                counted, gauges, workload.replay_us_per_batch,
                len(tracer.missing),
            )
            result["missing_trace_targets"] = tracer.missing
            tracer.write(
                spec.OUT_DIR / f"trace_{args.workload}.json", window
            )
    finally:
        await workload.close()
    return result


def child_main(args) -> int:
    """Body of the per-workload subprocess: prints one JSON line."""
    result = asyncio.run(_measure(args, args.spawned_at))
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def _child_env() -> dict:
    env = dict(os.environ)
    src = str(spec.REPO / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


def _spawn(name, seed, seconds, trace, scale, setup_only) -> dict:
    """One child, bounded in wall clock; its whole process group is
    killed afterwards so no worker outlives it."""
    command = [
        sys.executable, "-m", "benchmarks.e2e", "child",
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
        "--scale", scale, "--spawned-at", repr(time.time()),
    ]
    if setup_only:
        command.append("--setup-only")
    shm_before = set(glob.glob(_SHM_GLOB))
    child = subprocess.Popen(
        command, cwd=spec.REPO, env=_child_env(), text=True,
        stdout=subprocess.PIPE, start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=spec.CHILD_TIMEOUT_S)
        timed_out = False
    except subprocess.TimeoutExpired:
        timed_out = True
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    if timed_out:
        raise RuntimeError(
            f"{name}: no result within {spec.CHILD_TIMEOUT_S} s"
        )
    if child.returncode != 0:
        raise RuntimeError(f"{name}: child exited {child.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    # Segments carry their creator's pid; anything of this child's
    # still present after it exited is a leak.
    result["leaked_segments"] = sorted(
        path
        for path in set(glob.glob(_SHM_GLOB)) - shm_before
        if f"-{child.pid}-" in path
    )
    return result


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, scale: str = "full"
) -> dict:
    """Measure one workload in a fresh subprocess.

    With tracing off, set-up is repeated in further fresh subprocesses
    and ``setup_s`` is the median; a leaked ``/dev/shm/ferex*`` segment
    counts as a failure.
    """
    result = _spawn(name, seed, seconds, trace, scale, setup_only=False)
    setups = [result.pop("setup_s")]
    if not trace:
        for _ in range(spec.SETUP_REPEATS - 1):
            again = _spawn(name, seed, seconds, trace, scale, True)
            setups.append(again["setup_s"])
            result["leaked_segments"] += again["leaked_segments"]
    result["setup_s_runs"] = setups
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["failed"] += len(result["leaked_segments"])
    result["metrics"]["failed_share"] = (
        result["failed"] / result["attempted"]
    )
    return result


def contract_line(result: dict) -> str:
    """The one JSON object the driver reads from the last stdout line."""
    if result["trace"]:
        catalogue = [(name, unit) for name, unit, _ in spec.PER_LAYER]
        values = result["layers"]
    else:
        catalogue = [(name, unit) for name, unit, _, _ in spec.END_TO_END]
        values = result["metrics"]
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in catalogue
        },
    })
