"""Smoke test of the end-to-end benchmark (tier-1, ``--scale smoke``).

Checks the instrument, not the numbers: every named metric is present,
finite and carries a unit; the tracer restores what it wrapped and does
not change answers; ``compare`` flags a regression; the manifest and
``BENCHMARK.json`` agree.
"""

import argparse
import asyncio
import json
import math
import pathlib
import re
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from benchmarks.e2e import compare, harness, spec, tracer

HERE = pathlib.Path(__file__).resolve().parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _measure(workload, trace):
    args = argparse.Namespace(
        workload=workload, seed=spec.DEFAULT_SEED, seconds=0.5,
        trace=trace, scale="smoke", setup_only=False,
    )
    return asyncio.run(harness._measure(args, time.time()))


def test_manifest_is_well_formed_and_matches_benchmark_json():
    manifest = spec.manifest()
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in manifest[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for key in ("end_to_end", "per_layer"):
        for entry in manifest[key]:
            assert UNIT.match(entry["unit"]), entry
            assert entry["better"] in ("lower", "higher")
    for entry in manifest["workloads"]:
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    bounds = {e["name"]: e["bound"] for e in manifest["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert 2 <= len(manifest["workloads"]) <= 8
    assert len(manifest["per_layer"]) <= 128
    recorded = spec.REPO / "BENCHMARK.json"
    assert json.loads(recorded.read_text()) == manifest


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_every_metric_is_reported(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(spec, "OUT_DIR", tmp_path)
    untraced = _measure(workload, 0)
    assert untraced["failed"] == 0 and untraced["attempted"] >= 1
    untraced["metrics"]["setup_s"] = untraced["setup_s"]
    for name, _, _, _ in spec.END_TO_END:
        value = untraced["metrics"][name]
        assert math.isfinite(value) and value > 0, (name, value)
    traced = _measure(workload, 1)
    assert traced["failed"] == 0
    assert traced["missing_trace_targets"] == []
    for name, _, _ in spec.PER_LAYER:
        assert math.isfinite(traced["layers"][name]), name
    line = json.loads(harness.contract_line(traced))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {n for n, _, _ in spec.PER_LAYER}
    trace_file = json.loads(
        (tmp_path / f"trace_{workload}.json").read_text()
    )
    assert trace_file["n_spans"] > 0
    # The busy-time shares are the waterfall: they sum to one.
    assert sum(traced["layer_busy_share"].values()) == pytest.approx(1.0)


def test_tracer_restores_attributes_and_keeps_answers():
    from repro.index import FerexIndex

    def resolve(target):
        module, _, attr = target.partition(":")
        owner = sys.modules[module]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        return vars(owner)[leaf]

    rng = np.random.default_rng(3)
    index = FerexIndex(dims=32, metric="hamming", bits=1, bank_rows=64)
    index.add(rng.integers(0, 2, size=(150, 32)))
    queries = rng.integers(0, 2, size=(8, 32))
    plain = index.search(queries, k=5)
    active = tracer.Tracer()
    active.__enter__()
    active.__exit__(None, None, None)  # imports every target's module
    originals = {t: resolve(t) for _, t, _ in tracer.TARGETS}
    with active:
        assert all(
            resolve(t) is not originals[t] for _, t, _ in tracer.TARGETS
        )
        traced = index.search(queries, k=5)
    assert active.missing == []
    assert np.array_equal(plain.ids, traced.ids)
    assert np.array_equal(plain.distances, traced.distances)
    for _, target, _ in tracer.TARGETS:
        assert resolve(target) is originals[target], target
    # One root span; self times sum to its duration exactly once.
    roots = [s for s in active.spans if s[1] is None]
    assert [s[2] for s in roots] == ["repro.index.index:FerexIndex.search"]
    total = sum(span[5] for span in active.spans)
    assert total == pytest.approx(roots[0][4] - roots[0][3], rel=1e-6)
    kernel = [s for s in active.spans if s[2].endswith("LUTKernel.scores")]
    assert len(kernel) == 3 and kernel[0][8][:2] == (8, 64)


def test_tracer_times_coroutines_by_busy_time_not_wall_time():
    import repro.serve.coalescer as coalescer_module

    async def dispatch(queries, k):
        await asyncio.sleep(0.05)
        return np.zeros((len(queries), k)), np.zeros((len(queries), k))

    async def run():
        coalescer = coalescer_module.RequestCoalescer(dispatch)
        with tracer.Tracer() as active:
            await coalescer.submit(np.zeros(4, dtype=int), 2)
        await coalescer.close()
        return active.spans

    (span,) = asyncio.run(run())
    assert span[4] - span[3] >= 0.05  # parked for the whole dispatch
    assert span[5] < 0.02  # but busy only for its own few steps


def test_compare_applies_each_bound(tmp_path, capsys):
    metrics = {name: 10.0 for name, _, _, _ in spec.END_TO_END}
    metrics["failed_share"] = 0.0
    base = {
        "provenance": {"constants_sha256": spec.constants_sha256()},
        "workloads": {"flat_scan": {"metrics": metrics}},
    }
    worse = json.loads(json.dumps(base))
    worse["workloads"]["flat_scan"]["metrics"]["qps"] = 6.0
    worse["workloads"]["flat_scan"]["metrics"]["latency_p50_ms"] = 10.5
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(base))
    b.write_text(json.dumps(worse))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
    # A set is judged by its median: one bad run of three is outvoted.
    assert compare.main([str(a), f"{a},{b},{a}"]) == 0
    bad = [row for row in compare.compare(base, worse) if not row[-1]]
    assert [(row[0], row[1]) for row in bad] == [("flat_scan", "qps")]
    assert compare.worsening("higher", 10.0, 8.0) == pytest.approx(0.2)
    assert compare.worsening("lower", 10.0, 8.0) == pytest.approx(-0.2)
    assert "WORSE" in capsys.readouterr().out


def test_contract_run_and_bare_directory(tmp_path):
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--workload",
         "flat_scan", "--seed", "5", "--seconds", "0.5", "--trace", "0",
         "--scale", "smoke"],
        cwd=spec.REPO, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == {n for n, _, _, _ in spec.END_TO_END}
    for name, unit, _, _ in spec.END_TO_END:
        assert line["metrics"][name]["unit"] == unit
    # A directory holding only the benchmark has nothing to measure:
    # non-zero exit, no result line.
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    shutil.copy(spec.REPO / "BENCHMARK.json", tmp_path)
    bare = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--workload",
         "flat_scan", "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert bare.returncode != 0 and bare.stdout.strip() == ""


def test_sources_fit_the_lint_line_length():
    for path in sorted(HERE.glob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), 1):
            assert len(line) <= 79, f"{path.name}:{number}"
    ruff = shutil.which("ruff")
    if ruff is not None:
        done = subprocess.run(
            [ruff, "check", str(HERE)], cwd=spec.REPO,
            capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stdout
