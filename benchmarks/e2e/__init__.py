"""The repo's end-to-end benchmark (see ``README.md`` beside this file).

Four seeded workloads, each in its own subprocess, measured for a
fixed window with tracing off; a separate traced pass gives the
per-layer numbers.  ``BENCHMARK.json`` at the repo root names this
package as the one instrument later performance and simplification
changes are judged against::

    python3 -m benchmarks.e2e                      # all workloads
    python3 -m benchmarks.e2e --workload flat_scan --seed 11 \\
        --seconds 10 --trace 0                     # one contract run
    python3 -m benchmarks.e2e compare A.json B.json

Nothing under ``src/`` is touched: layers are measured from outside,
through their public callables only.
"""
