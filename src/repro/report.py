"""Assemble every regenerated benchmark artifact into one report.

Usage::

    python -m repro.report [results_dir] [output_file]

Reads the ``benchmarks/results/*.txt`` artifacts produced by
``pytest benchmarks/ --benchmark-only`` and concatenates them in the
order of the paper's tables and figures, so the whole reproduction can
be reviewed in one file.
"""

from __future__ import annotations

import pathlib
import sys
from typing import List, Optional

#: Artifact ordering: the paper's narrative order, then ablations and
#: extensions.
ARTIFACT_ORDER = [
    "fig1_iv",
    "table1_survey",
    "table2_encoding",
    "fig6_energy_delay",
    "fig7_montecarlo",
    "fig7_knn_degradation",
    "table3_datasets",
    "fig8a_accuracy",
    "fig8bc_speedup_energy",
    "ablation_cell_size",
    "ablation_vds_levels",
    "ablation_variation",
    "ablation_hdc_dim",
    "ablation_ac3",
    "ext_area",
    "ext_write_path",
    "ext_saturating",
    "kernel",
    "batch_throughput",
    "index_scaling",
    "serving",
    "serving_net",
    "reconfig",
    "routing",
]


def assemble(results_dir: pathlib.Path) -> str:
    """Concatenate available artifacts in paper order.

    Unknown files are appended alphabetically after the known ones so
    nothing silently disappears; missing known artifacts are listed in
    the header.
    """
    if not results_dir.is_dir():
        raise FileNotFoundError(
            f"{results_dir} does not exist — run "
            "'pytest benchmarks/ --benchmark-only' first"
        )
    available = {p.stem: p for p in sorted(results_dir.glob("*.txt"))}
    missing: List[str] = [
        name for name in ARTIFACT_ORDER if name not in available
    ]
    extras = [
        name for name in available if name not in ARTIFACT_ORDER
    ]

    sections = ["FeReX reproduction report", "=" * 60]
    if missing:
        sections.append(
            "missing artifacts (bench not run?): " + ", ".join(missing)
        )
    for name in ARTIFACT_ORDER + extras:
        path = available.get(name)
        if path is None:
            continue
        sections.append("")
        sections.append(f"--- {name} " + "-" * max(1, 50 - len(name)))
        sections.append(path.read_text().rstrip())
    return "\n".join(sections) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    results_dir = pathlib.Path(
        argv[0] if argv else "benchmarks/results"
    )
    report = assemble(results_dir)
    if len(argv) > 1:
        pathlib.Path(argv[1]).write_text(report)
        print(f"wrote {argv[1]}")
    else:
        print(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
