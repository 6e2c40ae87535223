"""Aggregate benchmark result files into one reproduction report.

Benches write their paper-shape evidence to ``benchmarks/results/*.md``;
this module stitches them into a single document ordered by the experiment
index of DESIGN.md §4 — the machine-generated companion to EXPERIMENTS.md.
"""

from __future__ import annotations

import pathlib

__all__ = ["EXPERIMENT_ORDER", "aggregate_results"]

#: Experiment ids in DESIGN.md order; unknown files are appended at the end.
EXPERIMENT_ORDER = [
    "T1-mu-sweep",
    "T1-pre-grid2d", "T1-pre-grid3d", "T1-pre-path",
    "T1-src-grid2d", "T1-src-grid3d", "T1-src-path", "T1-src-sweep",
    "T1-time-leaves_up", "T1-time-doubling", "T1-brent",
    "F1-grid-decomposition", "F1-hyperplane-check", "E-grid-decompose",
    "F2-right-shortcuts",
    "E-diam-grid", "E-diam-delaunay",
    "E-size-grid2d", "E-size-grid3d", "E-size-path",
    "E-reach-preprocessing", "E-reach-queries", "E-reach-closure",
    "E-reach-scc-baseline",
    "E-seq-crossover", "E-seq-johnson", "E-seq-fw", "E-seq-networkx",
    "E-kpair-latency", "E-kpair-paths",
    "E-planar-delaunay", "E-planar-qface-scaling", "E-planar-qface-queries",
    "E-tvpi-scaling", "E-tvpi-quality", "E-tvpi-utvpi",
    "E-par-backends", "E-par-fanout",
    "A1-inclusion", "A2-depth-work", "A2-wallclock", "A3-schedule",
    "A4-leaf-size", "A5-remark44",
]


def aggregate_results(results_dir: str | pathlib.Path) -> str:
    """Concatenate the per-experiment markdown files in canonical order."""
    results_dir = pathlib.Path(results_dir)
    if not results_dir.is_dir():
        raise FileNotFoundError(
            f"{results_dir} not found — run `pytest benchmarks/ --benchmark-only` first"
        )
    available = {p.stem: p for p in sorted(results_dir.glob("*.md"))}
    parts = ["# Benchmark results (auto-aggregated)\n"]
    seen = set()
    for exp_id in EXPERIMENT_ORDER:
        p = available.get(exp_id)
        if p is None:
            continue
        seen.add(exp_id)
        parts.append(f"## {exp_id}\n\n{p.read_text().rstrip()}\n")
    for stem, p in available.items():
        if stem not in seen:
            parts.append(f"## {stem}\n\n{p.read_text().rstrip()}\n")
    missing = [e for e in EXPERIMENT_ORDER if e not in seen]
    if missing:
        parts.append("## Missing experiments\n\n" + "\n".join(f"- {m}" for m in missing) + "\n")
    return "\n".join(parts)
