"""E-shard — the in-process three-leg route vs the engine on its own pool.

Two timed experiments and one spine count, all recorded in
``benchmarks/results/BENCH_shard.json``:

* **56×56 grid** — the E-par workload with integer weights (so the
  three-leg route is bit-identical to the direct engine).  A 64-source
  batch is answered by one :class:`QueryEngine` over the whole oracle on
  each executor (``serial``, ``thread:2``, ``shm:2``: the honest parallel
  baseline on a 2-CPU host) and by :class:`~repro.shard.ShardRouter` at
  k ∈ {2, 4}, all in the same rotating rounds.
* **multilevel-separator random digraph** — the μ-programmed family
  (:func:`~repro.workloads.synthetic.separator_programmable_family`),
  whose deep separator tree is the shape the shard cut is designed for.
* **flow-refined tree** — the same digraph partitioned from a
  flow-refined spectral tree: smaller separators ⇒ smaller boundary
  cliques ⇒ a measurably smaller spine graph H, bit-identical answers.

Why the route can win even on one CPU: leg 1 relaxes each source over its
home shard's *subgraph* (≈ n/k vertices) instead of the whole graph, the
spine Bellman–Ford runs on |spine| ≪ n vertices, and leg 3 is a dense
min-plus combine — so the per-row work drops roughly with the shard size
and any speedup is algorithmic, not parallel.  Whether that saving beats
the three legs' fixed costs depends on the tree; the E-shard-grid and
E-shard-multilevel findings state which way each graph went.

Each table is followed by the ``retired`` record of ``BENCH_shard.json``:
the run that measured the deleted one-process-per-shard fleet beside the
same paths, kept so the deletion can be re-read.
"""

from __future__ import annotations

import contextlib
import json

import numpy as np

from repro.analysis.tables import render_table
from repro.core.api import ShortestPathOracle
from repro.core.config import OracleConfig
from repro.core.digraph import WeightedDigraph
from repro.separators import decompose
from repro.separators.flow import refine_tree
from repro.separators.grid import decompose_grid
from repro.shard import ShardRouter
from repro.workloads.generators import grid_digraph
from repro.workloads.synthetic import separator_programmable_family

BATCH_SOURCES = 64
ROUNDS = 21                            # rotating rounds over every path
EXECUTORS = ("serial", "thread:2", "shm:2")
KS = (2, 4)


def _integer_grid_56():
    """The E-par 56×56 grid with weights rounded to integers so shard
    routing is bit-identical to the direct engine (DESIGN.md §8)."""
    rng = np.random.default_rng(0)
    shape = (56, 56)
    g = grid_digraph(shape, rng)
    w = np.round(g.weight * 8.0).astype(np.float64)
    g = WeightedDigraph(g.n, g.src, g.dst, w)
    return g, decompose_grid(g, shape)


def _compare(timed, g, tree, srcs):
    """Per-path records for the direct engine on every executor and the
    inline router at every k, all timed in the same rotating rounds: batch
    ms quartiles, rows/s at the median, the per-round speed ratio against
    the serial engine (above 1 = faster), bit-identity with it and, for the
    routes, the spine size; plus the rounds themselves."""
    oracle = ShortestPathOracle.build(g, tree)
    with contextlib.ExitStack() as stack:
        paths = {spec: stack.enter_context(oracle.query_engine(OracleConfig(executor=spec)))
                 for spec in EXECUTORS}
        for k in KS:
            paths[f"inline-k{k}"] = stack.enter_context(ShardRouter(g, tree, k=k))
        res = timed({label: (lambda e=e: e.query(srcs)) for label, e in paths.items()},
                    ROUNDS)
        spines = {label: e.stats()["spine"] for label, e in paths.items()
                  if label not in EXECUTORS}
    runs = {}
    for label in paths:
        runs[label] = {
            "ms": res.quartiles(label, 1e3),
            "rows_per_s": len(srcs) / res.median(label),
            "vs_serial": res.ratio_quartiles("serial", label),
            "exact": bool(np.array_equal(res.outputs[label], res.outputs["serial"])),
        }
        if label in spines:
            runs[label].update({
                "spine_vertices": spines[label]["vertices"],
                "spine_phases_max": spines[label]["phases_max"],
            })
    return runs


def _span(q: list[float], digits: int = 2) -> str:
    return f"{q[1]:.{digits}f} [{q[0]:.{digits}f}–{q[2]:.{digits}f}]"


def _order(label: str) -> tuple:
    """Executors first (in ``EXECUTORS`` order), then routes by name."""
    return (EXECUTORS.index(label), "") if label in EXECUTORS else (len(EXECUTORS), label)


def _render(runs: dict, title: str) -> str:
    rows = [[label, _span(runs[label]["ms"], 1), round(runs[label]["rows_per_s"], 1),
             _span(runs[label]["vs_serial"])] for label in sorted(runs, key=_order)]
    return render_table(["path", "ms per batch", "rows/s", "vs serial"], rows, title=title)


def _fastest(runs: dict) -> tuple[str, bool]:
    """The path with the lowest median batch time, and whether its q3 is
    below every other path's q1 (a win beyond quartiles)."""
    best = min(runs, key=lambda label: runs[label]["ms"][1])
    clear = all(runs[best]["ms"][2] < r["ms"][0] for label, r in runs.items() if label != best)
    return best, clear


def _retired_section(results_dir, key: str) -> str:
    """The retirement run's rows for ``key`` (the deleted process fleet
    beside the kept paths), or nothing if the record is absent."""
    path = results_dir / "BENCH_shard.json"
    retired = json.loads(path.read_text()).get("retired") if path.exists() else None
    if not retired or key not in retired["graphs"]:
        return ""
    runs = retired["graphs"][key]["runs"]
    best, clear = _fastest(runs)
    fleet = runs["process-k4"]["ms"]
    won = all(fleet[2] < r["ms"][0] for label, r in runs.items() if not label.startswith("process"))
    return (
        "\n\n" + _render(runs, f"Retirement run at revision {retired['revision']}, the "
                               "commit before the fleet's deletion "
                               f"({retired['rounds']} rotating rounds): the deleted "
                               "one-process-per-shard fleet (process-k*) beside the kept paths")
        + f"\n\nIn that run `{best}` had the lowest median"
        + (" beyond quartiles" if clear else " (within another path's quartiles)")
        + "; the k=4 fleet " + ("beat" if won else "did not beat")
        + " every kept path beyond quartiles."
    )


def _finding(runs: dict) -> str:
    best, clear = _fastest(runs)
    inline = runs["inline-k4"]["vs_serial"][1]
    return (
        f"Finding: `{best}` has the lowest median batch time"
        + (" beyond quartiles" if clear else " (within another path's quartiles)")
        + f"; the in-process k=4 route runs at {inline:.2f}× the serial engine.  "
        "The route relaxes ~n/k-vertex shards plus a spine instead of the "
        "whole graph, and pays three legs for it; the engine's own pool "
        "gets the second CPU without a shard cut."
    )


def _run(timed, report, record_json, results_dir, provenance, g, tree, srcs,
         exp_id, key, title, workload):
    runs = _compare(timed, g, tree, srcs)
    report(exp_id, _render(runs, f"{title}; median [quartiles] of {ROUNDS} rotating rounds")
           + "\n\n" + _finding(runs) + "\n\n" + provenance["line"]
           + _retired_section(results_dir, key))
    record_json("BENCH_shard.json", key, {"workload": workload, "rounds": ROUNDS, "runs": runs})
    for label, r in runs.items():
        assert r["exact"], f"{label} not bit-identical to the serial engine"


def test_eshard_route_vs_engine_56x56(timed, report, record_json, results_dir, provenance):
    """The 56×56 integer grid: every path bit-identical to the serial
    engine."""
    g, tree = _integer_grid_56()
    srcs = np.random.default_rng(7).integers(0, g.n, size=BATCH_SOURCES)
    _run(timed, report, record_json, results_dir, provenance, g, tree, srcs,
         "E-shard-grid", "grid_56x56",
         f"E-shard: {BATCH_SOURCES}-source batches, 56x56 grid (integer weights)",
         f"{BATCH_SOURCES}-source batch, 56x56 integer grid")


def test_eshard_route_vs_engine_multilevel(timed, report, record_json, results_dir,
                                           provenance):
    """Same comparison on the μ-programmed multilevel-separator digraph —
    the deep-tree shape the shard cut targets."""
    rng = np.random.default_rng(3)
    g, tree = separator_programmable_family(2200, 0.5, rng)
    # integer weights: keeps the three-leg route bit-identical (DESIGN.md §8)
    g = WeightedDigraph(g.n, g.src, g.dst, np.ceil(g.weight))
    srcs = rng.integers(0, g.n, size=BATCH_SOURCES)
    _run(timed, report, record_json, results_dir, provenance, g, tree, srcs,
         "E-shard-multilevel", "multilevel_mu05",
         f"E-shard: {BATCH_SOURCES}-source batches, mu=0.5 multilevel digraph n={g.n}",
         f"{BATCH_SOURCES}-source batch, mu=0.5 family n={g.n}")


def test_eshard_refined_tree_smaller_spine(report, record_json):
    """Flow-refining the partition tree shrinks the spine graph H the k=4
    route coordinates through — same answers, smaller boundary cliques
    (``BENCH_shard`` records a smaller ``spine_vertices`` for the refined
    build)."""
    rng = np.random.default_rng(3)
    g, _ = separator_programmable_family(2200, 0.5, rng)
    # integer weights: keeps the three-leg route bit-identical (DESIGN.md §8)
    g = WeightedDigraph(g.n, g.src, g.dst, np.ceil(g.weight))
    tree = decompose(g, "spectral")
    refined, rec = refine_tree(g, tree)
    assert rec["fallback"] is None, rec
    srcs = rng.integers(0, g.n, size=BATCH_SOURCES)
    spines = {}
    results = {}
    for label, t in (("spectral", tree), ("flow-refined", refined)):
        with ShardRouter(g, t, k=4) as router:
            results[label] = router.query(srcs)
            spines[label] = router.stats()["spine"]
    assert np.array_equal(results["spectral"], results["flow-refined"])
    report(
        "E-shard-refined-spine",
        render_table(
            ["tree", "Σ|S|", "spine |V|", "spine phases"],
            [
                [label, int(t.separator_sizes().sum()),
                 spines[label]["vertices"], spines[label]["phases_max"]]
                for label, t in (("spectral", tree), ("flow-refined", refined))
            ],
            title=(
                f"E-shard spine vs separator refinement (k=4, "
                f"mu=0.5 family n={g.n}): "
                f"{spines['spectral']['vertices']} → "
                f"{spines['flow-refined']['vertices']} spine vertices"
            ),
        )
        + "\n\nFinding: the spine is built from the shard boundaries, so "
        "every separator vertex the flow refiner removes leaves the "
        "coordination graph directly — queries stay bit-identical while "
        "the cross-shard Bellman–Ford shrinks.",
    )
    record_json("BENCH_shard.json", "refined_spine_mu05", {
        "workload": f"{BATCH_SOURCES}-source batch, mu=0.5 family n={g.n}, k=4",
        "spine_vertices_unrefined": spines["spectral"]["vertices"],
        "spine_vertices_refined": spines["flow-refined"]["vertices"],
        "sep_total_unrefined": int(tree.separator_sizes().sum()),
        "sep_total_refined": int(refined.separator_sizes().sum()),
        "exact": True,
        "refine_wall_s": rec["wall_s"],
    })
    assert spines["flow-refined"]["vertices"] < spines["spectral"]["vertices"]
