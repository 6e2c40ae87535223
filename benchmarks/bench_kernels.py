"""E-kern — the min-plus product's two paths: broadcast vs pruned.

:func:`~repro.kernels.minplus.semiring_matmul` broadcasts products of at
most ``AUTO_SMALL_OPS`` ⊗-operations and prunes larger ones.  Experiments,
all recorded in ``benchmarks/results/BENCH_kernels.json``:

* **micro curves** — one doubling square per path on one-hop and closed
  (dense) matrices from the grid and Delaunay workloads and on random
  matrices with 50% ∞ fill, over a size sweep from 16² to past the
  machine's ~190² cache cliff.  The 16², 32² and 64² rows sit on both sides
  of the size rule, so each row says which path the rule picks and whether
  that path was the faster one; the record names the crossover.
* **macro** — end-to-end :func:`~repro.core.doubling.augment_doubling` of
  the 56×56 grid per path, on two decompositions: the default fine grid
  tree (μ=1/2 — every product is tiny, the broadcast path is the right call
  and the rule must not regress it) and a coarse high-μ tree (fat band
  separators — the Table-1 μ→1 regime, where node matrices are a few
  hundred² and the pruned path wins ≥1.5×).  Augmentation edges are
  checked bit-identical across paths.

A path is forced through the module constants, the way the tests force
it: ``AUTO_SMALL_OPS = inf`` broadcasts every product, ``-1`` prunes every
one.
"""

from __future__ import annotations

import json
import os
import platform
import time

import numpy as np
import pytest

from repro.analysis.tables import render_table
from repro.core.doubling import augment_doubling
from repro.core.semiring import MIN_PLUS
from repro.core.septree import build_separator_tree
from repro.kernels import minplus
from repro.kernels.minplus import semiring_closure, semiring_matmul
from repro.separators.grid import decompose_grid
from repro.workloads.generators import delaunay_digraph, grid_digraph

SIDE = 56

#: Forced paths (module constants to patch) and the unforced size rule.
PATHS = {
    "reference": {"AUTO_SMALL_OPS": np.inf},
    "pruned": {"AUTO_SMALL_OPS": -1},
}

#: Micro-sweep operand sizes: both sides of the size rule (n³ ≤ 2¹⁵ means
#: n ≤ 32) and across the ~190² broadcast cache cliff.
MICRO_SIZES = [16, 32, 64, 100, 196, 324]

#: Coarse high-μ decomposition of the 56×56 grid: a fat band separator.
FAT_BAND = 4
FAT_LEAF = 300

#: Acceptance bar on the coarse-tree doubling augmentation: the pruned path
#: must beat the broadcast path by ≥1.5×.
MACRO_SPEEDUP = 1.5


def _record_json(results_dir, key: str, record: dict) -> None:
    """Merge one experiment record into ``BENCH_kernels.json`` (atomic
    temp+rename — a crashed run must not truncate accumulated results)."""
    path = results_dir / "BENCH_kernels.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    data[key] = record
    data["host"] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    tmp = path.parent / f"{path.name}.tmp-{os.getpid()}"
    tmp.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


def _best_of(fn, reps=3) -> float:
    best = np.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _forced(monkeypatch, path: str):
    for name, value in PATHS[path].items():
        monkeypatch.setattr(minplus, name, value)


def _rule_path(n: int) -> str:
    return "reference" if float(n) ** 3 <= minplus.AUTO_SMALL_OPS else "pruned"


def _one_hop_matrix(g) -> np.ndarray:
    """Dense one-hop min-plus matrix of ``g`` — the shape of an early
    doubling iterate (mostly +inf)."""
    w = np.full((g.n, g.n), np.inf)
    np.fill_diagonal(w, 0.0)
    np.minimum.at(w, (g.src, g.dst), g.weight)
    return w


def fat_grid_tree(g, side: int, band: int = FAT_BAND, leaf_size: int = FAT_LEAF):
    """High-μ decomposition of a side×side grid: separators are ``band``
    adjacent rows/columns, so V_H(t) is a few hundred vertices — the
    regime where the augmentation's products leave the cache."""

    def fat_sep(sub, global_ids):
        r, c = global_ids // side, global_ids % side
        coord = r if (r.max() - r.min() >= c.max() - c.min()) else c
        mid = (coord.min() + coord.max()) // 2
        lo = mid - band // 2
        return np.nonzero((coord >= lo) & (coord < lo + band))[0]

    return build_separator_tree(g, fat_sep, leaf_size=leaf_size)


@pytest.fixture(scope="module")
def grid_workload():
    rng = np.random.default_rng(0)
    g = grid_digraph((SIDE, SIDE), rng)
    return g


def _micro_operands(family: str, n: int):
    """``(label, matrix)`` pairs of one family at size ``n`` (grids round
    to the nearest square side, so their n is the actual vertex count)."""
    rng = np.random.default_rng(n)
    if family == "random":
        a = rng.uniform(1.0, 99.0, (n, n))
        a[rng.random((n, n)) < 0.5] = np.inf
        return [("50% inf", a)]
    if family == "grid":
        side = int(round(n**0.5))
        g = grid_digraph((side, side), rng)
    else:
        g, _ = delaunay_digraph(n, rng)
    one_hop = _one_hop_matrix(g)
    return [("one-hop", one_hop), ("closed", semiring_closure(one_hop))]


def test_micro_kernel_curves(report, results_dir, monkeypatch):
    """One doubling square per path on sparse, dense and half-filled
    operands; every row is checked bit-identical across paths."""
    rows = []
    record = {}
    rule_right = {}
    for family in ("grid", "delaunay", "random"):
        for size in MICRO_SIZES:
            for label, a in _micro_operands(family, size):
                n = a.shape[0]
                want = semiring_matmul(a, a, MIN_PLUS)
                times = {}
                for path in PATHS:
                    _forced(monkeypatch, path)
                    got = semiring_matmul(a, a, MIN_PLUS)
                    assert np.array_equal(got, want), (family, n, label, path)
                    times[path] = _best_of(lambda: semiring_matmul(a, a, MIN_PLUS))
                    monkeypatch.undo()
                rule = _rule_path(n)
                faster = min(times, key=times.get)
                rule_right[f"{family}-{n}-{label}"] = rule == faster
                ratio = times["reference"] / times["pruned"]
                rows.append([
                    family, n, label,
                    round(times["reference"] * 1e3, 3),
                    round(times["pruned"] * 1e3, 3),
                    round(ratio, 2), rule, faster,
                ])
                record[f"{family}-{n}-{label}"] = {
                    "n": n,
                    "times_ms": {p: times[p] * 1e3 for p in PATHS},
                    "speedup_pruned": ratio,
                    "rule_path": rule,
                    "faster_path": faster,
                }
    record["auto_small_ops"] = minplus.AUTO_SMALL_OPS
    record["rule_picks_faster"] = sum(rule_right.values())
    record["rows"] = len(rule_right)
    table = render_table(
        ["family", "n", "iterate", "reference ms", "pruned ms", "pruned x",
         "rule picks", "faster"],
        rows,
        title=(
            "E-kern micro: one min-plus square per path (bit-identity checked); "
            f"the rule broadcasts n^3 <= {minplus.AUTO_SMALL_OPS} and picks the "
            f"faster path on {record['rule_picks_faster']}/{record['rows']} rows"
        ),
    )
    report("E-kern-micro", table)
    _record_json(results_dir, "micro", record)


def test_macro_doubling_augmentation(grid_workload, report, results_dir, monkeypatch):
    """End-to-end Algorithm 4.3 per path on the 56×56 grid, fine and coarse
    trees; asserts bit-identical E⁺ and the ≥1.5× coarse-tree bar."""
    g = grid_workload
    trees = {
        "fine (mu=1/2 grid tree)": decompose_grid(g, (SIDE, SIDE)),
        "coarse (high-mu fat-band tree)": fat_grid_tree(g, SIDE),
    }
    rows = []
    record = {}
    for tree_label, tree in trees.items():
        times = {}
        augs = {}
        for path in (*PATHS, "rule"):
            if path in PATHS:
                _forced(monkeypatch, path)
            t0 = time.perf_counter()
            augs[path] = augment_doubling(g, tree, keep_node_distances=False)
            times[path] = time.perf_counter() - t0
            monkeypatch.undo()
        base = augs["reference"]
        for path in ("pruned", "rule"):
            assert np.array_equal(base.src, augs[path].src), path
            assert np.array_equal(base.dst, augs[path].dst), path
            assert np.array_equal(base.weight, augs[path].weight), path
        ref = times["reference"]
        rows.append([
            tree_label, base.size,
            *(round(times[p], 2) for p in times),
            round(ref / times["pruned"], 2), round(ref / times["rule"], 2),
        ])
        record[tree_label.split(" ")[0]] = {
            "eplus": base.size,
            "times_s": times,
            "speedup_pruned": ref / times["pruned"],
            "speedup_rule": ref / times["rule"],
        }
    table = render_table(
        ["tree", "|E+|", "reference s", "pruned s", "rule s", "pruned x", "rule x"],
        rows,
        title="E-kern macro: augment_doubling(56x56 grid) per path — E+ bit-identical",
    )
    report("E-kern-macro", table)
    _record_json(results_dir, "macro", record)
    speedup = record["coarse"]["speedup_pruned"]
    assert speedup >= MACRO_SPEEDUP, (
        f"coarse-tree pruned speedup {speedup:.2f}x < {MACRO_SPEEDUP}x"
    )
