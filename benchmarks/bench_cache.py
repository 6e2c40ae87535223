"""E-cache — the content-addressed build cache and the query-row LRU.

Two experiments on the 56×56 grid workload (the E-par/E-serve graph),
all appended to ``benchmarks/results/BENCH_cache.json``:

* **cold vs cached build** — the same ``(graph, tree, method)`` built
  through ``cache="readwrite"``: a build into a populated store must be a
  store hit, at least ``BUILD_SPEEDUP``× faster than the cold §4
  construction into an empty one, with bit-identical distances.
* **row-LRU hit latency** — a repeated single-source query against a
  ``row_cache``-enabled :class:`~repro.core.query.QueryEngine` must be
  answered from the per-source LRU at least ``ROW_HIT_SPEEDUP``× faster
  than a cold single-source relaxation — the serving path
  ``repro.server`` rides for repeated sources.

Both experiments time their two sides in the same rotating rounds (each
cold build gets a fresh store directory, each cold query a new source);
the bars read the median per-round ratio.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.analysis.tables import render_table
from repro.core.api import ShortestPathOracle
from repro.core.config import OracleConfig
from repro.separators.grid import decompose_grid
from repro.workloads.generators import grid_digraph

SIDE = 56

#: Acceptance bar: a store hit must beat the cold build by this factor.
BUILD_SPEEDUP = 5.0

#: Acceptance bar: a row-LRU hit must beat a cold single-source query (p50).
ROW_HIT_SPEEDUP = 10.0

BUILD_ROUNDS = 4        # rotating rounds of cold build vs store hit
QUERY_ROUNDS = 16       # rotating rounds of cold query vs row-cache hit


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(0)
    g = grid_digraph((SIDE, SIDE), rng)
    tree = decompose_grid(g, (SIDE, SIDE))
    return g, tree


def test_ecache_cold_vs_cached_build(timed, workload, report, record_json, tmp_path,
                                    provenance):
    """Second build of the same content is a store hit ≥5× faster than the
    cold construction, with bit-identical distances."""
    g, tree = workload
    store = str(tmp_path / "store")
    fresh = (str(tmp_path / f"cold-{i}") for i in itertools.count())
    res = timed({
        "cold": lambda: ShortestPathOracle.build(
            g, tree, config=OracleConfig(cache="readwrite", cache_dir=next(fresh))),
        "cached": lambda: ShortestPathOracle.build(
            g, tree, config=OracleConfig(cache="readwrite", cache_dir=store)),
    }, BUILD_ROUNDS)
    cold_oracle, hit_oracle = res.outputs["cold"], res.outputs["cached"]
    assert cold_oracle.cache_info["status"] == "stored", cold_oracle.cache_info
    assert hit_oracle.cache_info["status"] == "hit", hit_oracle.cache_info
    srcs = np.random.default_rng(7).integers(0, g.n, size=8)
    want = cold_oracle.distances(srcs)
    got = hit_oracle.distances(srcs)
    assert np.array_equal(want, got)
    speedup = res.ratio_quartiles("cold", "cached")
    rows = [
        ["cold build ms", res.span(res.quartiles("cold", 1e3), 1)],
        ["cached build ms", res.span(res.quartiles("cached", 1e3), 1)],
        ["speedup (per-round ratio)", res.span(speedup, 1)],
        ["|E+|", cold_oracle.augmentation.size],
        ["bit-identical distances", True],
    ]
    report(
        "E-cache-build",
        render_table(["metric", "median [quartiles]"], rows,
                     title=f"E-cache: cold vs store-hit build, {SIDE}x{SIDE} grid, "
                           f"{BUILD_ROUNDS} rotating rounds")
        + "\n\nFinding: the content-addressed store turns repeat "
        "preprocessing (paper comment (iv)'s reuse regime) into reading the "
        "E⁺ arrays and compiling the §3.2 schedule. The key is a digest of "
        "the caller's graph and tree, so a hit reuses them and never reads "
        "the entry's copies.\n\n" + provenance["line"],
    )
    record_json("BENCH_cache.json", "build_56x56", {
        "workload": f"leaves_up build, {SIDE}x{SIDE} grid, cache=readwrite",
        "cold_s": res.median("cold"),
        "cached_s": res.median("cached"),
        "speedup": speedup[1],
        "speedup_quartiles": speedup,
        "timings_s": res.record(),
        "eplus": int(cold_oracle.augmentation.size),
        "bit_identical": True,
    })
    assert speedup[1] >= BUILD_SPEEDUP, (
        f"cache hit only {speedup[1]:.1f}x faster than cold build "
        f"(cold {res.median('cold'):.3f}s, cached {res.median('cached'):.3f}s; "
        f"bar {BUILD_SPEEDUP}x)"
    )


def test_ecache_row_lru_hit_latency(timed, workload, report, record_json, provenance):
    """A repeated source is answered from the engine's row LRU ≥10× faster
    (p50) than a cold single-source relaxation, bit-identically."""
    g, tree = workload
    oracle = ShortestPathOracle.build(g, tree)
    hot_src = 0
    with oracle.query_engine(OracleConfig(executor="serial", row_cache=64)) as eng:
        misses = itertools.count(1)  # every cold call asks for a source not yet cached
        res = timed({
            "cold": lambda: eng.query(next(misses)),
            "hit": lambda: eng.query(hot_src),
        }, QUERY_ROUNDS)
        stats = eng.stats()["row_cache"]
    assert np.array_equal(res.outputs["hit"], oracle.distances(hot_src))
    cold_p50, hit_p50 = res.median("cold"), res.median("hit")
    speedup = res.ratio_quartiles("cold", "hit")
    rows = [
        ["cold single-source ms", res.span(res.quartiles("cold", 1e3), 3)],
        ["row-cache hit ms", res.span(res.quartiles("hit", 1e3), 4)],
        ["speedup (per-round ratio)", res.span(speedup, 1)],
        ["LRU hits / misses", f"{stats['hits']} / {stats['misses']}"],
    ]
    report(
        "E-cache-row-lru",
        render_table(["metric", "median [quartiles]"], rows,
                     title=f"E-cache: row-LRU hit vs cold query, {SIDE}x{SIDE} grid, "
                           f"{QUERY_ROUNDS} rotating rounds")
        + "\n\n" + provenance["line"],
    )
    record_json("BENCH_cache.json", "row_lru_56x56", {
        "workload": f"single-source queries, {SIDE}x{SIDE} grid, row_cache=64",
        "cold_p50_s": cold_p50,
        "hit_p50_s": hit_p50,
        "speedup": speedup[1],
        "speedup_quartiles": speedup,
        "timings_s": res.record(),
        "hits": stats["hits"],
        "misses": stats["misses"],
        "bit_identical": True,
    })
    assert stats["hits"] >= QUERY_ROUNDS, stats
    assert speedup[1] >= ROW_HIT_SPEEDUP, (
        f"row-cache hit only {speedup[1]:.1f}x faster than cold query "
        f"(cold p50 {cold_p50 * 1e3:.3f}ms, hit p50 {hit_p50 * 1e3:.4f}ms; "
        f"bar {ROW_HIT_SPEEDUP}x)"
    )
