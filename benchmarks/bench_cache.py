"""E-cache — the content-addressed build cache and the query-row LRU.

Three experiments, all appended to ``benchmarks/results/BENCH_cache.json``;
the first two on the 56×56 grid workload (the E-par/E-serve graph):

* **cold vs cached build** — the same ``(graph, tree, method)`` built
  through ``cache="readwrite"``: a build into a populated store must be a
  store hit, at least ``BUILD_SPEEDUP``× faster than the cold §4
  construction into an empty one, with bit-identical distances.
* **row-LRU hit latency** — a repeated single-source query against a
  ``row_cache``-enabled :class:`~repro.core.query.QueryEngine` must be
  answered from the per-source LRU at least ``ROW_HIT_SPEEDUP``× faster
  than a cold single-source relaxation — the serving path
  ``repro.server`` rides for repeated sources.
* **restart with a tree entry** — a ``cache="read"`` restart (build, then
  a first 64-row batch) of builds that derive their tree from a named
  spec: ``mode="auto"`` expanders and a default-``separator`` 40² grid.
  One store holds only the E⁺ entry, so the restart reruns the gate or
  decomposition; the other also holds the tree entry.  The tree-entry
  side must be at least ``RESTART_SPEEDUP``× faster, with identical rows.

All experiments time their two sides in the same rotating rounds (each
cold build gets a fresh store directory, each cold query a new source);
the bars read the median per-round ratio.
"""

from __future__ import annotations

import itertools
import pathlib

import numpy as np
import pytest

from repro.analysis.tables import render_table
from repro.cache.keys import TREE_KEY_PREFIX
from repro.core.api import ShortestPathOracle
from repro.core.config import OracleConfig
from repro.separators.grid import decompose_grid
from repro.workloads.generators import expander_digraph, grid_digraph

SIDE = 56

#: Acceptance bar: a store hit must beat the cold build by this factor.
BUILD_SPEEDUP = 5.0

#: Acceptance bar: a row-LRU hit must beat a cold single-source query (p50).
ROW_HIT_SPEEDUP = 10.0

#: Acceptance bar: a restart that restores its tree from a tree entry must
#: beat one that reruns the gate or decomposition by this factor.
RESTART_SPEEDUP = 1.5

BUILD_ROUNDS = 4        # rotating rounds of cold build vs store hit
QUERY_ROUNDS = 16       # rotating rounds of cold query vs row-cache hit
RESTART_ROUNDS = 6      # rotating rounds of E⁺-only vs E⁺ + tree restarts
RESTART_ROWS = 64       # rows of the restart's first batch


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


def _restart_workloads():
    """``(record key, label, graph, build config)`` of each restart row."""
    for n in (64, 256, 1024):
        g = expander_digraph(n, np.random.default_rng(0), degree=8)
        yield f"restart_expander_{n}", f"expander n={n}, mode=auto", g, OracleConfig(mode="auto")
    g = grid_digraph((40, 40), np.random.default_rng(0))
    yield "restart_grid_40x40", "40x40 grid, separator=auto", g, OracleConfig()


def test_ecache_restart_tree_entry(timed, report, record_json, tmp_path, provenance):
    """A ``cache="read"`` restart whose store holds the tree entry skips
    the auto gate or decomposition: ≥1.5× faster than the same restart
    from an E⁺-only store, with identical rows."""
    rows = []
    for key, label, g, base in _restart_workloads():
        stores = {side: str(tmp_path / f"{key}-{side}") for side in ("eplus_only", "eplus_tree")}
        for d in stores.values():
            ShortestPathOracle.build(g, config=base.replace(cache="readwrite", cache_dir=d))
        for path in pathlib.Path(stores["eplus_only"]).glob(f"{TREE_KEY_PREFIX}*.npz"):
            path.unlink()
        srcs = np.random.default_rng(1).choice(g.n, size=min(RESTART_ROWS, g.n), replace=False)

        def restart(d):
            oracle = ShortestPathOracle.build(g, config=base.replace(cache="read", cache_dir=d))
            with oracle.query_engine(OracleConfig(executor="serial")) as eng:
                dist, _ = eng.submit(srcs)
            return oracle, dist

        res = timed({side: (lambda d=d: restart(d)) for side, d in stores.items()},
                    RESTART_ROUNDS)
        (old, old_rows), (new, new_rows) = res.outputs["eplus_only"], res.outputs["eplus_tree"]
        assert (old.cache_info["tree"], new.cache_info["tree"]) == ("miss", "hit")
        assert old.cache_info["status"] == new.cache_info["status"] == "hit"
        assert new.tree.selection == old.tree.selection
        assert new_rows.tobytes() == old_rows.tobytes()
        speedup = res.ratio_quartiles("eplus_only", "eplus_tree")
        tier = "direct" if new.augmentation.method == "direct" else "exact"
        rows.append([label, tier, res.span(res.quartiles("eplus_only", 1e3), 1),
                     res.span(res.quartiles("eplus_tree", 1e3), 1),
                     f"{new.cache_info['tree_load_s'] * 1e3:.2f}", res.span(speedup, 1)])
        record_json("BENCH_cache.json", key, {
            "workload": f"{label}: cache=read restart + first {srcs.size}-row batch",
            "tier": tier,
            "eplus_only_s": res.median("eplus_only"),
            "eplus_tree_s": res.median("eplus_tree"),
            "speedup": speedup[1],
            "speedup_quartiles": speedup,
            "timings_s": res.record(),
            "bit_identical": True,
        })
        assert speedup[1] >= RESTART_SPEEDUP, (
            f"{label}: tree-entry restart only {speedup[1]:.1f}x faster "
            f"(bar {RESTART_SPEEDUP}x)"
        )
    report(
        "E-cache-restart",
        render_table(
            ["workload", "tier", "E⁺-only store ms", "E⁺ + tree store ms",
             "tree load ms (last round)", "speedup (per-round ratio)"],
            rows,
            title=f"E-cache: cache=read restart (build + first {RESTART_ROWS}-row batch), "
                  f"E⁺-only vs E⁺ + tree entry, {RESTART_ROUNDS} rotating rounds",
        )
        + "\n\nFinding: paper comment (iv) says the decomposition depends only on "
        "the skeleton. A tree entry keyed by (n, src, dst) and the separator "
        "config lets a restart skip the auto gate's first pass or the "
        "decomposition; what remains is the two entry loads, the §3.2 compile "
        "and the first batch.\n\n" + provenance["line"],
    )
