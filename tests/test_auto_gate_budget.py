"""The bounded auto gate: ``mode="auto"`` builds its first-pass trees with
``budget = n²`` (:func:`repro.core.septree.build_separator_tree`), stopping
each engine once its clique terms Σ(|S|²+|B|²) pass n².

Parity: on expanders, grids, a Delaunay graph and a disconnected
grid ∪ expander, the budgeted gate makes the unbudgeted gate's decision
with the same separability scores and, on an exact verdict, the same tree.
Cut trees: valid trees over budget whose unexpanded subproblems are leaves.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import augmentation_key
from repro.core import api
from repro.core.api import ShortestPathOracle
from repro.core.config import OracleConfig
from repro.core.digraph import WeightedDigraph
from repro.core.semiring import MIN_PLUS
from repro.core.septree import build_separator_tree
from repro.kernels.bellman_ford import bellman_ford
from repro.separators import available_engines, decompose
from repro.separators.quality import best_first_pass, eplus_score, separability_score
from repro.separators.spectral import spectral_separator_fn
from repro.workloads.generators import delaunay_digraph, expander_digraph, grid_digraph


def _union(a: WeightedDigraph, b: WeightedDigraph) -> WeightedDigraph:
    """Disjoint union: ``b``'s vertices follow ``a``'s."""
    return WeightedDigraph(
        a.n + b.n,
        np.concatenate([a.src, b.src + a.n]),
        np.concatenate([a.dst, b.dst + a.n]),
        np.concatenate([a.weight, b.weight]),
    )


def _graph(name: str) -> WeightedDigraph:
    rng = np.random.default_rng(0)
    if name.startswith("expander"):
        return expander_digraph(int(name[len("expander"):]), rng, degree=8)
    if name.startswith("grid") and "_" not in name:
        side = int(name[len("grid"):])
        return grid_digraph((side, side), rng)
    if name == "delaunay200":
        return delaunay_digraph(200, rng)[0]
    assert name == "grid_u_expander"
    return _union(
        grid_digraph((10, 10), np.random.default_rng(1)),
        expander_digraph(48, np.random.default_rng(2), degree=8),
    )


def _key(g: WeightedDigraph, tree) -> str:
    return augmentation_key(g, tree, MIN_PLUS, "leaves_up")


PARITY_SET = (
    "expander24", "expander64", "expander80", "grid12", "grid14",
    "delaunay200", "grid_u_expander",
)


class TestGateParity:
    @pytest.mark.parametrize("name", PARITY_SET)
    def test_budgeted_gate_decides_like_the_unbudgeted_one(self, name):
        g = _graph(name)
        _, full = best_first_pass(g, leaf_size=8)
        want_sep = separability_score(full)
        want_mode = "direct" if want_sep < api.DIRECT_GATE else "exact"

        tree, decision = api._auto_gate(g, None, 8)
        assert decision["mode"] == want_mode
        assert decision["separability"] == want_sep
        got = {c["engine"]: c for c in decision["candidates"]}
        for cand in full.selection["candidates"]:
            mine = got[cand["engine"]]
            if "error" in cand:
                assert mine.get("error") == cand["error"]
            else:
                assert mine["separability"] == cand["separability"]
                if "cut_at" not in mine:
                    assert mine["eplus_score"] == cand["eplus_score"]
        if want_mode == "exact":
            assert tree.cut_at is None
            assert _key(g, tree) == _key(g, full)


#: ``augmentation_key(g, decompose(g, engine))[:16]`` recorded with the
#: builder before it took a budget: the default (``budget=None``) path of
#: every registered engine must still build these exact trees.
UNBUDGETED_KEYS = {
    ("expander24", "flow"): "5a6655653535d66d",
    ("expander24", "multilevel"): "9768dd23f157d272",
    ("expander24", "planar"): "f12c10ac1b7d2646",
    ("expander24", "spectral"): "284fcdb744ad14d5",
    ("expander24", "treewidth"): "fbc5490187a9c5e3",
    ("grid12", "flow"): "31cd1e24e9ffc452",
    ("grid12", "multilevel"): "43ed2ac92b80bca5",
    ("grid12", "planar"): "b42834d988c8e521",
    ("grid12", "spectral"): "b7419e3cd61a3de4",
    ("grid12", "treewidth"): "8ea0b3ff026545e6",
    ("delaunay200", "flow"): "63eb2367c3041812",
    ("delaunay200", "multilevel"): "76e97cfd054d51e5",
    ("delaunay200", "planar"): "c7e83c2547fd1d81",
    ("delaunay200", "spectral"): "a609f9fbcc199be6",
    ("delaunay200", "treewidth"): "1d4b5016bc7f9d77",
}


class TestUnbudgetedEngines:
    def test_every_registered_engine_is_covered(self):
        assert {e for _, e in UNBUDGETED_KEYS} == set(available_engines())

    @pytest.mark.parametrize("name", ["expander24", "grid12", "delaunay200"])
    def test_decompose_without_budget_keeps_its_key(self, name):
        g = _graph(name)
        for engine in available_engines():
            tree = decompose(g, engine)
            assert tree.cut_at is None
            assert _key(g, tree)[:16] == UNBUDGETED_KEYS[(name, engine)], engine

    @pytest.mark.parametrize("engine", ["spectral", "multilevel"])
    def test_a_budget_the_tree_fits_changes_nothing(self, engine):
        g = _graph("grid12")
        full = decompose(g, engine)
        fitted = decompose(g, engine, budget=eplus_score(full))
        assert fitted.cut_at is None
        assert _key(g, fitted) == _key(g, full)


class TestCutTree:
    @pytest.mark.parametrize("budget", [0, 50, 400, 2000])
    def test_cut_tree_is_valid_over_budget_with_leaves_for_the_rest(self, budget):
        g = _graph("expander64")
        full = build_separator_tree(g, spectral_separator_fn(), leaf_size=8)
        tree = build_separator_tree(g, spectral_separator_fn(), leaf_size=8, budget=budget)
        tree.validate(g)
        assert tree.cut_at is not None
        assert eplus_score(tree) > budget
        # Nodes up to the cut are the full build's (same DFS order); every
        # node after it is a leaf, one per subproblem left on the stack,
        # and there are at most as many of those as the tree is tall.
        for a, b in zip(tree.nodes[: tree.cut_at], full.nodes):
            assert np.array_equal(a.vertices, b.vertices)
            assert np.array_equal(a.separator, b.separator)
        rest = tree.nodes[tree.cut_at:]
        assert rest and all(t.is_leaf for t in rest)
        assert len(rest) <= tree.height + 1
        assert len(tree.nodes) < len(full.nodes)

    def test_zero_budget_expands_only_the_root(self):
        g = _graph("grid12")
        tree = decompose(g, "spectral", budget=0)
        tree.validate(g)
        assert tree.cut_at == 1  # the root alone passes a budget of 0
        assert len(tree.nodes) == 3
        assert all(t.is_leaf for t in tree.nodes[1:])

    def test_auto_on_expander_256_goes_direct_without_building_the_tree(self):
        g = expander_digraph(256, np.random.default_rng(0), degree=8)
        oracle = ShortestPathOracle.build(g, config=OracleConfig(mode="auto"))
        assert oracle.stats()["mode"] == "direct"
        decision = oracle.stats()["separators"]["selection"]["mode_decision"]
        assert decision["separability"] == 0.0
        cands = {c["engine"]: c for c in decision["candidates"]}
        spectral = cands["spectral"]
        assert spectral["separability"] == 0.0
        assert spectral["eplus_score_at_least"] > 256 ** 2
        # The unbudgeted spectral tree has ~67k nodes here; the cut one
        # stops after a few hundred.
        assert 0 < spectral["cut_at"] <= 1000
        # Multilevel decomposes the expander too; its cut tree scores 0.0.
        assert "error" not in cands["multilevel"]
        assert cands["multilevel"]["separability"] == 0.0
        assert cands["multilevel"]["cut_at"] >= 1
        sources = [0, 100, 255]
        assert np.array_equal(oracle.distances(sources), bellman_ford(g, sources))

    def test_nonpositive_gate_builds_complete_trees(self, monkeypatch):
        """A gate of 0 can send a 0.0 tree to the exact tier, which must
        then get the complete tree, so no budget is set."""
        g = _graph("expander24")
        monkeypatch.setattr(api, "DIRECT_GATE", 0.0)
        tree, decision = api._auto_gate(g, None, 8)
        assert decision["mode"] == "exact"
        assert tree.cut_at is None
        _, full = best_first_pass(g, leaf_size=8)
        assert _key(g, tree) == _key(g, full)
