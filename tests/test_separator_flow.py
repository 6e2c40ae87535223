"""Flow-based separator refinement: the max-flow min-vertex-cut solver
(against the networkx oracle), whole-tree refinement invariants, query
equivalence of refined builds, the engine registry, and the knobs."""

import numpy as np
import pytest

from repro.core.api import ShortestPathOracle
from repro.core.config import OracleConfig
from repro.core.digraph import WeightedDigraph
from repro.core.septree import split_components
from repro.separators import available_engines, decompose, resolve_engine
from repro.separators.flow import (
    min_vertex_cut,
    new_refinement_record,
    refine_cut,
    refine_tree,
)
from repro.separators.quality import best_first_pass, eplus_score
from repro.workloads.generators import grid_digraph
from repro.workloads.synthetic import separator_programmable_family

nx = pytest.importorskip("networkx")


def _random_digraph(n: int, m: int, rng) -> WeightedDigraph:
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    keep = src != dst
    return WeightedDigraph(n, src[keep], dst[keep], np.ones(int(keep.sum())))


def _nx_max_flow_value(sub, side_a, side_b, candidates) -> int:
    """The same split-node network, solved by networkx ``minimum_cut`` —
    the DESIGN-sanctioned test oracle for our numpy solver."""
    inf = 1 << 40
    G = nx.DiGraph()
    cand = set(int(v) for v in candidates)
    for v in range(sub.n):
        G.add_edge(("in", v), ("out", v), capacity=1 if v in cand else inf)
    for u, w in zip(sub.src.tolist(), sub.dst.tolist()):
        G.add_edge(("out", u), ("in", w), capacity=inf)
        G.add_edge(("out", w), ("in", u), capacity=inf)
    for a in side_a.tolist():
        G.add_edge("s", ("in", a), capacity=inf)
    for b in side_b.tolist():
        G.add_edge(("out", b), "t", capacity=inf)
    value, _ = nx.minimum_cut(G, "s", "t")
    return int(value)


def _disconnects(sub, cut, side_a, side_b) -> bool:
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    keep = np.ones(sub.n, dtype=bool)
    keep[cut] = False
    mask = keep[sub.src] & keep[sub.dst]
    adj = sp.csr_matrix(
        (np.ones(int(mask.sum())), (sub.src[mask], sub.dst[mask])),
        shape=(sub.n, sub.n),
    )
    _, labels = connected_components(adj, directed=False)
    return not bool(np.isin(labels[side_a], labels[side_b]).any())


class TestMinVertexCut:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_networkx_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(12, 64))
        sub = _random_digraph(n, 3 * n, rng)
        verts = rng.permutation(n)
        side_a, side_b = verts[:3], verts[3:6]
        # Drop direct A–B edges: every remaining A–B path crosses an
        # intermediate vertex, i.e. a candidate — the solver's precondition.
        in_a = np.isin(sub.src, side_a) | np.isin(sub.dst, side_a)
        in_b = np.isin(sub.src, side_b) | np.isin(sub.dst, side_b)
        keep = ~(in_a & in_b)
        sub = WeightedDigraph(n, sub.src[keep], sub.dst[keep], sub.weight[keep])
        candidates = np.setdiff1d(np.arange(n), np.concatenate([side_a, side_b]))
        cut = min_vertex_cut(sub, side_a, side_b, candidates)
        want = _nx_max_flow_value(sub, side_a, side_b, candidates)
        assert cut.shape[0] == want
        assert np.isin(cut, candidates).all()
        assert _disconnects(sub, cut, side_a, side_b)

    def test_already_disconnected_gives_empty_cut(self):
        sub = WeightedDigraph(4, np.array([0, 2]), np.array([1, 3]), np.ones(2))
        cut = min_vertex_cut(
            sub, np.array([0]), np.array([2]), np.array([1, 3])
        )
        assert cut.shape[0] == 0

    def test_path_graph_cuts_one_vertex(self):
        # 0-1-2-3-4 path: the only unit arc between the ends is a middle
        # vertex, so the min cut has exactly one vertex.
        sub = WeightedDigraph(
            5, np.array([0, 1, 2, 3]), np.array([1, 2, 3, 4]), np.ones(4)
        )
        cut = min_vertex_cut(
            sub, np.array([0]), np.array([4]), np.array([1, 2, 3])
        )
        assert cut.shape[0] == 1
        assert _disconnects(sub, cut, np.array([0]), np.array([4]))


class TestRefineCut:
    def test_never_grows_and_keeps_split(self):
        rng = np.random.default_rng(3)
        g = grid_digraph((10, 10), rng)
        tree = decompose(g, "spectral")
        root = tree.root
        sub, mapping = g.induced_subgraph(root.vertices)
        proposal = np.searchsorted(mapping, root.separator)
        refined = refine_cut(sub, proposal)
        assert refined.shape[0] <= proposal.shape[0]
        v1, v2 = split_components(sub, refined)
        assert v1.size and v2.size

    def test_guardrail_skips_oversized_nodes(self):
        rng = np.random.default_rng(3)
        g = grid_digraph((10, 10), rng)
        tree = decompose(g, "spectral")
        root = tree.root
        sub, mapping = g.induced_subgraph(root.vertices)
        proposal = np.searchsorted(mapping, root.separator)
        rec = new_refinement_record()
        out = refine_cut(sub, proposal, max_nodes=8, record=rec)
        assert np.array_equal(out, np.unique(proposal))
        assert rec["nodes_skipped"] == 1
        assert rec["nodes_refined"] == 0


class TestRefineTree:
    @pytest.mark.parametrize("mu", [1 / 3, 0.5])
    def test_mu_sweep_refined_tree_validates(self, mu):
        rng = np.random.default_rng(11)
        g, _ = separator_programmable_family(320, mu, rng)
        tree = decompose(g, "spectral")
        refined, rec = refine_tree(g, tree)
        assert refined.validate(g, strict=False) == []
        if rec["fallback"] is None:
            assert eplus_score(refined) < eplus_score(tree)
            assert refined.refinement is rec
        else:
            assert refined is tree

    def test_grid_refined_tree_validates(self):
        rng = np.random.default_rng(5)
        g = grid_digraph((14, 14), rng)
        tree = decompose(g, "spectral")
        refined, rec = refine_tree(g, tree)
        assert refined.validate(g, strict=False) == []
        assert rec["wall_s"] >= 0.0

    def test_programmed_grid_tree_is_irreducible(self):
        # decompose_grid emits exact row/column separators — the flow pass
        # must recognize there is nothing to shrink and keep the tree.
        from repro.separators.grid import decompose_grid

        rng = np.random.default_rng(0)
        g = grid_digraph((12, 12), rng)
        tree = decompose_grid(g, (12, 12))
        refined, rec = refine_tree(g, tree)
        assert refined.separator_sizes().sum() <= tree.separator_sizes().sum()
        assert refined.validate(g, strict=False) == []

    def test_guardrail_max_nodes_falls_back_whole_tree(self):
        rng = np.random.default_rng(5)
        g = grid_digraph((12, 12), rng)
        tree = decompose(g, "spectral")
        refined, rec = refine_tree(g, tree, max_nodes=1)
        # Every node skipped → replay reproduces the template → no score
        # win → the original tree comes back, with the reason recorded.
        assert refined is tree
        assert rec["fallback"] is not None
        assert rec["wall_s"] >= 0.0


class TestQueryEquivalence:
    def _assert_equiv(self, g, srcs):
        base = ShortestPathOracle.build(g, config=OracleConfig(separator="spectral"))
        refined = ShortestPathOracle.build(
            g, config=OracleConfig(separator="spectral", refine_separators=True)
        )
        assert refined.tree.validate(g, strict=False) == []
        assert np.array_equal(base.distances(srcs), refined.distances(srcs))

    def test_grid_integer_weights_bit_identical(self):
        rng = np.random.default_rng(2)
        g = grid_digraph((12, 12), rng)
        g = WeightedDigraph(g.n, g.src, g.dst, np.ceil(g.weight * 8.0))
        self._assert_equiv(g, [0, 17, 71, 143])

    def test_mu_sweep_integer_weights_bit_identical(self):
        rng = np.random.default_rng(4)
        g, _ = separator_programmable_family(320, 0.5, rng)
        g = WeightedDigraph(g.n, g.src, g.dst, np.ceil(g.weight))
        self._assert_equiv(g, [0, 33, 200, 319])

    def test_float_weights_allclose(self):
        rng = np.random.default_rng(6)
        g = grid_digraph((10, 10), rng)
        base = ShortestPathOracle.build(g, config=OracleConfig(separator="spectral"))
        refined = ShortestPathOracle.build(
            g, config=OracleConfig(separator="spectral", refine_separators=True)
        )
        np.testing.assert_allclose(
            base.distances([0, 42, 99]),
            refined.distances([0, 42, 99]),
            rtol=0,
            atol=1e-9,
        )

    def test_flow_engine_standalone(self):
        rng = np.random.default_rng(2)
        g = grid_digraph((10, 10), rng)
        g = WeightedDigraph(g.n, g.src, g.dst, np.ceil(g.weight * 8.0))
        flow = ShortestPathOracle.build(g, config=OracleConfig(separator="flow"))
        base = ShortestPathOracle.build(g, config=OracleConfig(separator="spectral"))
        assert flow.tree.validate(g, strict=False) == []
        assert eplus_score(flow.tree) <= eplus_score(base.tree)
        assert np.array_equal(base.distances([0, 55]), flow.distances([0, 55]))


class TestEngineRegistry:
    def test_flow_is_registered(self):
        assert "flow" in available_engines()

    def test_unknown_engine_lists_all(self):
        with pytest.raises(ValueError) as exc:
            resolve_engine("bogus")
        msg = str(exc.value)
        for name in available_engines():
            assert name in msg
        assert "auto" in msg

    def test_auto_aliases_spectral(self):
        assert resolve_engine("auto") is resolve_engine("spectral")
        assert resolve_engine(None) is resolve_engine("spectral")

    def test_build_unknown_separator_raises(self):
        rng = np.random.default_rng(0)
        g = grid_digraph((6, 6), rng)
        with pytest.raises(ValueError, match="registered engines"):
            ShortestPathOracle.build(g, config=OracleConfig(separator="nonsense"))

    def test_best_first_pass_skips_failing_engines(self):
        rng = np.random.default_rng(1)
        g = grid_digraph((8, 8), rng)
        name, tree = best_first_pass(g, engines=("spectral", "multilevel"))
        assert name in ("spectral", "multilevel")
        assert tree.validate(g, strict=False) == []


class TestKnobs:
    def test_refine_max_nodes_validated(self):
        with pytest.raises(ValueError, match="refine_max_nodes"):
            OracleConfig(refine_max_nodes=0)

    def test_defaults(self):
        cfg = OracleConfig()
        assert cfg.refine_separators is False
        assert cfg.refine_max_nodes == 20_000

    def test_config_round_trips(self):
        cfg = OracleConfig(refine_separators=True, refine_max_nodes=512)
        again = OracleConfig.from_dict(cfg.to_dict())
        assert again.refine_separators is True
        assert again.refine_max_nodes == 512

    def test_cli_flags_map_to_config(self):
        from repro.cli import config_from_args

        class Args:
            refine = True
            refine_max_nodes = 99

        cfg = config_from_args(Args())
        assert cfg.refine_separators is True
        assert cfg.refine_max_nodes == 99

    def test_field_docs_cover_new_knobs(self):
        docs = OracleConfig.field_docs()
        assert "refine_separators" in docs
        assert "refine_max_nodes" in docs


class TestStats:
    def test_separator_stats_in_build_stats(self):
        rng = np.random.default_rng(0)
        g = grid_digraph((8, 8), rng)
        oracle = ShortestPathOracle.build(g, config=OracleConfig(separator="spectral"))
        stats = oracle.augmentation.stats()["separators"]
        assert stats["internal_nodes"] >= 1
        assert stats["sep_total"] == int(oracle.tree.separator_sizes().sum())
        assert 0.0 < stats["balance_worst"] <= 1.0
        assert stats["refinement"] is None
        assert all(
            set(lvl) == {"nodes", "sep_total", "sep_max"}
            for lvl in stats["levels"].values()
        )

    def test_refinement_record_in_stats(self):
        rng = np.random.default_rng(3)
        g = grid_digraph((10, 10), rng)
        oracle = ShortestPathOracle.build(
            g, config=OracleConfig(refine_separators=True)
        )
        stats = oracle.augmentation.stats()["separators"]
        rec = stats["refinement"]
        if rec is not None:  # the refiner found a global improvement
            assert rec["engine"] == "flow"
            assert rec["wall_s"] >= 0.0
            assert rec["sep_total_after"] <= rec["sep_total_before"]

    def test_stats_json_safe(self):
        import json

        rng = np.random.default_rng(3)
        g = grid_digraph((10, 10), rng)
        oracle = ShortestPathOracle.build(
            g, config=OracleConfig(refine_separators=True)
        )
        json.dumps(oracle.tree.separator_stats())
