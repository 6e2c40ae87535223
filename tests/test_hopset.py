"""Tests for the hopset-based (1+ε) approximate-distance subsystem
(:mod:`repro.hopset`): construction invariants, the d ≤ d̂ ≤ (1+ε)·d
property against networkx across families/ε/weight dtypes, the auto-mode
gate on separator quality, cache-key separation, persistence and reweight
round-trips, the serving surface (ApproxEngine, server stats RPC, CLI),
and the exact-mode bit-identity guard.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cache import augmentation_key
from repro.core.api import ShortestPathOracle
from repro.core.config import OracleConfig
from repro.core.digraph import WeightedDigraph
from repro.core.semiring import MIN_PLUS, SEMIRINGS
from repro.hopset import (
    ApproxEngine,
    HopsetAugmentation,
    build_hopset,
    default_hop_budget,
    hop_cap_for,
    replay_hopset,
)
from repro.kernels.bellman_ford import bellman_ford, initial_distances, run_phases
from repro.kernels.dijkstra import dijkstra
from repro.separators.grid import decompose_grid
from repro.workloads.generators import (
    expander_digraph,
    gnm_digraph,
    grid_digraph,
)


def _int_weighted(g: WeightedDigraph, rng) -> WeightedDigraph:
    """Same skeleton, uniform integer weights in [1, 10] (stored float64)."""
    w = rng.integers(1, 11, size=g.m).astype(np.float64)
    return WeightedDigraph(g.n, g.src, g.dst, w)


def _exact_distances(g: WeightedDigraph, sources) -> np.ndarray:
    return bellman_ford(g, sources)


def _mu_family(n: int, mu: float, rng):
    from repro.workloads.synthetic import separator_programmable_family

    g, _ = separator_programmable_family(n, mu, rng)
    return g


class TestConstruction:
    def test_scales_are_nested_with_doubling_budgets(self, rng):
        g = expander_digraph(240, rng, degree=6)
        h = build_hopset(g, eps=0.1, seed=3)
        assert len(h.pivots) == len(h.budgets) >= 1
        for coarse, fine in zip(h.pivots[1:], h.pivots[:-1]):
            assert np.isin(coarse, fine).all(), "scales must be nested"
            assert coarse.shape[0] <= fine.shape[0]
        for k0, k1 in zip(h.budgets, h.budgets[1:]):
            assert k1 == min(2 * k0, g.n)
        assert h.hop_cap == hop_cap_for(g.n, h.beta)
        assert h.size == h.src.shape[0] == h.dst.shape[0] == h.weight.shape[0]

    def test_shortcuts_never_underestimate(self, rng):
        """Soundness: every emitted shortcut weight ≥ the true distance
        (hop-limited exact, then rounded *up*) — this is what makes
        d̂ ≥ d deterministic, not just whp."""
        g = expander_digraph(150, rng, degree=5)
        h = build_hopset(g, eps=0.5, seed=1)
        exact = _exact_distances(g, np.unique(h.src))
        row = {int(s): i for i, s in enumerate(np.unique(h.src))}
        true = np.array([exact[row[int(s)], int(d)] for s, d in zip(h.src, h.dst)])
        assert (h.weight >= true - 1e-9).all()

    def test_eps_zero_disables_rounding(self, rng):
        g = expander_digraph(100, rng, degree=5)
        h = build_hopset(g, eps=0.0, seed=0)
        assert not h.rounded

    def test_negative_weights_disable_rounding(self, rng):
        from repro.workloads.generators import apply_potential_weights

        g = apply_potential_weights(grid_digraph((8, 8), rng), rng)
        h = build_hopset(g, eps=0.1, seed=0)
        assert not h.rounded  # multiplicative rounding is undefined below 0

    def test_hop_budget_and_cap_helpers(self):
        assert default_hop_budget(4) >= 4
        for n, k in ((100, 10), (1000, 40), (7, 7)):
            cap = hop_cap_for(n, k)
            assert 1 <= cap <= n + 1

    def test_determinism(self, rng):
        """Same (graph, eps, seed) → bit-identical hopset; the seed is part
        of the cache key precisely because it pins the pivot sample."""
        g = expander_digraph(120, rng, degree=5)
        a = build_hopset(g, eps=0.1, seed=7)
        b = build_hopset(g, eps=0.1, seed=7)
        assert np.array_equal(a.src, b.src)
        assert np.array_equal(a.dst, b.dst)
        assert np.array_equal(a.weight, b.weight)
        for pa, pb in zip(a.pivots, b.pivots):
            assert np.array_equal(pa, pb)


class TestErrorBound:
    """The subsystem's contract: d(u,v) ≤ d̂(u,v) ≤ (1+ε)·d(u,v), verified
    against networkx as the independent baseline."""

    FAMILIES = ("expander", "dense", "mu")

    @pytest.mark.parametrize("eps", [0.5, 0.1])
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("dtype", ["float", "int"])
    def test_bound_vs_networkx(self, eps, family, dtype, rng):
        nx = pytest.importorskip("networkx")
        if family == "expander":
            g = expander_digraph(160, rng, degree=5)
        elif family == "dense":
            g = gnm_digraph(140, 1800, rng)
        else:
            g = _mu_family(160, 0.8, rng)
        if dtype == "int":
            g = _int_weighted(g, rng)
        oracle = ShortestPathOracle.build(g, mode="approx", eps=eps)
        assert oracle.augmentation.method == "hopset"
        sources = rng.choice(g.n, size=4, replace=False)
        approx = oracle.distances(sources)
        gx = g.to_networkx()
        for i, s in enumerate(sources):
            lengths = nx.single_source_bellman_ford_path_length(gx, int(s))
            exact = np.full(g.n, np.inf)
            for v, d in lengths.items():
                exact[v] = d
            got = approx[i]
            assert (np.isinf(exact) == np.isinf(got)).all(), "reachability must match"
            fin = np.isfinite(exact)
            assert (got[fin] >= exact[fin] - 1e-9).all(), "d̂ must never underestimate"
            assert (got[fin] <= (1.0 + eps) * exact[fin] + 1e-9).all(), (
                f"(1+ε) bound violated: max ratio "
                f"{np.max(got[fin] / np.maximum(exact[fin], 1e-300)):.4f}"
            )

    def test_scheduled_matches_naive(self, rng):
        """The HopSchedule (frontier-pruned capped Bellman–Ford) and the
        naive engine must produce bit-identical distances on G∪H."""
        g = expander_digraph(150, rng, degree=5)
        oracle = ShortestPathOracle.build(g, mode="approx", eps=0.1)
        srcs = [0, 17, 42]
        assert np.array_equal(
            oracle.distances(srcs, engine="scheduled"),
            oracle.distances(srcs, engine="naive"),
        )


class TestExactModeGuard:
    def test_default_build_is_exact_and_bit_stable(self, grid7):
        """mode defaults to 'exact' and produces the same artifact (and the
        same distances) as a build that never heard of the hopset kwargs."""
        g, tree = grid7
        plain = ShortestPathOracle.build(g, tree)
        explicit = ShortestPathOracle.build(g, tree, mode="exact", eps=0.3)
        assert plain.augmentation.method == explicit.augmentation.method == "leaves_up"
        assert not isinstance(plain.augmentation, HopsetAugmentation)
        assert np.array_equal(plain.augmentation.weight, explicit.augmentation.weight)
        assert np.array_equal(plain.distances([0, 5]), explicit.distances([0, 5]))
        assert np.allclose(plain.distances(0), dijkstra(g, 0))
        assert plain.stats()["mode"] == "exact"

    def test_exact_cache_key_ignores_hopset_knobs(self, grid7):
        """Regression (satellite 2): exact-mode keys must be bit-stable
        against every key minted before the hopset subsystem existed —
        eps/beta/seed feed the hash only when mode != 'exact'."""
        g, tree = grid7
        legacy = augmentation_key(g, tree, MIN_PLUS, "leaves_up")
        assert legacy == augmentation_key(
            g, tree, MIN_PLUS, "leaves_up",
            mode="exact", eps=0.7, hopset_beta=9, hopset_seed=5,
        )

    def test_approx_keys_split_on_eps_beta_seed_mode(self, grid7):
        g, tree = grid7
        base = augmentation_key(g, tree, MIN_PLUS, "hopset", mode="approx", eps=0.1)
        assert base != augmentation_key(g, tree, MIN_PLUS, "hopset", mode="approx", eps=0.2)
        assert base != augmentation_key(
            g, tree, MIN_PLUS, "hopset", mode="approx", eps=0.1, hopset_beta=16
        )
        assert base != augmentation_key(
            g, tree, MIN_PLUS, "hopset", mode="approx", eps=0.1, hopset_seed=1
        )
        assert base != augmentation_key(g, tree, MIN_PLUS, "hopset")  # exact-form key


class TestAutoGate:
    def test_expander_routes_to_hopset_with_decision_record(self, rng):
        g = expander_digraph(220, rng, degree=6)
        oracle = ShortestPathOracle.build(g, mode="auto")
        assert oracle.augmentation.method == "hopset"
        sel = oracle.stats()["separators"]["selection"]
        decision = sel["mode_decision"]
        assert decision["mode"] == "approx"
        assert "why" in decision and "gate" in decision
        # Satellite 1: the per-engine scoring that informed the choice.
        if decision.get("candidates") is not None:
            assert all("engine" in c for c in decision["candidates"])

    def test_grid_stays_exact_with_decision_record(self, rng):
        g = grid_digraph((14, 14), rng)
        oracle = ShortestPathOracle.build(g, mode="auto")
        assert oracle.augmentation.method != "hopset"
        decision = oracle.stats()["separators"]["selection"]["mode_decision"]
        assert decision["mode"] == "exact"
        assert decision["separability"] >= decision["gate"]

    def test_gate_knob_flips_the_decision(self, rng):
        g = grid_digraph((12, 12), rng)
        cfg = OracleConfig().replace(mode="auto", approx_gate=1.0)
        oracle = ShortestPathOracle.build(g, config=cfg)
        assert oracle.augmentation.method == "hopset"  # nothing scores ≥ 1.0

    def test_separability_score_calibration(self, rng):
        from repro.separators.quality import separability_score

        g = grid_digraph((14, 14), rng)
        tree = decompose_grid(g, (14, 14), leaf_size=8)
        assert separability_score(tree) > 0.5
        from repro.separators.quality import best_first_pass

        ge = expander_digraph(220, rng, degree=6)
        _, bad = best_first_pass(ge, leaf_size=8)
        assert separability_score(bad) < 0.5  # E⁺ blows up quadratically


class TestConfigAndErrors:
    def test_unknown_mode_names_valid_modes(self):
        with pytest.raises(ValueError) as ei:
            OracleConfig(mode="bogus")
        msg = str(ei.value)
        for mode in ("exact", "approx", "auto"):
            assert mode in msg
        assert "bogus" in msg

    def test_eps_and_gate_validation(self):
        with pytest.raises(ValueError):
            OracleConfig(eps=-0.1)
        with pytest.raises(ValueError):
            OracleConfig(approx_gate=1.5)
        with pytest.raises(ValueError):
            OracleConfig(hopset_beta=-1)

    def test_method_registry_rejects_hopset(self):
        """'hopset' is an artifact method, not a build method — cfg.method
        must never accept it (load() maps it to mode='approx' instead)."""
        with pytest.raises(ValueError):
            OracleConfig(method="hopset")

    def test_shard_fleet_refuses_hopset(self, rng):
        g = expander_digraph(100, rng, degree=5)
        oracle = ShortestPathOracle.build(g, mode="approx", eps=0.5)
        with pytest.raises(ValueError, match="hopset"):
            oracle.shard_fleet(2)

    def test_semiring_gate(self, rng):
        g = expander_digraph(80, rng, degree=4)
        with pytest.raises(ValueError, match="min-plus"):
            build_hopset(g, SEMIRINGS["boolean"])


class TestServing:
    def test_query_engine_is_approx_engine(self, rng):
        g = expander_digraph(140, rng, degree=5)
        oracle = ShortestPathOracle.build(g, mode="approx", eps=0.1)
        with oracle.query_engine(OracleConfig().replace(executor="serial")) as eng:
            assert isinstance(eng, ApproxEngine)
            got = eng.query([3, 9])
            stats = eng.stats()
        assert np.array_equal(got, oracle.distances([3, 9]))
        assert stats["approx"] is True
        assert stats["mode"] == "approx"
        assert stats["eps"] == pytest.approx(0.1)
        assert stats["hopset_edges"] == oracle.augmentation.size
        assert stats["hop_cap"] == oracle.augmentation.diameter_bound

    def test_approx_engine_rejects_exact_augmentation(self, grid7):
        g, tree = grid7
        oracle = ShortestPathOracle.build(g, tree)
        with pytest.raises(TypeError):
            ApproxEngine(oracle.augmentation, OracleConfig())

    def test_server_stats_expose_mode_and_eps(self, rng, tmp_path):
        from repro.server import OracleClient
        from tests.test_server import SERIAL, serving

        g = expander_digraph(120, rng, degree=5)
        oracle = ShortestPathOracle.build(g, mode="approx", eps=0.25)
        exact = _exact_distances(g, [5])
        with serving(oracle, tmp_path, engine_cfg=SERIAL) as (sock, _):
            with OracleClient(sock) as c:
                d = c.distances(5)
                stats = c.stats()
        assert stats["mode"] == "approx"
        assert stats["eps"] == pytest.approx(0.25)
        assert stats["engine"]["approx"] is True
        assert stats["separators"]["selection"]["mode_decision"]["mode"] == "approx"
        fin = np.isfinite(exact[0])
        assert (d[fin] >= exact[0][fin] - 1e-9).all()
        assert (d[fin] <= 1.25 * exact[0][fin] + 1e-9).all()

    def test_server_stats_exact_mode(self, grid7, tmp_path):
        from repro.server import OracleClient
        from tests.test_server import SERIAL, serving

        g, tree = grid7
        oracle = ShortestPathOracle.build(g, tree)
        with serving(oracle, tmp_path, engine_cfg=SERIAL) as (sock, _):
            with OracleClient(sock) as c:
                stats = c.stats()
        assert stats["mode"] == "exact"
        assert stats["eps"] is None


class TestPersistenceAndCache:
    def test_save_load_round_trip(self, rng, tmp_path):
        g = expander_digraph(130, rng, degree=5)
        oracle = ShortestPathOracle.build(g, mode="approx", eps=0.2)
        want = oracle.distances([1, 2, 3])
        path = tmp_path / "approx.npz"
        oracle.save(path)
        loaded = ShortestPathOracle.load(path)
        aug = loaded.augmentation
        assert isinstance(aug, HopsetAugmentation)
        assert aug.method == "hopset"
        assert aug.eps == pytest.approx(0.2)
        assert aug.hopset is not None
        assert aug.hopset.hop_cap == oracle.augmentation.hopset.hop_cap
        assert len(aug.hopset.pivots) == len(oracle.augmentation.hopset.pivots)
        for a, b in zip(aug.hopset.pivots, oracle.augmentation.hopset.pivots):
            assert np.array_equal(a, b)
        assert loaded.config.mode == "approx"
        assert np.array_equal(loaded.distances([1, 2, 3]), want)

    def test_build_cache_round_trip(self, rng, tmp_path):
        g = expander_digraph(120, rng, degree=5)
        cfg = OracleConfig().replace(
            mode="approx", eps=0.1, cache="readwrite", cache_dir=str(tmp_path)
        )
        miss = ShortestPathOracle.build(g, config=cfg)
        assert miss.cache_info["status"] in ("miss", "stored")
        hit = ShortestPathOracle.build(g, config=cfg)
        assert hit.cache_info["status"] == "hit"
        assert np.array_equal(hit.distances([0, 4]), miss.distances([0, 4]))
        assert isinstance(hit.augmentation, HopsetAugmentation)


class TestReweight:
    def test_replay_preserves_bound_and_pivots(self, rng):
        g = expander_digraph(140, rng, degree=5)
        oracle = ShortestPathOracle.build(g, mode="approx", eps=0.1)
        w2 = g.weight * 1.5
        swapped = oracle.with_new_weights(w2)
        assert swapped.augmentation.method == "hopset"
        assert (
            swapped.augmentation.weights_epoch
            == oracle.augmentation.weights_epoch + 1
        )
        assert swapped.cache_info.get("status") == "reweight"
        for a, b in zip(
            swapped.augmentation.hopset.pivots, oracle.augmentation.hopset.pivots
        ):
            assert np.array_equal(a, b), "replay must reuse the pivot sample"
        g2 = WeightedDigraph(g.n, g.src, g.dst, w2)
        exact = _exact_distances(g2, [7])
        got = swapped.distances([7])[0]
        fin = np.isfinite(exact[0])
        assert (got[fin] >= exact[0][fin] - 1e-9).all()
        assert (got[fin] <= 1.1 * exact[0][fin] + 1e-9).all()

    def test_replay_hopset_direct(self, rng):
        g = expander_digraph(110, rng, degree=5)
        prior = build_hopset(g, eps=0.2, seed=4)
        g2 = WeightedDigraph(g.n, g.src, g.dst, g.weight * 2.0)
        replayed = replay_hopset(g2, prior)
        assert replayed.eps == prior.eps
        assert replayed.seed == prior.seed
        for a, b in zip(replayed.pivots, prior.pivots):
            assert np.array_equal(a, b)

    def test_replay_binds_to_the_prior_layouts(self, rng):
        """A replay over the same skeleton reuses the G and G ∪ H relaxer
        layouts and answers exactly like relaxers built from scratch."""
        from repro.kernels.bellman_ford import EdgeRelaxer

        g = _int_weighted(expander_digraph(90, rng, degree=5), rng)
        oracle = ShortestPathOracle.build(g, mode="approx", eps=0.1)
        oracle.distances([0])  # compiles the G ∪ H relaxer
        w2 = g.weight.copy()
        w2[::7] += 3.0
        swapped = oracle.with_new_weights(w2)
        old_h, new_h = oracle.augmentation.hopset, swapped.augmentation.hopset
        assert new_h.graph_layout is old_h.graph_layout
        if np.array_equal(new_h.src, old_h.src) and np.array_equal(new_h.dst, old_h.dst):
            assert (swapped.augmentation.relaxer().layout
                    is oracle.augmentation.relaxer().layout)
        cold = replay_hopset(WeightedDigraph(g.n, g.src, g.dst, w2),
                             dataclasses.replace(old_h, graph_layout=None))
        assert np.array_equal(cold.weight, new_h.weight)
        fresh = EdgeRelaxer.from_graph(swapped.augmentation.augmented_graph())
        want = swapped.augmentation.schedule().run(
            initial_distances(g.n, [0, 5], MIN_PLUS))
        got = initial_distances(g.n, [0, 5], MIN_PLUS)
        run_phases([fresh] * swapped.augmentation.diameter_bound, got)
        assert np.array_equal(got, want)

    def test_incremental_requires_same_skeleton(self, rng):
        g = expander_digraph(100, rng, degree=5)
        oracle = ShortestPathOracle.build(g, mode="approx", eps=0.2)
        g2 = expander_digraph(100, np.random.default_rng(999), degree=5)
        with pytest.raises(ValueError):
            oracle.with_new_weights(graph=g2, reweight="incremental")


class TestCLI:
    def test_stats_prints_mode_eps_and_size(self, capsys):
        from repro.cli import main

        rc = main([
            "stats", "--family", "expander", "--n", "150",
            "--mode", "approx", "--eps", "0.5", "--sources", "2",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "mode=approx" in out
        assert "eps=0.5" in out
        assert "hopset_edges=" in out

    def test_unknown_mode_error_reaches_cli(self):
        from repro.cli import main

        with pytest.raises(ValueError) as ei:
            main(["stats", "--family", "grid", "--n", "49", "--mode", "bogus"])
        assert "valid modes: exact, approx, auto" in str(ei.value)
