"""Tests for the direct tier (``mode="direct"``, :mod:`repro.core.direct`):
exact answers against Dijkstra and the exact oracle, the ``mode="auto"``
gate, cache keys, persistence, the reweight lineage, the serving surface
(query engine, server stats RPC, CLI) and the pointed errors left where the
retired (1+ε) hopset used to be.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cache import AugmentationCache, augmentation_key, tree_key
from repro.core import api
from repro.core.api import ShortestPathOracle
from repro.core.augment import NegativeCycleDetected
from repro.core.config import OracleConfig
from repro.core.digraph import WeightedDigraph
from repro.core.direct import DirectAugmentation
from repro.core.semiring import MIN_PLUS, SEMIRINGS
from repro.kernels.dijkstra import dijkstra
from repro.pram.executor import SerialExecutor
from repro.separators.grid import decompose_grid
from repro.workloads.generators import expander_digraph, grid_digraph


def _int_weighted(g: WeightedDigraph, rng) -> WeightedDigraph:
    """Same skeleton, uniform integer weights in [1, 10] (stored float64)."""
    w = rng.integers(1, 11, size=g.m).astype(np.float64)
    return WeightedDigraph(g.n, g.src, g.dst, w)


def _dijkstra_rows(g: WeightedDigraph, sources) -> np.ndarray:
    return np.stack([dijkstra(g, int(s)) for s in sources])


def _rewrite_config(path, **extra) -> None:
    """Add keys to an archive's saved ``config_json``, as an older build
    that still had those fields would have written it."""
    with np.load(path, allow_pickle=False) as z:
        payload = {k: z[k] for k in z.files}
    saved = json.loads(str(payload["config_json"]))
    saved.update(extra)
    payload["config_json"] = np.array(json.dumps(saved, sort_keys=True))
    with open(path, "wb") as fh:  # keep the exact file name (cache entries)
        np.savez_compressed(fh, **payload)


class TestExactAnswers:
    @pytest.mark.parametrize("engine", ["scheduled", "naive"])
    @pytest.mark.parametrize("weights", ["int", "float", "negative"])
    @pytest.mark.parametrize("n", [64, 256])
    def test_rows_equal_dijkstra(self, n, weights, engine, rng):
        g = expander_digraph(n, rng)
        if weights != "float":
            g = _int_weighted(g, rng)
        sources = rng.choice(n, size=6, replace=False)
        if weights == "negative":
            # Integer potentials keep every path sum exact: the rows must
            # be Dijkstra's on the nonnegative weights, shifted back.
            p = rng.integers(0, 20, size=n).astype(np.float64)
            neg = WeightedDigraph(n, g.src, g.dst, g.weight + p[g.src] - p[g.dst])
            assert (neg.weight < 0).any()
            want = _dijkstra_rows(g, sources) + p[sources][:, None] - p[None, :]
            g = neg
        else:
            want = _dijkstra_rows(g, sources)
        oracle = ShortestPathOracle.build(g, config=OracleConfig(mode="direct"))
        assert isinstance(oracle.augmentation, DirectAugmentation)
        assert oracle.augmentation.size == 0
        assert np.array_equal(oracle.distances(sources, engine=engine), want)

    @pytest.mark.parametrize("name", sorted(SEMIRINGS))
    def test_every_semiring_matches_the_exact_oracle(self, name, grid7, rng):
        g, tree = grid7
        g = _int_weighted(g, rng)
        semiring = SEMIRINGS[name]
        exact = ShortestPathOracle.build(g, tree, config=OracleConfig(semiring=semiring))
        direct = ShortestPathOracle.build(
            g, config=OracleConfig(semiring=semiring, mode="direct")
        )
        sources = np.arange(g.n)
        want = exact.distances(sources)
        assert np.array_equal(direct.distances(sources), want)
        assert np.array_equal(direct.distances(sources, engine="naive"), want)

    def test_negative_cycle_raises_like_exact_mode(self, grid7):
        g, tree = grid7
        w = g.weight.copy()
        # Both orientations of one lattice edge form a 2-cycle.
        e = 0
        back = np.flatnonzero((g.src == g.dst[e]) & (g.dst == g.src[e]))[0]
        w[e], w[back] = -5.0, 1.0
        bad = WeightedDigraph(g.n, g.src, g.dst, w)
        with pytest.raises(NegativeCycleDetected):
            ShortestPathOracle.build(bad, tree)
        with pytest.raises(NegativeCycleDetected) as ei:
            ShortestPathOracle.build(bad, config=OracleConfig(mode="direct"))
        assert ei.value.vertex in (int(g.src[e]), int(g.dst[e]))


class TestAutoGate:
    def test_expander_routes_to_direct_with_decision_record(self, rng):
        g = expander_digraph(80, rng, degree=6)
        oracle = ShortestPathOracle.build(g, config=OracleConfig(mode="auto"))
        assert oracle.augmentation.method == "direct"
        assert oracle.stats()["mode"] == "direct"
        decision = oracle.stats()["separators"]["selection"]["mode_decision"]
        assert decision["mode"] == "direct"
        assert decision["gate"] == api.DIRECT_GATE
        assert decision["separability"] < decision["gate"]
        assert "why" in decision
        if decision.get("candidates") is not None:
            assert all("engine" in c for c in decision["candidates"])
        assert np.array_equal(oracle.distances([0, 9]), _dijkstra_rows(g, [0, 9]))

    def test_grid_stays_exact_with_decision_record(self, rng):
        g = grid_digraph((14, 14), rng)
        oracle = ShortestPathOracle.build(g, config=OracleConfig(mode="auto"))
        assert oracle.augmentation.method == "leaves_up"
        decision = oracle.stats()["separators"]["selection"]["mode_decision"]
        assert decision["mode"] == "exact"
        assert decision["separability"] >= decision["gate"]

    def test_gate_constant_flips_the_decision(self, rng, monkeypatch):
        g = grid_digraph((12, 12), rng)
        monkeypatch.setattr(api, "DIRECT_GATE", 1.0)  # nothing scores >= 1.0
        oracle = ShortestPathOracle.build(g, config=OracleConfig(mode="auto"))
        assert oracle.augmentation.method == "direct"
        assert oracle.stats()["separators"]["selection"]["mode_decision"]["gate"] == 1.0

    def test_failed_first_pass_falls_back_to_direct(self, rng, monkeypatch):
        import repro.separators.quality as quality

        def refuse(*args, **kwargs):
            raise RuntimeError("no engine accepts this graph")

        monkeypatch.setattr(quality, "best_first_pass", refuse)
        g = grid_digraph((6, 6), rng)
        oracle = ShortestPathOracle.build(g, config=OracleConfig(mode="auto"))
        decision = oracle.stats()["separators"]["selection"]["mode_decision"]
        assert decision["mode"] == "direct"
        assert "no engine accepts this graph" in decision["why"]
        assert np.array_equal(oracle.distances([3]), _dijkstra_rows(g, [3]))

    def test_separability_score_calibration(self, rng):
        from repro.separators.quality import best_first_pass, separability_score

        g = grid_digraph((14, 14), rng)
        tree = decompose_grid(g, (14, 14), leaf_size=8)
        assert separability_score(tree) > api.DIRECT_GATE
        _, bad = best_first_pass(expander_digraph(80, rng, degree=6), leaf_size=8)
        assert separability_score(bad) < api.DIRECT_GATE  # E⁺ blows up quadratically


class TestExactModeGuard:
    def test_default_build_is_exact_and_bit_stable(self, grid7):
        """mode defaults to 'exact'; eps changes nothing about the build."""
        g, tree = grid7
        plain = ShortestPathOracle.build(g, tree)
        explicit = ShortestPathOracle.build(
            g, tree, config=OracleConfig(mode="exact", eps=0.3)
        )
        assert plain.augmentation.method == explicit.augmentation.method == "leaves_up"
        assert not isinstance(plain.augmentation, DirectAugmentation)
        assert np.array_equal(plain.augmentation.weight, explicit.augmentation.weight)
        assert np.array_equal(plain.distances([0, 5]), explicit.distances([0, 5]))
        assert plain.stats()["mode"] == "exact"

    def test_exact_keys_are_bit_stable(self):
        """Keys minted before the direct tier existed still address the same
        entries (digests recorded from the hopset-era code)."""
        g = grid_digraph((7, 7), np.random.default_rng(12345))
        tree = decompose_grid(g, (7, 7), leaf_size=4)
        assert augmentation_key(g, tree, MIN_PLUS, "leaves_up") == (
            "58811f8506d0839d1092545ad54c0c7a56b3f7abb108c02c5e5c88a439d8611d"
        )
        assert augmentation_key(g, tree, SEMIRINGS["boolean"], "doubling") == (
            "348a060446b664a311ff66fe5b8b89497472f9dd9bf4cba90fe52897c6f3648b"
        )

    def test_direct_keys_never_meet_exact_keys(self, tmp_path, rng):
        g = expander_digraph(80, rng)
        direct = ShortestPathOracle.build(
            g, config=OracleConfig(mode="direct", cache="readwrite", cache_dir=str(tmp_path))
        )
        tree = direct.tree
        assert direct.cache_info["key"] == augmentation_key(g, tree, MIN_PLUS, "direct")
        assert direct.cache_info["key"] != augmentation_key(g, tree, MIN_PLUS, "leaves_up")
        # eps is a tolerance, not an input: it does not split the key.
        again = ShortestPathOracle.build(g, config=OracleConfig(
            mode="direct", eps=0.5, cache="read", cache_dir=str(tmp_path)))
        assert again.cache_info["status"] == "hit"


class TestConfigAndErrors:
    def test_unknown_mode_names_valid_modes(self):
        with pytest.raises(ValueError) as ei:
            OracleConfig(mode="bogus")
        msg = str(ei.value)
        assert "valid modes: exact, direct, auto" in msg
        assert "bogus" in msg
        assert msg.endswith("select via OracleConfig(mode=...) or --mode)")

    def test_approx_mode_is_retired_with_a_pointed_error(self, rng):
        with pytest.raises(ValueError, match="mode='approx'.*removed.*'direct'"):
            OracleConfig(mode="approx")
        with pytest.raises(ValueError, match="removed"):
            ShortestPathOracle.build(
                expander_digraph(40, rng), config=OracleConfig(mode="approx")
            )

    @pytest.mark.parametrize("field", [
        "hopset_beta", "approx_gate",
        "replicas", "max_replicas", "autoscale_target_p99_ms",
        "engine", "source_block", "shard_backend", "shard_pin",
    ])
    def test_retired_fields_raise_pointed_errors(self, field):
        with pytest.raises(TypeError, match=f"OracleConfig.{field} was removed"):
            OracleConfig(**{field: 1})
        with pytest.raises(TypeError, match="was removed"):
            OracleConfig().replace(**{field: 1})
        with pytest.raises(TypeError, match="was removed"):
            OracleConfig.from_dict({field: 1})

    def test_method_registry_rejects_direct(self):
        """'direct' names an artifact, not an E⁺ build method: cfg.method
        never accepts it (load() maps it to mode='direct' instead)."""
        with pytest.raises(ValueError):
            OracleConfig(method="direct")

    def test_eps_is_a_validated_tolerance(self):
        with pytest.raises(ValueError):
            OracleConfig(eps=-0.1)
        assert OracleConfig(eps=0.0, mode="direct").eps == 0.0

    def test_retired_hopset_names(self):
        """The hopset package keeps only names: the class is the direct
        tier's (defining ``schedule`` itself, so a tracer that wraps it by
        name still sees every compile) and the functions point at it."""
        from repro.hopset import HopsetAugmentation, build_hopset, replay_hopset

        assert HopsetAugmentation is DirectAugmentation
        assert "schedule" in vars(HopsetAugmentation)
        for fn in (build_hopset, replay_hopset):
            with pytest.raises(RuntimeError, match="mode='direct'"):
                fn()

    def test_shard_fleet_refuses_direct(self, rng):
        oracle = ShortestPathOracle.build(
            expander_digraph(100, rng, degree=5), config=OracleConfig(mode="direct")
        )
        with pytest.raises(ValueError, match="direct"):
            oracle.shard_fleet(2)

    def test_shard_fleet_refusal_points_at_query_engine(self, rng):
        """The refusal names the way that works — a query engine with a
        worker executor — and no tier that does not exist."""
        g = _int_weighted(expander_digraph(100, rng, degree=5), rng)
        oracle = ShortestPathOracle.build(g, config=OracleConfig(mode="direct"))
        with pytest.raises(ValueError) as ei:
            oracle.shard_fleet(2)
        msg = str(ei.value)
        assert "query_engine" in msg and "thread:N" in msg and "shm:N" in msg
        assert "replica" not in msg
        with oracle.query_engine(OracleConfig(executor="thread:2")) as eng:
            assert np.array_equal(eng.query([0, 5]), oracle.distances([0, 5]))


class TestServing:
    def test_query_engine_serves_direct_rows(self, rng):
        g = _int_weighted(expander_digraph(140, rng, degree=5), rng)
        oracle = ShortestPathOracle.build(g, config=OracleConfig(mode="direct"))
        with oracle.query_engine() as eng:
            got, info = eng.submit([3, 9])
            stats = eng.stats()
        assert np.array_equal(got, _dijkstra_rows(g, [3, 9]))
        assert info["rows"] == 2
        assert stats["rows_served"] == 2

    def test_query_engine_defaults_to_serial(self, grid7):
        """The facade and QueryEngine share one executor fallback."""
        g, tree = grid7
        oracle = ShortestPathOracle.build(g, tree)
        with oracle.query_engine() as eng:
            assert isinstance(eng._exe, SerialExecutor)
            assert eng.config.executor == "serial"

    @pytest.mark.parametrize("mode", ["direct", "exact"])
    def test_server_stats_expose_mode(self, mode, grid7, tmp_path):
        from repro.server import OracleClient
        from tests.test_server import SERIAL, serving

        g, tree = grid7
        oracle = ShortestPathOracle.build(g, tree, config=OracleConfig(mode=mode))
        with serving(oracle, tmp_path, engine_cfg=SERIAL) as (sock, _):
            with OracleClient(sock) as c:
                d = c.distances(5)
                stats = c.stats()
        assert stats["mode"] == mode
        assert "eps" not in stats
        assert np.allclose(d, dijkstra(g, 5))


class TestPersistenceAndCache:
    def test_save_load_round_trip(self, rng, tmp_path):
        g = expander_digraph(130, rng, degree=5)
        oracle = ShortestPathOracle.build(g, config=OracleConfig(mode="direct"))
        want = oracle.distances([1, 2, 3])
        path = tmp_path / "direct.npz"
        oracle.save(path)
        loaded = ShortestPathOracle.load(path)
        assert isinstance(loaded.augmentation, DirectAugmentation)
        assert loaded.config.mode == "direct"
        assert loaded.diameter_bound == g.n
        assert np.array_equal(loaded.distances([1, 2, 3]), want)

    def test_build_cache_round_trip(self, rng, tmp_path):
        g = expander_digraph(80, rng, degree=5)
        cfg = OracleConfig(mode="auto", cache="readwrite", cache_dir=str(tmp_path))
        miss = ShortestPathOracle.build(g, config=cfg)
        assert miss.cache_info["status"] == "stored"
        hit = ShortestPathOracle.build(g, config=cfg)
        assert hit.cache_info["status"] == "hit"
        assert isinstance(hit.augmentation, DirectAugmentation)
        assert hit.tree.selection["mode_decision"]["mode"] == "direct"
        assert np.array_equal(hit.distances([0, 4]), miss.distances([0, 4]))

    def test_saved_hopset_archive_is_refused(self, rng, tmp_path):
        path = tmp_path / "old.npz"
        ShortestPathOracle.build(
            expander_digraph(60, rng), config=OracleConfig(mode="direct")
        ).save(path)
        with np.load(path, allow_pickle=False) as z:
            payload = {k: z[k] for k in z.files}
        payload["hopset_json"] = np.array(json.dumps({"eps": 0.1}))
        np.savez_compressed(path, **payload)
        with pytest.raises(ValueError, match="hopset.*mode='direct'"):
            ShortestPathOracle.load(path)

    def test_retired_config_keys_still_load(self, rng, tmp_path):
        """Archives and cache entries written while OracleConfig still had
        ``hopset_beta`` and ``approx_gate``, the replica tier's
        ``replicas`` / ``max_replicas`` / ``autoscale_target_p99_ms``, the
        query engine's ``engine`` / ``source_block``, the server's
        ``admission_queue_limit``, or the shard fleet's ``shard_backend`` /
        ``shard_pin``, load and answer the same."""
        g = expander_digraph(90, rng)
        retired = {
            "hopset_beta": 16, "approx_gate": 0.4,
            "replicas": 3, "max_replicas": 6, "autoscale_target_p99_ms": 50.0,
            "engine": "naive", "source_block": 16, "admission_queue_limit": 4,
            "shard_backend": "process", "shard_pin": True,
        }
        oracle = ShortestPathOracle.build(g, config=OracleConfig(mode="direct", row_cache=8))
        path = tmp_path / "old.npz"
        oracle.save(path)
        _rewrite_config(path, **retired)
        back = ShortestPathOracle.load(path)
        assert back.config.row_cache == 8
        assert np.array_equal(back.distances([0, 7]), oracle.distances([0, 7]))

        cfg = OracleConfig(mode="direct", cache="readwrite", cache_dir=str(tmp_path / "c"))
        stored = ShortestPathOracle.build(g, config=cfg)
        _rewrite_config(tmp_path / "c" / f"{stored.cache_info['key']}.npz", **retired)
        hit = ShortestPathOracle.build(g, config=cfg.replace(cache="read"))
        assert hit.cache_info["status"] == "hit"
        assert np.array_equal(hit.distances([0, 7]), oracle.distances([0, 7]))

    def test_retired_engine_archives_and_entries_still_load(self, rng, tmp_path):
        """An archive, an E⁺ entry and a tree entry written by a
        ``separator="lipton_tarjan"`` build load, serve and reweight: each
        stores its tree, so nothing asks for the deleted engine.  Without a
        stored tree, the name fails with the registry's pointed error."""
        g = _int_weighted(grid_digraph((8, 8), rng), rng)
        tree = decompose_grid(g, (8, 8))
        sources = [0, 27, 63]
        w2 = g.weight.copy()
        w2[::5] += 2.0
        want = _dijkstra_rows(g, sources)
        want2 = _dijkstra_rows(WeightedDigraph(g.n, g.src, g.dst, w2), sources)

        path = tmp_path / "old.npz"
        ShortestPathOracle.build(g, tree).save(path)
        _rewrite_config(path, separator="lipton_tarjan")
        back = ShortestPathOracle.load(path)
        assert back.config.separator == "lipton_tarjan"
        assert np.array_equal(back.distances(sources), want)
        assert np.array_equal(back.with_new_weights(w2).distances(sources), want2)

        old = OracleConfig(separator="lipton_tarjan", cache="read",
                           cache_dir=str(tmp_path / "c"))
        store = AugmentationCache(old.cache_dir)
        assert store.store_tree(tree_key(g, old), tree)
        stored = ShortestPathOracle.build(g, tree, config=old.replace(cache="readwrite"))
        assert stored.cache_info["status"] == "stored"
        _rewrite_config(tmp_path / "c" / f"{stored.cache_info['key']}.npz",
                        separator="lipton_tarjan")
        hit = ShortestPathOracle.build(g, config=old)
        assert (hit.cache_info["tree"], hit.cache_info["status"]) == ("hit", "hit")
        assert np.array_equal(hit.distances(sources), want)
        assert np.array_equal(hit.with_new_weights(w2).distances(sources), want2)

        with pytest.raises(ValueError, match="'lipton_tarjan' separator engine was removed"):
            ShortestPathOracle.build(g, config=old.replace(cache="off"))


class TestReweight:
    def test_reweight_bumps_epoch_and_rebinds_the_layout(self, rng):
        g = _int_weighted(expander_digraph(140, rng, degree=5), rng)
        oracle = ShortestPathOracle.build(g, config=OracleConfig(mode="direct"))
        with oracle.query_engine() as eng:
            eng.submit([7])  # compiles the G relaxer
            w2 = g.weight.copy()
            w2[::7] += 3.0
            swapped = oracle.with_new_weights(w2)
            assert swapped.cache_info["status"] == "reweight"
            aug = swapped.augmentation
            assert aug.weights_epoch == oracle.augmentation.weights_epoch + 1
            assert aug.relaxer().layout is oracle.augmentation.relaxer().layout
            eng.reweight(aug)
            got, _ = eng.submit([7, 30])
        g2 = WeightedDigraph(g.n, g.src, g.dst, w2)
        assert np.array_equal(got, _dijkstra_rows(g2, [7, 30]))
        delta = swapped.with_new_weights(weight_delta={0: 1.0, 5: 2.0})
        assert delta.augmentation.weights_epoch == aug.weights_epoch + 1
        w2[[0, 5]] = [1.0, 2.0]
        g3 = WeightedDigraph(g.n, g.src, g.dst, w2)
        assert np.array_equal(delta.distances(7), dijkstra(g3, 7))

    def test_changed_skeleton_lays_out_afresh(self, rng):
        g = _int_weighted(expander_digraph(100, rng, degree=5), rng)
        oracle = ShortestPathOracle.build(g, config=OracleConfig(mode="direct"))
        oracle.distances([0])
        g2 = _int_weighted(expander_digraph(100, np.random.default_rng(999), degree=5), rng)
        with pytest.raises(ValueError, match="unchanged edge skeleton"):
            oracle.with_new_weights(graph=g2, reweight="incremental")
        fresh = oracle.with_new_weights(graph=g2)
        assert fresh.cache_info["status"] == "rebuild"
        assert fresh.augmentation.weights_epoch == 1
        assert fresh.augmentation.relaxer().layout is not oracle.augmentation.relaxer().layout
        assert np.array_equal(fresh.distances(4), dijkstra(g2, 4))

    def test_reweight_into_a_negative_cycle_raises(self, rng):
        g = _int_weighted(grid_digraph((5, 5), rng), rng)
        oracle = ShortestPathOracle.build(g, config=OracleConfig(mode="direct"))
        back = np.flatnonzero((g.src == g.dst[0]) & (g.dst == g.src[0]))[0]
        with pytest.raises(NegativeCycleDetected):
            oracle.with_new_weights(weight_delta={0: -20.0, int(back): 1.0})


class TestCLI:
    def test_stats_prints_mode(self, capsys):
        from repro.cli import main

        rc = main([
            "stats", "--family", "expander", "--n", "150",
            "--mode", "direct", "--sources", "2",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "mode=direct eplus=0 diameter_bound=150" in out

    def test_unknown_mode_error_reaches_cli(self):
        from repro.cli import main

        with pytest.raises(ValueError) as ei:
            main(["stats", "--family", "grid", "--n", "49", "--mode", "bogus"])
        assert "valid modes: exact, direct, auto" in str(ei.value)

    @pytest.mark.parametrize("flag", ["--eps", "--hopset-beta", "--approx-gate"])
    def test_removed_flags_are_rejected(self, flag, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["stats", "--family", "grid", "--n", "49", flag, "1"])
        assert "unrecognized arguments" in capsys.readouterr().err
