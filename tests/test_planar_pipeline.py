"""Tests for the §6 planar machinery: outerplanar tools, hammock
decompositions, and the q-face oracle."""

import numpy as np
import pytest

from repro.kernels.dijkstra import dijkstra
from repro.planar.hammock import chain_of_hammocks, recover_hammocks, ring_of_hammocks
from repro.planar.outerplanar import (
    is_outerplanar,
    outerplanar_sssp,
    random_outerplanar_digraph,
)
from repro.planar.qface import QFaceOracle
from repro.workloads.generators import grid_digraph


class TestOuterplanar:
    def test_generated_graphs_are_outerplanar(self, rng):
        for k in (5, 12, 25):
            g = random_outerplanar_digraph(k, rng)
            assert is_outerplanar(g)

    def test_grid_not_outerplanar(self, rng):
        assert not is_outerplanar(grid_digraph((4, 4), rng))

    def test_sssp_matches_dijkstra(self, rng):
        g = random_outerplanar_digraph(30, rng)
        got = outerplanar_sssp(g, [0, 7])
        assert np.allclose(got[0], dijkstra(g, 0))
        assert np.allclose(got[1], dijkstra(g, 7))


class TestHammocks:
    def test_ring_ground_truth_valid(self, rng):
        g, dec = ring_of_hammocks(5, 10, rng)
        assert dec.q == 5
        assert not dec.validate()
        # Total size O(n): interiors partition, attachments shared.
        assert sum(h.vertices.shape[0] for h in dec.hammocks) <= g.n + 2 * dec.q

    def test_ring_is_planar(self, rng):
        import networkx as nx

        g, _ = ring_of_hammocks(4, 8, rng)
        planar, _ = nx.check_planarity(nx.Graph(zip(g.src.tolist(), g.dst.tolist())))
        assert planar

    def test_chain_recovery_roundtrip(self, rng):
        g, dec = chain_of_hammocks(6, 9, rng)
        rec = recover_hammocks(g)
        assert not rec.validate()
        assert rec.q == dec.q
        # Attachment sets agree.
        assert np.array_equal(
            rec.attachment_vertices(), dec.attachment_vertices()
        )

    def test_validate_catches_bad_attachment_count(self, rng):
        g, dec = ring_of_hammocks(3, 8, rng)
        h = dec.hammocks[0]
        h.attachments = h.vertices[:5]
        assert any("attachments" in p for p in dec.validate())

    def test_generators_reject_tiny(self, rng):
        with pytest.raises(ValueError):
            ring_of_hammocks(1, 8, rng)
        with pytest.raises(ValueError):
            ring_of_hammocks(3, 2, rng)


class TestQFaceOracle:
    @pytest.mark.parametrize("maker", [ring_of_hammocks, chain_of_hammocks])
    def test_distances_match_dijkstra(self, rng, maker):
        g, dec = maker(5, 11, rng)
        oracle = QFaceOracle.build(g, dec)
        for s in (0, g.n // 3, g.n - 1):
            ref = dijkstra(g, s)
            got = oracle.distances_from(s)
            assert np.allclose(got, ref)
            for t in (1, g.n // 2):
                assert np.isclose(oracle.distance(s, t), ref[t])

    def test_gprime_has_q_scale(self, rng):
        g, dec = ring_of_hammocks(8, 14, rng)
        oracle = QFaceOracle.build(g, dec)
        s = oracle.stats()
        assert s["attachments"] <= 4 * dec.q
        assert s["gprime_edges"] <= 12 * dec.q  # ≤ a(a−1) per hammock, a ≤ 4

    def test_gprime_distances_equal_global(self, rng):
        """Distances in G′ between attachments equal distances in G."""
        g, dec = ring_of_hammocks(5, 10, rng)
        oracle = QFaceOracle.build(g, dec)
        atts = oracle.attachments
        for i, a in enumerate(atts.tolist()):
            ref = dijkstra(g, a)
            row = oracle.gprime_oracle.distances(i)
            for j, b in enumerate(atts.tolist()):
                assert np.isclose(row[j], ref[b]) or (np.isinf(row[j]) and np.isinf(ref[b]))


class TestQFaceExtensions:
    def test_shortest_path_tree(self, rng):
        from repro.core.paths import path_weight, reconstruct_path

        g, dec = ring_of_hammocks(5, 12, rng)
        oracle = QFaceOracle.build(g, dec)
        parent = oracle.shortest_path_tree(0)
        ref = dijkstra(g, 0)
        for v in (3, g.n // 2, g.n - 1):
            p = reconstruct_path(parent, 0, v)
            assert p is not None
            assert np.isclose(path_weight(g, p), ref[v])

    def test_apsp_encoding_size(self, rng):
        g, dec = ring_of_hammocks(6, 20, rng)
        oracle = QFaceOracle.build(g, dec)
        enc = oracle.apsp_encoding()
        hammock_numbers = sum(a.size for _, a in enc["hammock_apsp"])
        gprime_numbers = enc["gprime_apsp"].size
        # O(n·(n/q) + q²) « n² for the composed graph.
        assert hammock_numbers + gprime_numbers < g.n ** 2
        # And the encoding answers pair queries via the oracle.
        assert np.isclose(oracle.distance(0, g.n - 1), dijkstra(g, 0)[g.n - 1])
