"""Tests for the dense kernels: semiring matmul, Floyd–Warshall, boolean
closure, and their ledger accounting."""

import numpy as np
import pytest

from repro.core.digraph import WeightedDigraph
from repro.core.semiring import BOOLEAN, MAX_MIN
from repro.kernels.boolmat import bool_closure, bool_matmul, charged_omega, set_charged_omega
from repro.kernels.floyd_warshall import (
    expand_via_path,
    floyd_warshall,
    floyd_warshall_with_parents,
)
from repro.kernels import minplus
from repro.kernels.minplus import semiring_closure, semiring_matmul, semiring_square
from repro.pram.machine import Ledger


def brute_minplus(a, b):
    l, k = a.shape
    m = b.shape[1]
    out = np.full((l, m), np.inf)
    for i in range(l):
        for j in range(m):
            out[i, j] = (a[i, :] + b[:, j]).min()
    return out


class TestSemiringMatmul:
    def test_matches_bruteforce(self, rng):
        a = rng.uniform(0, 10, (5, 7))
        b = rng.uniform(0, 10, (7, 4))
        assert np.allclose(semiring_matmul(a, b), brute_minplus(a, b))

    def test_with_infinities(self):
        a = np.array([[np.inf, 1.0]])
        b = np.array([[0.0], [2.0]])
        assert semiring_matmul(a, b)[0, 0] == 3.0

    def test_blocked_equals_unblocked(self, rng, monkeypatch):
        a = rng.uniform(0, 10, (20, 20))
        full = semiring_matmul(a, a)
        monkeypatch.setattr(minplus, "BUDGET", 40)  # forces many row blocks
        tiny_blocks = semiring_matmul(a, a)
        assert np.allclose(full, tiny_blocks)

    def test_accumulate_into_out(self, rng):
        a = rng.uniform(0, 10, (4, 4))
        out = np.full((4, 4), 1.0)
        res = semiring_matmul(a, a, out=out, accumulate=True)
        assert res is out
        assert (out <= 1.0 + 1e-12).all()

    def test_boolean_fast_path(self):
        a = np.array([[True, False], [False, False]])
        b = np.array([[False, True], [True, False]])
        assert semiring_matmul(a, b, BOOLEAN).tolist() == [[False, True], [False, False]]

    def test_boolean_256_common_neighbors(self):
        """Regression: a uint8 witness-count GEMM accumulates mod 256, so a
        pair with exactly 256 common neighbors silently tested as
        unreachable.  The count must be held in an exact accumulator."""
        k = 256
        a = np.ones((1, k), dtype=bool)
        b = np.ones((k, 1), dtype=bool)
        for path in (minplus._matmul_reference, minplus._matmul_pruned):
            out = BOOLEAN.empty_matrix(1, 1)
            assert path(a, b, BOOLEAN, out, True)[0, 0], path.__name__
        # ... and any multiple of 256 among decoys.
        a_wide = np.zeros((3, 512), dtype=bool)
        a_wide[0, :256] = True  # 256 witnesses
        a_wide[1, :1] = True  # 1 witness
        b_wide = np.ones((512, 2), dtype=bool)
        b_wide[:, 1] = False
        got = semiring_matmul(a_wide, b_wide, BOOLEAN)
        assert got.tolist() == [[True, False], [True, False], [False, False]]

    def test_max_min_widest_path(self):
        # widest 2-hop path 0->1->2: min(4, 7) = 4
        a = np.array([[-np.inf, 4.0, -np.inf], [-np.inf, -np.inf, 7.0], [-np.inf] * 3])
        two = semiring_matmul(a, a, MAX_MIN)
        assert two[0, 2] == 4.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            semiring_matmul(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_ledger_charges_cubic_work(self):
        led = Ledger()
        a = np.zeros((4, 5))
        b = np.zeros((5, 6))
        semiring_matmul(a, b, ledger=led)
        assert led.work == 4 * 5 * 6

    def test_square_and_closure(self):
        w = np.array([[0.0, 1.0, np.inf], [np.inf, 0.0, 1.0], [np.inf, np.inf, 0.0]])
        s = semiring_square(w.copy())
        assert s[0, 2] == 2.0
        c = semiring_closure(
            np.array([[np.inf, 1.0, np.inf], [np.inf, np.inf, 1.0], [np.inf] * 3])
        )
        assert c[0, 2] == 2.0 and c[0, 0] == 0.0


class TestFloydWarshall:
    def test_matches_networkx(self, rng):
        import networkx as nx

        g = WeightedDigraph(6, rng.integers(0, 6, 20), rng.integers(0, 6, 20),
                            rng.uniform(1, 5, 20))
        d = floyd_warshall(g.dense_weights())
        ref = dict(nx.all_pairs_bellman_ford_path_length(g.to_networkx()))
        for u in range(6):
            for v in range(6):
                want = ref.get(u, {}).get(v, np.inf)
                assert np.isclose(d[u, v], want) or (np.isinf(d[u, v]) and np.isinf(want))

    def test_negative_weights_no_cycle(self):
        w = np.array([[0.0, 5.0, np.inf], [np.inf, 0.0, -2.0], [np.inf, np.inf, 0.0]])
        d = floyd_warshall(w)
        assert d[0, 2] == 3.0

    def test_negative_cycle_shows_on_diagonal(self):
        w = np.array([[0.0, 1.0], [np.inf, 0.0]])
        w[1, 0] = -2.0
        d = floyd_warshall(w)
        assert d[0, 0] < 0

    def test_copy_semantics(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        d = floyd_warshall(w, copy=True)
        assert d is not w
        d2 = floyd_warshall(w, copy=False)
        assert d2 is w

    def test_parents_reconstruct_optimal_path(self, rng):
        g = WeightedDigraph(7, rng.integers(0, 7, 25), rng.integers(0, 7, 25),
                            rng.uniform(1, 9, 25))
        w = g.dense_weights()
        d, via = floyd_warshall_with_parents(w)
        for u in range(7):
            for v in range(7):
                if u == v or np.isinf(d[u, v]):
                    continue
                path = expand_via_path(via, u, v)
                assert path[0] == u and path[-1] == v
                total = sum(w[a, b] for a, b in zip(path, path[1:]))
                assert np.isclose(total, d[u, v])

    def test_boolean_dispatches_to_closure(self):
        w = np.array([[False, True, False], [False, False, True], [False, False, False]])
        d = floyd_warshall(w, BOOLEAN)
        assert d[0, 2] and d[0, 0]  # reflexive closure


class TestBoolMat:
    def test_matmul(self):
        a = np.array([[True, False]])
        b = np.array([[False, True], [True, True]])
        assert bool_matmul(a, b).tolist() == [[False, True]]

    def test_closure_path(self):
        a = np.zeros((4, 4), dtype=bool)
        a[0, 1] = a[1, 2] = a[2, 3] = True
        c = bool_closure(a)
        assert c[0, 3] and not c[3, 0]
        assert c.diagonal().all()

    def test_omega_setting(self):
        old = charged_omega()
        try:
            set_charged_omega(2.37)
            led = Ledger()
            bool_matmul(np.zeros((8, 8), dtype=bool), np.zeros((8, 8), dtype=bool), ledger=led)
            assert np.isclose(led.work, 8 ** 2.37)
            with pytest.raises(ValueError):
                set_charged_omega(1.5)
        finally:
            set_charged_omega(old)

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            bool_matmul(np.zeros((2, 3), dtype=bool), np.zeros((2, 3), dtype=bool))


class TestFloydWarshallHops:
    def test_hops_matches_bellman_ford_diameter(self, rng):
        from repro.kernels.bellman_ford import min_weight_diameter
        from repro.kernels.floyd_warshall import min_weight_diameter_dense
        from repro.workloads.generators import apply_potential_weights, grid_digraph

        for negative in (False, True):
            g = grid_digraph((4, 4), rng)
            if negative:
                g = apply_potential_weights(g, rng)
            assert min_weight_diameter_dense(g.dense_weights()) == min_weight_diameter(g)

    def test_hops_prefers_fewest_edges_among_ties(self):
        from repro.kernels.floyd_warshall import floyd_warshall_with_hops

        # 0->2 direct weight 2 ties with 0->1->2 (1+1): min hops must be 1.
        w = np.full((3, 3), np.inf)
        np.fill_diagonal(w, 0.0)
        w[0, 1] = w[1, 2] = 1.0
        w[0, 2] = 2.0
        d, hops = floyd_warshall_with_hops(w)
        assert d[0, 2] == 2.0 and hops[0, 2] == 1

    def test_unreachable_hops_infinite(self):
        from repro.kernels.floyd_warshall import floyd_warshall_with_hops

        w = np.full((2, 2), np.inf)
        np.fill_diagonal(w, 0.0)
        _, hops = floyd_warshall_with_hops(w)
        assert np.isinf(hops[0, 1]) and hops[0, 0] == 0
