"""Min-plus products and relaxation: both product paths are bit-identical
and the size rule picks between them, and frontier-pruned relaxation equals
the full scan (including on negative weights)."""

import numpy as np
import pytest

from repro.core.semiring import BOOLEAN, COUNTING_HOPS, MAX_MIN, MIN_MAX, MIN_PLUS
from repro.kernels import bellman_ford as bf
from repro.kernels import minplus
from repro.kernels.bellman_ford import (
    EdgeRelaxer,
    initial_distances,
    relax_fixpoint,
    run_phases,
)
from repro.kernels.minplus import semiring_matmul
from repro.workloads.generators import gnm_digraph, grid_digraph

SEMIRINGS = [MIN_PLUS, BOOLEAN, MAX_MIN, MIN_MAX]

#: The product's code paths, forced through its module constants:
#: ``reference`` broadcasts every product, ``pruned`` prunes every one, and
#: ``blocked`` is the pruned product with pruning switched off, so every
#: live row panel takes the dense-panel loop.
MATMUL_PATHS = {
    "reference": {"AUTO_SMALL_OPS": np.inf},
    "pruned": {"AUTO_SMALL_OPS": -1},
    "blocked": {"AUTO_SMALL_OPS": -1, "DEAD_FRAC": 1.0},
}

#: Adversarial shapes: single row, non-block-multiples (ragged), square,
#: k of exactly one, wide/narrow.  They fall on both sides of
#: ``AUTO_SMALL_OPS``.
SHAPES = [(1, 30, 9), (5, 7, 4), (33, 65, 17), (64, 64, 64), (3, 1, 5), (2, 200, 3)]


def force_path(monkeypatch, path):
    for name, value in MATMUL_PATHS[path].items():
        monkeypatch.setattr(minplus, name, value)


def reference(a, b, semiring):
    """``a ⊗ b`` through the broadcast product alone."""
    out = semiring.empty_matrix(a.shape[0], b.shape[1])
    return minplus._matmul_reference(a, b, semiring, out, True)


def random_operands(semiring, l, k, m, rng, zero_frac=0.3):
    """Random semiring matrices with a controllable share of 0̄ entries."""
    if semiring.dtype == np.dtype(bool):
        a = rng.random((l, k)) > zero_frac
        b = rng.random((k, m)) > zero_frac
        return a, b
    a = rng.uniform(0.5, 9.0, (l, k))
    b = rng.uniform(0.5, 9.0, (k, m))
    a[rng.random((l, k)) < zero_frac] = semiring.zero
    b[rng.random((k, m)) < zero_frac] = semiring.zero
    return a.astype(semiring.dtype), b.astype(semiring.dtype)


class TestBitIdentity:
    @pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_kernels_bit_identical(self, semiring, shape, rng, monkeypatch):
        l, k, m = shape
        a, b = random_operands(semiring, l, k, m, rng)
        want = reference(a, b, semiring)
        assert np.array_equal(semiring_matmul(a, b, semiring), want)
        for path in MATMUL_PATHS:
            force_path(monkeypatch, path)
            got = semiring_matmul(a, b, semiring)
            assert np.array_equal(got, want), path
            monkeypatch.undo()

    @pytest.mark.parametrize("path", sorted(MATMUL_PATHS))
    def test_tiny_budget(self, path, rng, monkeypatch):
        """A pathological memory budget forces maximal blocking — still exact."""
        a, b = random_operands(MIN_PLUS, 13, 29, 11, rng)
        want = reference(a, b, MIN_PLUS)
        force_path(monkeypatch, path)
        monkeypatch.setattr(minplus, "BUDGET", 8)
        got = semiring_matmul(a, b, MIN_PLUS)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("path", sorted(MATMUL_PATHS))
    @pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
    def test_all_zero_operands(self, path, semiring, monkeypatch):
        """All-0̄ inputs (no paths at all): output must be all 0̄."""
        force_path(monkeypatch, path)
        a = np.full((6, 10), semiring.zero, dtype=semiring.dtype)
        b = np.full((10, 4), semiring.zero, dtype=semiring.dtype)
        got = semiring_matmul(a, b, semiring)
        assert (got == semiring.zero).all()

    @pytest.mark.parametrize("path", sorted(MATMUL_PATHS))
    def test_mostly_dead_panels(self, path, rng, monkeypatch):
        """A doubling-like matrix — nearly all +inf with a live band — is the
        pruned path's favorable case; results stay bit-identical."""
        n = 80
        a = np.full((n, n), np.inf)
        np.fill_diagonal(a, 0.0)
        band = rng.integers(0, n, size=(60, 2))
        a[band[:, 0], band[:, 1]] = rng.uniform(0.5, 5.0, 60)
        want = reference(a, a, MIN_PLUS)
        force_path(monkeypatch, path)
        got = semiring_matmul(a, a, MIN_PLUS)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("path", sorted(MATMUL_PATHS))
    def test_accumulate_into_out(self, path, rng, monkeypatch):
        a, b = random_operands(MIN_PLUS, 21, 33, 14, rng)
        base = rng.uniform(0.5, 2.0, (21, 14))
        want = np.minimum(base, reference(a, b, MIN_PLUS))
        force_path(monkeypatch, path)
        out = base.copy()
        res = semiring_matmul(a, b, MIN_PLUS, out=out, accumulate=True)
        assert res is out
        assert np.array_equal(out, want)

    @pytest.mark.parametrize("path", sorted(MATMUL_PATHS))
    def test_overwrite_out(self, path, rng, monkeypatch):
        a, b = random_operands(MIN_PLUS, 9, 40, 9, rng)
        want = reference(a, b, MIN_PLUS)
        force_path(monkeypatch, path)
        out = np.full((9, 9), -123.0)  # garbage that must be fully overwritten
        semiring_matmul(a, b, MIN_PLUS, out=out, accumulate=False)
        assert np.array_equal(out, want)


class TestDispatch:
    def test_auto_policy(self, rng, monkeypatch):
        """Products up to ``AUTO_SMALL_OPS`` ⊗-operations broadcast, larger
        ones prune; the answer is the same either way."""
        calls = []
        for name in ("_matmul_reference", "_matmul_pruned"):
            real = getattr(minplus, name)

            def spy(*args, _real=real, _name=name):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(minplus, name, spy)
        cases = [((4, 4, 4), "reference"), ((32, 32, 32), "reference"),
                 ((32, 32, 33), "pruned"), ((256, 256, 256), "pruned")]
        for shape, path in cases:
            a, b = random_operands(MIN_PLUS, *shape, rng)
            calls.clear()
            got = semiring_matmul(a, b, MIN_PLUS)
            assert calls == [f"_matmul_{path}"], shape
            assert np.array_equal(got, reference(a, b, MIN_PLUS)), shape

    def test_ledger_charges_model_cost(self, monkeypatch):
        """The code path must not leak into the PRAM ledger (it is the cost
        model, not an execution trace)."""
        from repro.pram.machine import Ledger

        a = np.full((40, 40), np.inf)
        np.fill_diagonal(a, 0.0)
        ledgers = {}
        for path in MATMUL_PATHS:
            force_path(monkeypatch, path)
            led = Ledger()
            semiring_matmul(a, a, MIN_PLUS, ledger=led)
            ledgers[path] = (led.work, led.depth)
            monkeypatch.undo()
        assert len(set(ledgers.values())) == 1
        assert ledgers["reference"][0] == 40.0**3


def dense_jacobi_phase(src, dst, w, semiring, dist):
    """Reference phase: every edge scanned from the pre-phase values, each
    candidate ⊕-ed into its head one edge at a time."""
    cand = semiring.mul(dist[:, src], w)
    out = dist.copy()
    for e in range(src.shape[0]):
        out[:, dst[e]] = semiring.add(out[:, dst[e]], cand[:, e])
    return out


#: The kernel's path choices, forced through its module constant: push on
#: every phase, pull on every phase, and the cost rule itself.
PATHS = {
    "push": {"PUSH_COST": 0.0},
    "pull": {"PUSH_COST": np.inf},
    "auto": {},
}

#: The row pass's routes for a single phase, forced the same way: the
#: one-row phase on every phase, or the block phase on the row's view.
ROW_PATHS = {
    "one-row": {"ROW_PHASE_EDGES": np.inf},
    "row-block": {"ROW_PHASE_EDGES": 0},
}


def _relax_case(semiring, weights, rng):
    """(n, src, dst, w) on a sparse random digraph with parallel edges and
    vertices some sources never reach."""
    g = gnm_digraph(40, 110, rng)
    w = g.weight
    if weights == "float":
        w = w + rng.uniform(0.0, 1.0, size=g.m)
    elif weights == "negative":
        pot = rng.uniform(0.0, 6.0, size=g.n)
        w = w + pot[g.src] - pot[g.dst]  # negative edges, no negative cycle
    elif weights == "zeros-inf":
        w = w.astype(np.float64)
        pick = rng.random(g.m)
        w[pick < 0.2] = -0.0
        w[(pick >= 0.2) & (pick < 0.4)] = 0.0
        w[pick >= 0.9] = np.inf
    if semiring is BOOLEAN:
        w = w > 3.0
    return g.n, g.src, g.dst, w.astype(semiring.dtype)


def assert_same_rows(got, want, semiring):
    """Rows equal under IEEE ``==``, and bit for bit unless the semiring is
    a bottleneck one: only those make −0.0 (from ±0 weights), and a ±0 tie
    resolves by reduction order (the ``bellman_ford`` module docstring)."""
    assert np.array_equal(got, want)
    if semiring not in (MAX_MIN, MIN_MAX):
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


class TestFrontierRelaxation:
    def _relaxer_and_dist(self, g, semiring, n_sources, rng):
        relaxer = EdgeRelaxer.from_graph(g, semiring)
        srcs = rng.integers(0, g.n, size=n_sources)
        return relaxer, initial_distances(g.n, srcs, semiring)

    @pytest.mark.parametrize("negative", [False, True], ids=["positive", "negative"])
    def test_relax_rows_equals_full_relax(self, rng, negative):
        from repro.workloads.generators import apply_potential_weights

        g = grid_digraph((6, 6), rng)
        if negative:
            g = apply_potential_weights(g, rng)
        relaxer, dist_full = self._relaxer_and_dist(g, MIN_PLUS, 5, rng)
        dist_frontier = dist_full.copy()
        for _ in range(200):
            if not relaxer.relax(dist_full):
                break
        active = np.arange(dist_frontier.shape[0])
        for _ in range(200):
            if not active.size:
                break
            active = relaxer.relax_rows(dist_frontier, active)
        assert np.array_equal(dist_frontier, dist_full)

    def test_relax_rows_subset_and_permuted(self, rng):
        """A permuted, strict-subset rows array must update exactly those
        rows (guards the in-place identity-permutation fast path)."""
        g = grid_digraph((5, 5), rng)
        relaxer, dist = self._relaxer_and_dist(g, MIN_PLUS, 6, rng)
        want = dist.copy()
        for r in (4, 2, 0):
            for _ in range(200):
                if not relaxer.relax(want[r : r + 1]):
                    break
        got = dist.copy()
        untouched = got[[1, 3, 5]].copy()
        active = np.array([4, 2, 0])
        for _ in range(200):
            if not active.size:
                break
            active = relaxer.relax_rows(got, active)
        assert np.array_equal(got[[4, 2, 0]], want[[4, 2, 0]])
        assert np.array_equal(got[[1, 3, 5]], untouched)

    def test_run_phases_groups_shared_relaxers(self, rng):
        """run_phases with a repeated identical relaxer equals naive repeated
        relax — frontier pruning across the repetitions is invisible."""
        from repro.workloads.generators import apply_potential_weights

        g = apply_potential_weights(grid_digraph((6, 6), rng), rng)
        shared = EdgeRelaxer.from_graph(g, MIN_PLUS)
        other = EdgeRelaxer(g.src[: g.m // 2], g.dst[: g.m // 2],
                            g.weight[: g.m // 2].astype(np.float64), MIN_PLUS)
        relaxers = [shared] * 4 + [other] + [shared] * 4
        srcs = rng.integers(0, g.n, size=4)
        want = initial_distances(g.n, srcs, MIN_PLUS)
        for r in relaxers:
            r.relax(want)
        got = initial_distances(g.n, srcs, MIN_PLUS)
        run_phases(relaxers, got)
        assert np.array_equal(got, want)

    def test_run_phases_1d(self, rng):
        g = grid_digraph((5, 5), rng)
        relaxer = EdgeRelaxer.from_graph(g, MIN_PLUS)
        want = initial_distances(g.n, np.array([0]), MIN_PLUS)
        got1d = want[0].copy()
        relaxer.relax(want)
        run_phases([relaxer], got1d)
        assert np.array_equal(got1d, want[0])

    def test_frontier_work_below_full_scan(self, rng):
        """The ledger must record the pruned (actually scanned) work."""
        from repro.pram.machine import Ledger

        g = grid_digraph((8, 8), rng)
        relaxer = EdgeRelaxer.from_graph(g, MIN_PLUS)
        dist = initial_distances(g.n, np.arange(g.n), MIN_PLUS)
        led = Ledger()
        active = np.arange(g.n)
        phases = 0
        while active.size:
            active = relaxer.relax_rows(dist, active, ledger=led)
            phases += 1
        full_scan = float(phases) * g.n * g.m
        assert led.work < full_scan

    @pytest.mark.parametrize("path", sorted(PATHS))
    @pytest.mark.parametrize("rows", [1, 3, 64])
    @pytest.mark.parametrize("weights", ["integer", "float", "negative"])
    @pytest.mark.parametrize(
        "semiring", [MIN_PLUS, BOOLEAN, MAX_MIN, MIN_MAX, COUNTING_HOPS],
        ids=lambda s: s.name,
    )
    def test_bit_identical_to_dense_phases(
        self, semiring, weights, rows, path, rng, monkeypatch
    ):
        for name, value in PATHS[path].items():
            monkeypatch.setattr(bf, name, value)
        n, src, dst, w = _relax_case(semiring, weights, rng)
        relaxer = EdgeRelaxer(src, dst, w, semiring)
        init = initial_distances(n, rng.integers(0, n, size=rows), semiring)
        want = init.copy()
        for k in range(1, 9):
            want = dense_jacobi_phase(src, dst, w, semiring, want)
            got = init.copy()
            relax_fixpoint(relaxer, got, k)
            assert np.array_equal(got, want), k
        # a single phase through relax() (no frontier) agrees too
        got = init.copy()
        relaxer.relax(got)
        assert np.array_equal(got, dense_jacobi_phase(src, dst, w, semiring, init))
        # and the whole fixpoint, with no 0̄ entry lost or invented
        got = init.copy()
        phases, active = relax_fixpoint(relaxer, got, 10 * n)
        assert not active.size
        while True:
            nxt = dense_jacobi_phase(src, dst, w, semiring, want)
            if np.array_equal(nxt, want):
                break
            want = nxt
        assert np.array_equal(got, want)
        assert (got == semiring.zero).any()  # some vertices stay unreached

    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_k_phases_hold_best_k_edge_paths(self, path, rng, monkeypatch):
        """After k phases from unit rows, entry (i, v) is the best weight
        over paths of at most k edges — checked against min-plus powers of
        the adjacency matrix, independent of any relaxation code."""
        for name, value in PATHS[path].items():
            monkeypatch.setattr(bf, name, value)
        n, src, dst, w = _relax_case(MIN_PLUS, "negative", rng)
        adj = np.full((n, n), np.inf)
        np.minimum.at(adj, (src, dst), w)
        np.fill_diagonal(adj, np.minimum(np.diag(adj), 0.0))  # I ⊕ A
        relaxer = EdgeRelaxer(src, dst, w, MIN_PLUS)
        best = initial_distances(n, np.arange(n), MIN_PLUS)
        for k in range(1, 7):
            best = reference(best, adj, MIN_PLUS)
            got = initial_distances(n, np.arange(n), MIN_PLUS)
            relax_fixpoint(relaxer, got, k)
            assert np.array_equal(got, best), k  # same sums, same order

    def test_empty_relaxer(self, rng):
        relaxer = EdgeRelaxer(np.empty(0, np.int64), np.empty(0, np.int64),
                              np.empty(0), MIN_PLUS)
        dist = initial_distances(5, [0, 3], MIN_PLUS)
        want = dist.copy()
        assert not relaxer.relax(dist)
        assert relaxer.relax_rows(dist, np.arange(2)).size == 0
        assert relax_fixpoint(relaxer, dist, 4)[1].size == 0
        run_phases([relaxer] * 3, dist)
        assert np.array_equal(dist, want)
        back = EdgeRelaxer.from_compiled(relaxer.compiled(), MIN_PLUS)
        assert not back.relax(dist)

    @pytest.mark.parametrize("path", ["push", "pull"])
    def test_non_contiguous_views_are_updated(self, path, rng, monkeypatch):
        """A strided ``dist`` view is relaxed in place exactly like a
        contiguous array, and the memory around it is left alone."""
        for name, value in PATHS[path].items():
            monkeypatch.setattr(bf, name, value)
        g = grid_digraph((5, 5), rng)
        relaxer = EdgeRelaxer.from_graph(g, MIN_PLUS)
        srcs = rng.integers(0, g.n, size=6)
        init = initial_distances(g.n, srcs, MIN_PLUS)
        want = init.copy()
        relax_fixpoint(relaxer, want, 3)
        wide = np.repeat(init, 2, axis=1)
        strided = wide[:, ::2]
        relax_fixpoint(relaxer, strided, 3)
        assert np.array_equal(strided, want)
        assert np.array_equal(wide[:, 1::2], init)  # the gaps are untouched
        fortran = np.asfortranarray(init)
        relax_fixpoint(relaxer, fortran, 3)
        assert np.array_equal(fortran, want)
        # a strided 3-D stack through relax()-style phases in run_phases
        stack = np.repeat(init[None], 2, axis=0)
        view = stack.transpose(1, 0, 2)[:, :1]  # (6, 1, n), not contiguous
        run_phases([relaxer] * 3, view)
        assert np.array_equal(view[:, 0], want)
        assert np.array_equal(stack[1], init)
        single = np.repeat(init, 2, axis=0)[::2]
        relaxer.relax(single)
        relaxer.relax(single)
        relaxer.relax(single)
        assert np.array_equal(single, want)

    def test_ledger_independent_of_path(self, rng, monkeypatch):
        """The cost model charges |rows|·m per phase whichever path ran."""
        from repro.pram.machine import Ledger

        g = grid_digraph((6, 6), rng)
        other = EdgeRelaxer(g.src[::2], g.dst[::2], g.weight[::2], MIN_PLUS)
        full = EdgeRelaxer.from_graph(g, MIN_PLUS)
        srcs = rng.integers(0, g.n, size=5)
        tallies = []
        for path in ("push", "pull", "auto"):
            for name, value in PATHS[path].items():
                monkeypatch.setattr(bf, name, value)
            led = Ledger()
            run_phases([full] * 3 + [other] + [full] * 4,
                       initial_distances(g.n, srcs, MIN_PLUS), ledger=led)
            tallies.append((led.work, led.depth, led.breakdown()))
            monkeypatch.undo()
        assert tallies[0] == tallies[1] == tallies[2]

    def test_frontier_survives_compiled_round_trip(self, rng):
        g = grid_digraph((6, 6), rng)
        relaxer = EdgeRelaxer.from_graph(g, MAX_MIN)
        back = EdgeRelaxer.from_compiled(relaxer.compiled(), MAX_MIN)
        a = initial_distances(g.n, [0, 7, 35], MAX_MIN)
        b = a.copy()
        relax_fixpoint(relaxer, a, 50)
        relax_fixpoint(back, b, 50)
        assert np.array_equal(a, b)


def _subset_relaxers(n, src, dst, w, semiring, rng, count):
    """``count`` relaxers over random edge subsets, each with the dense
    oracle's arguments ``(src, dst, w)`` of its edges."""
    out = []
    for _ in range(count):
        keep = rng.random(src.shape[0]) < 0.6
        out.append((EdgeRelaxer(src[keep], dst[keep], w[keep], semiring),
                    (src[keep], dst[keep], w[keep])))
    return out


class TestBlockPhase:
    """The untracked vertex-major phase ``run_phases`` gives once-per-pass
    relaxers, checked against the dense Jacobi oracle (not against
    ``relax()``, which runs through the same block phase)."""

    @pytest.mark.parametrize("path", ["push", "pull"])
    @pytest.mark.parametrize("rows", [1, 2, 64])
    @pytest.mark.parametrize("weights", ["integer", "float", "negative"])
    @pytest.mark.parametrize(
        "semiring", [MIN_PLUS, BOOLEAN, MAX_MIN, MIN_MAX, COUNTING_HOPS],
        ids=lambda s: s.name,
    )
    def test_bit_identical_to_dense_phases(
        self, semiring, weights, rows, path, rng, monkeypatch
    ):
        for name, value in PATHS[path].items():
            monkeypatch.setattr(bf, name, value)
        n, src, dst, w = _relax_case(semiring, weights, rng)
        relaxer = EdgeRelaxer(src, dst, w, semiring)
        dist = initial_distances(n, rng.integers(0, n, size=rows), semiring)
        if rows > 1:
            dist[-1] = semiring.zero  # an all-0̄ row stays all-0̄
        block = dist.T.copy()
        for k in range(1, 7):
            dist = dense_jacobi_phase(src, dst, w, semiring, dist)
            relaxer._relax_block(block)
            assert np.array_equal(block.T, dist), k
        assert (block == semiring.zero).any()
        if rows > 1:
            assert (block[:, -1] == semiring.zero).all()

    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_all_zero_block_and_empty_relaxer(self, path, rng, monkeypatch):
        """No live tail: nothing is written, yet the model cost is charged;
        an empty relaxer neither writes nor charges."""
        from repro.pram.machine import Ledger

        for name, value in PATHS[path].items():
            monkeypatch.setattr(bf, name, value)
        n, src, dst, w = _relax_case(MIN_PLUS, "integer", rng)
        block = np.full((n, 3), np.inf)
        led = Ledger()
        EdgeRelaxer(src, dst, w, MIN_PLUS)._relax_block(block, ledger=led)
        assert (block == np.inf).all()
        assert led.work == 3.0 * src.shape[0]
        empty = EdgeRelaxer(np.empty(0, np.int64), np.empty(0, np.int64),
                            np.empty(0), MIN_PLUS)
        block = initial_distances(n, [0, 5], MIN_PLUS).T.copy()
        want = block.copy()
        led = Ledger()
        empty._relax_block(block, ledger=led)
        assert np.array_equal(block, want)
        assert led.work == 0.0 and led.depth == 0.0

    @pytest.mark.parametrize("path", sorted(PATHS) + sorted(ROW_PATHS))
    @pytest.mark.parametrize(
        "semiring", [MIN_PLUS, BOOLEAN, MAX_MIN, MIN_MAX, COUNTING_HOPS],
        ids=lambda s: s.name,
    )
    def test_run_phases_mixed_sequence(self, semiring, path, rng, monkeypatch):
        """``[a, b, c×3, d, c×2, a]``: single phases share one block (the
        last one written back after the loop), or at 1–3 rows run one row
        at a time; repeated runs keep the frontier fixpoint; and the pass
        equals the dense oracle phase by phase on 2-D, 1-D, strided and
        Fortran input, with negative-potential or ±0/inf weights."""
        for name, value in {**PATHS, **ROW_PATHS}[path].items():
            monkeypatch.setattr(bf, name, value)
        for rows in (1, 2, 3, 5):
            for weights in ("negative", "zeros-inf"):
                self._check_mixed_sequence(semiring, weights, rows, rng)

    @staticmethod
    def _check_mixed_sequence(semiring, weights, rows, rng):
        n, src, dst, w = _relax_case(semiring, weights, rng)
        (a, da), (b, db), (c, dc), (d, dd) = _subset_relaxers(
            n, src, dst, w, semiring, rng, 4)
        seq = [(a, da), (b, db)] + [(c, dc)] * 3 + [(d, dd)] + [(c, dc)] * 2 + [(a, da)]
        init = initial_distances(n, rng.integers(0, n, size=rows), semiring)
        want = init.copy()
        for _, edges in seq:
            want = dense_jacobi_phase(*edges, semiring, want)
        relaxers = [r for r, _ in seq]
        got = init.copy()
        run_phases(relaxers, got)
        assert_same_rows(got, want, semiring)
        one = init[-1].copy()
        run_phases(relaxers, one)
        assert_same_rows(one, want[-1], semiring)
        wide = np.repeat(init, 2, axis=1)
        strided = wide[:, ::2]
        run_phases(relaxers, strided)
        assert_same_rows(strided, want, semiring)
        assert np.array_equal(wide[:, 1::2], init)  # the gaps are untouched
        fortran = np.asfortranarray(init)
        run_phases(relaxers, fortran)
        assert_same_rows(fortran, want, semiring)

    @pytest.mark.parametrize("path", sorted(PATHS))
    @pytest.mark.parametrize("rows", [1, 2, 3, 4])
    @pytest.mark.parametrize("weights", ["negative", "zeros-inf"])
    @pytest.mark.parametrize(
        "semiring", [MIN_PLUS, BOOLEAN, MAX_MIN, MIN_MAX, COUNTING_HOPS],
        ids=lambda s: s.name,
    )
    def test_direct_tier_run(self, semiring, weights, rows, path, rng, monkeypatch):
        """The direct tier's ``[relaxer] × n`` is one fixpoint run: it ends
        at the dense oracle's fixpoint, and stops at the first phase that
        improves nothing instead of scanning all n phases."""
        from repro.pram.machine import Ledger

        for name, value in PATHS[path].items():
            monkeypatch.setattr(bf, name, value)
        n, src, dst, w = _relax_case(semiring, weights, rng)
        relaxer = EdgeRelaxer(src, dst, w, semiring)
        init = initial_distances(n, rng.integers(0, n, size=rows), semiring)
        want, phases = init.copy(), 0
        while True:
            nxt = dense_jacobi_phase(src, dst, w, semiring, want)
            phases += 1
            if np.array_equal(nxt, want):
                break
            want = nxt
        got = init.copy()
        led = Ledger()
        run_phases([relaxer] * n, got, ledger=led)
        assert_same_rows(got, want, semiring)
        assert led.breakdown()["bf-phase"]["calls"] == phases < n

    def test_row_frontier_holds_each_vertex_once(self, rng, monkeypatch):
        """On a unit-weight grid many shortest paths tie, so a pushed
        frontier that kept every improving candidate would hold a vertex
        once per tying path (2^k entries after k phases); the row fixpoint
        keeps each vertex once."""
        g = grid_digraph((8, 8), rng)
        relaxer = EdgeRelaxer(g.src, g.dst, np.ones(g.m), MIN_PLUS)
        monkeypatch.setattr(bf, "PUSH_COST", 0.0)
        frontiers = []
        push = EdgeRelaxer._push_row

        def spy(self, row, u, *args):
            frontiers.append(u)
            return push(self, row, u, *args)

        monkeypatch.setattr(EdgeRelaxer, "_push_row", spy)
        dist = initial_distances(g.n, [0], MIN_PLUS)
        phases, active = relax_fixpoint(relaxer, dist, g.n)
        assert not active.size and len(frontiers) == phases >= 14
        assert all(np.unique(f).size == f.size for f in frontiers)
        assert np.array_equal(dist[0], (np.arange(g.n) // 8 + np.arange(g.n) % 8).astype(float))

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_row_pass_charges_as_block_pass(self, rows, rng, monkeypatch):
        """One row at a time, the pass charges the ledger phase for phase as
        the 2-D pass does (runs whose rows stop at different phases
        included), and leaves the same rows."""
        from repro.pram.machine import Ledger

        n, src, dst, w = _relax_case(MIN_PLUS, "negative", rng)
        (a, _), (b, _), (c, _) = _subset_relaxers(n, src, dst, w, MIN_PLUS, rng, 3)
        full = EdgeRelaxer(src, dst, w, MIN_PLUS)
        relaxers = [full] * 4 + [a, b, c] + [full] * 6
        init = initial_distances(n, rng.integers(0, n, size=rows), MIN_PLUS)
        tallies = []
        for cutoff in (bf.ROW_PASS_ROWS, 0):
            monkeypatch.setattr(bf, "ROW_PASS_ROWS", cutoff)
            got, led = init.copy(), Ledger()
            run_phases(relaxers, got, ledger=led)
            tallies.append((got.tobytes(), led.work, led.depth, led.breakdown()))
        assert tallies[0] == tallies[1]

    @pytest.mark.parametrize(
        "sources,work,depth",
        [([0], 3516, 168), ([5, 60], 7032, 175), ([3, 40, 77], 10260, 168),
         (range(81), 289404, 350)],
        ids=["1", "2", "3", "81"],
    )
    def test_scheduled_ledger_pinned(self, sources, work, depth):
        """The PRAM ledger of one §3.2 pass on a 9×9 negative-potential grid
        is what the per-phase frontier path charged before single phases
        were relaxed as a block."""
        from repro.core.api import ShortestPathOracle
        from repro.core.sssp import sssp_scheduled
        from repro.pram.machine import Ledger
        from repro.separators.grid import decompose_grid
        from repro.workloads.generators import apply_potential_weights

        rng = np.random.default_rng(0)
        g = apply_potential_weights(grid_digraph((9, 9), rng), rng)
        aug = ShortestPathOracle.build(g, decompose_grid(g, (9, 9))).augmentation
        led = Ledger()
        sssp_scheduled(aug, list(sources), ledger=led)
        assert (led.work, led.depth) == (work, depth)


def _built_rows(method: str, g, tree, sources) -> np.ndarray:
    """Scheduled rows over the E⁺ of one of the three builders."""
    from repro import augment_doubling, augment_doubling_shared, augment_leaves_up
    from repro.core.sssp import sssp_scheduled

    build = {"leaves_up": augment_leaves_up, "doubling": augment_doubling,
             "doubling_shared": augment_doubling_shared}[method]
    return sssp_scheduled(build(g, tree), sources)


class TestEndToEndKernels:
    @pytest.mark.parametrize("method", ["leaves_up", "doubling", "doubling_shared"])
    def test_oracle_distances_invariant_under_kernel(self, grid7, method, monkeypatch):
        """Within one augmentation method, every product path yields the
        bit-identical rows (cross-method bit identity is NOT promised —
        different shortcut sets sum in different float orders)."""
        g, tree = grid7
        want = _built_rows(method, g, tree, [0, 11, 30])
        for path in MATMUL_PATHS:
            force_path(monkeypatch, path)
            got = _built_rows(method, g, tree, [0, 11, 30])
            assert np.array_equal(got, want), (method, path)
            monkeypatch.undo()

    def test_negative_weights_all_kernels(self, grid6_negative, monkeypatch):
        from repro.kernels.johnson import johnson

        g, tree = grid6_negative
        want = johnson(g, [0, 7])
        for method in ("leaves_up", "doubling"):
            for path in MATMUL_PATHS:
                force_path(monkeypatch, path)
                got = _built_rows(method, g, tree, [0, 7])
                assert np.allclose(got, want, atol=1e-8), (method, path)
                monkeypatch.undo()
