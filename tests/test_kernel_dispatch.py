"""Kernel dispatch: every registered matmul kernel is bit-identical, the
registry/tuning plumbing works, and frontier-pruned relaxation equals the
full scan (including on negative weights).

The compiled ``jit`` backend rides the same equivalence suite: where numba
is installed it registers like any other kernel and ``KERNELS`` includes
it; everywhere else the ``jit_registered`` fixture simulates the install —
``repro.kernels.jit``'s ``@njit`` shim runs the identical kernel *logic*
as interpreted Python — so bit-identity, fallback and error paths are
exercised with and without the optional dependency."""

import numpy as np
import pytest

from repro.core.semiring import BOOLEAN, COUNTING_HOPS, MAX_MIN, MIN_MAX, MIN_PLUS
from repro.kernels import bellman_ford as bf
from repro.kernels import dispatch
from repro.kernels import jit as jit_mod
from repro.kernels.bellman_ford import (
    EdgeRelaxer,
    initial_distances,
    relax_fixpoint,
    run_phases,
)
from repro.kernels.minplus import hop_limited_product, semiring_matmul
from repro.workloads.generators import gnm_digraph, grid_digraph

SEMIRINGS = [MIN_PLUS, BOOLEAN, MAX_MIN, MIN_MAX]
#: ``jit`` joins the parametrized kernel list wherever numba is installed
#: (the numba CI lane); the shim-based TestJitBackend below covers the same
#: logic on numba-less installs.
KERNELS = ["reference", "blocked", "pruned"] + (
    ["jit"] if dispatch.jit_available() else []
)


@pytest.fixture
def jit_registered(monkeypatch):
    """Simulate an installed numba: mark the backend available and register
    the matmul entry (the shim makes the kernels run as pure Python, so the
    full dispatch → kernel path is exercised without the dependency)."""
    dispatch.available_kernels()  # force baseline registration first
    monkeypatch.setattr(jit_mod, "HAVE_NUMBA", True)
    monkeypatch.setitem(dispatch._KERNELS, "jit", jit_mod.matmul_jit)
    yield  # monkeypatch restores both the flag and the registry entry

#: Adversarial shapes: single row, non-block-multiples (ragged), square,
#: k of exactly one, wide/narrow.
SHAPES = [(1, 30, 9), (5, 7, 4), (33, 65, 17), (64, 64, 64), (3, 1, 5), (2, 200, 3)]


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
    def test_kernels_bit_identical(self, semiring, shape, rng):
        l, k, m = shape
        a, b = random_operands(semiring, l, k, m, rng)
        want = semiring_matmul(a, b, semiring, kernel="reference")
        for kernel in KERNELS[1:]:
            got = semiring_matmul(a, b, semiring, kernel=kernel)
            assert np.array_equal(got, want), kernel
        auto = semiring_matmul(a, b, semiring, kernel="auto")
        assert np.array_equal(auto, want)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_tiny_budget(self, kernel, rng):
        """A pathological memory budget forces maximal blocking — still exact."""
        a, b = random_operands(MIN_PLUS, 13, 29, 11, rng)
        want = semiring_matmul(a, b, MIN_PLUS, kernel="reference")
        got = semiring_matmul(a, b, MIN_PLUS, kernel=kernel, budget=8)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
    def test_all_zero_operands(self, kernel, semiring, rng):
        """All-0̄ inputs (no paths at all): output must be all 0̄."""
        a = np.full((6, 10), semiring.zero, dtype=semiring.dtype)
        b = np.full((10, 4), semiring.zero, dtype=semiring.dtype)
        got = semiring_matmul(a, b, semiring, kernel=kernel)
        assert (got == semiring.zero).all()

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_mostly_dead_panels(self, kernel, rng):
        """A doubling-like matrix — nearly all +inf with a live band — is the
        pruned kernel's favorable case; results stay bit-identical."""
        n = 80
        a = np.full((n, n), np.inf)
        np.fill_diagonal(a, 0.0)
        band = rng.integers(0, n, size=(60, 2))
        a[band[:, 0], band[:, 1]] = rng.uniform(0.5, 5.0, 60)
        want = semiring_matmul(a, a, MIN_PLUS, kernel="reference")
        got = semiring_matmul(a, a, MIN_PLUS, kernel=kernel)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_accumulate_into_out(self, kernel, rng):
        a, b = random_operands(MIN_PLUS, 21, 33, 14, rng)
        base = rng.uniform(0.5, 2.0, (21, 14))
        want = np.minimum(base, semiring_matmul(a, b, MIN_PLUS, kernel="reference"))
        out = base.copy()
        res = semiring_matmul(a, b, MIN_PLUS, out=out, accumulate=True, kernel=kernel)
        assert res is out
        assert np.array_equal(out, want)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_overwrite_out(self, kernel, rng):
        a, b = random_operands(MIN_PLUS, 9, 40, 9, rng)
        want = semiring_matmul(a, b, MIN_PLUS, kernel="reference")
        out = np.full((9, 9), -123.0)  # garbage that must be fully overwritten
        semiring_matmul(a, b, MIN_PLUS, out=out, accumulate=False, kernel=kernel)
        assert np.array_equal(out, want)


class TestDispatch:
    def test_registry_lists_all(self):
        assert set(KERNELS) <= set(dispatch.available_kernels())

    def test_auto_policy(self):
        assert dispatch.choose_kernel(4, 4, 4) == "reference"
        big = "jit" if dispatch.jit_available() else "pruned"
        assert dispatch.choose_kernel(256, 256, 256) == big

    def test_resolve_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            dispatch.resolve_kernel("nope", 8, 8, 8)
        with pytest.raises(ValueError, match="unknown kernel"):
            semiring_matmul(np.zeros((2, 2)), np.zeros((2, 2)), kernel="nope")

    def test_default_kernel_override(self):
        try:
            dispatch.set_default_kernel("blocked")
            assert dispatch.resolve_kernel(None, 512, 512, 512)[0] == "blocked"
        finally:
            dispatch.set_default_kernel(None)

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "reference")
        assert dispatch.get_default_kernel() == "reference"
        assert dispatch.resolve_kernel(None, 512, 512, 512)[0] == "reference"

    def test_set_unknown_default_raises(self):
        with pytest.raises(ValueError):
            dispatch.set_default_kernel("nope")

    def test_ledger_charges_model_cost(self, rng):
        """Kernel choice must not leak into the PRAM ledger (it is the cost
        model, not an execution trace)."""
        from repro.pram.machine import Ledger

        a = np.full((40, 40), np.inf)
        np.fill_diagonal(a, 0.0)
        ledgers = {}
        for kernel in KERNELS:
            led = Ledger()
            semiring_matmul(a, a, MIN_PLUS, ledger=led, kernel=kernel)
            ledgers[kernel] = (led.work, led.depth)
        assert len(set(ledgers.values())) == 1
        assert ledgers["reference"][0] == 40.0**3


class TestTuning:
    def test_save_load_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_TUNE", str(tmp_path / "tune.json"))
        dispatch.reload_tuning()
        try:
            assert dispatch.load_tuning() == {}
            base = dispatch.tuning_for("blocked")
            assert base == dispatch.DEFAULT_TUNING["blocked"]
            dispatch.save_tuning({"blocked": {"block_l": 7}})
            eff = dispatch.tuning_for("blocked")
            assert eff["block_l"] == 7  # persisted winner
            assert eff["block_k"] == base["block_k"]  # default survives
            # Merge, not clobber: a later save of another kernel keeps blocked.
            dispatch.save_tuning({"pruned": {"dead_frac": 0.25}})
            assert dispatch.reload_tuning()["blocked"] == {"block_l": 7}
            assert dispatch.tuning_for("pruned")["dead_frac"] == 0.25
        finally:
            monkeypatch.delenv("REPRO_KERNEL_TUNE")
            dispatch.reload_tuning()

    def test_corrupt_file_ignored(self, tmp_path, monkeypatch):
        p = tmp_path / "tune.json"
        p.write_text("{not json")
        monkeypatch.setenv("REPRO_KERNEL_TUNE", str(p))
        dispatch.reload_tuning()
        try:
            assert dispatch.tuning_for("blocked") == dispatch.DEFAULT_TUNING["blocked"]
        finally:
            monkeypatch.delenv("REPRO_KERNEL_TUNE")
            dispatch.reload_tuning()

    def test_tuned_sizes_stay_exact(self, rng, tmp_path, monkeypatch):
        """Whatever the autotuner persists, results are unchanged."""
        monkeypatch.setenv("REPRO_KERNEL_TUNE", str(tmp_path / "tune.json"))
        dispatch.reload_tuning()
        try:
            a, b = random_operands(MIN_PLUS, 50, 70, 30, rng)
            want = semiring_matmul(a, b, MIN_PLUS, kernel="reference")
            dispatch.save_tuning({
                "blocked": {"block_l": 5, "block_k": 13, "block_m": 7},
                "pruned": {"block_l": 11, "dead_frac": 0.5},
            })
            for kernel in ("blocked", "pruned"):
                got = semiring_matmul(a, b, MIN_PLUS, kernel=kernel)
                assert np.array_equal(got, want), kernel
        finally:
            monkeypatch.delenv("REPRO_KERNEL_TUNE")
            dispatch.reload_tuning()


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
    if semiring is BOOLEAN:
        w = w > 3.0
    return g.n, g.src, g.dst, w.astype(semiring.dtype)


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
            best = semiring_matmul(best, adj, MIN_PLUS, kernel="reference")
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


class TestEndToEndKernels:
    @pytest.mark.parametrize("method", ["leaves_up", "doubling", "doubling_shared"])
    def test_oracle_distances_invariant_under_kernel(self, grid7, method):
        """Within one augmentation method, every kernel choice yields the
        bit-identical oracle (cross-method bit identity is NOT promised —
        different shortcut sets sum in different float orders)."""
        from repro.core.api import ShortestPathOracle

        g, tree = grid7
        want = ShortestPathOracle.build(
            g, tree, method=method, kernel="reference"
        ).distances([0, 11, 30])
        for kernel in ("blocked", "pruned", "auto"):
            oracle = ShortestPathOracle.build(g, tree, method=method, kernel=kernel)
            got = oracle.distances([0, 11, 30])
            assert np.array_equal(got, want), (method, kernel)

    def test_negative_weights_all_kernels(self, grid6_negative):
        from repro.core.api import ShortestPathOracle
        from repro.kernels.johnson import johnson

        g, tree = grid6_negative
        want = johnson(g, [0, 7])
        for kernel in ("reference", "blocked", "pruned"):
            oracle = ShortestPathOracle.build(g, tree, kernel=kernel)
            assert np.allclose(oracle.distances([0, 7]), want, atol=1e-8), kernel


class TestJitBackend:
    """The compiled backend's logic, run through the pure-Python shim (or
    for real where numba is installed) — bit-identity, the hop-limited fast
    path, relaxation cores, and the availability/fallback contract."""

    @pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_matmul_bit_identical(self, semiring, shape, rng, jit_registered):
        l, k, m = shape
        a, b = random_operands(semiring, l, k, m, rng)
        want = semiring_matmul(a, b, semiring, kernel="reference")
        got = semiring_matmul(a, b, semiring, kernel="jit")
        assert np.array_equal(got, want)

    def test_matmul_accumulate_and_overwrite(self, rng, jit_registered):
        a, b = random_operands(MIN_PLUS, 12, 20, 9, rng)
        want = np.minimum(
            rng.uniform(0.5, 2.0, (12, 9)),
            semiring_matmul(a, b, MIN_PLUS, kernel="reference"),
        )
        out = want.copy()  # not yet reduced — rebuild base then accumulate
        base = want.copy()
        out = base.copy()
        res = semiring_matmul(a, b, MIN_PLUS, out=out, accumulate=True, kernel="jit")
        assert res is out
        assert np.array_equal(
            out, np.minimum(base, semiring_matmul(a, b, MIN_PLUS, kernel="reference"))
        )
        garbage = np.full((12, 9), -777.0)
        semiring_matmul(a, b, MIN_PLUS, out=garbage, accumulate=False, kernel="jit")
        assert np.array_equal(
            garbage, semiring_matmul(a, b, MIN_PLUS, kernel="reference")
        )

    def test_unknown_semiring_falls_back(self, rng, jit_registered):
        """A semiring without a compiled core (rounding ⊕ is not argued
        bit-identical) silently takes the pruned kernel."""
        from repro.core.semiring import Semiring

        plus_times = Semiring(
            name="plus-times-test",
            zero=0.0,
            one=1.0,
            dtype=np.dtype(np.float64),
            add=np.add,
            add_reduce=np.add.reduce,
            mul=np.multiply,
            improves=np.not_equal,
            idempotent=False,
        )
        a = rng.random((6, 8))
        b = rng.random((8, 5))
        want = semiring_matmul(a, b, plus_times, kernel="pruned")
        got = semiring_matmul(a, b, plus_times, kernel="jit")
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("hops", [1, 2, 3, 5])
    def test_hop_limited_fast_path(self, rng, hops, jit_registered):
        w = rng.uniform(0.5, 9.0, (17, 17))
        w[rng.random((17, 17)) < 0.4] = np.inf
        want = hop_limited_product(w, hops, kernel="reference")
        got = hop_limited_product(w, hops, kernel="jit")
        assert np.array_equal(got, want)

    def test_hop_limited_charges_model_cost(self, rng, jit_registered):
        from repro.pram.machine import Ledger

        w = rng.uniform(0.5, 9.0, (9, 9))
        led_ref, led_jit = Ledger(), Ledger()
        hop_limited_product(w, 3, kernel="reference", ledger=led_ref)
        hop_limited_product(w, 3, kernel="jit", ledger=led_jit)
        assert (led_ref.work, led_ref.depth) == (led_jit.work, led_jit.depth)

    # ---------------- relaxation cores ---------------- #

    def _random_graph(self, rng, negative=False):
        from repro.workloads.generators import apply_potential_weights

        g = grid_digraph((6, 6), rng)
        return apply_potential_weights(g, rng) if negative else g

    @pytest.mark.parametrize("negative", [False, True], ids=["positive", "negative"])
    def test_relax_bit_identical(self, rng, negative, jit_registered):
        g = self._random_graph(rng, negative)
        want_r = EdgeRelaxer.from_graph(g, MIN_PLUS)
        jit_r = EdgeRelaxer.from_graph(g, MIN_PLUS, kernel="jit")
        want = initial_distances(g.n, rng.integers(0, g.n, 5), MIN_PLUS)
        got = want.copy()
        for _ in range(200):
            cw = want_r.relax(want)
            cg = jit_r.relax(got)
            assert cw == cg
            assert np.array_equal(got, want)
            if not cw:
                break

    def test_relax_rows_bit_identical_subset(self, rng, jit_registered):
        """Permuted strict-subset frontier through the compiled core: same
        rows updated, untouched rows untouched (the scatter-back path)."""
        g = self._random_graph(rng)
        want_r = EdgeRelaxer.from_graph(g, MIN_PLUS)
        jit_r = EdgeRelaxer.from_graph(g, MIN_PLUS, kernel="jit")
        dist = initial_distances(g.n, rng.integers(0, g.n, 6), MIN_PLUS)
        want, got = dist.copy(), dist.copy()
        aw = ag = np.array([4, 2, 0])
        for _ in range(200):
            if not aw.size and not ag.size:
                break
            aw = want_r.relax_rows(want, aw) if aw.size else aw
            ag = jit_r.relax_rows(got, ag) if ag.size else ag
            assert np.array_equal(np.sort(aw), np.sort(ag))
            assert np.array_equal(got, want)

    def test_relax_rows_full_frontier_in_place(self, rng, jit_registered):
        g = self._random_graph(rng, negative=True)
        want_r = EdgeRelaxer.from_graph(g, MIN_PLUS)
        jit_r = EdgeRelaxer.from_graph(g, MIN_PLUS, kernel="jit")
        dist = initial_distances(g.n, np.arange(g.n), MIN_PLUS)
        want, got = dist.copy(), dist.copy()
        aw, ag = np.arange(g.n), np.arange(g.n)
        while aw.size or ag.size:
            aw = want_r.relax_rows(want, aw) if aw.size else aw
            ag = jit_r.relax_rows(got, ag) if ag.size else ag
            assert np.array_equal(got, want)

    def test_relax_all_inf_rows(self, rng, jit_registered):
        """Rows with no finite entry (unreachable sources) stay all-0̄ and
        never report a change."""
        g = self._random_graph(rng)
        jit_r = EdgeRelaxer.from_graph(g, MIN_PLUS, kernel="jit")
        dist = np.full((3, g.n), np.inf)
        assert not jit_r.relax(dist)
        assert np.isinf(dist).all()
        out = jit_r.relax_rows(dist, np.arange(3))
        assert out.size == 0

    def test_relax_boolean(self, rng, jit_registered):
        g = self._random_graph(rng)
        want_r = EdgeRelaxer(g.src, g.dst, np.ones(g.m, dtype=bool), BOOLEAN)
        jit_r = EdgeRelaxer(
            g.src, g.dst, np.ones(g.m, dtype=bool), BOOLEAN, kernel="jit"
        )
        want = initial_distances(g.n, [0, 9], BOOLEAN)
        got = want.copy()
        for _ in range(g.n + 1):
            cw = want_r.relax(want)
            cg = jit_r.relax(got)
            assert cw == cg
            assert np.array_equal(got, want)
            if not cw:
                break

    def test_relax_max_min_and_min_max(self, rng, jit_registered):
        for semiring in (MAX_MIN, MIN_MAX):
            g = self._random_graph(rng)
            w = g.weight.astype(np.float64)
            want_r = EdgeRelaxer(g.src, g.dst, w, semiring)
            jit_r = EdgeRelaxer(g.src, g.dst, w, semiring, kernel="jit")
            want = initial_distances(g.n, [0, 5], semiring)
            got = want.copy()
            for _ in range(g.n + 1):
                cw = want_r.relax(want)
                cg = jit_r.relax(got)
                assert cw == cg
                assert np.array_equal(got, want), semiring.name
                if not cw:
                    break

    def test_auto_relax_threshold(self, rng, jit_registered, monkeypatch):
        """``auto`` routes a phase to the compiled core exactly when the
        scan volume clears the (autotunable) floor."""
        g = self._random_graph(rng)
        r = EdgeRelaxer.from_graph(g, MIN_PLUS, kernel="auto")
        assert not r._use_jit(0)
        floor = dispatch.relax_jit_threshold()
        assert r._use_jit(int(floor // r.m) + 1)
        assert not r._use_jit(max(0, int(floor // r.m) - 1))

    def test_warm_up_runs(self, jit_registered):
        assert jit_mod.warm_up() >= 0.0


class TestJitFallback:
    """The contract on a numba-less install: never auto-selected, helpful
    errors on explicit requests (simulated via a monkeypatched import
    failure so these run identically on the numba CI lane)."""

    @pytest.fixture
    def no_numba(self, monkeypatch):
        dispatch.available_kernels()
        monkeypatch.setattr(jit_mod, "HAVE_NUMBA", False)
        monkeypatch.setattr(
            jit_mod, "NUMBA_IMPORT_ERROR", "ModuleNotFoundError: No module named 'numba'"
        )
        monkeypatch.delitem(dispatch._KERNELS, "jit", raising=False)

    def test_auto_never_selects_jit(self, no_numba):
        assert not dispatch.jit_available()
        for lkm in [(64, 64, 64), (256, 256, 256), (1024, 1024, 1024)]:
            assert dispatch.choose_kernel(*lkm) != "jit"

    def test_registry_excludes_jit(self, no_numba):
        assert "jit" not in dispatch.available_kernels()

    def test_explicit_request_raises_helpfully(self, no_numba):
        with pytest.raises(ValueError, match=r"numba.*pip install 'repro\[jit\]'|requires the optional numba"):
            dispatch.resolve_kernel("jit", 64, 64, 64)
        # the message lists what *is* registered
        with pytest.raises(ValueError, match="reference"):
            dispatch.resolve_kernel("jit", 64, 64, 64)

    def test_env_var_request_names_the_env(self, no_numba, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "jit")
        with pytest.raises(ValueError, match=r"\$REPRO_KERNEL"):
            dispatch.resolve_kernel(None, 64, 64, 64)

    def test_set_default_jit_raises(self, no_numba):
        with pytest.raises(ValueError, match="numba"):
            dispatch.set_default_kernel("jit")

    def test_relaxer_explicit_jit_raises(self, no_numba, rng):
        g = grid_digraph((4, 4), rng)
        r = EdgeRelaxer.from_graph(g, MIN_PLUS, kernel="jit")
        with pytest.raises(ValueError, match="numba"):
            r.relax(initial_distances(g.n, [0], MIN_PLUS))

    def test_relaxer_auto_stays_numpy(self, no_numba, rng):
        g = grid_digraph((4, 4), rng)
        r = EdgeRelaxer.from_graph(g, MIN_PLUS, kernel="auto")
        assert not r._use_jit(10**9)

    def test_oracle_config_accepts_but_build_raises(self, no_numba, rng):
        from repro.core.api import ShortestPathOracle
        from repro.core.config import OracleConfig

        cfg = OracleConfig(kernel="jit")  # validation is at resolve time
        g = grid_digraph((4, 4), rng)
        with pytest.raises(ValueError, match="numba"):
            ShortestPathOracle.build(g, config=cfg)
