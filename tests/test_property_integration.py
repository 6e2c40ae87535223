"""Property-based integration tests: on random graphs of several families,
the full pipeline (decompose → augment → schedule → query) must agree with
independent references — the strongest form of invariants I1–I5."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.digraph import WeightedDigraph
from repro.core.doubling import augment_doubling
from repro.core.leaves_up import augment_leaves_up
from repro.core.scheduler import build_schedule
from repro.core.sssp import measured_diameter, sssp_scheduled
from repro.kernels.floyd_warshall import floyd_warshall
from repro.separators.spectral import decompose_spectral
from repro.workloads.generators import grid_digraph
from repro.separators.grid import decompose_grid

SLOW = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def random_digraphs(draw):
    """Sparse random digraphs, sometimes with (cycle-safe) negative weights,
    sometimes disconnected."""
    n = draw(st.integers(min_value=2, max_value=28))
    m = draw(st.integers(min_value=0, max_value=4 * n))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    negative = draw(st.booleans())
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    keep = src != dst
    w = rng.uniform(0.5, 9.5, size=int(keep.sum()))
    g = WeightedDigraph(n, src[keep], dst[keep], w)
    if negative:
        p = rng.uniform(0, 4, size=n)
        g = WeightedDigraph(n, g.src, g.dst, g.weight + p[g.src] - p[g.dst])
    return g


@settings(**SLOW)
@given(random_digraphs(), st.sampled_from(["leaves_up", "doubling"]))
def test_pipeline_exact_on_random_digraphs(g, method):
    tree = decompose_spectral(g, leaf_size=4)
    tree.validate(g)
    build = augment_leaves_up if method == "leaves_up" else augment_doubling
    aug = build(g, tree, keep_node_distances=False)
    ref = floyd_warshall(g.dense_weights())
    got = sssp_scheduled(aug, list(range(g.n)))
    both_inf = np.isinf(got) & np.isinf(ref)
    assert (both_inf | np.isclose(got, ref, atol=1e-8)).all()
    assert measured_diameter(aug) <= aug.diameter_bound


@settings(**SLOW)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=2, max_value=6),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_pipeline_exact_on_random_grids(rows, cols, seed):
    rng = np.random.default_rng(seed)
    g = grid_digraph((rows, cols), rng)
    tree = decompose_grid(g, (rows, cols), leaf_size=3)
    a1 = augment_leaves_up(g, tree, keep_node_distances=False)
    a2 = augment_doubling(g, tree, keep_node_distances=False)
    # I3: the two algorithms agree edge-for-edge.
    assert np.array_equal(a1.src, a2.src)
    assert np.allclose(a1.weight, a2.weight)
    # I1/I5 on a sample of sources.
    ref = floyd_warshall(g.dense_weights())
    srcs = list(range(0, g.n, max(1, g.n // 5)))
    got = sssp_scheduled(a1, srcs)
    assert np.allclose(got, ref[srcs])


@settings(**SLOW)
@given(random_digraphs())
def test_schedule_work_invariant(g):
    """I10 on arbitrary graphs: every E⁺ edge is scanned at most twice in
    the middle phases."""
    tree = decompose_spectral(g, leaf_size=4)
    aug = augment_leaves_up(g, tree, keep_node_distances=False)
    schedule = build_schedule(aug)
    if aug.size:
        assert schedule.aug_edge_phase_counts.max() <= 2
    assert schedule.num_phases == 2 * aug.ell + 4 * tree.height + 1


@settings(**SLOW)
@given(random_digraphs())
def test_semiring_variants_on_random_digraphs(g):
    """Bottleneck and minimax algebras stay exact on arbitrary sparse
    digraphs (not just grids)."""
    from repro.core.leaves_up import dense_semiring_weights
    from repro.core.semiring import MAX_MIN, MIN_MAX

    tree = decompose_spectral(g, leaf_size=4)
    for sr in (MAX_MIN, MIN_MAX):
        aug = augment_leaves_up(g, tree, sr, keep_node_distances=False)
        got = sssp_scheduled(aug, list(range(g.n)))
        ref = floyd_warshall(dense_semiring_weights(g, sr), sr)
        assert np.allclose(got, ref)


def test_one_way_grid_unreachable_pairs(rng=np.random.default_rng(5)):
    """Min-plus on a one-orientation grid: plenty of infinite distances,
    which the schedule must preserve exactly."""
    from repro.core.digraph import WeightedDigraph

    base = grid_digraph((8, 8), rng)
    key = np.minimum(base.src, base.dst) * base.n + np.maximum(base.src, base.dst)
    order = np.argsort(key, kind="stable")
    keep = np.zeros(base.m, dtype=bool)
    keep[order[0::2]] = True  # one orientation per undirected edge
    g = WeightedDigraph(base.n, base.src[keep], base.dst[keep], base.weight[keep])
    tree = decompose_grid(g, (8, 8), leaf_size=4)
    aug = augment_leaves_up(g, tree, keep_node_distances=False)
    got = sssp_scheduled(aug, list(range(g.n)))
    ref = floyd_warshall(g.dense_weights())
    both_inf = np.isinf(got) & np.isinf(ref)
    assert (both_inf | np.isclose(got, ref)).all()
    assert np.isinf(ref).any()  # the scenario is non-trivial
