"""Shared fixtures: small graphs of every family with their decompositions,
and reference-distance helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.digraph import WeightedDigraph
from repro.kernels.floyd_warshall import floyd_warshall
from repro.separators.grid import decompose_grid
from repro.separators.spectral import decompose_spectral
from repro.workloads.generators import (
    apply_potential_weights,
    delaunay_digraph,
    grid_digraph,
    random_tree_digraph,
)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def grid7(rng):
    """7x7 grid with random directed weights + its decomposition."""
    g = grid_digraph((7, 7), rng)
    tree = decompose_grid(g, (7, 7), leaf_size=4)
    return g, tree


@pytest.fixture
def grid6_negative(rng):
    """6x6 grid with negative (but cycle-safe) weights + decomposition."""
    g = apply_potential_weights(grid_digraph((6, 6), rng), rng)
    tree = decompose_grid(g, (6, 6), leaf_size=4)
    return g, tree


@pytest.fixture
def delaunay80(rng):
    g, pts = delaunay_digraph(80, rng)
    tree = decompose_spectral(g, leaf_size=6)
    return g, tree, pts


@pytest.fixture
def tree60(rng):
    g = random_tree_digraph(60, rng)
    tree = decompose_spectral(g, leaf_size=4)
    return g, tree


@pytest.fixture
def tiny_line():
    """Deterministic 4-vertex directed line 0→1→2→3 with weights 1, 2, 3."""
    return WeightedDigraph(4, [0, 1, 2], [1, 2, 3], [1.0, 2.0, 3.0])


def reference_apsp(g: WeightedDigraph) -> np.ndarray:
    """Brute-force all-pairs distances (independent oracle)."""
    return floyd_warshall(g.dense_weights())


def assert_distances_equal(got: np.ndarray, want: np.ndarray, atol: float = 1e-8):
    both_inf = np.isinf(got) & np.isinf(want)
    close = np.isclose(got, want, atol=atol, rtol=1e-9)
    assert (both_inf | close).all(), (
        f"max abs err {np.nanmax(np.abs(np.where(both_inf, 0, got - want)))}"
    )
