"""The exact Algorithm 4.1 build against an independent reference.

``tests/data/build_parity.json`` holds digests recorded by
``tools/build_parity_digests.py`` from the per-node Algorithm 4.1 builder
(one worker per tree node, before the build became one stacked sweep per
level).  Every case rebuilds and must reproduce, bit for bit: E⁺, the leaf
diameters, every node matrix, the preprocess ledger's work / depth /
per-label tallies, the cache key, and the node and vertex a negative cycle
is reported at.  Algorithm 4.3 (doubling) is a second, live reference: on
integer weights it must produce the identical E⁺.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.doubling import augment_doubling
from repro.core.leaves_up import augment_leaves_up
from repro.core.semiring import SEMIRINGS

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "data" / "build_parity.json").read_text())


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location(
        "build_parity_digests", ROOT / "tools" / "build_parity_digests.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("case", sorted(GOLDEN["builds"]))
def test_build_matches_golden(tool, case):
    graph, weights, semiring = case.split("/")
    assert tool.digest_case(graph, weights, semiring) == GOLDEN["builds"][case]


@pytest.mark.parametrize("case", sorted(GOLDEN["ledger_variants"]))
def test_ledger_variant_matches_golden(tool, case):
    model, omega, semiring = case.split("/")
    got = tool.ledger_variant(model, float(omega), semiring)
    assert got == GOLDEN["ledger_variants"][case]


@pytest.mark.parametrize("case", sorted(GOLDEN["negative_cycles"]))
def test_negative_cycle_reported_where_golden(tool, case):
    graph, kind, semiring = case.split("/")
    assert tool.negative_cycle_case(graph, kind, semiring) == GOLDEN["negative_cycles"][case]


def test_golden_covers_the_case_matrix(tool):
    """The recorded file spans every graph × weights × semiring."""
    want = {f"{g}/{w}/{s}" for g in tool.GRAPHS for w in tool.WEIGHTS
            for s in tool.SEMIRING_NAMES}
    assert set(GOLDEN["builds"]) == want
    assert len(want) == 120


@pytest.mark.parametrize("semiring", sorted(SEMIRINGS))
@pytest.mark.parametrize("graph", ["grid12", "mu260", "delaunay120"])
def test_matches_doubling_on_integer_weights(tool, graph, semiring):
    g, tree = tool.make_graph(graph)
    g = tool.reweighted(g, "int")
    sr = SEMIRINGS[semiring]
    a = augment_leaves_up(g, tree, sr, keep_node_distances=False)
    b = augment_doubling(g, tree, sr, keep_node_distances=False)
    assert np.array_equal(a.src, b.src)
    assert np.array_equal(a.dst, b.dst)
    assert np.array_equal(a.weight, b.weight)
    assert a.leaf_diameters == b.leaf_diameters
