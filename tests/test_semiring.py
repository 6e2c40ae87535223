"""Unit + property tests for the semiring framework."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.semiring import BOOLEAN, COUNTING_HOPS, MAX_MIN, MIN_MAX, MIN_PLUS, SEMIRINGS

ALL = [MIN_PLUS, BOOLEAN, MAX_MIN, MIN_MAX, COUNTING_HOPS]


@pytest.mark.parametrize("sr", ALL, ids=lambda s: s.name)
def test_identity_matrix(sr):
    m = sr.identity_matrix(3)
    assert m.dtype == sr.dtype
    assert (np.diag(m) == sr.one).all()
    off = m[~np.eye(3, dtype=bool)]
    assert (off == sr.zero).all()


@pytest.mark.parametrize("sr", ALL, ids=lambda s: s.name)
def test_registered(sr):
    assert SEMIRINGS[sr.name] is sr


def test_min_plus_ops():
    a = np.array([1.0, np.inf])
    b = np.array([2.0, 3.0])
    assert MIN_PLUS.add(a, b).tolist() == [1.0, 3.0]
    assert MIN_PLUS.mul(a, b).tolist() == [3.0, np.inf]
    assert MIN_PLUS.improves(np.array([1.0]), np.array([2.0])).all()
    assert not MIN_PLUS.improves(np.array([2.0]), np.array([2.0])).any()


def test_boolean_ops():
    a = np.array([True, False])
    b = np.array([False, False])
    assert BOOLEAN.add(a, b).tolist() == [True, False]
    assert BOOLEAN.mul(a, np.array([True, True])).tolist() == [True, False]
    # True improves on False, nothing improves on True.
    assert BOOLEAN.improves(a, b).tolist() == [True, False]


def test_max_min_ops():
    a = np.array([3.0])
    b = np.array([5.0])
    assert MAX_MIN.add(a, b)[0] == 5.0  # wider is better
    assert MAX_MIN.mul(a, b)[0] == 3.0  # bottleneck of a path
    assert MAX_MIN.improves(b, a).all()


def test_scatter_min_duplicates():
    t = np.full(3, np.inf)
    MIN_PLUS.scatter_min(t, np.array([1, 1, 2]), np.array([5.0, 3.0, 7.0]))
    assert t.tolist() == [np.inf, 3.0, 7.0]


def test_scatter_boolean():
    t = np.zeros(3, dtype=bool)
    BOOLEAN.scatter_min(t, np.array([0, 0]), np.array([True, False]))
    assert t.tolist() == [True, False, False]


@st.composite
def float_triples(draw):
    # Dyadic rationals: exact under float addition, so the ⊗-associativity
    # axiom holds without an epsilon.
    f = st.integers(min_value=-800, max_value=800).map(lambda k: k / 8.0)
    return draw(f), draw(f), draw(f)


@settings(max_examples=200, deadline=None)
@given(float_triples())
@pytest.mark.parametrize("sr", [MIN_PLUS, MAX_MIN, MIN_MAX], ids=lambda s: s.name)
def test_semiring_axioms(sr, triple):
    """⊕/⊗ associativity, commutative ⊕, distributivity, identities,
    idempotence — on scalars (wrapped in 0-d arrays)."""
    a, b, c = (np.float64(x) for x in triple)
    add, mul = sr.add, sr.mul
    assert add(add(a, b), c) == add(a, add(b, c))
    assert add(a, b) == add(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert add(a, a) == a  # idempotent
    assert add(a, np.float64(sr.zero)) == a
    assert mul(a, np.float64(sr.one)) == a
    # Distributivity: a ⊗ (b ⊕ c) = (a ⊗ b) ⊕ (a ⊗ c)
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


def test_zero_annihilates_min_plus():
    assert MIN_PLUS.mul(np.float64(np.inf), np.float64(5.0)) == np.inf


def _guard_values(sr, rng):
    """Random values of ``sr``'s dtype plus 0̄, 1̄ and, for floats, ±inf,
    ±0 and negatives."""
    if sr.dtype == np.dtype(bool):
        return np.array([False, True])
    special = [sr.zero, sr.one, np.inf, -np.inf, 0.0, -0.0, -1.0, 1.0]
    return np.concatenate([special, rng.normal(scale=50.0, size=40)]).astype(sr.dtype)


def _same(a, b):
    """Bitwise equality of ``a`` and ``b``, with two exceptions.  A
    position where either side is NaN is skipped: ``-inf ⊗ +inf`` is
    undefined in min-plus, so no such value reaches a sweep.  A signed-zero
    tie (``0.0`` against ``-0.0``) matches by value: ``np.minimum`` returns
    its second operand on a tie, so the sign of a zero follows the order of
    the ⊕ operands."""
    a, b = np.broadcast_arrays(a, b)
    if a.dtype.kind != "f":
        return np.array_equal(a, b)
    tie = ((a == 0) & (b == 0)) | np.isnan(a) | np.isnan(b)
    return np.array_equal(
        np.ascontiguousarray(a).view(np.uint64)[~tie],
        np.ascontiguousarray(b).view(np.uint64)[~tie],
    )


@pytest.mark.parametrize("name", sorted(SEMIRINGS))
def test_one_bounded_diagonal_only_improves_a_product(name):
    """The premises that let the Algorithm 4.1 sweep drop its two-hop
    products (``core/reweight.py``).  A value ``d`` at least as good as 1̄
    (``d ⊕ 1̄ == d``, as a node's diagonal always is) never worsens what it
    multiplies on either side: ``(d ⊗ y) ⊕ y == d ⊗ y`` and
    ``(y ⊗ d) ⊕ y == y ⊗ d``.  And ⊗ is monotone on both sides:
    ``x ⊕ x' == x`` implies ``(x ⊗ y) ⊕ (x' ⊗ y) == x ⊗ y`` and
    ``(y ⊗ x) ⊕ (y ⊗ x') == y ⊗ x``.  Results compare bitwise (see
    :func:`_same` for the signed-zero tie)."""
    sr = SEMIRINGS[name]
    vals = _guard_values(sr, np.random.default_rng(7))
    one = np.asarray(sr.one, dtype=sr.dtype)
    d = vals[sr.add(vals, one) == vals]
    assert d.size >= 1  # 1̄ itself qualifies
    x, xp = np.meshgrid(vals, vals, indexing="ij")
    better = sr.add(x, xp) == x
    x, xp = x[better][:, None], xp[better][:, None]
    y = vals[None, :]
    with np.errstate(invalid="ignore"):  # -inf ⊗ +inf is NaN in min-plus
        dy, yd = sr.mul(d[:, None], y), sr.mul(y, d[:, None])
        assert _same(sr.add(dy, y), dy)
        assert _same(sr.add(yd, y), yd)
        assert _same(sr.add(sr.mul(x, y), sr.mul(xp, y)), sr.mul(x, y))
        assert _same(sr.add(sr.mul(y, x), sr.mul(y, xp)), sr.mul(y, x))
