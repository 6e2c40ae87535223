"""Cross-validation of the TVPI solvers against an independent LP oracle
(scipy.optimize.linprog): feasibility verdicts must agree on random
systems, feasible and infeasible alike."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.tvpi import (
    DifferenceConstraint,
    UTVPIConstraint,
    solve_difference_system,
    solve_utvpi_system,
)

SLOW = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def linprog_feasible_difference(n, cons) -> bool:
    from scipy.optimize import linprog

    a = np.zeros((len(cons), n))
    b = np.zeros(len(cons))
    for k, c in enumerate(cons):
        a[k, c.j] = 1.0
        a[k, c.i] -= 1.0  # handles i == j (degenerate 0 ≤ c rows)
        b[k] = c.c
    res = linprog(np.zeros(n), A_ub=a, b_ub=b, bounds=[(None, None)] * n, method="highs")
    return res.status == 0


def linprog_feasible_utvpi(n, cons) -> bool:
    from scipy.optimize import linprog

    a = np.zeros((len(cons), n))
    b = np.zeros(len(cons))
    for k, c in enumerate(cons):
        a[k, c.i] += c.a
        if c.j >= 0:
            a[k, c.j] += c.b
        b[k] = c.c
    res = linprog(np.zeros(n), A_ub=a, b_ub=b, bounds=[(None, None)] * n, method="highs")
    return res.status == 0


@st.composite
def difference_systems(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    m = draw(st.integers(min_value=1, max_value=4 * n))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    cons = []
    for _ in range(m):
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        cons.append(DifferenceConstraint(int(i), int(j), float(rng.uniform(-3, 3))))
    return n, cons


@settings(**SLOW)
@given(difference_systems())
def test_difference_feasibility_matches_linprog(system):
    n, cons = system
    if not cons:
        return
    ours = solve_difference_system(n, cons)
    lp = linprog_feasible_difference(n, cons)
    assert ours.feasible == lp
    if ours.feasible:
        assert ours.check(cons)


@st.composite
def utvpi_systems(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    m = draw(st.integers(min_value=1, max_value=3 * n))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    cons = []
    for _ in range(m):
        if rng.uniform() < 0.2:
            cons.append(
                UTVPIConstraint(int(rng.choice([-1, 1])), int(rng.integers(n)), 0, -1,
                                float(rng.uniform(-3, 3)))
            )
        else:
            i, j = rng.integers(0, n, size=2)
            if i == j:
                continue
            cons.append(
                UTVPIConstraint(
                    int(rng.choice([-1, 1])), int(i),
                    int(rng.choice([-1, 1])), int(j),
                    float(rng.uniform(-3, 3)),
                )
            )
    return n, cons


@settings(**SLOW)
@given(utvpi_systems())
def test_utvpi_feasibility_matches_linprog(system):
    n, cons = system
    if not cons:
        return
    ours = solve_utvpi_system(n, cons)
    lp = linprog_feasible_utvpi(n, cons)
    assert ours.feasible == lp
    if ours.feasible:
        assert ours.check(cons)
