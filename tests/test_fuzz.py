"""Seeded differential test of `driver.solve` against `oracle.classify`.

Small LPs (n <= 4, m <= 8) of the kinds whose integer forms differ most from
the rows as given: integer and rational entries (denominators up to 7), a
duplicated row, a parallel row (x2, x-1, x1/3), entries up to 10^6, and zero
objectives.  Every LP is solved in float and in dyadic mode and compared
with the exact oracle; nothing is filtered or re-seeded."""

import random
from fractions import Fraction

import pytest

from shadow_simplex import driver, model, oracle, randomness
from shadow_simplex.rational import dot

F = Fraction
KINDS = ("integer", "rational", "duplicate", "parallel", "large", "zero-objective")
CASES = 300


def entry(rng, kind):
    if kind == "rational":
        return F(rng.randint(-6, 6), rng.randint(1, 7))
    if kind == "large":
        return F(rng.randint(-(10**6), 10**6))
    return F(rng.randint(-3, 3))


def fuzz_lp(rng, kind):
    n = rng.randint(1, 4)
    m = rng.randint(1, 7 if kind in ("duplicate", "parallel") else 8)
    rows = []
    while len(rows) < m:
        row = [entry(rng, kind) for _ in range(n)]
        if any(row):
            rows.append(row)
    b = [entry(rng, kind) for _ in rows]
    if kind == "duplicate":
        k = rng.randrange(m)
        rows.append(list(rows[k]))
        b.append(b[k])
    elif kind == "parallel":
        k = rng.randrange(m)
        factor = rng.choice([F(2), F(-1), F(1, 3)])
        rows.append([factor * x for x in rows[k]])
        b.append(entry(rng, "rational"))
    c0 = [F(0)] * n if kind == "zero-objective" else [entry(rng, kind) for _ in range(n)]
    return model.make_lp(rows, b, c0)


def lps():
    rng = random.Random(20261019)
    return [(case, KINDS[case % len(KINDS)], fuzz_lp(rng, KINDS[case % len(KINDS)])) for case in range(CASES)]


@pytest.mark.parametrize("mode", [randomness.MODE_FLOAT, randomness.MODE_DYADIC])
def test_solve_agrees_with_the_oracle(mode):
    for case, kind, lp in lps():
        ref = oracle.classify(lp)
        out = driver.solve(lp, driver.SolveConfig(rng=randomness.RngConfig(seed=case, mode=mode)))
        where = f"case {case} ({kind}): {model.serialize_lp(lp)}"
        assert out.status == ref.status, where
        if out.status == "infeasible":
            assert out.infeasible_gap > 0, where
            continue
        assert lp.feasible(out.point), where
        if out.status == "optimal":
            assert out.value == ref.value == dot(list(lp.c0), list(out.point)), where
        else:
            ray = list(out.ray)
            assert dot(list(lp.c0), ray) > 0, where
            assert all(dot(lp.row(i), ray) <= 0 for i in range(lp.m)), where
