"""Ground-truth machinery: vertex enumeration, brute force, Bland simplex.

Everything here is exact and deliberately naive; these routines exist to be
trusted, not fast.  They eliminate in integers on `linalg`'s kernels, shared
with the solver, on rows they clear of denominators themselves, and are
checked against their Fraction forms in `tests/reference.py`.  They share
nothing else but the LP data model with the solver under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd
from operator import mul

from . import linalg, model
from .model import BasicSolution, LinearProgram
from .rational import as_fractions, common_denominator, dot

ENUM_GUARD = 10**6


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class VertexSet:
    vertices: tuple[BasicSolution, ...]

    def points(self) -> list[tuple[Fraction, ...]]:
        return [v.point for v in self.vertices]

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class OracleOutcome:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None = None
    point: tuple[Fraction, ...] | None = None
    basis: tuple[int, ...] | None = None


def _integer_rows(lp: LinearProgram) -> tuple[list[list[int]], list[int]]:
    """(R, r): each row (a_i, b_i) times its own common denominator, so
    a_i x <= b_i exactly when R_i x <= r_i."""
    rows = [common_denominator([*a, b])[0] for a, b in zip(lp.A, lp.b)]
    return [row[:-1] for row in rows], [row[-1] for row in rows]


def enumerate_vertices(lp: LinearProgram) -> VertexSet:
    """All basic feasible solutions by exhaustive n-subset solving: x =
    adj(R_S) r_S / det(R_S), from one elimination of [R_S | r_S] per
    subset, checked against every row in integers."""
    m, n = lp.m, lp.n
    if comb(m, n) > ENUM_GUARD:
        raise OracleError(f"C({m},{n}) exceeds the enumeration guard")
    R, r = _integer_rows(lp)
    if len(linalg.independent_rows(R)) < n:
        raise OracleError("matrix is rank deficient")
    seen: dict[tuple, BasicSolution] = {}
    for S in combinations(range(m), n):
        solved = linalg.solve_adj([R[i] for i in S], [r[i] for i in S])
        if solved is None:
            continue
        x, d = solved
        if d < 0:
            x, d = [-v for v in x], -d
        if all(sum(map(mul, Ri, x)) <= ri * d for Ri, ri in zip(R, r)):
            g = gcd(d, *x)
            key = (tuple(v // g for v in x), d // g)
            if key not in seen:
                seen[key] = BasicSolution(tuple(Fraction(v, d) for v in x), tuple(S))
    return VertexSet(vertices=tuple(seen.values()))


def _improving_extreme_ray(lp: LinearProgram):
    """Exact scan over extreme-ray candidates of the recession cone: the
    null-space direction of each independent (n-1)-subset of rows, either
    sign, tested in integers."""
    m, n = lp.m, lp.n
    if comb(m, n - 1) > ENUM_GUARD:
        raise OracleError("ray enumeration guard exceeded")
    R = _integer_rows(lp)[0]
    c = common_denominator(lp.c0)[0]
    for S in combinations(range(m), n - 1):
        chosen, pivots, basis = linalg.echelon([R[i] for i in S])
        if len(chosen) < n - 1:
            continue
        d, den = linalg.back_substitute(pivots, basis, n)
        for cand in (d, [-x for x in d]):
            if all(sum(map(mul, Ri, cand)) <= 0 for Ri in R) and sum(map(mul, c, cand)) > 0:
                return [Fraction(x, den) for x in cand]
    return None


def brute_force_optimum(lp: LinearProgram) -> OracleOutcome:
    """Exact argmax of c0^T x over enumerated vertices, with ray screening."""
    vs = enumerate_vertices(lp)
    if not len(vs):
        return OracleOutcome(status="infeasible")
    ray = _improving_extreme_ray(lp)
    if ray is not None:
        return OracleOutcome(status="unbounded")
    best = None
    for v in vs.vertices:
        val = dot(list(lp.c0), list(v.point))
        if best is None or val > best[0]:
            best = (val, v)
    return OracleOutcome(status="optimal", value=best[0], point=best[1].point, basis=best[1].basis)


def reference_simplex(lp: LinearProgram, start: BasicSolution) -> OracleOutcome:
    """Deterministic lowest-index (Bland) simplex, exact: per pivot, the basis
    rows' (adj B, det B) give the signs of c0's multipliers c0 B^-1 and the
    edge d = -adj[:, k] / det B off basis row k, and x steps in Fractions."""
    model.validate_basic_solution(lp, start)
    m, n = lp.m, lp.n
    rows = lp.rows()
    R = _integer_rows(lp)[0]
    c = common_denominator(lp.c0)[0]
    basis = sorted(start.basis)
    x = as_fractions(start.point)
    guard = 10 * comb(m, n) + 100 if comb(m, n) < ENUM_GUARD else ENUM_GUARD
    pivots = 0
    while True:
        pivots += 1
        if pivots > guard:
            raise OracleError("reference simplex pivot guard exceeded")
        adj, det = linalg.invert([R[i] for i in basis])
        cols = list(zip(*adj))
        neg = [k for k in range(n) if sum(map(mul, c, cols[k])) * det < 0]
        if not neg:
            val = dot(list(lp.c0), x)
            return OracleOutcome(status="optimal", value=val, point=tuple(x), basis=tuple(basis))
        # Bland: relax the lowest-indexed basis row with negative multiplier
        k = min(neg, key=lambda q: basis[q])
        d = [Fraction(-v, det) for v in cols[k]]
        blocking = []
        for i in range(m):
            if i in basis:
                continue
            ad = dot(rows[i], d)
            if ad > 0:
                theta = (lp.b[i] - dot(rows[i], x)) / ad
                blocking.append((theta, i))
        if not blocking:
            return OracleOutcome(status="unbounded", point=tuple(x))
        theta_min = min(t for t, _ in blocking)
        enter = min(i for t, i in blocking if t == theta_min)
        x = [xi + theta_min * di for xi, di in zip(x, d)]
        basis[k] = enter
        basis.sort()


def classify(lp: LinearProgram) -> OracleOutcome:
    """Classification + exact value for an arbitrary LP (handles rank < n).

    Rank-deficient inputs are lifted with the lp-model rank-raising rows
    (feasibility- and value-preserving) before enumeration.  c0 escapes the
    row span, and the LP is unbounded whenever feasible, exactly when it
    raises the rank of the integer rows.
    """
    R = _integer_rows(lp)[0]
    r = linalg.rank(R)
    if r < lp.n:
        escapes = linalg.rank(R + [common_denominator(lp.c0)[0]]) > r
        lifted = model.extend_to_full_rank(lp)
        if escapes:
            vs = enumerate_vertices(lifted)
            return OracleOutcome(status="unbounded" if len(vs) else "infeasible")
        lp = lifted
    return brute_force_optimum(lp)
