"""Ground-truth machinery: vertex enumeration, brute force, Bland simplex.

Everything here is exact rational and deliberately naive; these routines
exist to be trusted, not fast.  They share only low-level plumbing
(elimination, the LP data model) with the solver under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from . import linalg, model
from .model import BasicSolution, LinearProgram
from .rational import as_fractions, dot

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


def enumerate_vertices(lp: LinearProgram) -> VertexSet:
    """All basic feasible solutions by exhaustive n-subset solving."""
    m, n = lp.m, lp.n
    if comb(m, n) > ENUM_GUARD:
        raise OracleError(f"C({m},{n}) exceeds the enumeration guard")
    rows = lp.rows()
    if len(linalg.independent_rows(rows)) < n:
        raise OracleError("matrix is rank deficient")
    seen: dict[tuple, BasicSolution] = {}
    for S in combinations(range(m), n):
        try:
            x = linalg.solve_square([rows[i] for i in S], [lp.b[i] for i in S])
        except linalg.LinAlgError:
            continue
        if all(dot(rows[i], x) <= lp.b[i] for i in range(m)):
            key = tuple(x)
            if key not in seen:
                seen[key] = BasicSolution(point=key, basis=tuple(S))
    return VertexSet(vertices=tuple(seen.values()))


def _improving_extreme_ray(lp: LinearProgram, objective=None):
    """Exact scan over extreme-ray candidates of the recession cone."""
    obj = as_fractions(objective if objective is not None else lp.c0)
    rows = lp.rows()
    m, n = lp.m, lp.n
    if n == 1:
        for d in ([Fraction(1)], [Fraction(-1)]):
            if all(dot(r, d) <= 0 for r in rows) and dot(obj, d) > 0:
                return d
        return None
    if comb(m, n - 1) > ENUM_GUARD:
        raise OracleError("ray enumeration guard exceeded")
    for S in combinations(range(m), n - 1):
        sub = [rows[i] for i in S]
        d = linalg.nullspace_vector(sub, n)
        if d is None or len(linalg.independent_rows(sub)) < n - 1:
            continue
        for cand in (d, [-x for x in d]):
            if all(dot(r, cand) <= 0 for r in rows) and dot(obj, cand) > 0:
                return cand
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
    """Deterministic lowest-index (Bland) simplex over exact rationals."""
    model.validate_basic_solution(lp, start)
    m, n = lp.m, lp.n
    rows = lp.rows()
    basis = sorted(start.basis)
    x = as_fractions(start.point)
    guard = 10 * comb(m, n) + 100 if comb(m, n) < ENUM_GUARD else ENUM_GUARD
    pivots = 0
    while True:
        pivots += 1
        if pivots > guard:
            raise OracleError("reference simplex pivot guard exceeded")
        Bt = [[rows[i][t] for i in basis] for t in range(n)]  # columns are basis rows
        mu = linalg.solve_square(Bt, list(lp.c0))
        neg = [k for k in range(n) if mu[k] < 0]
        if not neg:
            val = dot(list(lp.c0), x)
            return OracleOutcome(status="optimal", value=val, point=tuple(x), basis=tuple(basis))
        # Bland: relax the lowest-indexed basis row with negative multiplier
        k = min(neg, key=lambda q: basis[q])
        rhs = [Fraction(0)] * n
        rhs[k] = Fraction(-1)
        d = linalg.solve_square([rows[i] for i in basis], rhs)
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
    (feasibility- and value-preserving) before enumeration.
    """
    rows = lp.rows()
    if len(linalg.independent_rows(rows)) < lp.n:
        escape = model._objective_escape(lp.c0, model.integer_form(lp).R)
        lifted = model.extend_to_full_rank(lp)
        if escape is not None:
            vs = enumerate_vertices(lifted)
            return OracleOutcome(status="unbounded" if len(vs) else "infeasible")
        lp = lifted
    return brute_force_optimum(lp)
