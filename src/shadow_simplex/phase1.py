"""Auxiliary feasibility program: min sum(y) s.t. Ax - y <= b, y >= 0.

Encoded as a maximization of -sum(y) over the block matrix
[[A, -I], [0, -I]] with rhs (b, 0).  The construction provides an explicit
basic feasible start, so the main solver can run on it directly; optimal
value 0 yields a vertex of the original program, anything below certifies
infeasibility.

`build_phase1` builds this LP' in full, as the paper states it.  The solver
walks only the face of LP' that its start point lies on (`build_phase1_face`):
the start x_bar solves the n lead rows, and every row that x_bar satisfies
keeps y_i = 0.  Fixing those y_i deletes their columns and their rows
-y_i <= 0, which leaves n + |V| columns and m + |V| rows, V being the rows
x_bar violates.  The optimum on the face is still 0 exactly when the LP is
feasible, and faces keep the delta-distance value, so the Phase-1 bound
carries over.  When V is empty, x_bar is already a vertex and Phase 1 is
skipped.  `extract_bfs` crawls from the x-part of a zero-gap optimum to a
vertex on the integer form the solve already holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg, model
from .model import BasicSolution, LinearProgram
from .rational import as_fractions


class Phase1Error(ValueError):
    pass


@dataclass(frozen=True)
class Phase1Problem:
    lp_prime: LinearProgram
    initial: BasicSolution
    orig_n: int


@dataclass(frozen=True)
class InfeasibleCertificate:
    """gap is the optimum of sum(y) over the artificials the LP' walked: all
    m in the full LP', only y_V on the face.  It is positive exactly when the
    LP is infeasible; on the face it may exceed the full LP' optimum."""

    gap: Fraction


def phase1_matrix(A_rows) -> list[list[Fraction]]:
    """The (2m) x (n+m) block matrix [[A, -I], [0, -I]]."""
    rows = [as_fractions(r) for r in A_rows]
    m = len(rows)
    n = len(rows[0])
    out = []
    for i, a in enumerate(rows):
        out.append(list(a) + [Fraction(-int(i == j)) for j in range(m)])
    for i in range(m):
        out.append([Fraction(0)] * n + [Fraction(-int(i == j)) for j in range(m)])
    return out


def _lead_start(lp: LinearProgram, lead: list[int], form: model.IntegerForm):
    """(perm, rows, rhs, x_bar, violations) for the n independent lead rows:
    rows and rhs in perm order, the lead rows first; x_bar solves the lead
    rows; violation_i = a_i x_bar - b_i where that is positive, else 0.

    Decided on form, lp's integer form: x_bar = adj(R_L) beta_L / (det s)
    from one Bareiss pass over the lead rows R_L, and the sign of
    a_i x_bar - b_i is that of s R_i xn - beta_i xd with x_bar = xn / xd."""
    m, n = lp.m, lp.n
    rows = lp.rows()
    perm = list(lead) + [i for i in range(m) if i not in lead]
    A_perm = [rows[i] for i in perm]
    b_perm = [lp.b[i] for i in perm]
    R, beta, s = form.R, form.beta, form.s
    adj, det = linalg.invert([R[i] for i in lead])
    xn = [sum(a * beta[i] for a, i in zip(row, lead)) for row in adj]
    xd = det * s
    if xd < 0:
        xn, xd = [-v for v in xn], -xd
    x_bar = [Fraction(v, xd) for v in xn]
    viol = []
    for i in perm:
        e = s * sum(a * v for a, v in zip(R[i], xn)) - beta[i] * xd
        # a_i x_bar - b_i = e / (s xd f_i)
        viol.append(Fraction(e, s * xd) / form.factor[i] if e > 0 else Fraction(0))
    return perm, A_perm, b_perm, x_bar, viol


def build_phase1(lp: LinearProgram) -> Phase1Problem:
    """Construct LP' and its basic feasible start from a full-rank LP."""
    m, n = lp.m, lp.n
    idx = linalg.independent_rows(lp.rows())
    if len(idx) < n:
        raise Phase1Error("constraint matrix is rank deficient")
    perm, A_perm, b_perm, x_bar, y = _lead_start(lp, idx[:n], model.integer_form(lp))

    B = phase1_matrix(A_perm)
    rhs = b_perm + [Fraction(0)] * m
    c_prime = [Fraction(0)] * n + [Fraction(-1)] * m
    lp_prime = model.make_lp(B, rhs, c_prime)

    point = tuple(x_bar) + tuple(y)
    basis = list(range(n)) + [m + i if y[i] == 0 else i for i in range(m)]
    initial = BasicSolution(point=point, basis=tuple(sorted(basis)))
    model.validate_basic_solution(lp_prime, initial)
    return Phase1Problem(lp_prime=lp_prime, initial=initial, orig_n=n)


def build_phase1_face(
    lp: LinearProgram, lead: list[int], form: model.IntegerForm
) -> Phase1Problem | BasicSolution:
    """The face y_i = 0 (x_bar satisfies row i) of LP', with its start vertex
    (x_bar, y_V); or the vertex x_bar itself when it violates no row.

    lead holds the first n rows of `linalg.independent_rows(lp.rows())`,
    which the caller has already computed to check the rank, and form is
    lp's integer form, on which x_bar and V are decided.

    Face rows, in order: a_i x - [i in V] y_i <= b_i for every row in perm
    order, then -y_i <= 0 for i in V.  The start basis is the n lead rows plus
    the rows a_i x - y_i = b_i of V.  The caller's solve checks the start
    when its first facet chain builds a `walk.Tableau` on it.
    """
    m, n = lp.m, lp.n
    perm, A_perm, b_perm, x_bar, resid = _lead_start(lp, lead, form)
    V = [i for i in range(m) if resid[i] > 0]
    if not V:
        return BasicSolution(point=tuple(x_bar), basis=tuple(perm[:n]))
    zero, minus = Fraction(0), Fraction(-1)
    B = [a + [minus if v == i else zero for v in V] for i, a in enumerate(A_perm)]
    B += [[zero] * n + [minus if v == u else zero for v in V] for u in V]
    k = len(V)
    lp_face = model.make_lp(B, b_perm + [zero] * k, [zero] * n + [minus] * k)
    initial = BasicSolution(
        point=tuple(x_bar) + tuple(resid[i] for i in V),
        basis=tuple(range(n)) + tuple(V),
    )
    return Phase1Problem(lp_prime=lp_face, initial=initial, orig_n=n)


def slack_sum(problem: Phase1Problem, point) -> Fraction:
    return sum(as_fractions(point)[problem.orig_n :], Fraction(0))


def extract_bfs(
    solution: BasicSolution, form: model.IntegerForm, problem: Phase1Problem
) -> BasicSolution | InfeasibleCertificate:
    """Turn a certified LP' optimum (full or face) into a vertex of the
    original LP, given by its integer form, which the solve already holds.

    The x-part of a zero-slack optimum is feasible; crawling on form fixes
    one independent tight row at a time until a genuine basis emerges (the
    LP' optimum may be degenerate or sit on the bounding box of LP'), and
    raises on an infeasible point.
    """
    point = as_fractions(solution.point)
    if len(point) != problem.lp_prime.n:
        raise Phase1Error("solution has the wrong dimension")
    gap = slack_sum(problem, point)
    if gap > 0:
        return InfeasibleCertificate(gap=gap)
    if gap < 0:
        raise Phase1Error("negative slack sum: solution infeasible for LP'")
    return model.crawl_to_vertex(form, point[: problem.orig_n])
