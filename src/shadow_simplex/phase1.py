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
skipped: the main chain's tableau takes its basis's integer inverse from
the lead rows' adjugate.  The face exists only in integers: x_bar is read
off that adjugate, the residuals stay in integers, and the face's integer
form and objective follow from the solve's form by construction, so the
Phase-1 solve runs no rank pass and builds no form or LP of its own, and
its tableau boxes the face on its form.  Its start basis is block
triangular over the lead rows, so the start's integer inverse follows
from the same adjugate and a |V| x n product, and the face tableau runs
no elimination.  The objective -sum(y) is at most 0, so a
Phase-1 walk ends at the first vertex where sum(y) = 0, which the bound
certifies optimal.  The Phase-1 solve hands back the face tableau it
accepted, and the LP's answer is read off it in integers: a face optimum
below 0 is the gap, and at 0 `handover` reads the LP vertex, its basis and
that basis's integer inverse off the face tableau, as Phase 2 goes on from
Phase 1's final basis in the two-phase method.  Only when that basis is
not one of the LP's, with a -y_i <= 0 row out of it or a box row in it,
does `extract_bfs` crawl from the x-part of the answer to a vertex on the
integer form the solve already holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from operator import mul

from . import linalg, model, walk
from .model import BasicSolution, LinearProgram
from .rational import ONE, SMALL_INTEGRAL, as_fractions, fraction


class Phase1Error(ValueError):
    pass


@dataclass(frozen=True)
class Phase1Problem:
    """LP' (`build_phase1`) or its face (`build_phase1_face`) with its start
    vertex.  LP' is the `LinearProgram` lp_prime, which the CLI prints.  The
    face is its integer form, its objective c0 = (0, -1), its start basis's
    integer inverse (M, D), M = D B^-1 as `walk.Tableau` carries it, and
    perm, the LP row of each of its first m rows, all derived from the
    solve's form, which its Phase-1 solve reads."""

    initial: BasicSolution
    orig_n: int
    lp_prime: LinearProgram | None = None
    form: model.IntegerForm | None = None
    c0: tuple[Fraction, ...] | None = None
    inverse: tuple[list[list[int]], int] | None = None  # the face start's (M, D)
    perm: list[int] | None = None  # the LP row of each of the face's first m rows

    @property
    def n(self) -> int:  # the x and the y walked
        return len(self.initial.point)


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


def _lead_start(lead: list[int], form: model.IntegerForm):
    """(perm, xn, xd, e, adj, d) for the n independent lead rows of the LP
    whose integer form is form: perm is the row order, the lead rows first;
    x_bar = xn / xd solves the lead rows; e_k = s R_i xn - beta_i xd for the
    k-th row i of perm has the sign of a_i x_bar - b_i, which is
    e_k / (s xd f_i); and (adj, d) = `linalg.invert(R_L)`, which raises when
    the lead rows are dependent.

    All in integers: x_bar = R_L^-1 beta_L / s = adj beta_L / (d s), read
    off the adjugate, which `build_phase1_face` reuses as the lead block of
    its start basis's inverse."""
    R, beta, s = form.R, form.beta, form.s
    is_lead = set(lead)
    perm = list(lead) + [i for i in range(form.m) if i not in is_lead]
    adj, d = linalg.invert([R[i] for i in lead])
    beta_L = [beta[i] for i in lead]
    xn = [sum(map(mul, row, beta_L)) for row in adj]
    xd = d * s
    if xd < 0:
        xn, xd = [-v for v in xn], -xd
    e = [s * sum(map(mul, R[i], xn)) - beta[i] * xd for i in perm]
    return perm, xn, xd, e, adj, d


def build_phase1(lp: LinearProgram) -> Phase1Problem:
    """Construct LP' and its basic feasible start from a full-rank LP."""
    m, n = lp.m, lp.n
    form = model.integer_form(lp)
    idx = linalg.independent_rows(form.R)
    if len(idx) < n:
        raise Phase1Error("constraint matrix is rank deficient")
    perm, xn, xd, e, _, _ = _lead_start(idx[:n], form)
    x_bar = [Fraction(v, xd) for v in xn]
    sxd = form.s * xd
    y = [Fraction(ek, sxd) / form.factor[i] if ek > 0 else Fraction(0) for i, ek in zip(perm, e)]

    B = phase1_matrix([lp.A[i] for i in perm])
    rhs = [lp.b[i] for i in perm] + [Fraction(0)] * m
    c_prime = [Fraction(0)] * n + [Fraction(-1)] * m
    lp_prime = model.make_lp(B, rhs, c_prime)

    point = tuple(x_bar) + tuple(y)
    basis = list(range(n)) + [m + i if y[i] == 0 else i for i in range(m)]
    initial = BasicSolution(point=point, basis=tuple(sorted(basis)))
    model.validate_basic_solution(lp_prime, initial)
    return Phase1Problem(lp_prime=lp_prime, initial=initial, orig_n=n)


def build_phase1_face(
    form: model.IntegerForm, lead: list[int]
) -> Phase1Problem | tuple[BasicSolution, tuple[list[list[int]], int]]:
    """The face y_i = 0 (x_bar satisfies row i) of LP', with its start vertex
    (x_bar, y_V); or, when x_bar violates no row, the vertex x_bar itself
    with its basis's (M, D) = (sgn(d) adj, |d|), read off the lead rows'
    (adj, d), whose columns are in sorted basis order since the lead rows
    ascend.

    form is the integer form of a full-rank LP, on which x_bar and V are
    decided, and lead holds its n lead rows, the first n rows of
    `linalg.independent_rows(form.R)`, which the caller has already found.

    Face rows, in order: a_i x - [i in V] y_i <= b_i for every row in perm
    order, then -y_i <= 0 for i in V.  The start basis is the n lead rows plus
    the rows a_i x - y_i = b_i of V.  The caller's solve checks the start
    when its first facet chain builds a `walk.Tableau` on it, from the
    start's inverse (`Phase1Problem.inverse`).

    The face's integer form comes from form, with f_i = p_i / q_i: a row x_bar
    satisfies is (R_i, 0) with factor f_i, a row of V is (q_i R_i, -p_i e_i)
    with factor p_i and scaled rhs q_i beta_i / s, and -y_i <= 0 is (0, -e_i)
    with factor 1.  Its start basis is its own rank pass's first n + |V|
    rows: the lead rows and the rows of V each add an independent
    direction, and the others lie in the span of the lead rows.

    The start basis B = [[R_L, 0], [Q R_V, -P]], with Q and P the q_t and
    p_t of V's factors, has det B = d (-1)^|V| Pi, Pi the product of the
    p_t, and inverse [[R_L^-1, 0], [P^-1 Q R_V R_L^-1, -P^-1]].  So its
    (M, D), M = D B^-1 and D = |det B| = |d| Pi, follows from the lead rows'
    (adj, d) that `_lead_start` forms: the x-rows of M are sgn(d) Pi adj,
    then zeros, and y-row t is sgn(d) (Pi / p_t) q_t R_t adj, then
    -|d| (Pi / p_t) e_t.  No pass over the n + |V| rows is made.
    """
    n = form.n
    perm, xn, xd, e, adj, d = _lead_start(lead, form)
    V = [k for k, ek in enumerate(e) if ek > 0]
    x_bar = tuple(fraction(v, xd) for v in xn)
    sg, ad = (1, d) if d > 0 else (-1, -d)
    if not V:
        M = adj if d > 0 else [[-a for a in row] for row in adj]
        return BasicSolution(point=x_bar, basis=tuple(perm[:n])), (M, ad)
    nv = len(V)
    slot = dict(zip(V, range(nv)))
    zero, minus = SMALL_INTEGRAL[256], SMALL_INTEGRAL[255]
    izeros = [0] * nv
    R, factor, beta, s = form.R, form.factor, form.beta, form.s
    Pi = prod(factor[perm[k]].numerator for k in V)
    M = [[sg * Pi * a for a in row] + izeros for row in adj]
    fR, ffac, fbeta, y = [], [], [], []
    for k, i in enumerate(perm):
        R_i, f = R[i], factor[i]
        t = slot.get(k)
        if t is None:
            fR.append(R_i + izeros)
            ffac.append(f)
            fbeta.append(beta[i])
            continue
        p, q = f.numerator, f.denominator
        fR.append([q * a for a in R_i] + izeros[:t] + [-p] + izeros[t + 1 :])
        ffac.append(f if q == 1 else Fraction(p))
        fbeta.append(q * beta[i])
        # y_i = a_i x_bar - b_i = e_k q_i / (s xd p_i)
        y.append(Fraction(e[k] * q, s * xd * p))
        r = Pi // p
        c = sg * r * q
        u = linalg.combine(zip(R_i, adj), n)  # R_i adj
        M.append([c * v for v in u] + izeros[:t] + [-ad * r] + izeros[t + 1 :])
    for t in range(nv):
        fR.append([0] * (n + t) + [-1] + izeros[t + 1 :])
        ffac.append(ONE)
        fbeta.append(0)
    # a q_i may cancel a denominator of the rhs, as the face's own form would
    g = gcd(s, *fbeta)
    if g > 1:
        fbeta, s = [v // g for v in fbeta], s // g
    basis = list(range(n)) + V
    return Phase1Problem(
        initial=BasicSolution(point=x_bar + tuple(y), basis=tuple(basis)),
        orig_n=n,
        form=model.IntegerForm(fR, ffac, fbeta, s),
        c0=(zero,) * n + (minus,) * nv,
        inverse=(M, ad * Pi),
        perm=perm,
    )


def handover(
    tab: walk.Tableau, form: model.IntegerForm, problem: Phase1Problem
) -> tuple[BasicSolution, tuple[list[list[int]], int]] | None:
    """The LP vertex that tab, the face tableau of a Phase-1 answer where
    sum(y) = 0, stands on, with its basis's (M, D), its columns in sorted
    basis order; or None when tab's basis holds a box row, or not every
    -y_t <= 0 row, and so no basis of the LP.

    When every -y_t row is in the basis, the face basis is block triangular,
    [[A, Y], [0, -I]], with A the x-parts of its other n rows, which are
    the LP rows perm[k]: a_i for a row x_bar satisfies, q_i a_i for a row of
    V (f_i = p_i / q_i).  So the x-block of M = D B^-1 is D A^-1: its column
    for row i, times q_i when i is in V, is D R_B^-1's, and D is the product
    Q of those q_i times |det R_B|.  Dividing every entry and D by Q, exactly,
    gives the LP basis's (M, D).  The vertex is the x-part of tab's, since
    y = 0; the caller's `walk.Tableau` build checks it on form.
    """
    n, m = problem.orig_n, form.m
    if max(tab.basis) >= m + problem.n - n or sum(j < m for j in tab.basis) != n:
        return None
    perm, violated, factor = problem.perm, set(problem.initial.basis[n:]), form.factor
    cols = sorted((perm[j], k, j) for k, j in enumerate(tab.basis) if j < m)
    qs = [factor[i].denominator if j in violated else 1 for i, _, j in cols]
    M = [[row[k] * q for (_, k, _), q in zip(cols, qs)] for row in tab.M[:n]]
    D, Q = tab.D, prod(qs)
    if Q > 1:
        M, D = [[v // Q for v in row] for row in M], D // Q
    den = tab.D * tab.s
    point = tuple(fraction(v, den) for v in tab.x_num[:n])
    return BasicSolution(point=point, basis=tuple(i for i, _, _ in cols)), (M, D)


def extract_bfs(
    solution: BasicSolution, form: model.IntegerForm, problem: Phase1Problem
) -> BasicSolution:
    """Turn a certified LP' optimum (full or face) where sum(y) = 0 into a
    vertex of the original LP, given by its integer form, which the solve
    already holds: the fallback for a face answer whose basis `handover`
    cannot read.  A nonzero sum(y) raises: the solve reads an infeasible
    LP's gap off the face tableau and calls this only at 0.

    The x-part of a zero-slack optimum is feasible; crawling on form fixes
    one independent tight row at a time until a genuine basis emerges (the
    LP' optimum may be degenerate or sit on the bounding box of LP'), and
    raises on an infeasible point.
    """
    point = as_fractions(solution.point)
    if len(point) != problem.n:
        raise Phase1Error("solution has the wrong dimension")
    if sum(point[problem.orig_n :], Fraction(0)):
        raise Phase1Error("nonzero slack sum: not a Phase-1 optimum of a feasible LP")
    return model.crawl_to_vertex(form, point[: problem.orig_n])
