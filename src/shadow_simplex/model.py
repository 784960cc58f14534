"""LP data model, text format, normalization, rank raising and the bounding
box.

The box closes the polyhedron so that the shadow walk always finds a vertex
optimum.  It exists only in integers: `bound_polytope` appends its 2n rows
to the solve's integer form, as the form's last rows, and no `Fraction` LP
of the boxed polyhedron is built.  Its rows strictly contain every vertex,
so they can block only an edge that is unbounded in the LP.  The walk's
tableau answers unbounded at such an edge when the objective rises along
it, and appends the box at the first other one; a bounded LP's solve never
builds it.  At an optimum of the boxed form, `assert_unbounded_if_box_tight`
reads off the tableau's basis whether the original LP is bounded: it is
when the objective needs none of its box rows, and otherwise the ray is
built by walking its recession LP, the same rows with rhs 1 on those last
2n rows and 0 elsewhere, from d = 0, on the objective.

All constraint data is exact rational, and the solver keeps every row as
given: each pivot decision is invariant under positive row scaling.  A
solve turns the rows as given into their integer form once
(`integer_form`): each row's primitive integer row R_i = f_i a_i, its
factor f_i > 0, and the scaled rhs over one common denominator.  Everything
else is derived from that form, and no `Fraction` LP is built again: rank
completion appends its rows to it (`complete_rank`; `extend_to_full_rank`
is its `Fraction` view), the box appends its rows with integer rhs over its
s (`bound_polytope`), and the Phase-1 face's form
(`phase1.build_phase1_face`) is built from it; `walk.Tableau`, the exact
point checks and the crawl to a vertex (`crawl_to_vertex`) walk it.  A
`LinearProgram` is the input as given, its A, b and c0, and nothing else is
kept on it.  The unit row norms that the paper states the delta-distance
for are applied only where a size matters, in the near-unit face images of
the driver's draws.  `normalize` scales every row to near-unit norm; the
solver does not call it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from operator import add, mul

from . import linalg
from .rational import (
    ONE,
    as_fractions,
    common_denominator,
    dot,
    format_fraction,
    fraction,
    lowest_terms,
    primitive_int_row,
    unit_scale,
)


class LPFormatError(ValueError):
    """Malformed LP text: carries a 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class LPModelError(ValueError):
    """Contract violation on an LP-model operation."""


@dataclass(frozen=True)
class LinearProgram:
    """max c0^T x subject to A x <= b, all entries exact rationals."""

    A: tuple[tuple[Fraction, ...], ...]
    b: tuple[Fraction, ...]
    c0: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise LPModelError("need at least one row and one variable")
        if (
            set(map(len, self.A)) != {self.n}
            or len(self.b) != self.m
            or len(self.c0) != self.n
        ):
            raise LPModelError("dimension mismatch")
        if not all(map(any, self.A)):
            raise LPModelError("zero row in constraint matrix")

    @property
    def m(self) -> int:
        return len(self.A)

    @property
    def n(self) -> int:
        return len(self.A[0]) if self.A else 0

    def row(self, i: int) -> list[Fraction]:
        return list(self.A[i])

    def rows(self) -> list[list[Fraction]]:
        return [list(r) for r in self.A]

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for row in self.A for x in row)

    def feasible(self, point) -> bool:
        return all(e <= 0 for e in integer_form(self).excess(point))

    def tight_rows(self, point) -> list[int]:
        return integer_form(self).tight_rows(point)


@dataclass(frozen=True)
class BasicSolution:
    """A vertex: its point plus an ordered basis of n tight row indices."""

    point: tuple[Fraction, ...]
    basis: tuple[int, ...]


@dataclass(frozen=True)
class BackMap:
    """How to undo a rank-raising step: which appended rows to forget."""

    original_rows: int
    appended_rows: tuple[int, ...]


@dataclass(frozen=True)
class RankRaised:
    lp: LinearProgram
    back_map: BackMap


@dataclass(frozen=True)
class ObjectiveEscapesSpan:
    """c0 has a component outside span(rows): unbounded whenever feasible."""

    direction: tuple[Fraction, ...]  # A d = 0 and c0^T d > 0, exact


@dataclass(frozen=True)
class IntegerForm:
    """The rows of an LP in integers: R_i = f_i a_i is the primitive integer
    row of a_i, f_i > 0 its factor, and beta_i / s = f_i b_i its rhs over one
    common denominator s > 0, so a_i x <= b_i exactly when s R_i x <= beta_i.
    A solve builds it once (`integer_form`) and derives the boxed and the
    recession LP's forms from it."""

    R: list[list[int]]
    factor: list[Fraction]
    beta: list[int]
    s: int

    @property
    def m(self) -> int:
        return len(self.R)

    @property
    def n(self) -> int:
        return len(self.R[0])

    def excess(self, point) -> list[int]:
        """For each row, an integer with the sign of a_i . point - b_i: the
        point over one common denominator against R_i and beta_i."""
        x = as_fractions(point)
        if len(x) != self.n:
            raise LPModelError(f"point has {len(x)} coordinates, expected {self.n}")
        xn, xd = common_denominator(x)
        s = self.s
        return [s * sum(map(mul, r, xn)) - bt * xd for r, bt in zip(self.R, self.beta)]

    def tight_rows(self, point) -> list[int]:
        """The rows a_i x <= b_i that point meets with equality."""
        return [i for i, e in enumerate(self.excess(point)) if e == 0]

    def with_rows(self, R, factor, rhs) -> "IntegerForm":
        """These rows followed by the rows R (factors factor), whose scaled
        rhs f_i b_i are given as pairs (p, q) in lowest terms, q > 0; s grows
        to the common denominator of all rows, as `integer_form` of the
        longer LP would give it."""
        s = lcm(self.s, *(q for _, q in rhs))
        k = s // self.s
        beta = [bt * k for bt in self.beta] if k > 1 else list(self.beta)
        beta += [p * (s // q) for p, q in rhs]
        return IntegerForm(self.R + list(R), self.factor + list(factor), beta, s)


def integer_form(lp: LinearProgram) -> IntegerForm:
    """The integer form of lp's rows, computed per call: nothing is kept on
    lp.  A solve calls it once, on the rows as given; every other form it
    walks is derived from that one.

    Every entry of A is read once, as its integer ratio, in one pass over
    the LP.  When all of them are integral, the common case, each row is
    its numerators with one gcd stripped, as `primitive_int_row` would give
    it, with the shared factor `ONE` when the gcd is 1; any other LP has
    each row made primitive by `primitive_int_row`."""
    n = lp.n
    nums, dens = zip(*[x.as_integer_ratio() for a in lp.A for x in a])
    if dens.count(1) == len(dens):
        R = [list(nums[i : i + n]) for i in range(0, len(nums), n)]
        factor = [ONE] * len(R)
        for i, row in enumerate(R):
            g = gcd(*row)
            if g > 1:
                R[i], factor[i] = [x // g for x in row], Fraction(1, g)
    else:
        R, factor = map(list, zip(*map(primitive_int_row, lp.A)))
    rhs = [
        b.as_integer_ratio() if f is ONE else (f * b).as_integer_ratio()
        for f, b in zip(factor, lp.b)
    ]  # f_i b_i as integer ratios
    s = lcm(*(q for _, q in rhs))
    return IntegerForm(R, factor, [p * (s // q) for p, q in rhs], s)


def make_lp(A, b, c0) -> LinearProgram:
    return LinearProgram(
        A=tuple(tuple(as_fractions(row)) for row in A),
        b=tuple(as_fractions(b)),
        c0=tuple(as_fractions(c0)),
    )


# ---------------------------------------------------------------------------
# text format
#
#   # comment lines and blank lines are skipped
#   maximize c1 c2 ... cn                (rationals: p/q or integers)
#   st
#   a1 a2 ... an <= b                    (one constraint per line)
# ---------------------------------------------------------------------------


def parse_lp(text: str) -> LinearProgram:
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines())]
    lines = [(no, ln) for no, ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise LPFormatError(1, "empty input")
    no, head = lines[0]
    parts = head.split()
    if not parts or parts[0].lower() != "maximize":
        raise LPFormatError(no, "expected 'maximize c1 ... cn'")
    if len(parts) == 1:
        raise LPFormatError(no, "empty objective line")
    try:
        c0 = [Fraction(tok) for tok in parts[1:]]
    except (ValueError, ZeroDivisionError):
        raise LPFormatError(no, "bad rational in objective") from None
    n = len(c0)
    if len(lines) < 2 or lines[1][1].lower() != "st":
        raise LPFormatError(lines[1][0] if len(lines) > 1 else no, "expected 'st' line")
    A: list[list[Fraction]] = []
    b: list[Fraction] = []
    for no, ln in lines[2:]:
        toks = ln.split()
        if "<=" not in toks:
            raise LPFormatError(no, "constraint must contain '<='")
        k = toks.index("<=")
        if k != len(toks) - 2:
            raise LPFormatError(no, "expected 'a1 ... an <= b'")
        try:
            row = [Fraction(t) for t in toks[:k]]
            rhs = Fraction(toks[k + 1])
        except (ValueError, ZeroDivisionError):
            raise LPFormatError(no, "bad rational in constraint") from None
        if len(row) != n:
            raise LPFormatError(no, f"expected {n} coefficients, got {len(row)}")
        if all(x == 0 for x in row):
            raise LPFormatError(no, "zero row")
        A.append(row)
        b.append(rhs)
    if not A:
        raise LPFormatError(lines[-1][0], "no constraints")
    return make_lp(A, b, c0)


def serialize_lp(lp: LinearProgram) -> str:
    out = ["maximize " + " ".join(format_fraction(c) for c in lp.c0), "st"]
    for i in range(lp.m):
        out.append(
            " ".join(format_fraction(x) for x in lp.A[i]) + " <= " + format_fraction(lp.b[i])
        )
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def normalize(lp: LinearProgram) -> LinearProgram:
    """Scale every row with its rhs, and c0, to (near-)unit norm.

    The feasible set is unchanged (positive row scaling); the float view of
    each scaled row has Euclidean norm within 1e-12 of 1.
    """
    if all(x == 0 for x in lp.c0):
        raise LPModelError("zero objective vector")
    ts = [unit_scale(row) for row in lp.A]
    tc = unit_scale(lp.c0)
    return replace(
        lp,
        A=tuple(tuple(t * x for x in row) for t, row in zip(ts, lp.A)),
        b=tuple(t * v for t, v in zip(ts, lp.b)),
        c0=tuple(tc * x for x in lp.c0),
    )


# ---------------------------------------------------------------------------
# rank raising
# ---------------------------------------------------------------------------


def complete_rank(form: IntegerForm, idx: list[int]) -> tuple[IntegerForm, list[int]]:
    """(form made full rank, its n lead rows), from idx, the rows of form's
    rank pass.  Below full rank the completion rows of the rows idx are
    appended with rhs 0: for an integral LP (every factor's numerator is 1)
    the unit rows `linalg.unit_completion` picks, which keep the largest
    subdeterminant; else +-v_k for each column v_k of their
    `linalg.FaceBasis`, with factor sd_k / sn_k, so the LP's rows
    +-(sn_k / sd_k) v_k are exactly orthogonal and near-unit, which keeps
    delta.  The lead rows, idx and then every unit row or the first of each
    +- pair, are the first n of the longer form's rank pass: none is run."""
    if len(idx) >= form.n:
        return form, idx[: form.n]
    return _complete_rank(form, idx, all(f.numerator == 1 for f in form.factor))


def _complete_rank(form: IntegerForm, idx: list[int], unit: bool):
    n, m = form.n, form.m
    rows = [form.R[i] for i in idx]
    if unit:
        R = [[int(i == j) for i in range(n)] for j in linalg.unit_completion(rows)]
        factor, step = [ONE] * len(R), 1
    else:
        basis = linalg.FaceBasis(n)
        cols = linalg.complement_basis_int(rows, n, basis)
        R = [[k * x for x in v] for v in cols for k in (1, -1)]
        factor, step = [Fraction(sd, sn) for sn, sd in basis.scales for _ in (1, -1)], 2
    return form.with_rows(R, factor, [(0, 1)] * len(R)), idx + list(range(m, m + len(R), step))


def _extension(lp: LinearProgram, unit: bool) -> LinearProgram:
    """lp with the rows `_complete_rank` appends to its form, R_i / f_i."""
    form = integer_form(lp)
    idx = linalg.independent_rows(form.R)
    if len(idx) == lp.n:
        raise LPModelError("called on full-rank input")
    full = _complete_rank(form, idx, unit)[0]
    added = zip(full.R[lp.m :], full.factor[lp.m :])
    A = tuple(tuple(Fraction(x) / f for x in r) for r, f in added)
    return replace(lp, A=lp.A + A, b=lp.b + (Fraction(0),) * len(A))


def extend_to_full_rank_delta(lp: LinearProgram) -> LinearProgram:
    """Append ±o_k rows (orthonormal complement of the row span) with rhs 0."""
    return _extension(lp, unit=False)


def extend_to_full_rank_Delta(lp: LinearProgram) -> LinearProgram:
    """Append canonical unit rows e_i outside the row span, rhs 0."""
    return _extension(lp, unit=True)


def extend_to_full_rank(lp: LinearProgram) -> LinearProgram:
    """The Delta-preserving extension for integral A, else the
    delta-preserving one: the Fraction view of `complete_rank`."""
    return _extension(lp, unit=lp.is_integral())


def _objective_escape(c0, rows: list[list[int]]):
    """Component of c0 orthogonal to span(rows), any integer rows spanning
    the LP's rows (a solve passes its rank pass's); None if c0 is in it."""
    d = linalg._project_out(c0, rows)
    if any(x != 0 for x in d):
        return d
    return None


def raise_rank_delta(lp: LinearProgram) -> RankRaised | ObjectiveEscapesSpan:
    """Rank-raise preserving the delta-distance value (complement rows, rhs 0)."""
    return _raise_rank(lp, extend_to_full_rank_delta)


def raise_rank_Delta(lp: LinearProgram) -> RankRaised | ObjectiveEscapesSpan:
    """Rank-raise preserving the max subdeterminant (unit rows, rhs 0)."""
    if not lp.is_integral():
        raise LPModelError("matrix must be integral")
    return _raise_rank(lp, extend_to_full_rank_Delta)


def _raise_rank(lp: LinearProgram, extend) -> RankRaised | ObjectiveEscapesSpan:
    # c0 is in the span of full-rank rows, and extend raises on them
    d = _objective_escape(lp.c0, integer_form(lp).R)
    if d is not None:
        return ObjectiveEscapesSpan(direction=tuple(d))
    ext = extend(lp)
    return RankRaised(ext, BackMap(original_rows=lp.m, appended_rows=tuple(range(lp.m, ext.m))))


# ---------------------------------------------------------------------------
# bounding box
# ---------------------------------------------------------------------------


def bound_polytope(form: IntegerForm, rows) -> IntegerForm:
    """form with the parallelepiped +-R_i x <= B_i / s over n independent
    rows of form appended: its last 2n rows are the box rows +-R_i, with
    scaled rhs B_i over the form's own s, so s does not grow.  As rows of
    the LP, they are +-a_i x <= B_i / (s f_i).

    The bound is Cramer's rule with Hadamard's inequality.  A vertex solves
    R_B x = beta_B / s for n independent rows B, and |det R_B| >= 1 since
    R_B is integer, so |x_j| <= prod_{i in B} |(R_i, beta_i)| / s.  With H^2
    the product of the n largest squared augmented norms |R_i|^2 + beta_i^2
    over all rows of the form, |x| <= sqrt(n H^2) / s, and the integer
    B_i = isqrt(|R_i|^2 n H^2) + 1 exceeds s |R_i x| at every vertex.

    The bound holds over any n independent rows: a walk passes the basis it
    stands on when it appends the box.  Only existing row directions are
    reused, so the delta-distance value is unaffected; every vertex of the
    original polyhedron lies strictly inside.
    """
    n = form.n
    if len(rows) != n:
        raise LPModelError("need n independent rows")
    R, beta = form.R, form.beta
    sq = [sum(map(mul, r, r)) for r in R]
    nH2 = n * prod(sorted(map(add, sq, map(mul, beta, beta)))[-n:])
    box_R = []
    factor = []
    box_beta = []
    for i in rows:
        B = isqrt(sq[i] * nH2) + 1
        box_R += [R[i], [-x for x in R[i]]]
        factor += [form.factor[i]] * 2
        box_beta += [B, B]
    return IntegerForm(R + box_R, form.factor + factor, beta + box_beta, form.s)


def assert_unbounded_if_box_tight(tab, c0) -> tuple[str, tuple[Fraction, ...] | None]:
    """Decide Bounded vs Unbounded for the integer objective c0 at an
    optimal vertex of a boxed LP: (route, None) for a bounded answer, or
    ("recession", ray) for an unbounded one.

    tab is a `walk.Tableau` standing on that vertex, on a basis that
    carries c0.  A tableau that never met an unbounded edge never appended
    the box, and the LP is bounded ("vertex").  Otherwise its form is one
    that `bound_polytope` returned, whose last 2n rows are the box rows.  If
    none of them is tight there, which tab's carried slack numerators tell,
    the LP was bounded all along ("vertex").  If c0 M is 0 at every basis
    position that holds a box row, c0 is a nonnegative combination of the
    LP's own basis rows (`Tableau.carries`), so the vertex is optimal for
    the un-boxed LP as well, which is bounded ("box-cone").

    Otherwise c0 puts positive weight on a tight box row, which every
    optimum of the boxed form is then tight on (complementary slackness).
    A bounded LP of rank n has an optimal vertex strictly inside the box,
    which would be one, so the LP is unbounded, and the recession LP builds
    the ray: max c0 d subject to R_i d <= 0 on the un-boxed rows and
    +-R_i d <= 1 on the box rows, bounded because the box rows bound R_i d
    for the n independent rows the box is over.  Its integer form is tab's
    rows with the scaled rhs 1 on the box rows and 0 on every other row,
    over s = 1.  d = 0 is its vertex on those rows (`Tableau.box_basis`,
    the basis the walk stood on when it appended the box, whose (M, D)
    `Tableau.box_inverse` kept: the recession form has the same rows),
    un-boxed rows all tight there, and `walk.first_gain` walks it from
    there on c0: the first vertex it reaches with c0 d > 0 is an improving
    ray of the un-boxed rows.  A walk that never leaves 0 is a certificate
    failure and raises `walk.WalkError`.
    """
    from .walk import Tableau, WalkError, first_gain  # walk imports this module

    n = tab.n
    box = tab.m - 2 * n  # the first box row
    if not tab.boxed or all(tab.slack[box:]):
        return "vertex", None
    if not any(sum(map(mul, c0, col)) for col, i in zip(zip(*tab.M), tab.basis) if i >= box):
        return "box-cone", None
    form = tab.form
    rec = Tableau(
        IntegerForm(form.R, form.factor, [0] * box + [1] * (2 * n), 1),
        BasicSolution(point=(Fraction(0),) * n, basis=tab.box_basis),
        inverse=tab.box_inverse,
    )
    if not first_gain(rec, c0):
        raise WalkError("certificate failure: the recession walk found no ray")
    return "recession", tuple(rec.vertex())


# ---------------------------------------------------------------------------
# vertex utilities
# ---------------------------------------------------------------------------


def tight_basis_at(form: IntegerForm, point) -> list[int]:
    """Greedy (by row index) independent tight rows at a point, on the
    integer form of the LP's rows."""
    tight = form.tight_rows(point)
    rel = linalg.independent_rows([form.R[i] for i in tight])
    return [tight[k] for k in rel]


def move_to_vertex(lp: LinearProgram, point) -> BasicSolution:
    """Crawl from a feasible point to a vertex of lp (requires rank(A) = n),
    on lp's integer form."""
    return crawl_to_vertex(integer_form(lp), point)


def crawl_to_vertex(form: IntegerForm, point) -> BasicSolution:
    """Crawl from a feasible point to a vertex of the LP whose integer form
    is form (requires rank(A) = n); raises on an infeasible point.

    Repeatedly fixes one more independent tight row by walking a null-space
    direction d of the current tight set until a constraint blocks.  One
    echelon pass over the tight rows (`linalg.echelon`) gives both the greedy
    tight basis and, by back-substitution through its rows, d.  The point is
    kept as xn / xd: row i's slack numerator beta_i xd - s R_i xn has the
    sign of b_i - a_i x, and d is a primitive integer vector.  The step
    theta d, theta the least ratio of slack to R_i d over the rows with
    R_i d > 0, does not depend on the positive scale of d or of any row.
    The slack numerators are formed once and then carried through each step
    by the products R_i d the ratio test forms.
    """
    R, beta, s, n = form.R, form.beta, form.s, form.n
    x = as_fractions(point)
    if len(x) != n:
        raise LPModelError(f"point has {len(x)} coordinates, expected {n}")
    xn, xd = common_denominator(x)
    slack = [bt * xd - s * sum(map(mul, r, xn)) for r, bt in zip(R, beta)]
    if any(v < 0 for v in slack):
        raise LPModelError("point infeasible")
    while True:
        tight = [i for i, v in enumerate(slack) if v == 0]
        chosen, pivots, rows = linalg.echelon([R[i] for i in tight])
        if len(chosen) == n:
            return BasicSolution(
                point=tuple(fraction(v, xd) for v in xn), basis=tuple(tight[k] for k in chosen)
            )
        d = linalg.back_substitute(pivots, rows, n)[0]
        g = gcd(*d)
        d = [v // g for v in d]
        prods = [sum(map(mul, r, d)) for r in R]
        if all(p <= 0 for p in prods):
            d = [-v for v in d]
            prods = [-p for p in prods]
        if all(p <= 0 for p in prods):
            raise LPModelError("no blocking row: rank(A) < n")
        # the blocking row k minimizes slack_i / prods_i; theta = slack_k /
        # (s xd prods_k), and x + theta d = (s prods_k xn + slack_k d) / (s xd prods_k)
        k = -1
        for i, p in enumerate(prods):
            if p > 0 and (k < 0 or slack[i] * prods[k] < slack[k] * p):
                k = i
        sk, pk = slack[k], s * prods[k]
        den = xd * pk
        xn, xd = lowest_terms([pk * a + sk * b for a, b in zip(xn, d)], den)
        # over den, the slack numerators are pk slack_i - s sk prods_i; the
        # gcd den / xd that lowest_terms stripped divides each exactly
        g, ssk = den // xd, s * sk
        slack = [(pk * v - ssk * p) // g for v, p in zip(slack, prods)]


def validate_basic_solution(lp: LinearProgram, bs: BasicSolution) -> None:
    x = as_fractions(bs.point)
    if len(bs.basis) != lp.n:
        raise LPModelError("basis must have n rows")
    if not lp.feasible(x):
        raise LPModelError("point violates a constraint")
    for i in bs.basis:
        if dot(lp.row(i), x) != lp.b[i]:
            raise LPModelError(f"basis row {i} not tight")
    if linalg.rank([lp.row(i) for i in bs.basis]) < lp.n:
        raise LPModelError("basis rows dependent")
