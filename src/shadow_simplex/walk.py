"""Shadow vertex walk: tableau pivoting along the lower envelope.

The tableau keeps every decision exact and cheap:

* it walks the LP's integer form (`model.IntegerForm`): primitive integer
  rows with one shared rhs denominator, which the solve builds once (all
  pivot decisions are invariant under positive row scaling, so this is a
  pure canonicalization);
* the basis inverse is carried as the integer pair (M, D) with
  M = D * inv(rows_of_basis) and D > 0, and beside it the vertex's
  numerators x_num = M beta_B, every row's slack numerator and the prices
  t_c = c M and t_w = w M; each pivot updates all of them by one exact
  integer rank-one (Sherman-Morrison) step, so none is recomputed from
  scratch;
* degeneracy is resolved by a symbolic lexicographic perturbation of b with
  exponents assigned non-basis-rows-first, which makes any starting basis
  lexicographically feasible and every leaving choice unique.

A tableau walks its form as it is until an improving edge has no blocking
row.  Built with the solve's objective c0, as a primitive integer row, it
decides in integers whether such an edge d = -M[:,k] has c0 . d > 0, which
makes d a ray of the form (Dantzig): the first of the slope-tied edges no
row blocks that does ends the walk there, unboxed, and the tableau keeps d
in `ray`.  At the first such edge that c0 does not rise along, it appends
the box `model.bound_polytope` builds over its own basis, n independent
rows of the form, keeps those rows for the recession walk, and redoes that
ratio test.  The box's 2n rows strictly contain every vertex of the form
and so can block only an edge that is unbounded in it.  The box rows get
the lexicographic exponents they would have had had they been there from
the start, so every pivot is the one a walk of the boxed form makes.  A
tableau built without c0 walks its form as given.

A Tableau outlives one walk: `aim` gives it the next walk's objectives, as
integer numerators over a denominator, and the rows it holds in the basis.
Held rows never leave (they are left out of pricing and of the
perturbation), so the walk stays on the face where they are tight; the
facet chain of the driver walks all its rounds on one Tableau this way,
with one basis inverse.  `shadow_walk` walks a Tableau in place and returns
its `ShadowPath`, the one record of the walk's pivots; the ray it ended at,
if any, stays in the tableau's `ray`.  `first_gain` walks a Tableau on a
plain objective only until the point moves or a ray is met: the optimality
and boundedness certificates are decided that way.  `Tableau.carries` reads
off M whether the basis already carries an objective, which ends a facet
chain.  A tableau that stops at zero, built for Phase 1, whose objective
-sum(y) is at most 0, ends a walk at the first vertex where c0 . x = 0.

Slope and ratio comparisons are integer cross-multiplications: both draw
modes produce dyadic rational objectives, so the exact branch always
applies.  The two products each pivot forms skip zeros: the ratio test's
R d = -R M[:,k] sums the form's columns over the nonzero entries of
M[:,k], and the rank-one step's u = R_enter M sums M's rows over the
nonzero entries of R_enter, whose rows are sparse on the LPs the solver is
built for (a totally unimodular row holds a few +-1).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul

from . import linalg, model
from .model import BasicSolution, IntegerForm, LinearProgram
from .rational import as_fractions, common_denominator, fraction


class WalkError(RuntimeError):
    pass


class UnboundedEdgeError(WalkError):
    """An improving edge had no blocking row: the polytope was not boxed."""


HARD_PIVOT_GUARD = 10**6


@dataclass(frozen=True)
class PathStep:
    """One pivot.  Its exact values are kept as the integer (numerator,
    denominator) pairs the tableau forms them from, not reduced, and each
    becomes a Fraction only when read."""

    pivot_index: int
    entering_row: int
    leaving_row: int
    slope_pair: tuple[int, int]
    c_gain_pair: tuple[int, int]  # c^T d of the traversed direction, exactly > 0
    step_length_pair: tuple[int, int]  # numerator 0 on degenerate pivots
    c_value_pair: tuple[int, int]  # c^T x after the step
    basis: tuple[int, ...]

    @property
    def slope(self) -> Fraction:
        return Fraction(*self.slope_pair)

    @property
    def c_gain(self) -> Fraction:
        return Fraction(*self.c_gain_pair)

    @property
    def step_length(self) -> Fraction:
        return Fraction(*self.step_length_pair)

    @property
    def c_value(self) -> Fraction:
        return Fraction(*self.c_value_pair)


@dataclass(frozen=True)
class ShadowPath:
    start_basis: tuple[int, ...]
    start_value: Fraction
    steps: tuple[PathStep, ...]


@dataclass(frozen=True)
class WalkResult:
    finished: bool  # the walk reached the optimum or a ray, not the cap
    path: ShadowPath
    pivots: int


def tight_rows_at(lp: LinearProgram, x0: BasicSolution) -> list[list[Fraction]]:
    """The n independent rows indexed by the basis of x0."""
    rows = [lp.row(i) for i in x0.basis]
    if len(rows) != lp.n or len(linalg.independent_rows(rows)) < lp.n:
        raise WalkError("basis rows are dependent")
    x = as_fractions(x0.point)
    for i in x0.basis:
        if sum(a * v for a, v in zip(lp.row(i), x)) != lp.b[i]:
            raise WalkError(f"basis row {i} is not tight at the point")
    return rows


class Tableau:
    """Walking state: the basis, its integer inverse (M, D), the vertex
    numerators x_num, every row's slack numerator, the prices t_c and t_w,
    and the pivot counter.  The build sets M, D, x_num and the slacks, `aim`
    sets the prices for its objectives, and each pivot's `_update_basis`
    carries all six.

    c0, when given, is the solve's objective as an integer row: until the
    box is appended, an improving edge no row blocks whose direction d has
    c0 . d > 0 ends the walk, and `ray` holds d's primitive integer row
    until the next `aim`.  At the first improving edge no row blocks that
    is not such a ray, the tableau appends the box over its basis rows,
    once, keeps them in `box_basis` and their inverse in `box_inverse`, and
    is `boxed` from then on.  A tableau built without c0 walks its form as
    given; there, or once boxed, an edge no row blocks that ends no walk
    raises `UnboundedEdgeError`.

    stop_at_zero says that c0, which must then be given, is at most 0 on
    the form, as Phase 1's -sum(y) is: a vertex where c0 . x = 0 is then
    c0-optimal, and a walk ends at the first one it reaches (`at_zero`).

    Single-owner mutable state; concurrent walks must each build their own.
    """

    def __init__(
        self,
        form: IntegerForm,
        start: BasicSolution,
        c0=None,
        inverse: tuple[list[list[int]], int] | None = None,
        stop_at_zero: bool = False,
    ) -> None:
        """Build the integer basis inverse at start on the LP's integer form;
        `aim` sets the objectives before the first pivot.  inverse, when
        given, is the start basis's (M, D), its columns in sorted basis
        order, formed by the caller (the Phase-1 face builds it by blocks);
        no elimination is run, and every other check of the start is."""
        self.form = form
        self.c0 = c0
        self.stop_at_zero = stop_at_zero
        self.box_basis: tuple[int, ...] | None = None  # the rows the box is over
        self.box_inverse: tuple[list[list[int]], int] | None = None  # their (M, D)
        self.ray: tuple[int, ...] | None = None
        m, n = form.m, form.n
        self.m, self.n = m, n
        self.R, self.beta, self.s = form.R, form.beta, form.s
        self.cols = list(zip(*self.R))  # the form's columns, for R d
        self.pivot_count = 0

        self.basis = sorted(start.basis)
        if len(self.basis) != n or len(set(self.basis)) != n:
            raise WalkError("basis must hold n distinct rows")
        if self.basis[0] < 0 or self.basis[-1] >= m:
            raise WalkError(f"basis rows must lie in range({m})")
        if inverse is not None:
            self.M, self.D = inverse
        else:
            try:
                adj, det = linalg.invert([self.R[i] for i in self.basis])
            except linalg.LinAlgError:
                raise WalkError("basis rows are dependent") from None
            # M = D inv(B) with D = |det B|: the adjugate, negated when det B < 0
            self.D = abs(det)
            self.M = adj if det > 0 else [[-e for e in row] for row in adj]

        # the vertex x_num / (D s), x_num = M beta_B, is the start point
        beta_B = [self.beta[i] for i in self.basis]
        self.x_num = [sum(map(mul, row, beta_B)) for row in self.M]
        if not self.stands_on(start.point):
            raise WalkError("basis does not reproduce the start point")
        self.slack = self.recomputed_slacks(range(m))
        if any(v < 0 for v in self.slack):
            raise WalkError("start point infeasible")

    def aim(self, c, w, held=()) -> None:
        """Set the objectives of the next walk, each an (integer numerators,
        denominator > 0) pair, and the basis rows it holds; the pivot count
        starts again at 0.  Each pair is kept as given: every pivot decision,
        and the value of every step the walk records, is the same at any
        positive scale of a pair."""
        self.held = frozenset(held)
        in_basis = set(self.basis)
        if not self.held <= in_basis:
            raise WalkError("held rows must be in the basis")
        self.c_num, self.c_den = c
        self.w_num, self.w_den = w
        # the prices c M and w M: edge k has c^T d_k = -t_c[k] / (D c_den)
        cols = list(zip(*self.M))
        self.t_c = [sum(map(mul, self.c_num, col)) for col in cols]
        self.t_w = [sum(map(mul, self.w_num, col)) for col in cols]
        self.pivot_count = 0
        self.ray = None
        # lexicographic exponents: non-basis rows first, then the free basis
        # rows; held rows keep exponent 0, i.e. no perturbation
        order = [i for i in range(self.m) if i not in in_basis] + sorted(in_basis - self.held)
        self.exp_of = [0] * self.m
        for e, i in enumerate(order, start=1):
            self.exp_of[i] = e

    @property
    def boxed(self) -> bool:
        return self.box_basis is not None

    # -- exact views ------------------------------------------------------

    def vertex(self) -> list[Fraction]:
        """The vertex; equal coordinates share one (immutable) Fraction."""
        xn = self.x_num
        den = self.D * self.s
        coords: dict[int, Fraction] = {}
        for v in xn:
            if v not in coords:
                coords[v] = fraction(v, den)
        return [coords[v] for v in xn]

    def stands_on(self, point) -> bool:
        """Whether the vertex x_num / (D s) is point, decided in integers
        against point's numerators over one denominator."""
        pn, pd = common_denominator(as_fractions(point))
        den = self.D * self.s
        return len(pn) == self.n and all(a * pd == p * den for a, p in zip(self.x_num, pn))

    def recomputed_slacks(self, rows) -> list[int]:
        """Slack numerators beta_i D - R_i . x_num of rows at the vertex,
        recomputed: the slack of row i is this over D s, so a zero is a
        tight row.  The tableau carries them in `slack`."""
        beta, D, R, x_num = self.beta, self.D, self.R, self.x_num
        return [beta[i] * D - sum(map(mul, R[i], x_num)) for i in rows]

    def c_value(self) -> Fraction:
        return Fraction(sum(map(mul, self.c_num, self.x_num)), self.c_den * self.D * self.s)

    def solution(self) -> BasicSolution:
        return BasicSolution(point=tuple(self.vertex()), basis=tuple(sorted(self.basis)))

    # -- pricing ----------------------------------------------------------

    def _improving(self) -> list[int]:
        # c^T d_k = -t_c[k] / (D c_den): improving edges have t_c[k] < 0;
        # the edge that frees a held row leaves the face
        t_c = self.t_c
        return [k for k in range(self.n) if t_c[k] < 0 and self.basis[k] not in self.held]

    def at_optimum(self) -> bool:
        return not self._improving()

    def at_zero(self) -> bool:
        """Whether the tableau stops at zero and c0 . x = 0 at its vertex,
        decided on the numerators x_num."""
        return self.stop_at_zero and not sum(map(mul, self.c0, self.x_num))

    def carries(self, c: list[int]) -> bool:
        """Whether the basis carries the integer objective c: every entry of
        c M is >= 0, so c = sum_k nu_k R_basis[k] with every nu_k >= 0 (M =
        D inv(B), D > 0) and the vertex maximizes c over the form, whatever
        rows the walk held."""
        return all(sum(map(mul, c, col)) >= 0 for col in zip(*self.M))

    # -- the pivot --------------------------------------------------------

    def pivot(self) -> PathStep | None:
        """One step along the minimum-slope improving edge; None at the
        optimum, or at a ray of the form, which it keeps in `ray`."""
        t_c, t_w = self.t_c, self.t_w
        improving = self._improving()
        if not improving:
            return None
        # minimum slope y_w/y_c = (t_w[k] c_den) / (t_c[k] w_den); the
        # positive c_den / w_den cancels, and t_c[k] t_c[b] > 0 on two
        # improving edges, so t_w[k] t_c[b] < t_w[b] t_c[k] is the lower slope
        best = [improving[0]]
        for k in improving[1:]:
            b = best[0]
            lhs, rhs = t_w[k] * t_c[b], t_w[b] * t_c[k]
            if lhs < rhs:
                best = [k]
            elif lhs == rhs:
                best.append(k)
        # ratio test per slope-tied edge; equal slopes resolved by the
        # smallest entering row index.  The first edge no row blocks that
        # improves c0 is a ray; else such an edge appends the box over the
        # basis rows, and the ratio tests are redone on it
        while True:
            tests = [(*self._ratio_test(k), k) for k in best]
            if all(enter >= 0 for enter, _, _ in tests):
                break
            if self.c0 is None or self.boxed:
                raise UnboundedEdgeError(
                    "improving edge with no blocking row (polytope not boxed?)"
                )
            self.ray = self._ray([k for enter, _, k in tests if enter < 0])
            if self.ray is not None:
                return None
            self._append_box()
        enter, rd, k = min(tests, key=lambda t: t[0])
        leave = self.basis[k]
        slack, rd_enter, tk = self.slack[enter], rd[enter], t_c[k]
        D, s, c_den = self.D, self.s, self.c_den
        # c^T x after the step: c^T x + theta c_gain, theta = slack / (s
        # rd_enter), is (c_num . x_num rd_enter - slack t_c[k]) / (c_den D s rd_enter)
        cx = sum(map(mul, self.c_num, self.x_num))
        pairs = (
            (t_w[k] * c_den, tk * self.w_den),
            (-tk, D * c_den),
            (slack, s * rd_enter),
            (cx * rd_enter - slack * tk, c_den * D * s * rd_enter),
        )

        self._update_basis(k, enter, rd)
        self.pivot_count += 1
        if self.pivot_count > HARD_PIVOT_GUARD:
            raise WalkError("pivot guard exceeded: walk did not terminate")
        return PathStep(self.pivot_count, enter, leave, *pairs, tuple(sorted(self.basis)))

    def _ratio_test(self, k: int) -> tuple[int, list[int]]:
        """Lexicographic minimum ratio along direction d = -M[:,k]: (entering
        row, R_i . d of every row), the row -1 when no row blocks."""
        slack = self.slack
        # rd = R_i . d: -D or 0 on the basis rows, since R_B M = D I, so only
        # non-basic rows can block
        rd = linalg.combine(((-row[k], col) for row, col in zip(self.M, self.cols)), self.m)
        best_i = -1
        best_rd = best_slack = 0
        for i, r in enumerate(rd):
            if r <= 0:
                continue
            sl = slack[i]
            if best_i < 0:
                best_i, best_rd, best_slack = i, r, sl
                continue
            # sl / r against best_slack / best_rd, both rd > 0
            lhs, rhs = sl * best_rd, best_slack * r
            if lhs > rhs:
                continue
            if lhs < rhs or self._lex_less(i, r, best_i, best_rd):
                best_i, best_rd, best_slack = i, r, sl
        return best_i, rd

    def _ray(self, edges: list[int]) -> tuple[int, ...] | None:
        """The primitive direction of the first of edges, edges no row
        blocks, along which c0 rises: c0 . d = -(c0 M)[k] > 0 for d =
        -M[:,k]; None when c0 rises along none."""
        c0, M = self.c0, self.M
        for k in edges:
            if sum(c * row[k] for c, row in zip(c0, M)) < 0:
                d = [-row[k] for row in M]
                g = gcd(*d)
                return tuple(v // g for v in d)
        return None

    def _append_box(self) -> None:
        """Append the box over the basis rows (`model.bound_polytope`), n
        independent rows of the form, as its last 2n rows, each strictly
        slack at the vertex, and keep those rows in `box_basis` and their
        (M, D), its columns in sorted basis order, in `box_inverse`.  The box
        rows take the exponents right after the current aim's non-basic
        rows, and its free basis rows move up by 2n, as in a walk of the
        boxed form."""
        m, n = self.m, self.n
        order = sorted(range(n), key=self.basis.__getitem__)
        self.box_basis = tuple(self.basis[k] for k in order)
        self.box_inverse = [[row[k] for k in order] for row in self.M], self.D
        self.form = form = model.bound_polytope(self.form, self.box_basis)
        self.R, self.beta, self.m = form.R, form.beta, form.m
        self.cols = list(zip(*self.R))
        box = self.recomputed_slacks(range(m, form.m))
        if not all(v > 0 for v in box):
            raise WalkError("box row not strictly slack at the vertex")
        self.slack += box
        nb = m - n  # the aim's non-basic rows hold exponents 1..nb
        self.exp_of = [e + 2 * n if e > nb else e for e in self.exp_of]
        self.exp_of += range(nb + 1, nb + 2 * n + 1)

    def _lex_less(self, i: int, rd_i: int, l: int, rd_l: int) -> bool:
        """Break an exact ratio tie by the symbolic perturbation coefficients.
        The epsilon^e coefficient of non-basic row r's perturbed slack
        numerator is D when r has exponent e, minus R_r . M[:,pos] when the
        basis row at pos has it; exponents other than 0 are distinct, so one
        entry of R_r M is read per exponent.  Both rd are > 0."""
        exp_of, D, R = self.exp_of, self.D, self.R
        pos_of = {exp_of[j]: pos for pos, j in enumerate(self.basis)}
        for e in sorted({exp_of[i], exp_of[l], *pos_of} - {0}):
            ci = D if exp_of[i] == e else 0
            cl = D if exp_of[l] == e else 0
            pos = pos_of.get(e)
            if pos is not None:
                col = [row[pos] for row in self.M]
                ci -= sum(map(mul, R[i], col))
                cl -= sum(map(mul, R[l], col))
            lhs, rhs = ci * rd_l, cl * rd_i
            if lhs != rhs:
                return lhs < rhs
        raise WalkError("lexicographic tie: duplicate perturbation exponents")

    def _update_basis(self, pos: int, enter: int, rd: list[int]) -> None:
        """Put row enter at basis position pos, rd holding R_i . d for every
        row i along the edge d = -M[:,pos]: one rank-one step on u = R_enter
        M, divided exactly by the old D, carries M, the vertex, the slacks and
        both prices.  Column pos of M and entry pos of each price stay; for
        q != pos, M[:,q] <- (u_pos M[:,q] - u_q M[:,pos]) / D and t[q] <-
        (u_pos t[q] - u_q t[pos]) / D; with se the slack numerator of row
        enter, x_num <- (u_pos x_num + se M[:,pos]) / D and slack_i <-
        (u_pos slack_i + se rd_i) / D; D <- u_pos, and all of them change
        sign when u_pos < 0.  Each vector's numerators are formed in one
        pass, with that sign folded in; when D > 1 they are checked for a
        remainder and divided.  A vector the step would leave as it is (its
        pivot term 0, and |u_pos| = D) is kept."""
        M, D = self.M, self.D
        u = linalg.combine(zip(self.R[enter], M), self.n)
        up = u[pos]
        if up == 0:
            raise WalkError("degenerate pivot column")  # unreachable: rd != 0
        a = abs(up)
        flip = up < 0
        same = a == D

        def exact(nums: list[int]) -> list[int]:
            if D == 1:
                return nums
            if any(x % D for x in nums):
                raise WalkError("integer pivot update lost exactness")
            return [x // D for x in nums]

        def step(v: list[int]) -> list[int]:
            # sign(u_pos) (u_pos v - v[pos] u) / D, with entry pos kept
            b = -v[pos] if flip else v[pos]
            if not b and same:
                return v
            nums = [a * x - b * y for x, y in zip(v, u)]
            nums[pos] = b * D
            return exact(nums)

        slack_enter = self.slack[enter]
        se = -slack_enter if flip else slack_enter
        self.M = [step(row) for row in M]
        self.t_c, self.t_w = step(self.t_c), step(self.t_w)
        if se or not same:
            self.x_num = exact([a * x + row[pos] * se for x, row in zip(self.x_num, M)])
            self.slack = exact([a * x + se * r for x, r in zip(self.slack, rd)])
        self.D = a
        self.basis[pos] = enter


def first_gain(tab: Tableau, c) -> bool:
    """Walk tab on c until a step leaves its point or an edge from it is a
    ray: whether c can rise from the point.  True leaves tab on the vertex
    that step reached, which has a higher c value, or on the point with the
    ray in `tab.ray`; False leaves it on the point, on a basis that carries c
    in its normal cone.

    The walk holds no rows and uses w = 0, so every improving edge ties on
    slope and the pivot's tie rule picks the step.  A step leaves the point
    when the entering row's slack numerator, its step length's, is > 0.
    When tab's c0 is c, every improving edge rises along c0, so an edge no
    row blocks is a ray.  Under the lexicographic perturbation every step
    raises the perturbed c value, so no basis repeats and the walk is
    finite.
    """
    tab.aim(common_denominator(as_fractions(c)), ([0] * tab.n, 1))
    while (step := tab.pivot()) is not None:
        if step.step_length_pair[0] > 0:
            return True
    return tab.ray is not None


def shadow_walk(tab: Tableau, c, w, pivot_cap: int | None = None, held=()) -> WalkResult:
    """Walk tab in place to the c-maximal vertex of the face where the held
    rows stay tight, to a ray of tab's c0 (`Tableau.pivot`), to a vertex
    where c0 . x = 0 when tab stops at zero (`Tableau.at_zero`), or to the
    pivot cap; c and w are (integer numerators, denominator) pairs, as
    `Tableau.aim` takes them.  tab ends on the walk's last vertex, where a
    ray starts, and the path records every pivot.  Each pivot scans the
    improving edges once: a pivot that finds none, or meets a ray, ends the
    walk, and the optimum is tested on its own only at the cap."""
    tab.aim(c, w, held)
    start_basis = tuple(sorted(tab.basis))
    steps: list[PathStep] = []
    start_value = tab.c_value()
    finished = True
    while not tab.at_zero():
        if pivot_cap is not None and tab.pivot_count >= pivot_cap:
            finished = tab.at_optimum()
            break
        step = tab.pivot()
        if step is None:
            break  # the optimum, or a ray
        steps.append(step)
    return WalkResult(
        finished=finished,
        path=ShadowPath(start_basis, start_value, tuple(steps)),
        pivots=tab.pivot_count,
    )


def path_to_csv(path: ShadowPath) -> str:
    buf = io.StringIO()
    wtr = csv.writer(buf, lineterminator="\r\n")
    wtr.writerow(["pivot_index", "entering_row", "leaving_row", "slope", "c_value"])
    for st in path.steps:
        wtr.writerow(
            [st.pivot_index, st.entering_row, st.leaving_row, str(st.slope), str(st.c_value)]
        )
    return buf.getvalue()
