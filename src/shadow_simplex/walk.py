"""Shadow vertex walk: tableau pivoting along the lower envelope.

The tableau keeps every decision exact and cheap:

* it walks the LP's integer form (`model.IntegerForm`): primitive integer
  rows with one shared rhs denominator, which the solve builds once (all
  pivot decisions are invariant under positive row scaling, so this is a
  pure canonicalization);
* the basis inverse is carried as the integer pair (M, D) with
  M = D * inv(rows_of_basis) and D > 0, and beside it the vertex's
  numerators x_num = M beta_B and the prices t_c = c M and t_w = w M; each
  pivot updates all of them by one exact integer rank-one
  (Sherman-Morrison) step, so none is recomputed from scratch;
* degeneracy is resolved by a symbolic lexicographic perturbation of b with
  exponents assigned non-basis-rows-first, which makes any starting basis
  lexicographically feasible and every leaving choice unique.

A Tableau outlives one walk: `aim` gives it the next walk's objectives, as
integer numerators over a denominator, and the rows it holds in the basis.
Held rows never leave (they are left out of pricing and of the
perturbation), so the walk stays on the face where they are tight; the
facet chain of the driver walks all its rounds on one Tableau this way,
with one basis inverse.  `shadow_walk` walks a Tableau in place and returns
its `ShadowPath`, the one record of the walk's pivots.  `first_gain` walks
a Tableau on a plain objective only until the point moves: the optimality
and boundedness certificates are decided that way.  `Tableau.carries`
reads off M whether the basis already carries an objective, which ends a
facet chain.

Slope and ratio comparisons are integer cross-multiplications: both draw
modes produce dyadic rational objectives, so the exact branch always
applies.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import linalg
from .model import BasicSolution, IntegerForm, LinearProgram
from .rational import as_fractions, common_denominator, fraction, lowest_terms


class WalkError(RuntimeError):
    pass


class UnboundedEdgeError(WalkError):
    """An improving edge had no blocking row: the polytope was not boxed."""


HARD_PIVOT_GUARD = 10**6


@dataclass(frozen=True)
class PathStep:
    pivot_index: int
    entering_row: int
    leaving_row: int
    slope: Fraction
    c_gain: Fraction  # c^T d of the traversed direction, exactly > 0
    step_length: Fraction  # 0 on degenerate pivots
    c_value: Fraction  # c^T x after the step
    basis: tuple[int, ...]


@dataclass(frozen=True)
class ShadowPath:
    start_basis: tuple[int, ...]
    start_value: Fraction
    steps: tuple[PathStep, ...]


@dataclass(frozen=True)
class WalkResult:
    finished: bool
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


def _cmp_frac(p1: int, q1: int, p2: int, q2: int) -> int:
    """Compare p1/q1 with p2/q2 exactly; denominators may carry signs."""
    if q1 < 0:
        p1, q1 = -p1, -q1
    if q2 < 0:
        p2, q2 = -p2, -q2
    lhs = p1 * q2
    rhs = p2 * q1
    return (lhs > rhs) - (lhs < rhs)


class Tableau:
    """Walking state: the basis, its integer inverse (M, D), the vertex
    numerators x_num, the prices t_c and t_w, and the pivot counter.  The
    build sets M, D and x_num, `aim` sets the prices for its objectives, and
    each pivot's `_update_basis` carries all five.

    Single-owner mutable state; concurrent walks must each build their own.
    """

    def __init__(self, form: IntegerForm, start: BasicSolution) -> None:
        """Build the integer basis inverse at start on the LP's integer form;
        `aim` sets the objectives before the first pivot."""
        self.form = form
        m, n = form.m, form.n
        self.m, self.n = m, n
        self.R, self.beta, self.s = form.R, form.beta, form.s
        self.pivot_count = 0

        self.basis = sorted(start.basis)
        if len(self.basis) != n or len(set(self.basis)) != n:
            raise WalkError("basis must hold n distinct rows")
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
        if any(v < 0 for v in self.slack_nums(range(m))):
            raise WalkError("start point infeasible")

    def aim(self, c, w, held=()) -> None:
        """Set the objectives of the next walk, each an (integer numerators,
        denominator > 0) pair, and the basis rows it holds; the pivot count
        starts again at 0.  Each pair is kept with its gcd stripped, which is
        what `common_denominator` gives for the same values."""
        self.held = frozenset(held)
        in_basis = set(self.basis)
        if not self.held <= in_basis:
            raise WalkError("held rows must be in the basis")
        self.c_num, self.c_den = lowest_terms(*c)
        self.w_num, self.w_den = lowest_terms(*w)
        # the prices c M and w M: edge k has c^T d_k = -t_c[k] / (D c_den)
        cols = list(zip(*self.M))
        self.t_c = [sum(map(mul, self.c_num, col)) for col in cols]
        self.t_w = [sum(map(mul, self.w_num, col)) for col in cols]
        self.pivot_count = 0
        # lexicographic exponents: non-basis rows first, then the free basis
        # rows; held rows keep exponent 0, i.e. no perturbation
        order = [i for i in range(self.m) if i not in in_basis] + sorted(in_basis - self.held)
        self.exp_of = [0] * self.m
        for e, i in enumerate(order, start=1):
            self.exp_of[i] = e

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

    def slack_nums(self, rows) -> list[int]:
        """Slack numerators beta_i D - R_i . x_num of rows at the vertex: the
        slack of row i is this over D s, so a zero is a tight row."""
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

    def carries(self, c: list[int]) -> bool:
        """Whether the basis carries the integer objective c: every entry of
        c M is >= 0, so c = sum_k nu_k R_basis[k] with every nu_k >= 0 (M =
        D inv(B), D > 0) and the vertex maximizes c over the form, whatever
        rows the walk held."""
        return all(sum(map(mul, c, col)) >= 0 for col in zip(*self.M))

    # -- the pivot --------------------------------------------------------

    def pivot(self) -> PathStep | None:
        """One step along the minimum-slope improving edge; None at the optimum."""
        x_num, t_c, t_w = self.x_num, self.t_c, self.t_w
        improving = self._improving()
        if not improving:
            return None
        # minimum slope y_w/y_c = (t_w[k] c_den) / (t_c[k] w_den)
        best: list[int] = []
        for k in improving:
            if not best:
                best = [k]
                continue
            cmp = _cmp_frac(
                t_w[k] * self.c_den, t_c[k] * self.w_den,
                t_w[best[0]] * self.c_den, t_c[best[0]] * self.w_den,
            )
            if cmp < 0:
                best = [k]
            elif cmp == 0:
                best.append(k)
        # ratio test per slope-tied edge; equal slopes resolved by the
        # smallest entering row index
        chosen = None
        for k in best:
            enter, rd, slack = self._ratio_test(k)
            if chosen is None or enter < chosen[1]:
                chosen = (k, enter, rd, slack)
        k, enter, rd_enter, slack_enter = chosen
        leave = self.basis[k]
        theta = Fraction(slack_enter, self.s * rd_enter)
        slope = Fraction(t_w[k] * self.c_den, t_c[k] * self.w_den)
        c_gain = Fraction(-t_c[k], self.D * self.c_den)
        # c^T x after the step: c^T x + theta c_gain = (c_num . x_num rd -
        # slack t_c[k]) / (c_den D s rd)
        cx = sum(map(mul, self.c_num, x_num))
        c_value = Fraction(
            cx * rd_enter - slack_enter * t_c[k], self.c_den * self.D * self.s * rd_enter
        )

        self._update_basis(k, enter, slack_enter)
        self.pivot_count += 1
        if self.pivot_count > HARD_PIVOT_GUARD:
            raise WalkError("pivot guard exceeded: walk did not terminate")
        return PathStep(
            pivot_index=self.pivot_count,
            entering_row=enter,
            leaving_row=leave,
            slope=slope,
            c_gain=c_gain,
            step_length=theta,
            c_value=c_value,
            basis=tuple(sorted(self.basis)),
        )

    def _ratio_test(self, k: int) -> tuple[int, int, int]:
        """Lexicographic minimum ratio along direction -M[:,k]; returns
        (entering row, R_i.dvec, slack numerator)."""
        x_num, R, beta, D = self.x_num, self.R, self.beta, self.D
        col = [row[k] for row in self.M]
        best_i = -1
        best_rd = 0
        best_slack = 0
        for i, Ri in enumerate(R):
            # rd = R_i . d with d = -M[:,k]: -D or 0 on the basis rows, since
            # R_B M = D I, so only non-basic rows can block
            rd = -sum(map(mul, Ri, col))
            if rd <= 0:
                continue
            slack = beta[i] * D - sum(map(mul, Ri, x_num))
            if best_i < 0:
                best_i, best_rd, best_slack = i, rd, slack
                continue
            # slack / rd against best_slack / best_rd, both rd > 0
            lhs, rhs = slack * best_rd, best_slack * rd
            if lhs > rhs:
                continue
            if lhs < rhs or self._lex_less(i, rd, best_i, best_rd):
                best_i, best_rd, best_slack = i, rd, slack
        if best_i < 0:
            raise UnboundedEdgeError(
                "improving edge with no blocking row (polytope not boxed?)"
            )
        return best_i, best_rd, best_slack

    def _lex_less(self, i: int, rd_i: int, l: int, rd_l: int) -> bool:
        """Break an exact ratio tie by the symbolic perturbation coefficients.
        The epsilon^e coefficient of non-basic row r's perturbed slack
        numerator is D when r has exponent e, minus R_r . M[:,pos] when the
        basis row at pos has it; exponents other than 0 are distinct, so one
        entry of R_r M is read per exponent."""
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
            cmp = _cmp_frac(ci, rd_i, cl, rd_l)
            if cmp != 0:
                return cmp < 0
        raise WalkError("lexicographic tie: duplicate perturbation exponents")

    def _update_basis(self, pos: int, enter: int, slack_enter: int) -> None:
        """Put row enter, whose slack numerator is slack_enter, at basis
        position pos: one rank-one step on u = R_enter M, divided exactly by
        the old D, carries M, the vertex and both prices.  Column pos of M
        and entry pos of each price stay; for q != pos, M[:,q] <- (u_pos
        M[:,q] - u_q M[:,pos]) / D and t[q] <- (u_pos t[q] - u_q t[pos]) / D;
        x_num <- (u_pos x_num + slack_enter M[:,pos]) / D; D <- u_pos, and
        all of them change sign when u_pos < 0.  Each vector's numerators are
        formed in one pass, with that sign folded in; when D > 1 they are
        checked for a remainder and divided."""
        M, D = self.M, self.D
        u = [sum(map(mul, self.R[enter], col)) for col in zip(*M)]
        up = u[pos]
        if up == 0:
            raise WalkError("degenerate pivot column")  # unreachable: rd != 0
        a = abs(up)
        flip = up < 0

        def exact(nums: list[int]) -> list[int]:
            if D == 1:
                return nums
            if any(x % D for x in nums):
                raise WalkError("integer pivot update lost exactness")
            return [x // D for x in nums]

        def step(v: list[int]) -> list[int]:
            # sign(u_pos) (u_pos v - v[pos] u) / D, with entry pos kept
            b = -v[pos] if flip else v[pos]
            nums = [a * x - b * y for x, y in zip(v, u)]
            nums[pos] = b * D
            return exact(nums)

        se = -slack_enter if flip else slack_enter
        self.M = [step(row) for row in M]
        self.t_c, self.t_w = step(self.t_c), step(self.t_w)
        self.x_num = exact([a * x + row[pos] * se for x, row in zip(self.x_num, M)])
        self.D = a
        self.basis[pos] = enter


def first_gain(tab: Tableau, c) -> list[Fraction] | None:
    """Walk tab on c until a step leaves its point: the vertex that step
    reaches, which has a higher c value, or None when the walk ends on the
    point, whose basis then carries c in its normal cone.

    The walk holds no rows and uses w = 0, so every improving edge ties on
    slope and the pivot's tie rule picks the step.  Under the lexicographic
    perturbation every step raises the perturbed c value, so no basis
    repeats and the walk is finite.
    """
    tab.aim(common_denominator(as_fractions(c)), ([0] * tab.n, 1))
    while (step := tab.pivot()) is not None:
        if step.step_length > 0:
            return tab.vertex()
    return None


def shadow_walk(tab: Tableau, c, w, pivot_cap: int | None = None, held=()) -> WalkResult:
    """Walk tab in place to the c-maximal vertex of the face where the held
    rows stay tight, or stop at the pivot cap; c and w are (integer
    numerators, denominator) pairs, as `Tableau.aim` takes them.  tab ends
    on the walk's last vertex, and the path records every pivot."""
    tab.aim(c, w, held)
    start_basis = tuple(sorted(tab.basis))
    steps: list[PathStep] = []
    start_value = tab.c_value()
    finished = True
    while not tab.at_optimum():
        if pivot_cap is not None and tab.pivot_count >= pivot_cap:
            finished = False
            break
        step = tab.pivot()
        assert step is not None
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
