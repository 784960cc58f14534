import math
import random
from dataclasses import fields
from fractions import Fraction

import pytest
import reference
from boxing import box, box_rows, boxed_form, lead_rows, on_box

from shadow_simplex import harness, linalg, metrics, model, oracle
from shadow_simplex.model import (
    BasicSolution,
    LPFormatError,
    LPModelError,
    ObjectiveEscapesSpan,
    RankRaised,
    parse_lp,
    serialize_lp,
)
from shadow_simplex.rational import ONE, dot, norm_sq

F = Fraction

UNIT_SQUARE = "maximize 1 0\nst\n1 0 <= 1\n-1 0 <= 0\n0 1 <= 1\n0 -1 <= 0\n"


def square_lp(c0=(1, 1)):
    return model.make_lp(
        [[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0], list(c0)
    )


class TestParse:
    def test_unit_square(self):
        lp = parse_lp(UNIT_SQUARE)
        assert (lp.m, lp.n) == (4, 2)
        assert lp.c0 == (1, 0)
        assert lp.A[1] == (-1, 0)
        assert [f.name for f in fields(lp)] == ["A", "b", "c0"]

    def test_empty_objective(self):
        with pytest.raises(LPFormatError):
            parse_lp("maximize\nst\n1 <= 1\n")

    def test_dimension_mismatch(self):
        with pytest.raises(LPFormatError) as e:
            parse_lp("maximize 1 0\nst\n1 2 3 <= 4\n")
        assert "3" in str(e.value)

    def test_objective_dimension_mismatch(self):
        # a short or a long c0 is rejected when the LP is built, before any
        # dot product could truncate it
        for c0 in ([1], [1, 1, 5]):
            with pytest.raises(LPModelError, match="dimension mismatch"):
                square_lp(c0)

    def test_zero_row(self):
        with pytest.raises(LPFormatError):
            parse_lp("maximize 1\nst\n0 <= 1\n")

    def test_comments_and_fractions(self):
        lp = parse_lp("# hi\nmaximize 1/2 -2/3\nst\n# row\n1 1 <= 5/7\n")
        assert lp.c0 == (F(1, 2), F(-2, 3))
        assert lp.b[0] == F(5, 7)

    def test_round_trip_exact(self):
        rng = random.Random(5)
        for _ in range(50):
            m, n = rng.randint(1, 6), rng.randint(1, 4)
            A = [
                [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
                for _ in range(m)
            ]
            for row in A:
                if all(x == 0 for x in row):
                    row[0] = F(1)
            b = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m)]
            c = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            lp = model.make_lp(A, b, c)
            again = parse_lp(serialize_lp(lp))
            assert again.A == lp.A and again.b == lp.b and again.c0 == lp.c0


class TestNormalize:
    def test_three_four_five(self):
        lp = model.make_lp([[3, 4]], [10], [1, 1])
        nd = model.normalize(lp)
        assert nd.A[0] == (F(3, 5), F(4, 5))
        assert nd.b[0] == 2

    def test_unit_row_unchanged(self):
        lp = model.make_lp([[1, 0]], [2], [0, 1])
        nd = model.normalize(lp)
        assert nd.A[0] == (1, 0) and nd.b[0] == 2

    def test_irrational_norm_row(self):
        lp = model.make_lp([[1, 1]], [2], [1, 0])
        nd = model.normalize(lp)
        s = norm_sq(list(nd.A[0]))
        assert s <= 1 and abs(float(s) - 1.0) < 1e-15
        # the row and its rhs are scaled by the same positive factor
        t = nd.A[0][0]
        assert t > 0 and nd.A[0] == (t, t) and nd.b[0] == 2 * t

    def test_zero_objective_rejected(self):
        with pytest.raises(LPModelError):
            model.normalize(model.make_lp([[1, 0]], [1], [0, 0]))

    def test_feasible_set_unchanged_sampled(self):
        rng = random.Random(11)
        for _ in range(5):
            m, n = rng.randint(1, 5), rng.randint(1, 3)
            A = [[F(rng.randint(-5, 5)) for _ in range(n)] for _ in range(m)]
            for row in A:
                if all(x == 0 for x in row):
                    row[0] = F(2)
            b = [F(rng.randint(-5, 5)) for _ in range(m)]
            lp = model.make_lp(A, b, [1] * n)
            nd = model.normalize(lp)
            for _ in range(1000):
                x = [F(rng.randint(-40, 40), rng.randint(1, 7)) for _ in range(n)]
                for i in range(m):
                    before = dot(lp.row(i), x) - lp.b[i]
                    after = dot(nd.row(i), x) - nd.b[i]
                    assert (before > 0) == (after > 0) and (before == 0) == (after == 0)

    def test_float_view_unit_norm(self):
        lp = model.make_lp([[1, 1, 1], [2, -3, 5]], [1, 1], [1, 2, 3])
        nd = model.normalize(lp)
        for row in nd.A + (nd.c0,):
            assert abs(math.hypot(*(float(x) for x in row)) - 1.0) <= 1e-12


def rank_deficient_lp(rng, rational):
    """A seeded LP of rank r < n: r random rows, integer or with
    denominators up to 7, then combinations and copies of them, shuffled."""
    while True:
        n = rng.randint(2, 5)
        dens = [1, 1, 2, 3, 7] if rational else [1]
        base = [
            [F(rng.randint(-4, 4), rng.choice(dens)) for _ in range(n)]
            for _ in range(rng.randint(1, n - 1))
        ]
        rows = list(base)
        for _ in range(rng.randint(0, 3)):
            coef = [F(rng.randint(-2, 2), rng.choice(dens)) for _ in base]
            rows.append([sum(k * r[j] for k, r in zip(coef, base)) for j in range(n)])
        rows = [r for r in rows if any(r)]
        if rows and linalg.rank(rows) < n:
            rng.shuffle(rows)
            b = [F(rng.randint(-5, 5), rng.choice(dens)) for _ in rows]
            return model.make_lp(rows, b, [rng.randint(-2, 2) for _ in range(n)])


class TestRankCompletion:
    def test_completion_matches_the_fraction_reference(self):
        # the completed form and lead rows from the rank pass alone equal
        # the integer form of the Fraction completion and the first n rows
        # of its own rank pass, on integral and rational LPs; the Fraction
        # views are that completion
        rng = random.Random(43)
        seen = {True: 0, False: 0}
        for trial in range(1200):
            lp = rank_deficient_lp(rng, rational=trial % 2 == 1)
            form = model.integer_form(lp)
            idx = linalg.independent_rows(form.R)
            ext, want_form, want_lead = reference.complete_rank(lp, form, idx)
            assert model.complete_rank(form, idx) == (want_form, want_lead)
            assert model.extend_to_full_rank(lp) == ext
            view = model.extend_to_full_rank_Delta if lp.is_integral() else model.extend_to_full_rank_delta
            assert view(lp) == ext
            seen[lp.is_integral()] += 1
        assert min(seen.values()) >= 500, seen

    def test_full_rank_form_is_kept(self):
        form = model.integer_form(square_lp())
        idx = linalg.independent_rows(form.R)
        assert model.complete_rank(form, idx) == (form, idx[:2])
        for extend in (model.extend_to_full_rank_delta, model.extend_to_full_rank_Delta):
            with pytest.raises(LPModelError):
                extend(square_lp())

    def test_unit_rows_follow_the_greedy_rank_test(self):
        # the row (1, 1): reduced through its echelon, e_0 stays nonzero and
        # is taken, which the complement of the pivot columns would not give
        lp = model.make_lp([[1, 1], [2, 2]], [1, 2], [1, 1])
        form = model.integer_form(lp)
        full, lead = model.complete_rank(form, linalg.independent_rows(form.R))
        assert full.R[2:] == [[1, 0]] and lead == [0, 2]


class TestRankRaising:
    def test_delta_complement_rows(self):
        lp = model.make_lp([[1, 0]], [1], [1, 0])
        res = model.raise_rank_delta(lp)
        assert isinstance(res, RankRaised)
        ext = res.lp
        assert linalg.rank(ext.rows()) == 2
        assert ext.m == 3 and res.back_map.appended_rows == (1, 2)
        for i in res.back_map.appended_rows:
            assert ext.A[i][0] == 0 and ext.b[i] == 0  # spans the e2 axis

    def test_delta_escape(self):
        lp = model.make_lp([[1, 0]], [1], [0, 1])
        res = model.raise_rank_delta(lp)
        assert isinstance(res, ObjectiveEscapesSpan)
        d = list(res.direction)
        assert dot(lp.row(0), d) == 0 and dot(list(lp.c0), d) > 0

    def test_delta_full_rank_is_error(self):
        with pytest.raises(LPModelError):
            model.raise_rank_delta(square_lp())

    def test_delta_preserves_delta_value(self):
        from itertools import combinations
        from math import sqrt

        def subset_delta(rows):
            # rank-r subset minimum straight from the angle definition
            r = linalg.rank(rows)
            best = None
            for S in combinations(range(len(rows)), r):
                sub = [rows[i] for i in S]
                if linalg.rank(sub) < r:
                    continue
                v = reference.delta_sq_angle_definition(sub)
                if best is None or v < best:
                    best = v
            return sqrt(float(best))

        rng = random.Random(23)
        done = 0
        while done < 10:
            n = rng.randint(2, 4)
            r = rng.randint(1, n - 1)
            base = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(r)]
            if any(all(x == 0 for x in row) for row in base):
                continue
            if linalg.rank(base) == n:
                continue
            lp = model.make_lp(base, [1] * r, base[0])
            res = model.raise_rank_delta(lp)
            if not isinstance(res, RankRaised):
                continue
            assert abs(subset_delta(lp.rows()) - subset_delta(res.lp.rows())) <= 1e-9
            done += 1

    def test_Delta_variant(self):
        lp = model.make_lp([[1, 1]], [1], [1, 1])
        res = model.raise_rank_Delta(lp)
        assert isinstance(res, RankRaised)
        ext = res.lp
        assert linalg.rank(ext.rows()) == 2
        # brute-force subdeterminants agree before and after
        before = metrics.max_subdeterminant([[1, 1]])
        after = metrics.max_subdeterminant([[int(x) for x in r] for r in ext.rows()])
        assert before == after == 1

    def test_Delta_escape(self):
        lp = model.make_lp([[2, 0]], [1], [0, 1])
        res = model.raise_rank_Delta(lp)
        assert isinstance(res, ObjectiveEscapesSpan)

    def test_Delta_rejects_rationals(self):
        lp = model.make_lp([[F(1, 2), 0]], [1], [1, 0])
        with pytest.raises(LPModelError):
            model.raise_rank_Delta(lp)

    def test_Delta_preserved_random(self):
        rng = random.Random(31)
        done = 0
        while done < 12:
            n = rng.randint(2, 4)
            m = rng.randint(1, 6)
            A = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
            A = [r for r in A if any(r)]
            if not A or linalg.rank([[F(x) for x in r] for r in A]) >= n:
                continue
            lp = model.make_lp(A, [1] * len(A), [0] * (n - 1) + [1])
            res = model.raise_rank_Delta(lp)
            if not isinstance(res, RankRaised):
                continue
            ext = [[int(x) for x in r] for r in res.lp.rows()]
            assert metrics.max_subdeterminant(A) == metrics.max_subdeterminant(ext)
            done += 1


class TestBounding:
    def test_box_rows_added_and_vertices_strict(self):
        lp = square_lp()
        boxed = boxed_form(lp)
        assert boxed.m == lp.m + 4
        for v in oracle.enumerate_vertices(lp).vertices:
            assert all(e < 0 for e in boxed.excess(v.point)[lp.m :])

    def test_boxing_a_boxed_lp_marks_only_its_own_rows(self):
        # boxing a boxed form appends 2n more rows; the first box's rows are
        # then ordinary rows, and only the last 2n count as box rows
        lp = model.make_lp([[-1, 0], [0, -1]], [0, 0], [1, 1])
        once = boxed_form(lp)
        twice = model.bound_polytope(once, linalg.independent_rows(once.R)[:2])
        assert twice.m == once.m + 4
        assert (twice.R[: once.m], twice.beta[: once.m]) == (once.R, once.beta)
        # the corner of the first box, where only the first box's rows are tight
        B = F(once.beta[3], once.s)
        corner = BasicSolution(point=(B, B), basis=(3, 5))
        route, _ = model.assert_unbounded_if_box_tight(on_box(once, corner, [0, 1]), lp.c0)
        assert route == "recession"
        tab = on_box(twice, corner, [0, 1])
        assert model.assert_unbounded_if_box_tight(tab, lp.c0) == ("vertex", None)

    def test_vertices_lie_strictly_inside_the_box(self):
        # every vertex of the LP the solve boxes lies strictly inside every
        # box row, whatever its rows: rational, duplicate and parallel rows,
        # rows appended by rank completion and the rows of an earlier box,
        # and whichever n independent rows the box is over
        seen = dict.fromkeys(("rational", "duplicate", "completed", "boxed", "not lead"), 0)
        vertices = 0
        for work, form, rows, kinds in box_cases(61, 80):
            boxed = model.bound_polytope(form, rows)
            for v in oracle.enumerate_vertices(work).vertices:
                vertices += 1
                assert all(e < 0 for e in boxed.excess(v.point)[work.m :])
            for k in kinds:
                seen[k] += 1
        assert vertices >= 100 and min(seen.values()) >= 5, (vertices, seen)

    def test_unbounded_polytope_gets_box(self):
        lp = model.make_lp([[1, 0], [0, 1]], [1, 1], [1, 1])
        boxed = box(lp)
        assert boxed.m == boxed_form(lp).m == 6
        vs = oracle.enumerate_vertices(boxed)
        assert len(vs) > 1  # box closed the polyhedron

    def test_rank_deficient_rejected(self):
        lp = model.make_lp([[1, 0]], [1], [1, 0])
        with pytest.raises(LPModelError):
            boxed_form(lp)

    def test_tu_box_keeps_denominator_one(self):
        # a totally unimodular LP with integer rhs has s = 1, and its box
        # rows keep it: every box rhs is an integer
        for k, kind in enumerate(("tu-incidence", "interval-matrix", "network-matrix")):
            for n in (2, 4, 6):
                lp = harness.generate_tu_instance(kind, 2 * n, n, 100 * k + n)
                assert model.integer_form(lp).s == boxed_form(lp).s == 1
                boxed = box(lp)
                assert all(boxed.b[i].denominator == 1 for i in box_rows(boxed))

    def test_box_form_is_the_boxed_lps_integer_form(self):
        # the box rows +-R_i and their rhs come from the solve's one form of
        # the rows, exactly as the Fraction boxed LP's own integer form gives
        # them; rational, duplicated and parallel rows give factors other
        # than 1
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(1, 4)
            rows = [[F(rng.randint(-6, 6), rng.randint(1, 7)) for _ in range(n)] for _ in range(n + 3)]
            rows = [r for r in rows if any(r)]
            if len(rows) < n:
                continue
            rows += [list(rows[0]), [F(-1, 3) * x for x in rows[-1]]]
            lp = model.make_lp(rows, [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in rows], [1] * n)
            if linalg.rank(lp.rows()) < n:
                continue
            assert boxed_form(lp) == model.integer_form(box(lp))

    def test_integer_box_matches_the_fraction_box(self):
        # the box form is the integer form of the boxed LP's make_lp
        # construction, whose B_i come from each row's own primitive_int_row
        for work, form, rows, _ in box_cases(67, 150):
            boxed = model.bound_polytope(form, rows)
            assert boxed == model.integer_form(reference.bound_polytope(work, rows))

    def test_box_form_keeps_the_solves_rows_and_denominator(self):
        # the box rows append to the solve's form: its rows, rhs and s stay
        for work, form, rows, _ in box_cases(71, 150):
            boxed = model.bound_polytope(form, rows)
            assert boxed.s == form.s
            assert boxed.beta[: work.m] == form.beta
            assert boxed.R[: work.m] == form.R
            assert boxed.factor[: work.m] == form.factor

    def test_box_rhs_match_the_hand_computed_bound(self):
        # rows (3, 4), (-1, 0), (0, -1) with rhs 12, 0, 0: s = 1, the
        # augmented squared norms are 169, 1, 1, so n H^2 = 2 * 169 * 1; the
        # lead rows 0 and 1 get B = isqrt(25 * 338) + 1 = 92 and
        # isqrt(338) + 1 = 19, above s |R_i x| at the vertices (4, 0), (0, 3)
        lp = model.make_lp([[3, 4], [-1, 0], [0, -1]], [12, 0, 0], [1, 1])
        boxed = boxed_form(lp)
        assert boxed.R[3:] == [[3, 4], [-3, -4], [-1, 0], [1, 0]]
        assert boxed.beta == [12, 0, 0, 92, 92, 19, 19] and boxed.s == 1


def box_cases(seed, count):
    """count seeded (LP, integer form, box rows, kinds) as a solve boxes
    them: rows with rational entries, duplicate and parallel rows, rank
    completion (`model.complete_rank`, the LP completed by its Fraction view
    `model.extend_to_full_rank`), and every fourth LP boxed before.  The box
    rows are n independent rows of the form, as a walk's basis is: the
    greedy independent rows of its rows in a random order, ascending.
    kinds names which of these the case has, "not lead" when the box rows
    are not the lead rows."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        n = rng.randint(1, 4)
        rows = []
        for _ in range(rng.randint(1, n + 3)):
            kind = rng.random()
            if rows and kind < 0.2:
                rows.append(list(rng.choice(rows)))
            elif rows and kind < 0.4:
                k = F(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
                rows.append([k * x for x in rng.choice(rows)])
            else:
                rows.append([F(rng.randint(-4, 4), rng.choice([1, 1, 2, 3, 6])) for _ in range(n)])
        rows = [r for r in rows if any(r)]
        if not rows:
            continue
        lp = model.make_lp(rows, [F(rng.randint(-6, 6), rng.choice([1, 1, 2, 5])) for _ in rows], [1] * n)
        form = model.integer_form(lp)
        form, lead = model.complete_rank(form, linalg.independent_rows(form.R))
        work = model.extend_to_full_rank(lp) if form.m > lp.m else lp
        kinds = set()
        if any(x.denominator > 1 for row in lp.A for x in row):
            kinds.add("rational")
        if len({tuple(r) for r in form.R[: lp.m]}) < lp.m:
            kinds.add("duplicate")
        if work.m > lp.m:
            kinds.add("completed")
        if len(cases) % 4 == 3:
            work = reference.bound_polytope(work, lead)
            form = model.integer_form(work)
            lead = linalg.independent_rows(form.R)[:n]
            kinds.add("boxed")
        order = rng.sample(range(form.m), form.m)
        box = sorted(order[k] for k in linalg.independent_rows([form.R[i] for i in order]))
        if box != lead:
            kinds.add("not lead")
        cases.append((work, form, box, kinds))
    return cases


def on(lp, vertex):
    """A tableau on lp's boxed form standing on vertex, as one that appended
    the box over lp's lead rows."""
    return on_box(boxed_form(lp), BasicSolution(vertex.point, vertex.basis), lead_rows(lp))


class TestBoxTightAssert:
    def test_interior_optimum_bounded(self):
        lp = square_lp()
        bs = model.move_to_vertex(box(lp), [F(1), F(1)])
        assert model.assert_unbounded_if_box_tight(on(lp, bs), lp.c0) == ("vertex", None)

    def test_genuinely_unbounded(self):
        # maximize x subject to x >= 0
        lp = model.make_lp([[-1]], [0], [1])
        vs = oracle.enumerate_vertices(box(lp)).vertices
        top = max(vs, key=lambda v: v.point[0])
        route, ray = model.assert_unbounded_if_box_tight(on(lp, top), lp.c0)
        assert route == "recession"
        assert ray[0] > 0

    def test_box_tight_tie_without_ray_is_bounded(self):
        # maximize x1 with x1 <= 1, x2 <= 0: the optimal face is unbounded,
        # so a box corner ties with the true optimum; c0 = R_0 needs no box
        # row of the corner's basis, which overrides the box-tightness signal
        # with no recession walk
        lp = model.make_lp([[1, 0], [0, 1]], [1, 0], [1, 0])
        boxed = box(lp)
        corner = None
        for v in oracle.enumerate_vertices(boxed).vertices:
            if v.point[0] == 1 and set(box_rows(boxed)) & set(boxed.tight_rows(v.point)):
                corner = v
                break
        assert corner is not None
        assert model.assert_unbounded_if_box_tight(on(lp, corner), lp.c0) == ("box-cone", None)


class TestIntegerForm:
    """`integer_form` reads the LP in one pass and takes an all-integral
    LP's rows as their numerators; it is the form made row by row with
    `primitive_int_row`, factors included, the shared `ONE` of every
    primitive integral row too."""

    @staticmethod
    def lp_of(rng, kind):
        m, n = rng.randint(1, 6), rng.randint(1, 5)

        def entry():
            if kind == "fractional":
                return F(rng.randint(-9, 9), rng.randint(1, 6))
            x = rng.randint(-4, 4)
            return x if kind == "ints" else F(x)

        while True:
            A = [[entry() for _ in range(n)] for _ in range(m)]
            if kind == "common-factor":
                A = [[F(rng.randint(2, 4)) * x for x in row] for row in A]
            elif kind == "mixed":
                i, j = rng.randrange(m), rng.randrange(n)
                A[i][j] = F(2 * rng.randint(-4, 4) + 1, 2)
            if all(map(any, A)):
                break
        b = [F(rng.randint(-9, 9), rng.choice([1, 1, 2, 3])) for _ in range(m)]
        if kind == "ints":
            b = [rng.randint(-9, 9) for _ in range(m)]
            return model.LinearProgram(tuple(map(tuple, A)), tuple(b), (1,) * n)
        return model.make_lp(A, b, [1] * n)

    def test_matches_the_form_made_row_by_row(self):
        rng = random.Random(21)
        kinds = ("integral", "common-factor", "fractional", "mixed", "ints")
        scaled = dict.fromkeys(kinds, 0)  # rows whose factor is not ONE
        for k in range(400):
            kind = kinds[k % len(kinds)]
            lp = self.lp_of(rng, kind)
            got, want = model.integer_form(lp), reference.integer_form(lp)
            assert got == want
            assert [f is ONE for f in got.factor] == [f is ONE for f in want.factor]
            scaled[kind] += sum(f is not ONE for f in got.factor)
        assert scaled["integral"] > 0 and scaled["ints"] > 0
        assert min(scaled[k] for k in ("common-factor", "fractional", "mixed")) > 50, scaled

    def test_primitive_integral_rows_share_one(self):
        lp = model.LinearProgram(((1, -2), (F(2), F(4)), (F(1, 2), F(0))), (3, F(1, 3), 1), (1, 1))
        form = model.integer_form(lp)
        assert form == model.IntegerForm([[1, -2], [1, 2], [1, 0]], [ONE, F(1, 2), F(2)], [18, 1, 12], 6)
        assert form.factor[0] is ONE
        ints = model.LinearProgram(((1, -2), (2, 4)), (3, 1), (1, 1))
        assert model.integer_form(ints) == model.IntegerForm([[1, -2], [1, 2]], [ONE, F(1, 2)], [6, 1], 2)


class TestVertexUtilities:
    def test_move_to_vertex_from_interior(self):
        lp = square_lp()
        bs = model.move_to_vertex(lp, [F(1, 2), F(1, 3)])
        assert len(bs.basis) == 2
        model.validate_basic_solution(lp, bs)

    def test_validate_rejects_loose_basis(self):
        lp = square_lp()
        with pytest.raises(LPModelError):
            model.validate_basic_solution(
                lp, BasicSolution(point=(F(0), F(0)), basis=(0, 2))
            )


def _reference_excess(lp, point):
    """a_i . x - b_i per row by Fraction dot products."""
    x = [F(v) for v in point]
    return [dot(lp.row(i), x) - lp.b[i] for i in range(lp.m)]


class TestPointChecks:
    def test_wrong_length_point_rejected(self):
        lp = model.make_lp([[1, 0], [0, 1], [-1, -1]], [1, 1, 0], [1, 1])
        assert lp.feasible([0, 0])
        for point in ([0, 0, 99], [1], []):
            with pytest.raises(LPModelError):
                lp.feasible(point)
            with pytest.raises(LPModelError):
                lp.tight_rows(point)

    def test_integer_checks_match_fraction_reference(self):
        # rows with non-integral, negative and zero entries; rhs chosen so
        # that some rows are tight, some slack and some violated at x0
        rng = random.Random(2026)
        entries = [F(0), F(1), F(-1), F(2), F(-3), F(1, 2), F(-2, 3), F(5, 6), F(-7, 4)]
        kinds = {"tight": 0, "inside": 0, "outside": 0}
        for _ in range(200):
            n = rng.randint(1, 5)
            x0 = [rng.randint(-3, 3) for _ in range(n)]
            A, b = [], []
            for _ in range(rng.randint(1, 8)):
                row = [rng.choice(entries) for _ in range(n)]
                if not any(row):
                    row[rng.randrange(n)] = F(-1, 3)
                A.append(row)
                shift = rng.choice([0, 0, F(1, 7), -F(1, 7), 2, -1])
                b.append(dot(row, [F(v) for v in x0]) + shift)
            lp = model.make_lp(A, b, [1] * n)
            half = [F(2 * v + rng.choice([-1, 1]), 2) for v in x0]
            points = [
                x0,
                [float(v) for v in x0],
                [F(v) for v in x0],
                [float(v) for v in half],
                half,
                [F(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(n)],
            ]
            for point in points:
                ref = _reference_excess(lp, point)
                assert lp.feasible(point) == all(e <= 0 for e in ref)
                assert lp.tight_rows(point) == [i for i, e in enumerate(ref) if e == 0]
                for e in ref:
                    kinds["tight" if e == 0 else "inside" if e < 0 else "outside"] += 1
        assert min(kinds.values()) > 100
