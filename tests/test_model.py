import math
import random
from fractions import Fraction

import pytest
import reference
from boxing import box, boxed_and_form, lead_rows, radius

from shadow_simplex import linalg, metrics, model, oracle, walk
from shadow_simplex.model import (
    BasicSolution,
    LPFormatError,
    LPModelError,
    ObjectiveEscapesSpan,
    RankRaised,
    UnboundedCertificate,
    parse_lp,
    serialize_lp,
)
from shadow_simplex.rational import dot, norm_sq, unit_scale

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
        assert not (lp.box_rows or lp.synthetic_rows)

    def test_empty_objective(self):
        with pytest.raises(LPFormatError):
            parse_lp("maximize\nst\n1 <= 1\n")

    def test_dimension_mismatch(self):
        with pytest.raises(LPFormatError) as e:
            parse_lp("maximize 1 0\nst\n1 2 3 <= 4\n")
        assert "3" in str(e.value)

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


class TestRankRaising:
    def test_delta_complement_rows(self):
        lp = model.make_lp([[1, 0]], [1], [1, 0])
        res = model.raise_rank_delta(lp)
        assert isinstance(res, RankRaised)
        ext = res.lp
        assert linalg.rank(ext.rows()) == 2
        assert ext.m == 3 and len(ext.synthetic_rows) == 2
        for i in ext.synthetic_rows:
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
                v = metrics.delta_sq_angle_definition(sub)
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
        boxed = box(lp)
        assert len(boxed.box_rows) == 4
        for v in oracle.enumerate_vertices(lp).vertices:
            for i in boxed.box_rows:
                assert dot(boxed.row(i), list(v.point)) < boxed.b[i]

    def test_boxing_a_boxed_lp_marks_only_its_own_rows(self):
        boxed = box(square_lp())
        again = box(boxed)
        assert again.box_rows == frozenset(range(boxed.m, again.m))

    def test_radius_exceeds_vertex_norms(self):
        lp = square_lp()
        r = radius(lp)
        for v in oracle.enumerate_vertices(lp).vertices:
            assert norm_sq(list(v.point)) < r * r

    def test_unbounded_polytope_gets_box(self):
        lp = model.make_lp([[1, 0], [0, 1]], [1, 1], [1, 1])
        boxed = box(lp)
        assert boxed.m == 6 and len(boxed.box_rows) == 4
        vs = oracle.enumerate_vertices(boxed)
        assert len(vs) > 1  # box closed the polyhedron

    def test_radius_matches_the_entry_lcm_formula(self):
        # lcm(A) read off the factors' numerators is the lcm of every entry's
        # denominator: the radius is the Fraction formula's exactly
        rng = random.Random(23)
        for _ in range(80):
            n = rng.randint(1, 4)
            rows = [[F(rng.randint(-6, 6), rng.randint(1, 9)) for _ in range(n)] for _ in range(n + 2)]
            rows = [row for row in rows if any(row)]
            lp = model.make_lp(rows, [F(rng.randint(-5, 5), rng.randint(1, 9)) for _ in rows], [1] * n)
            assert radius(lp) == reference.box_radius(lp)

    def test_rank_deficient_rejected(self):
        lp = model.make_lp([[1, 0]], [1], [1, 0])
        with pytest.raises(LPModelError):
            boxed_and_form(lp)

    def test_box_rows_are_the_unit_norm_half_spaces(self):
        # +-a_i x <= r / t_i is the half-space +-t_i a_i x <= r: the tableau,
        # which walks primitive integer rows, cannot tell them apart
        lp = model.make_lp([[3, 4], [-1, 0], [0, -1]], [12, 0, 0], [1, 1])
        boxed = box(lp)
        r = radius(lp)
        A, b = lp.rows(), list(lp.b)
        for i in lead_rows(lp):
            t = unit_scale(lp.row(i))
            for sign in (1, -1):
                A.append([sign * t * x for x in lp.row(i)])
                b.append(r)
        ref = model.make_lp(A, b, lp.c0)
        start = BasicSolution(point=(F(0), F(0)), basis=(1, 2))
        got = walk.Tableau(model.integer_form(boxed), start)
        want = walk.Tableau(model.integer_form(ref), start)
        assert (got.R, got.beta, got.s) == (want.R, want.beta, want.s)
        assert boxed.A[3] == (3, 4) and boxed.b[3] == 5 * r

    def test_box_form_is_the_boxed_lps_integer_form(self):
        # the box rows +-R_i and their rhs come from the solve's one form of
        # the rows, exactly as the boxed LP's own integer form gives them;
        # rational, duplicated and parallel rows give factors other than 1
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
            boxed, form = boxed_and_form(lp)
            assert boxed == box(lp)
            assert form == model.integer_form(boxed)

    def test_integer_box_matches_the_fraction_box(self):
        # the encoding bits, the radius and every box rhs, formed from
        # integers, against their Fraction forms; the boxed LP against its
        # make_lp construction.  Short LPs give enc - n^2 - 64 < 0, a
        # power-of-two denominator in r; long ones an integer r.  Rational
        # entries give lcm(A) > 1, integer ones rows whose factor is 1.
        rng = random.Random(41)
        seen = set()
        for trial in range(120):
            n = rng.randint(1, 4)
            rational, long = trial % 2, trial % 4 > 1
            hi = rng.choice([1, 3])

            def entry():
                if rational:
                    return F(rng.randint(-6, 6), rng.randint(1, 9))
                return F(rng.randint(-hi, hi))

            k = n + (rng.randint(30, 40) if long else rng.randint(0, 3))
            rows = [r for r in ([entry() for _ in range(n)] for _ in range(k)) if any(r)]
            if len(rows) < n:
                continue
            lp = model.make_lp(rows, [entry() for _ in rows], [1] * n)
            if linalg.rank(lp.rows()) < n:
                continue
            form = model.integer_form(lp)
            enc = model.encoding_bits(lp, form)
            assert enc == reference.encoding_bits(lp)
            assert model.box_radius(form, enc) == reference.box_radius(lp)
            boxed, boxed_form = model.bound_polytope(lp, lead_rows(lp), form, enc)
            assert boxed == reference.bound_polytope(lp, lead_rows(lp))
            assert boxed_form == model.integer_form(boxed)
            lcm_A = math.lcm(*(x.denominator for row in lp.A for x in row))
            seen.add((enc - n * n - 64 < 0, lcm_A > 1))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}


def on(lp, vertex):
    """A tableau on lp's integer form standing on vertex."""
    return walk.Tableau(model.integer_form(lp), BasicSolution(vertex.point, vertex.basis))


class TestBoxTightAssert:
    def test_interior_optimum_bounded(self):
        lp = box(square_lp())
        bs = model.move_to_vertex(lp, [F(1), F(1)])
        assert model.assert_unbounded_if_box_tight(on(lp, bs), lp) == model.BOUNDED

    def test_genuinely_unbounded(self):
        # maximize x subject to x >= 0
        lp = box(model.make_lp([[-1]], [0], [1]))
        vs = oracle.enumerate_vertices(lp).vertices
        top = max(vs, key=lambda v: v.point[0])
        got = model.assert_unbounded_if_box_tight(on(lp, top), lp)
        assert isinstance(got, UnboundedCertificate)
        assert got.ray[0] > 0

    def test_box_tight_tie_without_ray_is_bounded(self):
        # maximize x1 with x1 <= 1, x2 <= 0: the optimal face is unbounded,
        # so a box corner ties with the true optimum; the ray test must
        # override the box-tightness signal
        lp = box(model.make_lp([[1, 0], [0, 1]], [1, 0], [1, 0]))
        corner = None
        for v in oracle.enumerate_vertices(lp).vertices:
            if v.point[0] == 1 and any(i in lp.box_rows for i in lp.tight_rows(v.point)):
                corner = v
                break
        assert corner is not None
        assert model.assert_unbounded_if_box_tight(on(lp, corner), lp) == model.BOUNDED


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
