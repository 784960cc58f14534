import random
from fractions import Fraction
from operator import mul

import numpy as np
import pytest
import reference
from float_orthonormal import complete_orthonormal
from reference import (
    det_fraction,
    echelon_fraction,
    nullspace_fraction,
    nullspace_vector,
    project_out,
    ratsqrt_ceil,
)

from shadow_simplex import harness, linalg, model
from shadow_simplex.linalg import LinAlgError
from shadow_simplex.metrics import MetricsError, inv_delta_sq_of_rows
from shadow_simplex.rational import (
    SMALL_INTEGRAL,
    dot,
    norm_sq,
    primitive_int_row,
    unit_scale,
)


def F(*args):
    return Fraction(*args)


def mat(rows):
    return [[Fraction(x) for x in r] for r in rows]


class TestRationalHelpers:
    def test_ratsqrt_brackets(self):
        for v in [F(2), F(3, 7), F(10**12), F(1, 10**12)]:
            hi = ratsqrt_ceil(v)
            assert v <= hi * hi < v * (1 + F(1, 10**15))

    def test_unit_scale_floor_and_close(self):
        rng = random.Random(0)
        for _ in range(200):
            v = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)]
            if all(x == 0 for x in v):
                continue
            t = unit_scale(v)
            s = norm_sq([t * x for x in v])
            assert s <= 1
            assert abs(float(s) - 1.0) < 1e-15

    def test_unit_scale_exact_when_rational_norm(self):
        t = unit_scale([F(3), F(4)])
        assert t == F(1, 5)

    def test_unit_scale_large_magnitude(self):
        v = [F(2**200), F(3**100)]
        t = unit_scale(v)
        assert abs(float(norm_sq([t * x for x in v])) - 1.0) < 1e-15

    def test_primitive_int_row(self):
        ints, f = primitive_int_row([F(2, 3), F(-4, 3)])
        assert ints == [1, -2] and f == F(3, 2)
        ints, f = primitive_int_row([F(6), F(9)])
        assert ints == [2, 3] and f == F(1, 3)


class TestDot:
    """`rational.dot`'s one integer sum equals the Fraction sum of
    tests/reference.py."""

    @staticmethod
    def entry(rng):
        kind = rng.random()
        if kind < 0.25:
            return rng.randint(-5, 5)
        if kind < 0.5:
            return F(rng.randint(-5, 5))
        if kind < 0.75:
            return F(rng.randint(-9, 9), rng.randint(1, 12))
        big = 10 ** rng.randint(1, 30)
        return F(rng.randint(-big, big), rng.randint(1, big))

    def test_matches_the_fraction_sum(self):
        # ints, integral and rational Fractions, large denominators, zeros,
        # negatives and the empty vector, mixed in one vector
        rng = random.Random(71)
        for _ in range(3000):
            n = rng.randint(0, 9)
            u = [self.entry(rng) for _ in range(n)]
            v = [self.entry(rng) for _ in range(n)]
            got = dot(u, v)
            assert type(got) is Fraction and got == reference.dot(u, v)
            assert norm_sq(u) == reference.dot(u, u)
        assert dot([], []) == 0

    def test_integral_rows(self):
        # TU rows against integer points, as the pools' interior checks
        rng = random.Random(72)
        for _ in range(500):
            u = [F(rng.choice((-1, 0, 0, 1))) for _ in range(8)]
            x = [rng.choice((F(rng.randint(-2, 2)), rng.randint(-2, 2))) for _ in range(8)]
            assert dot(u, x) == reference.dot(u, x)

    def test_small_integral_results_are_shared(self):
        rng = random.Random(73)
        for _ in range(500):
            u = [F(rng.randint(-9, 9), rng.choice((1, 2, 4))) for _ in range(4)]
            v = [F(rng.randint(-9, 9), rng.choice((1, 2))) * 4 for _ in range(4)]
            got = dot(u, v)
            if got.denominator == 1 and abs(got) <= 256:
                assert got is SMALL_INTEGRAL[got.numerator + 256]
        assert dot([F(1, 3)] * 3, [F(3)] * 3) is SMALL_INTEGRAL[259]
        assert dot([], []) is SMALL_INTEGRAL[256]


def solve(M, rhs):
    """x = adj(M) rhs / det(M) from `linalg.invert`, the way the oracle
    solves for a vertex."""
    adj, d = linalg.invert(M)
    return [F(sum(a * v for a, v in zip(row, rhs)), d) for row in adj]


class TestSolveSquare:
    # square systems solve on invert's (adj, det), as the oracle solves them
    def test_identity(self):
        eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert linalg.invert(eye) == (eye, 1)
        assert solve(eye, [1, 2, 3]) == [1, 2, 3]

    def test_singular(self):
        with pytest.raises(LinAlgError):
            linalg.invert([[1, 1], [1, 1]])

    def test_hand_checked(self):
        # [[2,1],[1,3]] x = (5,10): elimination by hand gives (1, 3), over
        # adj = [[3,-1],[-1,2]] and det 5
        assert linalg.invert([[2, 1], [1, 3]]) == ([[3, -1], [-1, 2]], 5)
        assert solve([[2, 1], [1, 3]], [5, 10]) == [1, 3]

    def test_exact_zero_residual(self):
        # and the Fraction Gauss-Jordan solve gives the same x
        rng = random.Random(3)
        solved = 0
        for _ in range(50):
            n = rng.randint(1, 5)
            M = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            rhs = [rng.randint(-5, 5) for _ in range(n)]
            try:
                x = solve(M, rhs)
            except LinAlgError:
                with pytest.raises(LinAlgError):
                    reference.solve_square(mat(M), [F(v) for v in rhs])
                continue
            for i in range(n):
                assert dot(M[i], x) == rhs[i]
            assert x == reference.solve_square(mat(M), [F(v) for v in rhs])
            solved += 1
        assert solved >= 30

    def test_one_pass_solve_matches_invert(self):
        # solve_adj eliminates [M | r] once: its (adj M r, det M) is invert's
        # adjugate times r and its det, and None where invert raises
        rng = random.Random(12)
        solved = singular = 0
        for k in range(120):
            n = rng.randint(1, 5)
            span = 1 if k % 2 else 4  # 0/+-1 matrices make -1 pivots and singular ones
            M = [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)]
            r = [rng.randint(-5, 5) for _ in range(n)]
            got = linalg.solve_adj(M, r)
            try:
                adj, d = linalg.invert(M)
            except LinAlgError:
                assert got is None
                singular += 1
                continue
            assert got == ([sum(map(mul, row, r)) for row in adj], d)
            solved += 1
        assert solved >= 50 and singular >= 10, (solved, singular)


class TestInverseColumns:
    # the columns of M^-1 are invert's adj[:, k] / det, and 1/delta^2 is
    # read off them (`metrics.inv_delta_sq_of_rows`)
    def test_identity(self):
        assert linalg.invert([[1, 0], [0, 1]]) == ([[1, 0], [0, 1]], 1)
        assert inv_delta_sq_of_rows([[1, 0], [0, 1]]) == 1

    def test_singular(self):
        with pytest.raises(LinAlgError):
            linalg.invert([[1, 1], [2, 2]])
        with pytest.raises(MetricsError):
            inv_delta_sq_of_rows(mat([[1, 1], [2, 2]]))

    def test_inverse_property(self):
        rng = random.Random(9)
        inverted = 0
        for _ in range(30):
            n = rng.randint(1, 5)
            M = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            try:
                adj, d = linalg.invert(M)
            except LinAlgError:
                with pytest.raises(MetricsError):
                    inv_delta_sq_of_rows(M)
                continue
            cols = [[F(x, d) for x in col] for col in zip(*adj)]
            for i in range(n):
                for j in range(n):
                    got = sum(M[i][k] * cols[j][k] for k in range(n))
                    assert got == (1 if i == j else 0)
            assert cols == reference.inverse_columns(mat(M))
            assert inv_delta_sq_of_rows(M) == reference.inv_delta_sq_of_rows(mat(M))
            inverted += 1
        assert inverted >= 15


class TestDeterminants:
    def test_int_det_matches_fraction_det(self):
        rng = random.Random(4)
        for _ in range(60):
            n = rng.randint(1, 5)
            M = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            det = det_fraction(mat(M))
            if det == 0:
                with pytest.raises(LinAlgError):
                    linalg.invert(M)
            else:
                assert linalg.invert(M)[1] == det

    def test_invert_gives_adjugate_and_det(self):
        # one Bareiss pass: M adj M = det M I in integers, det as the
        # Fraction reference computes it, and a singular M rejected
        rng = random.Random(6)
        singular = 0
        for _ in range(80):
            n = rng.randint(1, 5)
            M = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            det = det_fraction(mat(M))
            if det == 0:
                singular += 1
                with pytest.raises(LinAlgError):
                    linalg.invert(M)
                continue
            adj, d = linalg.invert(M)
            assert d == det
            for i in range(n):
                for j in range(n):
                    got = sum(M[i][k] * adj[k][j] for k in range(n))
                    assert type(got) is int and got == (d if i == j else 0)
        assert singular > 0

    def test_zero_skipping_kernels_match_fraction_gauss_jordan(self):
        # Bareiss leaves a row whose multiplier is 0 alone when the pivot
        # equals the previous one, and only rescales it otherwise: on sparse
        # 0/+-1 matrices, where most multipliers are 0 and most pivots are
        # units, on dense ones and on singular ones, invert agrees with
        # Gauss-Jordan in Fractions
        rng = random.Random(19)
        seen = dict.fromkeys(("sparse", "dense", "singular"), 0)
        for k in range(300):
            n = rng.randint(1, 6)
            kind = ("sparse", "dense", "singular")[k % 3]
            if kind == "sparse":
                # a +-1 diagonal under rows in shuffled order
                M = [[rng.choice([0, 0, 0, 1, -1]) for _ in range(n)] for _ in range(n)]
                for i in range(n):
                    M[i][i] = rng.choice([-1, 1])
                rng.shuffle(M)
            else:
                M = [[rng.choice([-1, 1]) * rng.randint(1, 9) for _ in range(n)] for _ in range(n)]
            if kind == "singular":
                i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
                t = rng.randint(-2, 2)
                M[i] = [t * x for x in M[j]] if i != j else [0] * n
            det = det_fraction(mat(M))
            if det == 0:
                assert kind != "dense" or n > 1
                with pytest.raises(LinAlgError):
                    linalg.invert(M)
                seen["singular"] += 1
                continue
            seen[kind] += 1
            adj, d = linalg.invert(M)
            cols = reference.inverse_columns(mat(M))
            assert d == det and [[F(x, d) for x in row] for row in adj] == [list(r) for r in zip(*cols)]
        assert min(seen.values()) >= 40, seen

    def test_signed_tu_bases_take_the_unit_path(self, monkeypatch):
        # bases of the three TU generators' rows, each row negated at random
        # and the rows shuffled, so that -1 pivots follow +1 ones: invert
        # agrees with Gauss-Jordan in Fractions, and every pivot made
        # positive is 1, so each row with a nonzero multiplier is updated by
        # subtracting or adding the pivot row, elementwise at C speed
        unit = [0]

        def counted(op):
            def wrapper(x, y):
                unit[0] += 1
                return op(x, y)

            return wrapper

        monkeypatch.setattr(linalg, "sub", counted(linalg.sub))
        monkeypatch.setattr(linalg, "add", counted(linalg.add))
        rng = random.Random(32)
        seen = dict.fromkeys(("tu-incidence", "interval-matrix", "network-matrix"), 0)
        negative_after_positive = updates = 0
        for seed in range(240):
            kind = list(seen)[seed % 3]
            n = rng.randint(2, 6)
            rows = model.integer_form(harness.generate_tu_instance(kind, 2 * n, n, seed)).R
            M = [row if rng.random() < 0.5 else [-x for x in row] for row in rng.sample(rows, n)]
            det = det_fraction(mat(M))
            if det == 0:
                continue
            pivots, want = reference.gauss_jordan_steps(M)
            assert set(pivots) <= {-1, 1} and det in (-1, 1)
            unit[0] = 0
            adj, d = linalg.invert(M)
            cols = reference.inverse_columns(mat(M))
            assert d == det and [[F(x, d) for x in row] for row in adj] == [list(r) for r in zip(*cols)]
            assert unit[0] == 2 * n * want
            seen[kind] += 1
            updates += want
            first = pivots.index(1) if 1 in pivots else n
            negative_after_positive += -1 in pivots[first:]
        assert min(seen.values()) >= 20 and negative_after_positive >= 30, seen
        assert updates > 150, updates


class TestCompleteOrthonormal:
    def test_e1_gives_identity(self):
        Q = complete_orthonormal(np.array([1.0, 0.0, 0.0]))
        assert np.allclose(Q, np.eye(3))

    def test_e2_maps_to_e1(self):
        Q = complete_orthonormal(np.array([0.0, 1.0]))
        assert np.allclose(Q @ np.array([0.0, 1.0]), np.array([1.0, 0.0]), atol=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            complete_orthonormal(np.zeros(3))

    def test_random_unit_vectors(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(1, 21))
            v = rng.normal(size=n)
            v /= np.linalg.norm(v)
            Q = complete_orthonormal(v)
            assert np.abs(Q.T @ Q - np.eye(n)).max() <= 1e-10
            e1 = np.zeros(n)
            e1[0] = 1.0
            assert np.abs(Q @ v - e1).max() <= 1e-10


def complement(rows, n):
    """The +o_k rows of the delta-preserving rank completion of rows
    (`model.extend_to_full_rank_delta`, the rows `model.complete_rank`
    appends to a non-integral LP), each of which is followed by -o_k."""
    lp = model.make_lp(rows, [0] * len(rows), [0] * n)
    added = model.extend_to_full_rank_delta(lp).rows()[lp.m :]
    assert added[1::2] == [[-x for x in o] for o in added[::2]]
    return added[::2]


class TestComplements:
    def test_single_row_in_r3(self):
        out = complement(mat([[1, 0, 0]]), 3)
        assert len(out) == 2
        for v in out:
            assert v[0] == 0

    def test_full_span_empty(self):
        form = model.integer_form(model.make_lp([[1, 0], [0, 1]], [0, 0], [0, 0]))
        assert model.complete_rank(form, [0, 1]) == (form, [0, 1])
        with pytest.raises(model.LPModelError):
            complement(mat([[1, 0], [0, 1]]), 2)

    def test_oblique_row(self):
        out = complement(mat([[1, 1, 0]]), 3)
        assert len(out) == 2
        for v in out:
            assert dot(v, mat([[1, 1, 0]])[0]) == 0

    def test_exact_complement(self):
        # the complement rows are exactly orthogonal to every row and to
        # each other, and of unit norm from below within 1e-15
        rng = random.Random(11)
        done = 0
        for _ in range(40):
            n = rng.randint(2, 6)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, n))]
            rows = mat([r for r in rows if any(r)])
            if not rows or linalg.rank(rows) == n:
                continue
            out = complement(rows, n)
            assert len(out) == n - linalg.rank(rows)
            for k, v in enumerate(out):
                for r in rows + out[:k]:
                    assert dot(v, r) == 0
                assert abs(float(norm_sq(v)) - 1.0) < 1e-15
            done += 1
        assert done >= 20


def null_vector(rows, n):
    """`linalg.back_substitute`'s null-space vector of the echelon rows, as
    Fractions, or None if the rows have full rank."""
    got = linalg.back_substitute(*linalg.echelon(rows)[1:], n)
    return got and [Fraction(v, got[1]) for v in got[0]]


class TestNullspace:
    def test_nullspace_vector(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(1, 5)
            k = rng.randint(0, n)
            rows = mat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)])
            v = null_vector(rows, n)
            if v is None:
                assert linalg.rank(rows) == n
            else:
                assert any(x != 0 for x in v)
                for r in rows:
                    assert dot(r, v) == 0


def awkward_rows(rng, n):
    """Random rows with non-integral entries, duplicates, scaled copies and
    combinations of earlier rows, which reduce to zero."""
    rows = []
    for _ in range(rng.randint(1, 2 * n + 2)):
        kind = rng.random()
        if rows and kind < 0.2:
            rows.append(list(rng.choice(rows)))
        elif rows and kind < 0.4:
            k = Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
            rows.append([k * x for x in rng.choice(rows)])
        elif len(rows) > 1 and kind < 0.6:
            a, b = rng.sample(rows, 2)
            s, t = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(1, 3))
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append([Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3, 7])) for _ in range(n)])
    return rows


class TestIntegerEchelon:
    def test_matches_fraction_elimination(self):
        rng = random.Random(29)
        dependent = 0
        for _ in range(200):
            n = rng.randint(1, 6)
            rows = awkward_rows(rng, n)
            chosen = linalg.independent_rows(rows)
            assert chosen == echelon_fraction(rows)[0]
            assert null_vector(rows, n) == nullspace_fraction(rows, n)
            dependent += len(chosen) < len(rows)
        assert dependent > 100

    def test_zero_and_duplicate_rows_skipped(self):
        rows = mat([[0, 0, 0], [1, 2, 3], [2, 4, 6], [F(1, 2), 1, F(3, 2)], [0, 1, 0]])
        assert linalg.independent_rows(rows) == [1, 4]
        assert null_vector(rows, 3) == [F(-3), F(0), F(1)]

    def test_integer_rows_accepted(self):
        assert linalg.independent_rows([[2, 4], [1, 2], [0, 3]]) == [0, 2]

    def test_integer_back_substitution_matches_the_fraction_one(self):
        # rank-deficient row sets: the integer back-substitution over one
        # denominator gives the Fraction back-substitution's vector, from
        # the Fraction rows and from their integer rows, primitive or not
        rng = random.Random(37)
        for _ in range(200):
            n = rng.randint(1, 6)
            rows = awkward_rows(rng, n)[: rng.randint(0, n - 1)]
            for _ in range(rng.randint(0, 3) if rows else 0):
                k = Fraction(rng.choice([-2, -1, 3]), rng.randint(1, 3))
                rows.append([k * x for x in rng.choice(rows)])
            rng.shuffle(rows)
            want = nullspace_vector(rows, n)
            assert want is not None and any(want)
            nums, den = linalg.back_substitute(*linalg.echelon(rows)[1:], n)
            assert den > 0 and [Fraction(v, den) for v in nums] == want
            ks = [rng.choice([1, 2, -3]) for _ in rows]
            ints = [[k * x for x in primitive_int_row(r)[0]] for k, r in zip(ks, rows)]
            assert null_vector(ints, n) == want
            assert linalg.independent_rows(ints) == linalg.independent_rows(rows)

    def test_complement_basis_int_takes_integer_rows(self):
        # integer rows, scaled and signed at random, give the basis their
        # Fraction forms gave when the function reduced them to primitive rows
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randint(1, 6)
            rows = [r for r in awkward_rows(rng, n) if any(r)][: n + 1]
            scales = [rng.choice([-3, -1, 1, 2]) for _ in rows]
            ints = [[k * x for x in primitive_int_row(r)[0]] for k, r in zip(scales, rows)]
            prims = [primitive_int_row(mat([r])[0])[0] for r in ints]
            out = linalg.complement_basis_int(ints, n)
            assert out == linalg.complement_basis_int(prims, n)
            assert len(out) == n - linalg.rank(rows)
            for v in out:
                assert all(sum(a * b for a, b in zip(r, v)) == 0 for r in ints)


class TestObjectiveEscape:
    def test_integer_projection_matches_fraction_gram_schmidt(self):
        # seeded rank-deficient LPs, with integer rows and with rational
        # rows, each with a duplicated row; c0 in the row span or not
        rng = random.Random(37)
        escapes = in_span = 0
        for trial in range(400):
            n = rng.randint(2, 6)
            dens = [1, 2, 3, 7] if trial % 2 else [1]
            rows = [
                [F(rng.randint(-4, 4), rng.choice(dens)) for _ in range(n)]
                for _ in range(rng.randint(1, n - 1))
            ]
            if any(not any(r) for r in rows):
                continue
            rows.append(list(rng.choice(rows)))
            rng.shuffle(rows)
            if rng.random() < 0.3:
                coef = [rng.randint(-2, 2) for _ in rows]
                c0 = [sum(k * r[j] for k, r in zip(coef, rows)) for j in range(n)]
            else:
                c0 = [F(rng.randint(-4, 4), rng.choice(dens)) for _ in range(n)]
            want = project_out(c0, rows)
            lp = model.make_lp(rows, [1] * len(rows), c0)
            form = model.integer_form(lp)
            assert linalg._project_out(c0, form.R) == want
            # from the rank pass's rows, as the solve passes them, and from
            # every row: any spanning set gives the same escape
            lead = [form.R[i] for i in linalg.independent_rows(form.R)]
            got = model._objective_escape(lp.c0, lead)
            assert got == (want if any(want) else None)
            assert model._objective_escape(lp.c0, form.R) == got
            escapes += got is not None
            in_span += got is None
        assert escapes > 250 and in_span > 100
