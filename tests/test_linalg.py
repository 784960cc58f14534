import random
from fractions import Fraction

import numpy as np
import pytest
from float_orthonormal import complete_orthonormal
from reference import det_fraction, nullspace_vector, project_out, ratsqrt_ceil

from shadow_simplex import linalg, model
from shadow_simplex.linalg import LinAlgError
from shadow_simplex.rational import (
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


class TestSolveSquare:
    def test_identity(self):
        sol = linalg.solve_square(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), [F(1), F(2), F(3)])
        assert sol == [1, 2, 3]

    def test_singular(self):
        with pytest.raises(LinAlgError):
            linalg.solve_square(mat([[1, 1], [1, 1]]), [F(1), F(2)])

    def test_hand_checked(self):
        # [[2,1],[1,3]] x = (5,10): elimination by hand gives (1, 3)
        sol = linalg.solve_square(mat([[2, 1], [1, 3]]), [F(5), F(10)])
        assert sol == [1, 3]

    def test_exact_zero_residual(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(1, 5)
            M = mat([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
            rhs = [F(rng.randint(-5, 5)) for _ in range(n)]
            try:
                x = linalg.solve_square(M, rhs)
            except LinAlgError:
                continue
            for i in range(n):
                assert dot(M[i], x) == rhs[i]


class TestInverseColumns:
    def test_identity(self):
        cols = linalg.inverse_columns(mat([[1, 0], [0, 1]]))
        assert cols == [[1, 0], [0, 1]]

    def test_singular(self):
        with pytest.raises(LinAlgError):
            linalg.inverse_columns(mat([[1, 1], [2, 2]]))

    def test_inverse_property(self):
        rng = random.Random(9)
        for _ in range(30):
            n = rng.randint(1, 5)
            M = mat([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            try:
                cols = linalg.inverse_columns(M)
            except LinAlgError:
                continue
            for i in range(n):
                for j in range(n):
                    got = sum(M[i][k] * cols[j][k] for k in range(n))
                    assert got == (1 if i == j else 0)


class TestDeterminants:
    def test_int_det_matches_fraction_det(self):
        rng = random.Random(4)
        for _ in range(60):
            n = rng.randint(1, 5)
            M = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            assert linalg.det_int(M) == det_fraction(mat(M))

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
        # units, on dense ones and on singular ones, invert and det_int agree
        # with Gauss-Jordan in Fractions
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
            assert linalg.det_int(M) == det
            if det == 0:
                assert kind != "dense" or n > 1
                with pytest.raises(LinAlgError):
                    linalg.invert(M)
                seen["singular"] += 1
                continue
            seen[kind] += 1
            adj, d = linalg.invert(M)
            cols = linalg.inverse_columns(mat(M))
            assert d == det and [[F(x, d) for x in row] for row in adj] == [list(r) for r in zip(*cols)]
        assert min(seen.values()) >= 40, seen


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


class TestNullspace:
    def test_nullspace_vector(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(1, 5)
            k = rng.randint(0, n)
            rows = mat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)])
            v = linalg.nullspace_vector(rows, n)
            if v is None:
                assert linalg.rank(rows) == n
            else:
                assert any(x != 0 for x in v)
                for r in rows:
                    assert dot(r, v) == 0


def echelon_fraction(rows):
    """The plain Fraction elimination the integer echelon pass is held
    against: greedy (ascending index), each echelon row normalized to a
    unit pivot; (chosen row indices, pivot columns, echelon rows)."""
    basis, pivots, chosen = [], [], []
    for idx, row in enumerate(rows):
        v = [Fraction(x) for x in row]
        for p, b in zip(pivots, basis):
            if v[p] != 0:
                f = v[p]
                v = [x - f * y for x, y in zip(v, b)]
        lead = next((j for j, x in enumerate(v) if x != 0), None)
        if lead is None:
            continue
        basis.append([x / v[lead] for x in v])
        pivots.append(lead)
        chosen.append(idx)
    return chosen, pivots, basis


def nullspace_fraction(rows, n):
    _, pivots, basis = echelon_fraction(rows)
    free = next((j for j in range(n) if j not in pivots), None)
    if free is None:
        return None
    x = [Fraction(0)] * n
    x[free] = Fraction(1)
    for p, b in sorted(zip(pivots, basis), reverse=True):
        x[p] = -sum((b[j] * x[j] for j in range(n) if j != p), Fraction(0))
    return x


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
            assert linalg.nullspace_vector(rows, n) == nullspace_fraction(rows, n)
            dependent += len(chosen) < len(rows)
        assert dependent > 100

    def test_zero_and_duplicate_rows_skipped(self):
        rows = mat([[0, 0, 0], [1, 2, 3], [2, 4, 6], [F(1, 2), 1, F(3, 2)], [0, 1, 0]])
        assert linalg.independent_rows(rows) == [1, 4]
        assert linalg.nullspace_vector(rows, 3) == [F(-3), F(0), F(1)]

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
            nums, den = linalg.nullspace_int(rows, n)
            assert den > 0 and [Fraction(v, den) for v in nums] == want
            assert linalg.nullspace_vector(rows, n) == want
            ks = [rng.choice([1, 2, -3]) for _ in rows]
            ints = [[k * x for x in primitive_int_row(r)[0]] for k, r in zip(ks, rows)]
            assert linalg.nullspace_vector(ints, n) == want
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
