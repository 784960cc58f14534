import random
from fractions import Fraction
from itertools import combinations
from math import isclose, sqrt

import numpy as np
import pytest
from float_orthonormal import complete_orthonormal
from reference import delta_of_rows, delta_sq_angle_definition, det_fraction

from shadow_simplex import linalg, metrics
from shadow_simplex.metrics import (
    MetricsError,
    delta_matrix,
    inv_delta_sq_of_rows,
    max_subdeterminant,
)

F = Fraction


def rows_of(*rs):
    return [[F(x) for x in r] for r in rs]


class TestDeltaOfRows:
    def test_orthonormal(self):
        assert delta_of_rows(rows_of((1, 0), (0, 1))) == 1.0

    def test_45_degrees(self):
        # distance from the normalized (1,1) to span{e1} is sin(pi/4)
        got = inv_delta_sq_of_rows(rows_of((1, 0), (1, 1)))
        assert got == 2  # 1/delta^2 = 2  =>  delta = sqrt(2)/2
        assert isclose(delta_of_rows(rows_of((1, 0), (1, 1))), sqrt(2) / 2, rel_tol=1e-12)

    def test_dependent_rows(self):
        with pytest.raises(MetricsError):
            delta_of_rows(rows_of((1, 0), (1, 0)))

    def test_matches_angle_definition(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(1, 4)
            rows = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            try:
                inv = inv_delta_sq_of_rows(rows)
            except MetricsError:
                continue
            angle = delta_sq_angle_definition(rows)
            assert angle == 1 / inv  # both exact rationals

    def test_scaling_rows_is_exactly_invariant(self):
        rng = random.Random(8)
        for _ in range(30):
            n = rng.randint(1, 4)
            rows = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            try:
                base = inv_delta_sq_of_rows(rows)
            except MetricsError:
                continue
            scaled = []
            for row in rows:
                f = F(rng.randint(1, 9), rng.randint(1, 9))
                scaled.append([f * x for x in row])
            assert inv_delta_sq_of_rows(scaled) == base


class TestDeltaMatrix:
    def test_identity(self):
        rep = delta_matrix(rows_of((1, 0), (0, 1)))
        assert rep.delta == 1.0 and rep.inv_delta_sq == 1

    def test_unit_square_rows(self):
        rep = delta_matrix(rows_of((1, 0), (-1, 0), (0, 1), (0, -1)))
        assert rep.delta == 1.0

    def test_matches_projection_oracle(self):
        rng = random.Random(11)
        done = 0
        while done < 25:
            m, n = 5, 3
            A = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)]
            A = [r for r in A if any(x != 0 for x in r)]
            if len(A) < n or linalg.rank(A) < n:
                continue
            rep = delta_matrix(A)
            best = None
            for S in combinations(range(len(A)), n):
                sub = [A[i] for i in S]
                if linalg.rank(sub) < n:
                    continue
                v = delta_sq_angle_definition(sub)
                if best is None or v < best:
                    best = v
            assert abs(rep.delta - sqrt(float(best))) <= 1e-9
            done += 1

    def test_witness_attains_minimum(self):
        rep = delta_matrix(rows_of((1, 0), (1, 1), (0, 1)))
        assert inv_delta_sq_of_rows(rows_of((1, 0), (1, 1))) == rep.inv_delta_sq
        sub = [rows_of((1, 0), (1, 1), (0, 1))[i] for i in rep.witness_rows]
        assert inv_delta_sq_of_rows(sub) == rep.inv_delta_sq

    def test_rank_deficient_rejected(self):
        with pytest.raises(MetricsError):
            delta_matrix(rows_of((1, 0), (2, 0)))

    def test_orthogonal_invariance(self):
        # the invariance claim is about independent row tuples; the float
        # rotation is rationalized exactly (floats are dyadic rationals) so
        # only its 1e-15 deviation from orthogonality enters the comparison
        rng = np.random.default_rng(3)
        rnd = random.Random(4)
        done = 0
        while done < 25:
            n = rnd.randint(2, 4)
            rows = [[F(rnd.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
            try:
                base = delta_of_rows(rows)
            except MetricsError:
                continue
            v = rng.normal(size=n)
            v /= np.linalg.norm(v)
            Q = complete_orthonormal(v)
            rotated = [
                [F(float(sum(float(rows[i][k]) * Q[k][j] for k in range(n)))) for j in range(n)]
                for i in range(n)
            ]
            assert abs(delta_of_rows(rotated) - base) <= 1e-9
            done += 1


class TestSubdeterminants:
    def test_identity(self):
        assert max_subdeterminant([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1

    def test_two_by_two(self):
        # minors by hand: entries give 1; the full det is 1*1 - 1*(-1) = 2
        assert max_subdeterminant([[1, 1], [-1, 1]]) == 2

    def test_path_graph_incidence_is_tu(self):
        # edges of a 4-node path: rows e_i - e_{i+1}
        A = [[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1]]
        assert max_subdeterminant(A) == 1

    def test_rejects_rationals(self):
        with pytest.raises(MetricsError):
            metrics.subdeterminant_profile([[F(1, 2)]])

    def test_profile_matches_direct_enumeration(self):
        rng = random.Random(17)
        for _ in range(10):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            A = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
            prof = metrics.subdeterminant_profile(A)
            for k in range(1, min(m, n) + 1):
                best = 0
                for ri in combinations(range(m), k):
                    for ci in combinations(range(n), k):
                        sub = [[F(A[i][j]) for j in ci] for i in ri]
                        best = max(best, abs(det_fraction(sub)))
                assert prof[k] == best


class TestBounds:
    def test_identity_bound(self):
        rep = delta_matrix(rows_of((1, 0), (0, 1)))
        assert rep.bound_nDeltaSq_ok is True  # 1/delta = 1 <= 2

    def test_tu_bound_n4(self):
        # any TU matrix with Delta = 1 must have delta >= 1/n
        A = [[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1], [1, 0, 0, -1], [1, 0, 0, 0],
             [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        rep = delta_matrix(rows_of(*A))
        assert rep.Delta == 1
        assert rep.bound_nDeltaSq_ok is True
        assert rep.inv_delta_sq <= 16  # 1/delta <= n = 4

    def test_random_integral_bounds_hold_exactly(self):
        rng = random.Random(29)
        done = 0
        while done < 100:
            m, n = 4, 3
            A = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
            A = [r for r in A if any(x != 0 for x in r)]
            if len(A) < n or linalg.rank(A) < n:
                continue
            rep = delta_matrix(A)
            assert rep.bound_nDeltaSq_ok is True
            assert rep.bound_tight_ok is True
            done += 1

    def test_requires_integral_report(self):
        # Delta is defined on integral matrices only, so no bound is decided
        rep = delta_matrix(rows_of((F(1, 2), 0), (0, 1)))
        assert rep.Delta is None and rep.bound_nDeltaSq_ok is None
