import random
from fractions import Fraction

import pytest
import reference
from boxing import box

from shadow_simplex import linalg, metrics, model, oracle, phase1
from shadow_simplex.phase1 import (
    Phase1Error,
    build_phase1,
    extract_bfs,
    phase1_matrix,
)
from shadow_simplex.rational import dot, unit_scale

F = Fraction


def random_full_rank(rng, m, n, span=2):
    while True:
        A = [[F(rng.randint(-span, span)) for _ in range(n)] for _ in range(m)]
        A = [r for r in A if any(x != 0 for x in r)]
        if len(A) == m and linalg.rank(A) == n:
            return A


class TestConstruction:
    def test_block_shape(self):
        B = phase1_matrix([[F(1), F(2)], [F(3), F(4)], [F(5), F(6)]])
        assert len(B) == 6 and len(B[0]) == 5
        assert B[0][2:] == [-1, 0, 0]
        assert B[3][:2] == [0, 0] and B[3][2:] == [-1, 0, 0]

    def test_feasible_lp_gives_zero_slack_start(self):
        lp = model.make_lp([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0], [1, 1])
        p1 = build_phase1(lp)
        y = p1.initial.point[p1.orig_n:]
        assert all(v == 0 for v in y)
        # zero-slack start is already optimal for the auxiliary objective
        assert dot(list(p1.lp_prime.c0), list(p1.initial.point)) == 0

    def test_infeasible_example(self):
        # x <= 0 and -x <= -1 cannot hold together
        lp = model.make_lp([[1], [-1]], [0, -1], [1])
        p1 = build_phase1(lp)
        x_bar = p1.initial.point[0]
        assert x_bar == 0
        assert p1.initial.point[1:] == (0, 1)
        assert dot(list(p1.lp_prime.c0), list(p1.initial.point)) == -1

    def test_initial_tightness_count(self):
        rng = random.Random(3)
        for _ in range(25):
            m, n = rng.randint(1, 5), rng.randint(1, 3)
            if m < n:
                continue
            A = random_full_rank(rng, m, n)
            b = [F(rng.randint(-3, 3)) for _ in range(m)]
            lp = model.make_lp(A, b, [1] * n)
            p1 = build_phase1(lp)
            tight = p1.lp_prime.tight_rows(p1.initial.point)
            assert len(tight) >= m + n
            model.validate_basic_solution(p1.lp_prime, p1.initial)

    def test_rank_of_block_matrix(self):
        rng = random.Random(5)
        for _ in range(25):
            m, n = rng.randint(1, 5), rng.randint(1, 3)
            if m < n:
                continue
            A = random_full_rank(rng, m, n)
            B = phase1_matrix(A)
            assert linalg.rank(B) == m + n

    def test_rank_deficient_rejected(self):
        lp = model.make_lp([[1, 0]], [1], [1, 0])
        with pytest.raises(Phase1Error):
            build_phase1(lp)


class TestStructuralBounds:
    def test_Delta_preserved(self):
        rng = random.Random(7)
        done = 0
        while done < 30:
            m, n = rng.randint(1, 5), rng.randint(1, 3)
            if m < n:
                continue
            A_int = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
            A_int = [r for r in A_int if any(r)]
            if len(A_int) < m or linalg.rank([[F(x) for x in r] for r in A_int]) < n:
                continue
            B = phase1_matrix([[F(x) for x in r] for r in A_int])
            B_int = [[int(x) for x in r] for r in B]
            assert metrics.max_subdeterminant(B_int) == metrics.max_subdeterminant(A_int)
            done += 1

    def test_delta_lower_bound(self):
        rng = random.Random(11)
        done = 0
        while done < 20:
            m, n = rng.randint(1, 4), rng.randint(1, 2)
            if m < n:
                continue
            A = random_full_rank(rng, m, n)
            # the bound statement normalizes the rows of A first
            normed = []
            for row in A:
                t = unit_scale(row)
                normed.append([t * x for x in row])
            B = phase1_matrix(normed)
            dA = metrics.delta_matrix(normed)
            dB = metrics.delta_matrix(B)
            lhs = 1.0 / dB.delta
            rhs = 2.0 * (m - n + 1) ** 0.5 / dA.delta
            assert lhs <= rhs + 1e-9
            done += 1


class TestExtraction:
    def test_zero_slack_yields_vertex(self):
        lp = model.make_lp([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0], [1, 1])
        p1 = build_phase1(lp)
        sol = p1.initial  # already optimal: all slack zero
        assert reference.artificial_sum(sol, p1.orig_n) == 0
        got = extract_bfs(sol, model.integer_form(lp), p1)
        model.validate_basic_solution(lp, got)

    def test_positive_slack_is_infeasibility_certificate(self):
        lp = model.make_lp([[1], [-1]], [0, -1], [1])
        p1 = build_phase1(lp)
        # solve LP' by brute force to certify the positive optimum, whose
        # gap the solve reads off the face tableau: the crawl refuses it
        boxed = box(p1.lp_prime)
        ref = oracle.brute_force_optimum(boxed)
        assert ref.status == "optimal" and ref.value == -1
        sol = model.move_to_vertex(p1.lp_prime, list(ref.point))
        assert reference.artificial_sum(sol, p1.orig_n) == 1
        with pytest.raises(Phase1Error, match="nonzero slack sum"):
            extract_bfs(sol, model.integer_form(lp), p1)

    def test_extraction_drops_slack_rows_from_basis(self):
        # feasible instance where the LP' optimum needs crawling to stand on
        # n original rows
        rng = random.Random(19)
        done = 0
        while done < 15:
            m, n = rng.randint(2, 5), rng.randint(1, 3)
            if m < n:
                continue
            A = random_full_rank(rng, m, n)
            b = [F(rng.randint(0, 4)) for _ in range(m)]  # origin feasible
            lp = model.make_lp(A, b, [1] * n)
            p1 = build_phase1(lp)
            if reference.artificial_sum(p1.initial, p1.orig_n):
                continue
            got = extract_bfs(p1.initial, model.integer_form(lp), p1)
            assert len(got.basis) == n
            model.validate_basic_solution(lp, got)
            done += 1
