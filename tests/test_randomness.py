from fractions import Fraction

import pytest
from reference import pair, unit, values

from shadow_simplex import model, oracle, randomness
from shadow_simplex.randomness import (
    CONTINUOUS_BITS,
    UNDERLYING_BITS,
    DrawStream,
    RandomnessError,
    bit_budget,
    cone_objective,
    draw_lambda,
    perturb_objective,
)
from shadow_simplex.rational import dot, norm_sq, unit_scale

F = Fraction


def perturbed(pert):
    """(c, intervals) of a PerturbedObjective as Fractions."""
    d = pert.den
    return values((pert.c, d)), [(F(lo, d), F(hi, d)) for lo, hi in pert.intervals]


class TestDyadicDraws:
    def test_one_bit_support(self):
        vals = {unit(DrawStream(s), 1) for s in range(64)}
        assert vals <= {F(0), F(1, 2)}
        assert vals == {F(0), F(1, 2)}

    def test_seeded_determinism(self):
        a = [DrawStream(42).numerator(8) for _ in range(1)]
        b = [DrawStream(42).numerator(8) for _ in range(1)]
        assert a == b
        s1, s2 = DrawStream(9), DrawStream(9)
        assert [s1.numerator(16) for _ in range(20)] == [s2.numerator(16) for _ in range(20)]

    def test_mean_law_of_large_numbers(self):
        s = DrawStream(123)
        total = sum(unit(s, 16) for _ in range(10**5))
        assert abs(float(total) / 10**5 - 0.5) < 0.01

    def test_prefix_pairing_across_bit_counts(self):
        # draws with k and k' >= k bits share their top k bits for one seed
        a = [unit(DrawStream(5), 20) for _ in range(1)][0]
        b = [unit(DrawStream(5), 53) for _ in range(1)][0]
        assert a == F(int(b * 2**20), 2**20)

    def test_bit_accounting(self):
        s = DrawStream(0)
        s.numerator(10)
        s.numerator(20)
        assert s.bits_consumed == 30 and s.draws == 2

    def test_draws_past_the_underlying_bits(self):
        # a draw of k > 1024 bits is the 1024-bit underlying draw followed by
        # k - 1024 further low-order bits; narrower draws stay its truncations
        wide, narrow = DrawStream(8), DrawStream(8)
        j = wide.numerator(UNDERLYING_BITS + 100)
        assert 0 <= j < 1 << UNDERLYING_BITS + 100
        assert j >> 100 == narrow.numerator(UNDERLYING_BITS)
        assert unit(DrawStream(8), 20) == F(j >> UNDERLYING_BITS + 80, 2**20)
        assert wide.bits_consumed == UNDERLYING_BITS + 100 and wide.draws == 1
        # the extra bits come from the same generator, so later draws shift
        assert wide.numerator(64) != narrow.numerator(64)
        a, b = DrawStream(9), DrawStream(9)
        assert [a.numerator(3000) for _ in range(3)] == [b.numerator(3000) for _ in range(3)]

    def test_rejects_no_bits(self):
        with pytest.raises(RandomnessError):
            DrawStream(0).numerator(0)


class TestBitBudget:
    def test_tiny_case(self):
        assert bit_budget(2, 1, 1, 1) == 18

    def test_doubling_phi_adds_three_bits(self):
        base = bit_budget(8, 2, 4, F(1, 2))
        assert bit_budget(8, 2, 8, F(1, 2)) == base + 3

    def test_worked_example(self):
        # 6*2*log2(4) + 6*log2(2) + 3*log2(4) + 3*log2(2) + 12 = 24+6+6+3+12
        assert bit_budget(4, 2, 4, F(1, 2)) == 51

    def test_rejects_bad_delta(self):
        with pytest.raises(RandomnessError):
            bit_budget(4, 2, 4, 2)


BITS = CONTINUOUS_BITS  # the bits of a float-mode draw


class TestPerturbation:
    def test_interval_placement_at_top(self):
        c0 = [F(1), F(0)]
        c, intervals = perturbed(perturb_objective(pair(c0), F(2), BITS, DrawStream(0)))
        assert intervals[0] == (F(1, 2), F(1))
        assert intervals[1] == (F(0), F(1, 2))
        for ci, (lo, hi) in zip(c, intervals):
            assert lo <= ci <= hi
        # c0_i = 1 - 1/phi exactly is not above it: the interval starts there
        _, intervals = perturbed(perturb_objective(pair([F(1, 2), F(0)]), F(2), BITS, DrawStream(0)))
        assert intervals[0] == (F(1, 2), F(1))

    def test_sup_norm_bound(self):
        import random

        rnd = random.Random(3)
        for trial in range(50):
            n = rnd.randint(1, 5)
            raw = [F(rnd.randint(-5, 5)) for _ in range(n)]
            if all(x == 0 for x in raw):
                continue
            t = unit_scale(raw)
            c0 = [t * x for x in raw]
            phi = F(rnd.randint(3, 40))
            c, _ = perturbed(perturb_objective(pair(c0), phi, BITS, DrawStream(trial)))
            for ci, c0i in zip(c, c0):
                assert abs(ci - c0i) <= 1 / phi
                assert -1 <= ci <= 1
            assert norm_sq([a - b for a, b in zip(c, c0)]) <= F(n) / phi**2

    def test_dyadic_reproducible_denominators(self):
        c0 = [F(1), F(0)]
        a = perturb_objective(pair(c0), F(2), 3, DrawStream(7))
        b = perturb_objective(pair(c0), F(2), 3, DrawStream(7))
        assert a == b
        for ci in perturbed(a)[0]:
            assert ci.denominator <= 2**3 * 2  # interval length 1/2, 3-bit draws

    def test_phi_below_sqrt_n_rejected(self):
        with pytest.raises(RandomnessError):
            perturb_objective(pair([F(1), F(0)]), F(1), BITS, DrawStream(0))

    def test_large_phi_gets_inside_identification_radius(self):
        # phi > 2 n^{3/2}/delta forces ||c - c0|| < delta/(2n)
        from shadow_simplex import metrics
        from shadow_simplex.rational import ratsqrt_ceil

        rows = [[F(1), F(0)], [F(1), F(1)], [F(0), F(1)]]
        inv2 = metrics.delta_matrix(rows).inv_delta_sq
        n = 2
        phi = 3 * n * ratsqrt_ceil(F(n)) * ratsqrt_ceil(inv2)
        c0 = [F(1), F(0)]
        c, _ = perturbed(perturb_objective(pair(c0), phi, BITS, DrawStream(4)))
        diff = norm_sq([a - b for a, b in zip(c, c0)])
        # compare squared quantities exactly: diff < (delta/(2n))^2
        assert diff < F(1, (2 * n) ** 2) / inv2


class TestLambdaAndCone:
    def test_lambda_in_half_open_unit(self):
        lam = values(draw_lambda(50, 1, DrawStream(1)))
        assert set(lam) <= {F(1, 2), F(1)}
        lam = values(draw_lambda(100, BITS, DrawStream(2)))
        assert all(0 < l <= 1 for l in lam)

    def test_seed_reproducibility(self):
        assert draw_lambda(5, BITS, DrawStream(3)) == draw_lambda(5, BITS, DrawStream(3))

    def test_cone_objective_basic(self):
        w = cone_objective([[F(1), F(0)], [F(0), F(1)]], [F(1), F(1)])
        assert w == [-1, -1]
        assert norm_sq(w) <= 4

    def test_norm_bound(self):
        import random

        rnd = random.Random(5)
        for _ in range(40):
            n = rnd.randint(1, 4)
            rows = []
            while len(rows) < n:
                raw = [F(rnd.randint(-3, 3)) for _ in range(n)]
                if any(x != 0 for x in raw):
                    t = unit_scale(raw)
                    rows.append([t * x for x in raw])
            from shadow_simplex import linalg

            if len(linalg.independent_rows(rows)) < n:
                continue
            lam = values(draw_lambda(n, BITS, DrawStream(7)))
            w = cone_objective(rows, lam)
            assert float(norm_sq(w)) <= n * n + 1e-9

    def test_start_vertex_minimizes_w(self):
        # origin corner of the unit square with tight rows -e1, -e2
        lp = model.normalize(
            model.make_lp([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0], [1, 1])
        )
        rows = [lp.row(1), lp.row(3)]
        lam = values(draw_lambda(2, BITS, DrawStream(11)))
        w = cone_objective(rows, lam)
        vs = oracle.enumerate_vertices(lp)
        vals = {v.point: dot(w, list(v.point)) for v in vs.vertices}
        assert min(vals, key=vals.get) == (F(0), F(0))
