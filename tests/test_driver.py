import copy
import random
import time
from fractions import Fraction
from itertools import combinations
from math import ceil, log2
from types import SimpleNamespace

import pytest
from boxing import box, box_rows, boxed_form, lifted, orthants
import reference
from reference import (
    image_values,
    pair,
    path_values,
    ratsqrt_ceil,
    validate_shadow_path,
    values,
)
from test_golden import _flat_in_x3, _interior_point, _solve_warm
from test_fuzz import lps as fuzz_lps
from test_phase1_face import bareiss_inverse
from test_integer_path import (
    load_workloads,
    random_boxed,
    solve_benchmark_pools,
    solve_fuzz_corpus,
)

from shadow_simplex import (
    driver,
    harness,
    linalg,
    metrics,
    model,
    oracle,
    randomness,
    rational,
    walk,
)
from shadow_simplex.driver import (
    DriverError,
    PhiSchedule,
    SolveConfig,
    facet_restriction,
    identify_basis_element,
    is_optimal,
    repeated_shadow_vertex,
    restriction_coords,
    solve,
)
from shadow_simplex.model import BasicSolution, UnboundedCertificate
from shadow_simplex.rational import as_fractions, dot, primitive_int_row

F = Fraction
BITS = randomness.CONTINUOUS_BITS  # the bits of a float-mode draw


def square(c0=(1, 1)):
    return model.make_lp([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0], list(c0))


def unit_cube(c0):
    """The unit cube: x, y, z <= 1, then -x, -y, -z <= 0."""
    return model.make_lp(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]],
        [1, 1, 1, 0, 0, 0],
        c0,
    )


def cfg(seed=0, **kw):
    return SolveConfig(rng=randomness.RngConfig(seed=seed), **kw)


def pair_cone_rows(n):
    """-e_i for each i, then -(e_i + e_j) for i < j in lexicographic order."""
    e = [[int(k == i) for k in range(n)] for i in range(n)]
    rows = [[-v for v in e[i]] for i in range(n)]
    rows += [[-(u + v) for u, v in zip(e[i], e[j])] for i in range(n) for j in range(i + 1, n)]
    return rows


def prim(row):
    return primitive_int_row(list(row))[0]


def restrict(lp, fixed):
    """(the face basis of lp's fixed rows, c0's face image): facet_restriction
    on the primitive rows of lp's fixed rows and c0, as the facet chain
    calls it, on a fresh `linalg.FaceBasis`."""
    basis = linalg.FaceBasis(lp.n)
    return basis, facet_restriction([prim(lp.row(i)) for i in fixed], prim(lp.c0), basis)


def identify_at(lp, start, c):
    """The row identify_basis_element fixes, in the first round of a chain,
    on a tableau standing at start, whose basis carries c."""
    tab = walk.Tableau(model.integer_form(lp), start)
    basis, _ = restrict(lp, [])
    tab.aim(basis.lift(pair(c)), ([0] * lp.n, 1))
    assert tab.at_optimum()
    free = sorted(tab.basis)
    return free[identify_basis_element(tab, basis, free, {})]


class TestIdentify:
    def test_diagonal_system(self):
        corner = BasicSolution(point=(F(1), F(1)), basis=(0, 2))
        assert identify_at(box(square()), corner, [F(9, 10), F(1, 10)]) == 0
        assert identify_at(box(square()), corner, [F(1, 10), F(9, 10)]) == 2

    def test_oblique_basis_solved_exactly(self):
        # basis rows e1 and (2, 2), whose primitive row is (1, 1): c = (22, 10)
        # / 100 is nu = (12, 10) / 100 over e1 and (1, 1), but over the
        # near-unit u = (1, 1) / sqrt(2) it is mu = (0.12, 0.1 sqrt(2)), so
        # the oblique row wins only because of its factor tau
        lp = box(model.make_lp([[1, 0], [2, 2], [-1, 0], [0, -1]], [1, 2, 0, 0], [1, 1]))
        corner = BasicSolution(point=(F(1), F(0)), basis=(0, 1))
        assert identify_at(lp, corner, [F(22, 100), F(10, 100)]) == 1
        assert identify_at(lp, corner, [F(25, 100), F(10, 100)]) == 0

    def test_tie_takes_smallest_index(self):
        corner = BasicSolution(point=(F(1), F(1)), basis=(0, 2))
        assert identify_at(box(square()), corner, [F(1, 2), F(1, 2)]) == 0

    def test_matches_the_face_system_solve(self):
        # mu read off the tableau equals the exact solution of
        # sum_j mu_j u_j = c over the free rows' near-unit face images u_j
        rng = random.Random(4)
        done = 0
        while done < 20:
            n = rng.randint(2, 4)
            A = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(rng.randint(n + 1, 7))]
            A = [row for row in A if any(row)]
            if linalg.rank(A) < n:
                continue
            lp = box(model.make_lp(A, [F(rng.randint(1, 4)) for _ in A], [1] * n))
            tab = walk.Tableau(model.integer_form(lp), model.move_to_vertex(lp, [F(0)] * n))
            fixed = tab.basis[:1] if n > 2 else []
            basis, _ = restrict(lp, fixed)
            c = [F(rng.randint(-9, 9), 10) for _ in basis.cols]
            if not any(c):
                continue
            walk.shadow_walk(tab, basis.lift(pair(c)), ([0] * n, 1), held=fixed)
            free = sorted(set(tab.basis) - set(fixed))
            u = image_values(restriction_coords(basis, [tab.R[i] for i in free]))
            mu = linalg.solve_square([list(col) for col in zip(*u)], c)
            assert min(mu) >= 0
            assert identify_basis_element(tab, basis, free, {}) == max(
                range(len(free)), key=lambda k: (mu[k], -k)
            )
            done += 1


def face_coords(basis, vec):
    """Exact face coordinates (vec . scale_k cols_k)_k, unscaled."""
    return [dot(list(vec), [F(*s) * a for a in v]) for v, s in zip(basis.cols, basis.scales)]


class TestReduceAndLift:
    def test_square_reduce_to_interval(self):
        lp = square()
        basis, c0_face = restrict(lp, [0])  # fix x <= 1
        assert len(basis.cols) == 1
        # an interval: x <= 1 and -x <= 0 are constant on the face, the
        # other two rows bound it from both sides
        faces = image_values(restriction_coords(basis, [prim(lp.row(i)) for i in range(lp.m)]))
        assert faces == [None, None, [1], [-1]]
        # walking with the fixed row held goes from (1, 0) to (1, 1)
        tab = walk.Tableau(boxed_form(lp), BasicSolution(point=(F(1), F(0)), basis=(0, 3)))
        res = walk.shadow_walk(tab, basis.lift(c0_face), basis.lift(pair([F(-1)])), held=[0])
        assert res.finished and tab.solution().point == (1, 1)
        assert 0 in tab.solution().basis

    def test_reduce_dim1_is_error(self):
        lp = model.make_lp([[1]], [1], [1])
        with pytest.raises(DriverError):
            restrict(lp, [0])

    def test_round_trip_reduce_then_lift(self):
        rng = random.Random(8)
        done = 0
        while done < 15:
            n = rng.randint(2, 4)
            m = rng.randint(n, 7)
            A = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
            A = [r for r in A if any(x != 0 for x in r)]
            if len(A) < n or linalg.rank(A) < n:
                continue
            lp = model.make_lp(A, [F(rng.randint(1, 4)) for _ in A], [1] * n)
            fixed = [0, 1] if n > 2 and linalg.rank(A[:2]) == 2 else [0]
            basis, _ = restrict(lp, fixed)
            # the face basis is exactly orthogonal to the fixed rows and
            # pairwise
            for v in basis.cols:
                assert all(dot(lp.row(i), as_fractions(v)) == 0 for i in fixed)
            for a, b in combinations(basis.cols, 2):
                assert sum(x * y for x, y in zip(a, b)) == 0
            y = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in basis.cols]
            x = values(basis.lift(pair(y)))
            # the lifted direction lies in the face ...
            assert all(dot(lp.row(i), x) == 0 for i in fixed)
            # ... and maps back to the same face coordinates
            assert face_coords(basis, x) == y
            done += 1

    def test_delta_preserved_on_4d_instance(self):
        rng = random.Random(21)
        done = 0
        while done < 5:
            A = [[F(rng.randint(-2, 2)) for _ in range(4)] for _ in range(7)]
            A = [r for r in A if any(x != 0 for x in r)]
            if len(A) < 7 or linalg.rank(A) < 4:
                continue
            lp = model.make_lp(A, [1] * len(A), [1, 0, 0, 0])
            before = metrics.delta_matrix(lp.rows()).delta
            basis, _ = restrict(lp, [0])
            images = restriction_coords(basis, [prim(row) for row in lp.rows()[1:]])
            red = [u for u in image_values(images) if u]
            if linalg.rank(red) < len(basis.cols):
                continue
            after = metrics.delta_matrix(red).delta
            # restriction cannot worsen delta (projection preserves the
            # property); equality need not hold row-for-row, but the value
            # must not drop
            assert after >= before - 1e-9
            done += 1

    def test_restriction_coords_inverse(self):
        lp = square()
        basis, _ = restrict(lp, [2])  # fix y <= 1
        assert values(basis.lift(pair([F(1, 3)]))) == [F(1, 3), 0]
        assert face_coords(basis, [F(1, 3), F(5)]) == [F(1, 3)]
        # face coordinates are near-unit, and None for a row parallel to the
        # fixed one
        got = restriction_coords(basis, [[1, 0], [0, -1], [-3, 0]])
        assert image_values(got) == [[1], None, [-1]]


class TestRoundZero:
    """Round 0 is the round whose face basis has no row yet.  Each row is
    its own face coordinates there: a round-0 tau, c0's face image and the
    lift equal their forms over the unit columns of `linalg.FaceBasis(n)`,
    without a dot product.  Every face image and tau a solve forms, in
    round 0 or later, equals the general form over a basis's columns in
    tests/reference.py."""

    def test_rows_are_their_own_face_coordinates(self):
        rng = random.Random(29)
        for _ in range(400):
            n = rng.randint(1, 6)
            big = 10 ** rng.choice([1, 1, 6])
            rows = [[rng.randint(-3, 3) * rng.choice([1, big]) for _ in range(n)] for _ in range(8)]
            rows = [r for r in rows if any(r)]
            c0 = [rng.choice([0, rng.randint(-big, big)]) for _ in range(n)]
            unit = linalg.FaceBasis(n)
            cols, scales = list(unit.cols), list(unit.scales)
            for row in rows:
                assert (unit.image(row), unit.tau(row)) == reference.face_image(row, cols, scales)
            c0_face = facet_restriction([], c0, unit)
            assert (unit.rows, unit.cols, unit.scales) == (0, cols, scales)
            assert c0_face == reference.face_image(c0, cols, scales)[0]
            assert (c0_face is None) == (not any(c0))
            y = ([rng.randint(-9, 9) for _ in range(n)], rng.randint(1, 9))
            assert values(unit.lift(y)) == reference.lift(unit, values(y))

    @pytest.fixture
    def round_zero(self, monkeypatch):
        """Check every face image and tau `linalg.FaceBasis` forms against
        `reference.face_image`: over the unit columns on a round-0 face, over
        the basis's own columns on a later one.  Returns the counts of those
        checked in round 0 and later, and of the round-0 tau
        identify_basis_element formed, the tau of rows that entered the basis
        during round 0's walk."""
        seen = {"round 0": 0, "later": 0, "entered": 0}
        image, tau = linalg.FaceBasis.image, linalg.FaceBasis.tau
        identify = driver.identify_basis_element
        identifying = []

        def expected(basis, ints):
            if basis.rows:
                seen["later"] += 1
                return reference.face_image(ints, basis.cols, basis.scales)
            unit = linalg.FaceBasis(len(ints))
            seen["round 0"] += 1
            return reference.face_image(ints, unit.cols, unit.scales)

        def checked_image(basis, ints):
            got = image(basis, ints)
            assert got == expected(basis, ints)[0]
            return got

        def checked_tau(basis, ints):
            got = tau(basis, ints)
            assert got == expected(basis, ints)[1]
            seen["entered"] += bool(identifying) and not basis.rows
            return got

        def checked_identify(tab, basis, free, tau):
            identifying.append(tab)
            try:
                return identify(tab, basis, free, tau)
            finally:
                identifying.pop()

        monkeypatch.setattr(linalg.FaceBasis, "image", checked_image)
        monkeypatch.setattr(linalg.FaceBasis, "tau", checked_tau)
        monkeypatch.setattr(driver, "identify_basis_element", checked_identify)
        return seen

    @pytest.mark.parametrize("mode", [randomness.MODE_FLOAT, randomness.MODE_DYADIC])
    def test_fuzz_corpus(self, round_zero, mode):
        solve_fuzz_corpus(mode)
        assert round_zero["round 0"] > 1000 and round_zero["entered"] > 10, round_zero
        assert round_zero["later"] > 20, round_zero

    def test_benchmark_pools(self, round_zero):
        solve_benchmark_pools(7)
        assert round_zero["round 0"] > 3000 and round_zero["entered"] > 30, round_zero
        assert round_zero["later"] > 50, round_zero


def certify(lp, x):
    """is_optimal on a fresh tableau on lp's integer form standing on x."""
    form = model.integer_form(lp)
    return is_optimal(form, x, walk.Tableau(form, x), lp.c0)


class TestIsOptimal:
    def test_square_corner_true(self):
        lp = square()
        assert certify(lp, BasicSolution(point=(F(1), F(1)), basis=(0, 2)))

    def test_square_corner_false(self):
        lp = square(c0=(0, 1))
        assert not certify(lp, BasicSolution(point=(F(1), F(0)), basis=(0, 3)))

    def test_degenerate_vertex_uses_full_cone(self):
        # apex of a pyramid with 4 tight rows; the handed-in basis does not
        # carry c0 but another tight subset does
        lp = model.make_lp(
            [[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1], [0, 0, -1]],
            [1, 1, 1, 1, 0],
            [F(1, 10), 0, 1],
        )
        apex = BasicSolution(point=(F(0), F(0), F(1)), basis=(1, 2, 3))
        assert certify(lp, apex)

    def test_agreement_with_enumeration(self):
        rng = random.Random(14)
        done = 0
        while done < 200:
            m, n = rng.randint(2, 6), rng.randint(1, 3)
            A = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
            A = [r for r in A if any(x != 0 for x in r)]
            if len(A) < n or linalg.rank(A) < n:
                continue
            b = [F(rng.randint(0, 4)) for _ in range(len(A))]
            c = [F(rng.randint(-3, 3)) for _ in range(n)]
            if all(x == 0 for x in c):
                continue
            lp = model.make_lp(A, b, c)
            ref = oracle.brute_force_optimum(lp)
            if ref.status != "optimal":
                continue
            for v in oracle.enumerate_vertices(lp).vertices:
                want = dot(list(lp.c0), list(v.point)) == ref.value
                bs = BasicSolution(v.point, v.basis)
                assert certify(lp, bs) == want
            done += 1

    def degenerate_origin(self, c0):
        # {-x_i <= 0, -x_i - x_j <= 0, x_i <= 1} in R^8: 36 rows are tight at
        # the origin, and C(36, 8) subsets exceed the old subset-scan guard
        n = 8
        A = pair_cone_rows(n) + [[int(k == i) for k in range(n)] for i in range(n)]
        lp = model.make_lp(A, [0] * 36 + [1] * n, c0)
        # -e_0 .. -e_6 and -(e_6 + e_7), the last pair row
        origin = BasicSolution(point=(F(0),) * n, basis=tuple(range(7)) + (35,))
        assert len(lp.tight_rows(origin.point)) == 36
        return lp, origin

    def test_degenerate_origin_certified_past_old_guard(self):
        lp, origin = self.degenerate_origin([-1] * 7 + [-3])
        assert certify(lp, origin)

    def test_degenerate_origin_rejected_past_old_guard(self):
        lp, origin = self.degenerate_origin([-1] * 7 + [3])
        assert not certify(lp, origin)

    def test_tableau_must_stand_on_the_vertex(self):
        lp = square()
        form = model.integer_form(lp)
        corner = BasicSolution(point=(F(1), F(1)), basis=(0, 2))
        tab = walk.Tableau(form, BasicSolution(point=(F(0), F(0)), basis=(1, 3)))
        with pytest.raises(DriverError, match="stand on"):
            is_optimal(form, corner, tab, lp.c0)
        # a tableau on another form of the same rows is not on form
        with pytest.raises(DriverError, match="not on the form"):
            is_optimal(model.integer_form(lp), corner, walk.Tableau(form, corner), lp.c0)


class TestRepeated:
    def test_square_reaches_argmax(self):
        lp = square()
        start = BasicSolution(point=(F(0), F(0)), basis=(1, 3))
        tab = walk.Tableau(boxed_form(lp), start)
        cand = repeated_shadow_vertex(
            tab, prim(lp.c0), F(64), BITS, randomness.DrawStream(1)
        )
        assert not cand.capped
        assert tab.solution().point == (1, 1)

    def test_interval_single_round(self):
        lp = model.make_lp([[1], [-1]], [1, 0], [1])
        start = BasicSolution(point=(F(0),), basis=(1,))
        tab = walk.Tableau(boxed_form(lp), start)
        cand = repeated_shadow_vertex(
            tab, prim(lp.c0), F(16), BITS, randomness.DrawStream(3)
        )
        assert tab.solution().point == (1,)
        assert len(cand.traces) == 1

    def test_tiny_cap_propagates(self):
        lp = square()
        start = BasicSolution(point=(F(0), F(0)), basis=(1, 3))
        cand = repeated_shadow_vertex(
            walk.Tableau(boxed_form(lp), start), prim(lp.c0), F(64),
            BITS, randomness.DrawStream(1), cap=0
        )
        assert cand.capped

    def test_one_basis_inverse_per_chain(self, monkeypatch):
        # c0 nested over the rows x <= 1, -y <= 0 and -z <= 0 (tests/chains.py):
        # at phi = 2 each round's perturbation outweighs the lower terms, so
        # the chain fixes a facet per round and walks all three
        calls = []
        invert = linalg.invert
        monkeypatch.setattr(linalg, "invert", lambda M: calls.append(M) or invert(M))
        cube = unit_cube([4096, -64, -1])
        form = boxed_form(cube)
        start = BasicSolution(point=(F(0), F(0), F(0)), basis=(3, 4, 5))
        tab = walk.Tableau(form, start)
        cand = repeated_shadow_vertex(
            tab, prim(cube.c0), F(2), BITS, randomness.DrawStream(2)
        )
        assert len(cand.traces) == 3
        assert tab.solution().point == (1, 0, 0)
        assert len(calls) == 1

    def test_chain_basis_certifies_degenerate_optimum(self, monkeypatch):
        # instance interval-matrix-6x3-g1356726337 of the tu-cold benchmark
        # pool at seed 7, with its solver seed: the optimum has 4 tight rows
        # in R^3, and the greedy tight basis there does not carry c0
        lp = harness.generate_tu_instance("interval-matrix", 6, 3, 1356726337)
        checks = []
        is_opt = driver.is_optimal

        def recording(b, x, tab, c0):
            checks.append((b, x, tab.basis[:]))
            return is_opt(b, x, tab, c0)

        monkeypatch.setattr(driver, "is_optimal", recording)
        out = solve(lp, cfg(seed=1591348382))
        ref = oracle.classify(lp)
        assert out.status == ref.status == "optimal" and out.value == ref.value
        # the chain's own form: the LP is bounded, so no walk appended the box
        form, x, chain_basis = checks[-1]
        assert form == model.integer_form(lp)
        assert len(form.tight_rows(x.point)) > form.n
        # the box rows, had they been there, would not be tight at x
        assert boxed_form(lp).tight_rows(x.point) == form.tight_rows(x.point)

        def certificate_pivots(basis):
            tab = walk.Tableau(form, BasicSolution(point=x.point, basis=tuple(basis)))
            assert is_opt(form, x, tab, lp.c0)
            return tab.pivot_count

        # the chain's basis already carries c0; the greedy one needs at least
        # one degenerate pivot before the walk ends on the same point
        assert certificate_pivots(chain_basis) == 0
        greedy = model.tight_basis_at(form, x.point)[: form.n]
        assert certificate_pivots(greedy) >= 1

    def test_outcome_vertex_basis_carries_c0(self, monkeypatch):
        # the same degenerate optimum: out.vertex carries the basis that
        # certified c0, so c0's multipliers over it are all >= 0
        lp = harness.generate_tu_instance("interval-matrix", 6, 3, 1356726337)
        boxes = []
        is_opt = driver.is_optimal
        monkeypatch.setattr(
            driver, "is_optimal", lambda b, x, tab, c0: boxes.append(b) or is_opt(b, x, tab, c0)
        )
        out = solve(lp, cfg(seed=1591348382))
        boxed = boxes[-1]
        assert out.status == "optimal" and out.vertex.point == out.point
        rows = [[F(v) for v in boxed.R[i]] for i in out.vertex.basis]
        mu = linalg.solve_square([list(col) for col in zip(*rows)], list(lp.c0))
        assert min(mu) >= 0


def assert_ray_twin(tab, lazy, eager, boxed):
    """lazy, a chain on tab that ended at the ray tab.ray, walked eager's
    chain, on the eagerly boxed form boxed, up to that edge: the same rounds
    and, in its last round, the same pivots first.  There the edge is
    blocked in boxed by a box row, under the exponents eager's walk gives
    the rows."""
    *done, last = lazy.traces
    assert not tab.boxed and eager.traces[: len(done)] == done
    ref = eager.traces[len(done)]
    assert (ref.phi, ref.dim, ref.path.start_basis, ref.path.start_value) == (
        last.phi, last.dim, last.path.start_basis, last.path.start_value
    )
    assert ref.path.steps[: len(last.path.steps)] == last.path.steps
    (k,) = [k for k in range(tab.n) if prim([-row[k] for row in tab.M]) == list(tab.ray)]
    at = walk.Tableau(boxed, tab.solution())
    at.aim((tab.c_num, tab.c_den), (tab.w_num, tab.w_den), tab.held)
    enter, _ = at._ratio_test(at.basis.index(tab.basis[k]))
    assert enter in box_rows(boxed)


@pytest.fixture
def twinned_chains(monkeypatch):
    """Walk every facet chain of the solves run twice: as the solve walks it,
    on its form, boxed on demand over the basis of the pivot that needs the
    box, and on a tableau of the eagerly boxed form
    `model.bound_polytope(form, rows)` over the same rows, at the same start,
    from a copy of the same draw stream.  The rows are found by walking a
    deep copy of the chain first; a chain that appends no box is twinned
    with the form boxed over its start basis.  A lazy chain that ends at a
    ray is held against the eager one up to that edge (`assert_ray_twin`);
    any other walks the eager chain exactly.  Counts the chains, the lazy
    ones that appended the box, and those that ended at a ray.  The copy
    and the twin are marked `twin`."""
    seen = {"chains": 0, "boxed": 0, "rays": 0}
    chain = driver.repeated_shadow_vertex

    def twins(tab, c0, phi, bits, stream, cap=None):
        probe = copy.deepcopy(tab)
        probe.twin = True
        chain(probe, c0, phi, bits, copy.deepcopy(stream), cap=cap)
        form = tab.form
        boxed = model.bound_polytope(form, probe.box_basis or sorted(tab.basis))
        # a Phase-1 twin stops where sum(y) = 0, as the solve's tableau does
        ref = walk.Tableau(boxed, tab.solution(), c0=tab.c0, stop_at_zero=tab.stop_at_zero)
        ref.twin = True
        twin = copy.deepcopy(stream)
        eager = chain(ref, c0, phi, bits, twin, cap=cap)
        lazy = chain(tab, c0, phi, bits, stream, cap=cap)
        assert tab.box_basis == probe.box_basis
        seen["chains"] += 1
        if tab.ray is not None:
            assert_ray_twin(tab, lazy, eager, boxed)
            assert stream.bits_consumed <= twin.bits_consumed
            seen["rays"] += 1
            return lazy
        assert lazy.traces == eager.traces and lazy.capped == eager.capped
        assert stream.bits_consumed == twin.bits_consumed
        assert (tab.basis, tab.D, tab.M, tab.x_num) == (ref.basis, ref.D, ref.M, ref.x_num)
        assert tab.slack == ref.slack[: tab.m]
        if tab.boxed:
            assert tab.form == ref.form
        else:
            assert (tab.form, tab.m) == (form, ref.m - 2 * form.n)
        seen["boxed"] += tab.boxed
        return lazy

    monkeypatch.setattr(driver, "repeated_shadow_vertex", twins)
    return seen


@pytest.fixture
def walking_past_zero(monkeypatch):
    """Phase-1 tableaus that do not stop where sum(y) = 0: each Phase-1
    chain walks on along the face sum(y) = 0, whose edges that no row blocks
    append most of the boxes of the corpora below, and `is_optimal`
    certifies its end."""
    monkeypatch.setattr(walk.Tableau, "at_zero", lambda tab: False)


class TestLazyBox:
    """A facet chain that appends the box at its first unbounded edge walks
    exactly the chain of the eagerly boxed form: the same traces, draws,
    final basis and carried state.  One that ends at a ray walks it up to
    that edge, which a box row blocks in the boxed form.  Most unbounded
    LPs now end at a ray, so each test solves enough LPs to box as often as
    it did when every unbounded edge appended the box; and a Phase-1 walk
    ends at its first vertex where sum(y) = 0, so the corpora are solved
    walking past it (`walking_past_zero`)."""

    @pytest.mark.parametrize("mode", [randomness.MODE_FLOAT, randomness.MODE_DYADIC])
    def test_fuzz_corpus(self, twinned_chains, walking_past_zero, mode):
        # each LP of the corpus with its objective and with the negated one
        for case, _, lp in fuzz_lps():
            for c0 in (lp.c0, [-x for x in lp.c0]):
                lp = model.make_lp(lp.A, lp.b, c0)
                solve(lp, SolveConfig(rng=randomness.RngConfig(seed=case, mode=mode)))
        assert twinned_chains["chains"] >= 300 and twinned_chains["boxed"] >= 100, twinned_chains
        assert twinned_chains["rays"] >= 100, twinned_chains

    def test_unbounded_mixed_status_lps(self, twinned_chains, walking_past_zero):
        # the mixed-status benchmark pools of seeds 7-9, as their first pass
        # solves them
        workloads = load_workloads()
        pkg = SimpleNamespace(harness=harness, model=model, rational=rational)
        statuses = []
        for seed in (7, 8, 9):
            for inst in workloads.build_pool(pkg, "mixed-status", seed):
                rng = randomness.RngConfig(seed=inst.seed, mode=inst.mode)
                statuses.append(solve(inst.lp, SolveConfig(rng=rng), initial_bfs=inst.start).status)
        assert statuses.count("unbounded") >= 100 and twinned_chains["boxed"] >= 100, twinned_chains
        assert twinned_chains["rays"] >= 100, twinned_chains

    @pytest.mark.parametrize("mode", [randomness.MODE_FLOAT, randomness.MODE_DYADIC])
    def test_degenerate_cones(self, twinned_chains, walking_past_zero, mode):
        # 0/+-1 rows with rhs mostly 0: rows through the origin meet the
        # box's corners and edges, so ratio tests tie box rows with other
        # rows and the tie-break reads the box rows' exponents
        rng = random.Random(1)
        for k in range(1800):
            n = rng.randint(2, 4)
            A = [[rng.choice([-1, 0, 0, 1]) for _ in range(n)] for _ in range(rng.randint(n, n + 4))]
            A = [row for row in A if any(row)]
            b = [rng.choice([0, 0, 0, 1]) for _ in A]
            c0 = [rng.choice([-1, 0, 1, 1, 2]) for _ in range(n)]
            if not A:
                continue
            solve(model.make_lp(A, b, c0), SolveConfig(rng=randomness.RngConfig(seed=k, mode=mode)))
        assert twinned_chains["boxed"] >= 300, twinned_chains

    @pytest.mark.parametrize("mode", [randomness.MODE_FLOAT, randomness.MODE_DYADIC])
    def test_random_boxed_lps(self, twinned_chains, mode):
        # bounded LPs, boxed before the solve, from a vertex of theirs: no
        # lazy chain appends a box, and each walks 2n rows fewer
        rng = random.Random(83)
        for k in range(40):
            n = rng.randint(1, 5)
            lp, start = random_boxed(rng, n, rng.randint(n + 1, n + 5))
            out = solve(lp, SolveConfig(rng=randomness.RngConfig(seed=k, mode=mode)), initial_bfs=start)
            assert out.status == "optimal"
        assert twinned_chains == {"chains": 40, "boxed": 0, "rays": 0}


class RankPassFirst(walk.Tableau):
    """A tableau whose first build after `refuse` is set raises, so that a
    solve with a start takes the rank-pass path: the start's first build
    raises, and the rank pass and rank completion run as on a cold solve."""

    refuse = False

    def __init__(self, *args, **kw):
        if RankPassFirst.refuse:
            RankPassFirst.refuse = False
            raise walk.WalkError("first build refused")
        super().__init__(*args, **kw)


def vertex_start(lp, point):
    """A vertex of lp's rank-completed form, crawled to from a feasible
    point: for a rank-deficient LP, its basis holds completion rows."""
    form = model.integer_form(lp)
    full, _ = model.complete_rank(form, linalg.independent_rows(form.R))
    return model.crawl_to_vertex(full, point)


@pytest.fixture
def warm_twins(monkeypatch):
    """solve(lp, conf, start) run twice, as the solve runs it and on the
    rank-pass path (`RankPassFirst`), which must give the same answer,
    draws, pivot sequence and boxes (the rows each is over, its rows and
    rhs).  Counts the solves, those whose start's build skipped the rank
    pass, and the boxes those appended."""
    seen = {"solves": 0, "skipped": 0, "warm boxes": 0}
    boxes, completions = [], []
    bound, complete, tableau = model.bound_polytope, model.complete_rank, walk.Tableau

    def recording(form, rows):
        boxed = bound(form, rows)
        boxes.append((list(rows), boxed.R, boxed.beta, boxed.s))
        return boxed

    monkeypatch.setattr(model, "bound_polytope", recording)
    monkeypatch.setattr(
        model, "complete_rank", lambda form, idx: completions.append(idx) or complete(form, idx)
    )

    def answer(lp, conf, start):
        boxes.clear()
        completions.clear()
        out = solve(lp, conf, initial_bfs=start)
        return (
            out.status, out.value, out.point, out.ray, out.infeasible_gap, out.bits_consumed,
            out.doublings, out.phi_accepted, out.vertex, out.pivot_sequence, list(boxes),
        ), not completions

    def run(lp, conf, start):
        got, skipped = answer(lp, conf, start)
        monkeypatch.setattr(walk, "Tableau", RankPassFirst)
        RankPassFirst.refuse = True
        want, refused = answer(lp, conf, start)
        monkeypatch.setattr(walk, "Tableau", tableau)
        assert got == want and not refused
        seen["solves"] += 1
        seen["skipped"] += skipped
        seen["warm boxes"] += len(got[-1]) if skipped else 0
        return got

    seen["run"] = run
    return seen


class TestWarmStart:
    """A start whose tableau builds on the bare integer form proves the form
    has rank n: the solve runs no rank pass and hands that tableau to its
    first chain, and a walk that appends the box boxes over its own basis,
    with no rank pass either.  Everything else is the rank-pass path's."""

    def test_bounded_warm_solve_runs_no_rank_pass(self, monkeypatch):
        # the seed-7 tu-warm benchmark pool: bounded LPs from a vertex
        workloads = load_workloads()
        pkg = SimpleNamespace(harness=harness, model=model, rational=rational)
        pool = workloads.build_pool(pkg, "tu-warm", 7)
        calls = {"rank": 0, "invert": 0, "chains": 0}
        rank, invert, chain = linalg.independent_rows, linalg.invert, driver.repeated_shadow_vertex

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(linalg, "independent_rows", counted("rank", rank))
        monkeypatch.setattr(linalg, "invert", counted("invert", invert))
        monkeypatch.setattr(driver, "repeated_shadow_vertex", counted("chains", chain))
        for inst in pool:
            rng = randomness.RngConfig(seed=inst.seed, mode=inst.mode)
            assert solve(inst.lp, SolveConfig(rng=rng), initial_bfs=inst.start).status == "optimal"
        assert calls["rank"] == 0
        assert calls["invert"] == calls["chains"] >= len(pool)

    def test_boxing_warm_solve_runs_no_rank_pass(self, monkeypatch):
        # the seed-7 tu-warm benchmark pool lifted (`lifted`), from each
        # start at t = 0: a walk that rises up the t axis appends the box
        # over its basis, and no solve calls linalg.independent_rows
        workloads = load_workloads()
        pkg = SimpleNamespace(harness=harness, model=model, rational=rational)
        pool = workloads.build_pool(pkg, "tu-warm", 7)  # its setup crawls, which ranks
        calls = {"rank": 0, "boxes": 0}
        rank, bound = linalg.independent_rows, model.bound_polytope

        def ranking(rows):
            calls["rank"] += 1
            return rank(rows)

        def boxing(form, rows):
            calls["boxes"] += 1
            return bound(form, rows)

        monkeypatch.setattr(linalg, "independent_rows", ranking)
        monkeypatch.setattr(model, "bound_polytope", boxing)
        boxed = 0
        for inst in pool:
            up = lifted(inst.lp)
            start = BasicSolution((*inst.start.point, F(0)), (*inst.start.basis, inst.lp.m))
            conf = SolveConfig(rng=randomness.RngConfig(seed=inst.seed, mode=inst.mode))
            calls["boxes"] = 0
            assert solve(up, conf, initial_bfs=start).status == "optimal"
            boxed += calls["boxes"] > 0
        # each of the 102 solves appends a box
        assert calls["rank"] == 0 and boxed == len(pool) == 102, (calls, boxed)

    @pytest.mark.parametrize("mode", [randomness.MODE_FLOAT, randomness.MODE_DYADIC])
    def test_fuzz_corpus(self, warm_twins, mode):
        # each feasible LP from a vertex of its rank-completed form, reached
        # from its cold answer's point; then lifted (`lifted`), from that
        # point at t = 0, at its seed and at another, since a walk of the LP
        # itself from there rarely appends the box
        for case, _, lp in fuzz_lps():
            conf = SolveConfig(rng=randomness.RngConfig(seed=case, mode=mode))
            out = solve(lp, conf)
            if out.status != "infeasible":
                warm_twins["run"](lp, conf, vertex_start(lp, out.point))
                up = lifted(lp)
                for seed in (case, case + 300):
                    conf = SolveConfig(rng=randomness.RngConfig(seed=seed, mode=mode))
                    got = warm_twins["run"](up, conf, vertex_start(up, (*out.point, 0)))
                    assert got[:2] == (out.status, out.value)
        # 585 solves, 399 of them with no rank pass, whose walks appended 91
        # boxes (3 of them on the LPs as given)
        assert warm_twins["solves"] >= 580 and warm_twins["warm boxes"] >= 60, warm_twins
        assert warm_twins["skipped"] >= 390 and warm_twins["solves"] - warm_twins["skipped"] >= 60

    def test_unbounded_mixed_status_lps(self, warm_twins):
        # the unbounded LPs of the mixed-status pools of seeds 1-4, from a
        # vertex reached from the point their cold answer's ray starts at;
        # they answer at an edge and rarely append the box, so every
        # feasible LP of the pools of seeds 1-8 is also solved lifted, from
        # its cold answer's point at t = 0
        workloads = load_workloads()
        pkg = SimpleNamespace(harness=harness, model=model, rational=rational)
        for seed in range(1, 9):
            for inst in workloads.build_pool(pkg, "mixed-status", seed):
                conf = SolveConfig(rng=randomness.RngConfig(seed=inst.seed, mode=inst.mode))
                out = solve(inst.lp, conf)
                if out.status == "unbounded" and seed <= 4:
                    got = warm_twins["run"](inst.lp, conf, vertex_start(inst.lp, out.point))
                    assert got[0] == "unbounded"
                if out.status != "infeasible":
                    up = lifted(inst.lp)
                    got = warm_twins["run"](up, conf, vertex_start(up, (*out.point, 0)))
                    assert got[:2] == (out.status, out.value)
        # 1,751 solves; 1,143 of full rank run no rank pass, and 315 of those
        # append a box (317 when the box was over the lead rows)
        assert warm_twins["solves"] >= 1700 and warm_twins["warm boxes"] >= 270, warm_twins

    def test_escape_with_a_start_runs_phase1(self, monkeypatch):
        # rank 2 of 3 and c0 off the row span, with a start on three rows of
        # the LP: its build finds them dependent, the rank pass finds the
        # escape, and Phase 1 decides, as on a cold solve
        lp = _flat_in_x3([2, 2, 3, 0, 0, 4], [1, 1, 1])
        start = BasicSolution(point=(F(0), F(0), F(0)), basis=(0, 3, 4))
        with pytest.raises(walk.WalkError, match="dependent"):
            walk.Tableau(model.integer_form(lp), start)
        escapes = []
        escape = model._objective_escape
        monkeypatch.setattr(
            model, "_objective_escape", lambda c0, rows: escapes.append(rows) or escape(c0, rows)
        )
        out = solve(lp, cfg(seed=1), initial_bfs=start)
        assert out.status == "unbounded" and out.ray == (0, 0, 1)
        assert out.phase1_artificials == 2 and len(escapes) == 1
        assert out == solve(lp, cfg(seed=1))

    def test_bad_start_on_a_full_rank_lp_raises(self, monkeypatch):
        # the start's build raises, the rank pass runs, and the first
        # chain's build on the same form raises the same error
        lp = model.make_lp([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]], [1, 0, 1, 0, 1], [1, 1])
        start = BasicSolution(point=(F(1), F(1)), basis=(0, 2))
        passes = []
        rank = linalg.independent_rows
        monkeypatch.setattr(linalg, "independent_rows", lambda rows: passes.append(rows) or rank(rows))
        with pytest.raises(walk.WalkError, match="infeasible"):
            solve(lp, cfg(), initial_bfs=start)
        assert len(passes) == 1


def recession_form(form):
    """The recession LP of form, a form whose last 2n rows are a box: its
    rows with rhs 1 on the box rows and 0 elsewhere, over s = 1."""
    n, m = form.n, form.m
    return model.IntegerForm(form.R, form.factor, [0] * (m - 2 * n) + [1] * (2 * n), 1)


@pytest.fixture
def recession_bases(monkeypatch):
    """At every box-tight answer of the solves run, hold the rows the box is
    over, `Tableau.box_basis`, to being n independent un-boxed rows of the
    recession LP, tight at d = 0, and the recession walk to starting on
    them.  Counts those answers and the recession walks among them (the
    others answer off the basis, "box-cone"), and the box rows that are not
    the rank pass's lead rows."""
    seen = {"box-tight": 0, "walks": 0, "not lead": 0}
    decide, first_gain = model.assert_unbounded_if_box_tight, walk.first_gain
    starts = []

    def starting(tab, c):
        starts.append(sorted(tab.basis))
        return first_gain(tab, c)

    def checked(tab, c0):
        starts.clear()
        if tab.boxed and not all(tab.slack[tab.m - 2 * tab.n :]):
            rows, n = list(tab.box_basis), tab.n
            rec = recession_form(tab.form)
            assert len(rows) == n and rows[-1] < tab.m - 2 * n
            assert len(linalg.independent_rows([rec.R[i] for i in rows])) == n
            assert set(rows) <= set(rec.tight_rows((F(0),) * n))
            seen["box-tight"] += 1
            seen["not lead"] += rows != linalg.independent_rows(rec.R)[:n]
        verdict = decide(tab, c0)
        if verdict not in ("vertex", "box-cone"):
            assert starts[0] == list(tab.box_basis)
            seen["walks"] += 1
        return verdict

    monkeypatch.setattr(walk, "first_gain", starting)
    monkeypatch.setattr(model, "assert_unbounded_if_box_tight", checked)
    return seen


class TestRecessionBasis:
    """The recession walk starts at d = 0 on the rows the box was built
    over, the basis of the walk that appended it: n independent rows of
    the un-boxed LP, all tight at 0.  Few solves walk it since an edge no
    row blocks answers unbounded when c0 rises along it, and a box-tight
    vertex answers bounded when c0 needs no box row of its basis."""

    @pytest.mark.parametrize("mode", [randomness.MODE_FLOAT, randomness.MODE_DYADIC])
    def test_fuzz_corpus(self, recession_bases, mode):
        # the corpus walks it twice; the orthants, built to walk it, do the rest
        for case, _, lp in fuzz_lps():
            solve(lp, SolveConfig(rng=randomness.RngConfig(seed=case, mode=mode)))
        for lp, seed in orthants(range(150)):
            out = solve(lp, SolveConfig(rng=randomness.RngConfig(seed=seed, mode=mode)))
            assert out.status == "unbounded" and out.route in ("edge-ray", "recession")
        assert recession_bases["walks"] >= 60, recession_bases

    def test_unbounded_mixed_status_lps(self, recession_bases):
        # the seed-7 mixed-status benchmark pool, as its first pass solves
        # it: 5 box-tight answers, 3 of them walked, 2 boxed over other rows
        # than the lead rows
        workloads = load_workloads()
        pkg = SimpleNamespace(harness=harness, model=model, rational=rational)
        for inst in workloads.build_pool(pkg, "mixed-status", 7):
            rng = randomness.RngConfig(seed=inst.seed, mode=inst.mode)
            solve(inst.lp, SolveConfig(rng=rng), initial_bfs=inst.start)
        assert recession_bases == {"box-tight": 5, "walks": 3, "not lead": 2}, recession_bases

    def test_random_boxed_lps(self):
        # LPs boxed before the solve are bounded; boxed once more over the
        # basis of their start vertex, as a walk would box them there, the
        # recession walk builds on that basis at d = 0 and finds no ray
        rng = random.Random(83)
        for _ in range(40):
            n = rng.randint(1, 5)
            lp, start = random_boxed(rng, n, rng.randint(n + 1, n + 5))
            rows = sorted(start.basis)
            rec = recession_form(model.bound_polytope(model.integer_form(lp), rows))
            tab = walk.Tableau(rec, BasicSolution(point=(F(0),) * n, basis=tuple(rows)))
            assert not walk.first_gain(tab, prim(lp.c0))


class TestRecessionInverse:
    """A tableau that appends the box keeps its basis's (M, D) there
    (`Tableau.box_inverse`), and the recession walk builds on it: it equals
    `linalg.invert`'s of the rows the box is over, and the walk inverts
    nothing."""

    def test_unbounded_mixed_status_and_boxing_lps(self, monkeypatch):
        # the mixed-status pools of seeds 1-4 and 7, each unbounded LP of
        # them also lifted (tests/boxing.py), and the orthants: the recession
        # walks by source, and the boxed tableaus checked
        seen = {"boxed": 0, "pool": 0, "lifted": 0, "orthants": 0}
        source = ["pool"]
        decide, invert = model.assert_unbounded_if_box_tight, linalg.invert
        calls = [0]

        def counted(rows):
            calls[0] += 1
            return invert(rows)

        def checked(tab, c0):
            if tab.boxed:
                assert tab.box_inverse == bareiss_inverse(tab.form, tab.box_basis)
                seen["boxed"] += 1
            calls[0] = 0
            verdict = decide(tab, c0)
            if verdict not in ("vertex", "box-cone"):
                assert calls[0] == 0
                seen[source[0]] += 1
            return verdict

        monkeypatch.setattr(linalg, "invert", counted)
        monkeypatch.setattr(model, "assert_unbounded_if_box_tight", checked)
        workloads = load_workloads()
        pkg = SimpleNamespace(harness=harness, model=model, rational=rational)
        for seed in (1, 2, 3, 4, 7):
            for inst in workloads.build_pool(pkg, "mixed-status", seed):
                conf = SolveConfig(rng=randomness.RngConfig(seed=inst.seed, mode=inst.mode))
                source[0] = "pool"
                if solve(inst.lp, conf, initial_bfs=inst.start).status == "unbounded":
                    source[0] = "lifted"
                    assert solve(lifted(inst.lp), conf).status == "unbounded"
        source[0] = "orthants"
        for lp, seed in orthants(range(40)):
            solve(lp, SolveConfig(rng=randomness.RngConfig(seed=seed)))
        # 59 boxed tableaus; 7, 17 and 25 recession walks
        assert seen["boxed"] >= 50, seen
        assert seen["pool"] >= 5 and seen["lifted"] >= 10 and seen["orthants"] >= 20, seen


@pytest.fixture
def ray_ends(monkeypatch):
    """The depth of the solve (0, or 1 for Phase 1) of every facet chain and
    `is_optimal` walk that ended at a ray, by where it ended: "chain" or
    "is_optimal".  Phase 1 enters through the module's `solve`."""
    depth = [0]
    ends = {"chain": [], "is_optimal": []}
    inner_solve, chain, is_opt = driver.solve, driver.repeated_shadow_vertex, driver.is_optimal

    def solving(*args, _depth=0, **kwargs):
        depth.append(_depth)
        try:
            return inner_solve(*args, _depth=_depth, **kwargs)
        finally:
            depth.pop()

    def chaining(tab, *args, **kwargs):
        cand = chain(tab, *args, **kwargs)
        if tab.ray is not None:
            ends["chain"].append(depth[-1])
        return cand

    def certifying(form, x, tab, c0):
        optimal = is_opt(form, x, tab, c0)
        if not optimal and tab.ray is not None:
            ends["is_optimal"].append(depth[-1])
        return optimal

    monkeypatch.setattr(driver, "solve", solving)
    monkeypatch.setattr(driver, "repeated_shadow_vertex", chaining)
    monkeypatch.setattr(driver, "is_optimal", certifying)
    return ends


def pool_solves(seed):
    """(id, LP, config, start) of the mixed-status pool of seed, as its
    first pass solves it."""
    workloads = load_workloads()
    pkg = SimpleNamespace(harness=harness, model=model, rational=rational)
    for inst in workloads.build_pool(pkg, "mixed-status", seed):
        conf = SolveConfig(rng=randomness.RngConfig(seed=inst.seed, mode=inst.mode))
        yield inst.id, inst.lp, conf, inst.start


def fuzz_solves(mode):
    for case, kind, lp in fuzz_lps():
        yield f"{kind}-{case}", lp, SolveConfig(rng=randomness.RngConfig(seed=case, mode=mode)), None


class TestRoutes:
    """`SolveOutcome.route` names the certificate that answered.  An edge no
    row blocks answers unbounded where c0 rises along it ("edge-ray"), at a
    chain walk or at the `is_optimal` walk; a box-tight vertex answers
    bounded when c0 needs no box row of its basis ("box-cone"); the
    recession walk decides the rest ("recession")."""

    def test_edge_ray_ends_a_chain_walk(self, monkeypatch):
        # maximize x subject to -x <= 0 from 0: the one edge has no blocking
        # row and c0 rises along it, so the first walk ends there, unboxed,
        # and the solve answers with no certificate walk and no box
        lp = model.make_lp([[-1]], [0], [1])
        start = BasicSolution(point=(F(0),), basis=(0,))
        tab = walk.Tableau(model.integer_form(lp), start, [1])
        cand = repeated_shadow_vertex(
            tab, [1], F(16), BITS, randomness.DrawStream(3)
        )
        assert tab.ray == (1,) and not cand.capped and not tab.boxed
        assert len(cand.traces) == 1 and cand.traces[0].path.steps == ()

        def refuse(*args):
            raise AssertionError("called")

        monkeypatch.setattr(driver, "is_optimal", refuse)
        monkeypatch.setattr(model, "bound_polytope", refuse)
        out = solve(lp, cfg(seed=3), initial_bfs=start)
        assert (out.status, out.route, out.point, out.ray) == ("unbounded", "edge-ray", (0,), (1,))
        assert out.vertex is None and out.phi_accepted == PhiSchedule(driver.SCHEDULE_BASE, 1, 1).phi(0)

    def test_edge_ray_keeps_the_walk_before_it(self):
        # maximize x + y subject to x, y >= 0 and x - y <= 1 at seed 3: the
        # first walk pivots from 0 to (1, 0), where the edge along x - y = 1
        # has no blocking row; the pivot stays in the round's trace
        lp = model.make_lp([[-1, 0], [0, -1], [1, -1]], [0, 0, 1], [1, 1])
        out = solve(lp, cfg(seed=3))
        assert (out.status, out.route, out.point, out.ray) == ("unbounded", "edge-ray", (1, 0), (1, 1))
        assert out.pivot_sequence == [(2, 0)]
        driver._check_ray(model.integer_form(lp), lp.m, lp.c0, out.ray)

    def test_edge_ray_ends_the_optimality_walk(self):
        # x, y >= 0 and x - y <= 0, all tight at 0, on c0 = (1, 0) from the
        # basis {-x <= 0, -y <= 0}, which does not carry c0: the certificate
        # walk pivots once, degenerately, onto x - y <= 0, and the edge up
        # x = y has no blocking row and raises c0
        lp = model.make_lp([[-1, 0], [0, -1], [1, -1]], [0, 0, 0], [1, 0])
        form = model.integer_form(lp)
        x = BasicSolution(point=(F(0), F(0)), basis=(0, 1))
        tab = walk.Tableau(form, x, [1, 0])
        assert not is_optimal(form, x, tab, [1, 0])
        assert (tab.ray, tab.pivot_count, sorted(tab.basis)) == ((1, 1), 1, [1, 2])
        assert not tab.boxed and tab.stands_on(x.point)
        # without c0 the tableau raises there instead
        tab = walk.Tableau(form, x)
        with pytest.raises(walk.UnboundedEdgeError):
            is_optimal(form, x, tab, [1, 0])

    def test_box_cone_answers_bounded_off_the_basis(self, monkeypatch):
        # maximize x1 subject to x1 <= 1, -x2 <= 1: the perturbed objective
        # rises up the optimal face, which no row blocks and c0 does not rise
        # along, so a walk appends the box and the chain ends on the corner
        # (1, B); c0 = R_0 needs no box row of its basis, and no recession
        # walk runs
        walks = []
        first_gain = walk.first_gain
        monkeypatch.setattr(walk, "first_gain", lambda tab, c: walks.append(tab) or first_gain(tab, c))
        lp = model.make_lp([[1, 0], [0, -1]], [1, 1], [1, 0])
        out = solve(lp, cfg())
        assert (out.status, out.value, out.route) == ("optimal", 1, "box-cone")
        boxed = boxed_form(lp)
        assert set(boxed.tight_rows(out.point)) - set(box_rows(boxed)) == {0}
        assert all(tab.c0 is not None for tab in walks)  # none on the recession form

    def test_recession_walk_decides_past_the_basis(self):
        # maximize x over the quadrant x, y >= 0 at seed 245: the first walk
        # rises up the y axis, which no row blocks and c0 does not rise
        # along, so it appends the box; the chain ends on the corner (B, B),
        # whose basis carries c0 only with the box row x <= B, and the
        # recession walk finds the ray
        lp = model.make_lp([[-1, 0], [0, -1]], [0, 0], [1, 0])
        out = solve(lp, cfg(seed=245))
        assert (out.status, out.route, out.ray) == ("unbounded", "recession", (1, 0))
        boxed = boxed_form(lp)
        assert boxed.tight_rows(out.point) == [3, 5]  # x <= B and y <= B

    def test_other_routes(self):
        assert solve(square(), cfg()).route == "vertex"
        assert solve(model.make_lp([[1], [-1]], [0, -1], [1]), cfg()).route == "phase1-gap"
        assert solve(_flat_in_x3([2, 2, 3, 0, 0, 4], [1, 1, 1]), cfg(seed=1)).route == "escape"

    @pytest.mark.parametrize(
        "solves",
        [
            pytest.param(lambda: fuzz_solves(randomness.MODE_FLOAT), id="fuzz-float"),
            pytest.param(lambda: fuzz_solves(randomness.MODE_DYADIC), id="fuzz-dyadic"),
            *(
                pytest.param(lambda seed=seed: pool_solves(seed), id=f"mixed-status-{seed}")
                for seed in (1, 2, 3, 4)
            ),
        ],
    )
    def test_answers_agree_with_the_oracle(self, ray_ends, solves):
        # every status and optimal value equals the oracle's, as the answers
        # before edges answered unbounded did; every ray is certified and
        # unbounded for the oracle, and no Phase-1 walk ends at a ray
        routes = []
        for name, lp, conf, start in solves():
            out = solve(lp, conf, initial_bfs=start)
            ref = oracle.classify(lp)
            assert (out.status, out.value) == (ref.status, ref.value), name
            if out.ray is not None:
                driver._check_ray(model.integer_form(lp), lp.m, lp.c0, out.ray)
            routes.append(out.route)
        assert set(ray_ends["chain"] + ray_ends["is_optimal"]) == {0}
        assert routes.count("edge-ray") == len(ray_ends["chain"] + ray_ends["is_optimal"]) >= 50
        assert set(routes) <= {"vertex", "edge-ray", "box-cone", "recession", "escape", "phase1-gap"}

    def test_the_fuzz_corpus_has_an_optimality_walk_ray(self, ray_ends):
        # case 166 of the corpus ends its chain unboxed on a vertex whose
        # basis does not carry c0; the certificate walk meets the ray
        for _, lp, conf, start in fuzz_solves(randomness.MODE_FLOAT):
            solve(lp, conf, initial_bfs=start)
        assert ray_ends["is_optimal"] == [0]


def prices(tab, w):
    """Exact price w . (-M[:, k]) / D of w, an (integer numerators,
    denominator) pair, at each basis position of tab, up to the common
    factor -1 / D."""
    nums, den = w
    return [F(sum(nums[t] * tab.M[t][k] for t in range(tab.n)), den) for k in range(tab.n)]


class TestChainStop:
    """A facet chain ends after the first finished walk whose basis carries
    c0, and never before its first walk."""

    def test_chain_ends_when_its_basis_carries_c0(self):
        cube = unit_cube([3, 2, 1])
        form = boxed_form(cube)
        start = BasicSolution(point=(F(0), F(0), F(0)), basis=(3, 4, 5))
        tab = walk.Tableau(form, start)
        cand = repeated_shadow_vertex(
            tab, prim(cube.c0), F(64), BITS, randomness.DrawStream(2)
        )
        assert len(cand.traces) == 1 and not cand.capped
        assert tab.solution().point == (1, 1, 1) and tab.carries([3, 2, 1])
        walked = (tab.c_num, tab.pivot_count)
        assert walked[1] > 0
        assert is_optimal(form, tab.solution(), tab, cube.c0)
        # the reduced costs certify c0, so no certificate walk is aimed
        assert (tab.c_num, tab.pivot_count) == walked

    def test_chain_starts_with_a_walk_even_at_the_optimum(self):
        # the start is the optimum and its basis carries c0: one walk, no pivot
        cube = unit_cube([3, 2, 1])
        start = BasicSolution(point=(F(1), F(1), F(1)), basis=(0, 1, 2))
        cand = repeated_shadow_vertex(
            walk.Tableau(boxed_form(cube), start), prim(cube.c0), F(64),
            BITS, randomness.DrawStream(2)
        )
        assert len(cand.traces) == 1 and cand.traces[0].path.steps == ()

    def test_degenerate_optimum_walks_a_second_round(self, monkeypatch):
        # a tu-warm instance whose first walk ends on the c0-optimal vertex,
        # which has 10 tight rows in R^8, on a basis that does not carry c0:
        # the chain walks on, and the second round's basis carries it
        lp = harness.generate_tu_instance("interval-matrix", 16, 8, 52)
        c0 = prim(lp.c0)
        after = []
        shadow_walk = walk.shadow_walk

        def recording(tab, c, w, pivot_cap=None, held=()):
            res = shadow_walk(tab, c, w, pivot_cap=pivot_cap, held=held)
            after.append((tab.solution(), tab.carries(c0)))
            return res

        monkeypatch.setattr(walk, "shadow_walk", recording)
        out = _solve_warm("interval-matrix", 52)
        start = model.move_to_vertex(lp, _interior_point("interval-matrix", 16, 8, 52))
        ref = oracle.reference_simplex(lp, start)
        assert out.status == ref.status == "optimal" and out.value == ref.value
        (first, carried), *rest = after
        assert dot(list(lp.c0), list(first.point)) == out.value
        assert len(model.integer_form(lp).tight_rows(first.point)) > lp.n
        assert not carried
        assert rest and rest[-1][1] and not any(c for _, c in rest[:-1])

    def test_phase1_chain_ends_at_the_first_zero_artificial_sum(self, monkeypatch):
        # the 32x16 interval instance of the TU sweep (generator seed 1001,
        # solver seed 1): the Phase-1 walk pivots until the artificial sum
        # first reaches 0 and stops at that pivot, which ends its chain (38
        # Phase-1 pivots when the walk ran on to its own optimum)
        lp = harness.generate_tu_instance("interval-matrix", 32, 16, 1001)
        sums = []
        pivot = walk.Tableau.pivot

        def recording(tab):
            step = pivot(tab)
            if tab.n > lp.n and step is not None:  # a pivot on the Phase-1 face
                sums.append(sum(tab.vertex()[lp.n :]))
            return step

        monkeypatch.setattr(walk.Tableau, "pivot", recording)
        out = solve(lp, cfg(seed=1))
        start = model.move_to_vertex(lp, _interior_point("interval-matrix", 32, 16, 1001))
        ref = oracle.reference_simplex(lp, start)
        assert out.status == ref.status == "optimal" and out.value == ref.value
        assert sums[-1] == 0 and all(y > 0 for y in sums[:-1])
        assert out.phase1_pivots == len(sums) == 21

    def test_infeasible_cold_solve_keeps_its_gap(self, monkeypatch):
        # Phase 1 never reaches a zero artificial sum, so it ends on its
        # optimum, whose sum is the gap
        lp = harness.generate_random_integer(10, 4, 1041)
        sums = []
        shadow_walk = walk.shadow_walk

        def recording(tab, c, w, pivot_cap=None, held=()):
            res = shadow_walk(tab, c, w, pivot_cap=pivot_cap, held=held)
            sums.append(sum(tab.vertex()[lp.n :]))
            return res

        monkeypatch.setattr(walk, "shadow_walk", recording)
        out = solve(lp, cfg(seed=1))
        assert out.status == oracle.classify(lp).status == "infeasible"
        assert out.infeasible_gap > 0 and out.infeasible_gap == sums[-1]
        assert all(y > 0 for y in sums)

    def test_no_phase1_walk_pivots_past_zero(self, monkeypatch):
        # the fuzz corpus in both modes and the pools of seed 7: a
        # Phase-1 tableau never pivots from a vertex where sum(y) = 0, read
        # off its vertex in Fractions, and its solve accepts the first such
        # vertex with no is_optimal call
        pivot, certify = walk.Tableau.pivot, driver.is_optimal
        reached, certified = [], []

        def checked(tab):
            if tab.stop_at_zero:
                assert dot(tab.c0, tab.vertex()) < 0
            step = pivot(tab)
            if tab.stop_at_zero and step is not None and dot(tab.c0, tab.vertex()) == 0:
                reached.append(tab)
            return step

        def certifying(form, x, tab, c0):
            certified.append(tab)
            return certify(form, x, tab, c0)

        monkeypatch.setattr(walk.Tableau, "pivot", checked)
        monkeypatch.setattr(driver, "is_optimal", certifying)
        solve_fuzz_corpus(randomness.MODE_FLOAT)
        solve_fuzz_corpus(randomness.MODE_DYADIC)
        solve_benchmark_pools(7)
        assert len(reached) >= 200
        assert not set(map(id, reached)) & set(map(id, certified))

    def test_phase1_boxed_before_zero_agrees_with_the_oracle(self, twinned_chains, monkeypatch):
        # x2 <= 1 and x1 >= 0 lead, and x_bar = (0, 1) violates x2 <= 0.  From
        # the Phase-1 start the edge along x1 keeps sum(y) and no face row
        # blocks it, so a walk whose draws take it first appends the face box
        # before it reaches 0, and ends on a box row of the face; its chain
        # is the eagerly boxed face's (`twinned_chains`)
        lp = model.make_lp([[0, 1], [-1, 0], [0, 1]], [1, 0, 0], [1, -1])
        ref = oracle.classify(lp)
        pivot = walk.Tableau.pivot
        boxed = []

        def recording(tab):
            step = pivot(tab)
            # the solve's tableau, not its twin or the copy walked first
            if not hasattr(tab, "twin") and tab.stop_at_zero and step is not None and tab.at_zero():
                boxed.append(tab.boxed)
            return step

        monkeypatch.setattr(walk.Tableau, "pivot", recording)
        form = model.integer_form(lp)
        for mode in (randomness.MODE_FLOAT, randomness.MODE_DYADIC):
            for seed in range(400):
                conf = SolveConfig(rng=randomness.RngConfig(seed=seed, mode=mode))
                out = solve(lp, conf)
                assert out.status == ref.status == "unbounded" and out.phase1_artificials == 1
                assert lp.feasible(out.point)
                driver._check_ray(form, lp.m, lp.c0, out.ray)
        assert len(boxed) == 800 and sum(boxed) >= 10
        assert twinned_chains["boxed"] >= sum(boxed)

    def test_infeasible_lps_keep_their_phase1_pivots_and_gaps(self, monkeypatch):
        # with the stop at zero switched off a Phase-1 walk runs on to its
        # own optimum, which is_optimal certifies.  On the fuzz corpus and
        # the mixed-status pools of seeds 1 and 2, an infeasible LP, which
        # never reaches sum(y) = 0, has the same pivots, bits and gap either
        # way, and every other LP the same status and value, with a
        # certified ray when it is unbounded
        solves = [*fuzz_solves(randomness.MODE_FLOAT), *pool_solves(1), *pool_solves(2)]
        stopped = [solve(lp, conf, initial_bfs=start) for _, lp, conf, start in solves]
        monkeypatch.setattr(walk.Tableau, "at_zero", lambda tab: False)
        infeasible = 0
        for (name, lp, conf, start), got in zip(solves, stopped):
            want = solve(lp, conf, initial_bfs=start)
            assert (got.status, got.value) == (want.status, want.value), name
            if got.ray is not None:
                driver._check_ray(model.integer_form(lp), lp.m, lp.c0, got.ray)
            if want.status == "infeasible":
                infeasible += 1
                assert got.infeasible_gap == want.infeasible_gap > 0, name
                assert got.pivot_sequence == want.pivot_sequence, name
                assert got.bits_consumed == want.bits_consumed, name
                assert got.phase1_pivots == want.phase1_pivots, name
        assert infeasible >= 100

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_benchmark_pools_agree_with_the_oracle(self, seed):
        # every instance of the three benchmark pools, as the benchmark
        # solves it on its first pass and checks it
        workloads = load_workloads()
        pkg = SimpleNamespace(harness=harness, model=model, rational=rational)
        for name, wl in workloads.WORKLOADS.items():
            for inst in workloads.build_pool(pkg, name, seed):
                rng = randomness.RngConfig(seed=inst.seed, mode=inst.mode)
                out = solve(inst.lp, SolveConfig(rng=rng), initial_bfs=inst.start)
                if wl.check == "classify":
                    ref = oracle.classify(inst.lp)
                else:
                    ref = oracle.reference_simplex(inst.lp, inst.start)
                assert (out.status, out.value) == (ref.status, ref.value), inst.id
                if out.status == "optimal":
                    assert inst.lp.feasible(out.point), inst.id
                    assert dot(list(inst.lp.c0), list(out.point)) == out.value, inst.id


class TestConeObjective:
    def test_integer_w_prices_like_the_projected_w(self):
        # w on the tableau's integer rows against the face-coordinate w
        # lifted by basis.lift: equal prices at every non-held basis position
        # along the walk, and the same path
        rng = random.Random(91)
        done = 0
        held_differs = 0
        while done < 60:
            n = rng.randint(2, 5)
            m = rng.randint(n + 1, n + 5)
            A = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
            A = [row for row in A if any(row)]
            c0 = [F(rng.randint(-3, 3)) for _ in range(n)]
            if linalg.rank(A) < n or not any(c0):
                continue
            lp = box(model.make_lp(A, [F(rng.randint(1, 4)) for _ in A], c0))
            start = model.move_to_vertex(lp, [F(0)] * n)
            tab = walk.Tableau(model.integer_form(lp), start)
            fixed = tab.basis[: min(done % 3, n - 1)]
            basis = linalg.FaceBasis(n)
            c0_face = facet_restriction([tab.R[i] for i in fixed], prim(lp.c0), basis)
            if c0_face is None:
                continue
            free = sorted(set(tab.basis) - set(fixed))
            stream = randomness.DrawStream(done)
            pert = randomness.perturb_objective(c0_face, F(8 * n), BITS, stream)
            c = basis.lift((pert.c, pert.den))
            lam = randomness.draw_lambda(len(free), BITS, stream)
            tau = [basis.tau(tab.R[i]) for i in free]
            assert tau == [reference.face_image(tab.R[i], basis.cols, basis.scales)[1] for i in free]
            w_int = driver.lifted_cone_objective([tab.R[i] for i in free], lam, tau)
            u = image_values(restriction_coords(basis, [tab.R[i] for i in free]))
            w_ref = basis.lift(pair(randomness.cone_objective(u, values(lam))))

            tab.aim(c, w_int, fixed)
            while True:
                got, ref = prices(tab, w_int), prices(tab, w_ref)
                for k, row in enumerate(tab.basis):
                    if row in fixed:
                        held_differs += got[k] != ref[k]
                    else:
                        assert got[k] == ref[k]
                if tab.pivot() is None:
                    break

            tabs = [walk.Tableau(model.integer_form(lp), start) for _ in range(2)]
            paths = [walk.shadow_walk(t, c, w, held=fixed) for t, w in zip(tabs, (w_int, w_ref))]
            # the two w differ in scale, so the steps' pairs do; their values agree
            assert path_values(paths[0].path) == path_values(paths[1].path)
            assert tabs[0].solution() == tabs[1].solution()
            done += 1
        # the integer w is not the projected one: it prices held rows apart
        assert held_differs > 0

    def test_lambda_checked(self):
        w = driver.lifted_cone_objective([[1, 2]], ([1], 1), [(1, 2)])
        assert values(w) == [F(-1, 2), F(-1)]
        for bad in (F(0), F(3, 2), F(-1, 4)):
            with pytest.raises(DriverError, match="lambda"):
                driver.lifted_cone_objective([[1, 2]], pair([bad]), [(1, 1)])

    def test_unit_norm_check_on_tau(self, monkeypatch):
        exact = linalg.unit_scale_pq

        def off_by(k):
            def scaled(p, q):
                a, b = exact(p, q)
                return a * (2**k + 1), b << k  # the exact factor times 1 + 2^-k

            return scaled

        basis = linalg.FaceBasis(3)
        facet_restriction([[1, 1, 0]], [1, 2, 3], basis)
        assert basis.tau([1, 0, 2]) == reference.face_image([1, 0, 2], basis.cols, basis.scales)[1]
        with pytest.raises(linalg.LinAlgError, match="constant"):
            basis.tau([2, 2, 0])  # the fixed row's multiple has no face image
        monkeypatch.setattr(linalg, "unit_scale_pq", off_by(20))
        with pytest.raises(linalg.LinAlgError, match="unit norm"):
            basis.tau([1, 0, 2])
        with pytest.raises(linalg.LinAlgError, match="unit norm"):
            solve(square(), cfg())
        # an error well inside the 3e-10 tolerance passes
        monkeypatch.setattr(linalg, "unit_scale_pq", off_by(40))
        assert solve(square(), cfg()).status == "optimal"


class TestSchedule:
    def test_base_variant_doubles(self):
        s = PhiSchedule(variant="n32", n=4, m=9)
        assert s.phi(1) == 2 * s.phi(0)
        assert float(s.phi(0)) == pytest.approx(8.0, rel=1e-12)  # 4^{3/2}

    def test_delta_aware_variant(self):
        s = PhiSchedule(variant="n52", n=4, m=9)
        assert float(s.phi(0)) == pytest.approx(32.0, rel=1e-12)  # 4^{5/2}

    def test_phase1_variant(self):
        s = PhiSchedule(variant="phase1", n=2, m=4)
        assert float(s.phi(0)) == pytest.approx(2 * 6**1.5, rel=1e-12)

    @pytest.mark.parametrize(
        "variant", [driver.SCHEDULE_BASE, driver.SCHEDULE_DELTA_AWARE, driver.SCHEDULE_PHASE1]
    )
    def test_bits_and_cap_equal_the_fraction_formula(self, variant):
        # delta_hat is formed from integer square roots; the bit budget and
        # the pivot cap are those of the Fraction stand-in, whose float it is
        conf = SolveConfig(rng=randomness.RngConfig(seed=0, mode=randomness.MODE_DYADIC))
        for n in range(1, 65):
            m = 3 * n + 2  # a boxed form's m + 2n rows
            sched = PhiSchedule(variant, n=n, m=m)
            for i in range(21):
                phi = sched.phi(i)
                dh = reference.delta_hat(n, phi)
                assert randomness.delta_hat(n, phi) == float(dh)
                bits, cap = driver._walk_bits_and_cap(m, n, phi, conf)
                assert bits == randomness.bit_budget(m, n, phi, dh)
                assert cap == driver.pivot_cap(m, n, phi, dh, conf.cap_constant)


class TestSolve:
    def test_square_optimal(self):
        out = solve(square(), cfg())
        assert out.status == "optimal" and out.value == 2 and out.point == (1, 1)

    def test_infeasible(self):
        out = solve(model.make_lp([[1], [-1]], [0, -1], [1]), cfg())
        assert out.status == "infeasible" and out.infeasible_gap == 1

    def test_unbounded(self):
        out = solve(model.make_lp([[-1]], [0], [1]), cfg())
        assert out.status == "unbounded"
        assert out.ray[0] > 0

    def test_unbounded_past_old_ray_scan_guard(self):
        # {-x_i <= 0, -x_i - x_j <= 0} in R^8, c = 1: C(36, 7) row subsets
        # exceed the old ray scan's guard
        lp = model.make_lp(pair_cone_rows(8), [0] * 36, [1] * 8)
        out = solve(lp, cfg())
        assert out.status == "unbounded"
        driver._check_ray(model.integer_form(lp), lp.m, lp.c0, out.ray)

    @pytest.mark.parametrize("s", range(6))
    def test_dyadic_draws_wider_than_the_underlying_draw(self, s, monkeypatch):
        # cold 32x16 TU solves: the Phase-1 face's bit budget passes the
        # 1024-bit underlying draw, whose draws once raised; the dyadic solve
        # answers with the float-mode value
        lp = harness.generate_tu_instance(harness.GENERATORS[s % 3], 32, 16, 1000 + s)
        widths = []
        bits_and_cap = driver._walk_bits_and_cap

        def recording(*args):
            got = bits_and_cap(*args)
            widths.append(got[0])
            return got

        monkeypatch.setattr(driver, "_walk_bits_and_cap", recording)
        dyadic = randomness.RngConfig(seed=s, mode=randomness.MODE_DYADIC)
        out = solve(lp, SolveConfig(rng=dyadic))
        assert max(widths) > randomness.UNDERLYING_BITS
        ref = solve(lp, cfg(seed=s))
        assert out.status == ref.status == "optimal" and out.value == ref.value

    def test_random_20x8_unbounded_quickly(self):
        # the old ray scan took minutes on this instance (C(20, 7) subsets)
        lp = harness.generate_random_integer(20, 8, 505)
        t0 = time.perf_counter()
        out = solve(lp, cfg(seed=5))
        assert time.perf_counter() - t0 < 10
        assert out.status == "unbounded"
        driver._check_ray(model.integer_form(lp), lp.m, lp.c0, out.ray)

    def test_box_tight_bounded_optimum(self, monkeypatch):
        # max x1 subject to x1 <= 1, -x2 <= 1: the optimal face is unbounded,
        # and the perturbed objective rises along it, so the accepted boxed
        # vertex has a box row tight; yet no improving ray exists
        verdicts = []
        decide = model.assert_unbounded_if_box_tight

        def recording(tab, c0):
            tight = tab.form.tight_rows(tab.vertex())
            verdicts.append(set(box_rows(tab.form)) & set(tight))
            return decide(tab, c0)

        monkeypatch.setattr(model, "assert_unbounded_if_box_tight", recording)
        out = solve(model.make_lp([[1, 0], [0, -1]], [1, 1], [1, 0]), cfg())
        assert out.status == "optimal" and out.value == 1
        assert verdicts and verdicts[-1]

    def test_boxed_lp_is_solved_as_given(self):
        # the box rows of an LP boxed before the solve are rows of the LP it
        # was given: the optimum on them is bounded, and no ray past them is
        # sought (it failed the ray check)
        lp = box(model.make_lp([[-1, 0], [0, -1]], [0, 0], [1, 1]))
        out = solve(lp, cfg())
        assert out.status == "optimal" and out.value == oracle.classify(lp).value

    def test_unbounded_point_checked_against_raw_lp(self, monkeypatch):
        # the boxed LP's verdict no longer re-checks its point; solve checks
        # the reported point against the LP it was given, as for an optimum.
        # The quadrant at seed 245 reaches the verdict on a box corner
        # (`TestRoutes.test_recession_walk_decides_past_the_basis`)
        calls = []
        monkeypatch.setattr(
            model,
            "assert_unbounded_if_box_tight",
            lambda tab, c0: calls.append(tab) or UnboundedCertificate((F(-1), F(0)), (F(1), F(0))),
        )
        with pytest.raises(DriverError, match="infeasible"):
            solve(model.make_lp([[-1, 0], [0, -1]], [0, 0], [1, 0]), cfg(seed=245))
        assert len(calls) == 1

    def test_never_normalizes(self, monkeypatch):
        def refuse(lp):
            raise AssertionError("normalize called")

        monkeypatch.setattr(model, "normalize", refuse)
        assert solve(square(c0=(2, 3)), cfg()).status == "optimal"
        start = BasicSolution(point=(F(0), F(0)), basis=(1, 3))
        assert solve(square(c0=(2, 3)), cfg(), initial_bfs=start).value == 5
        assert solve(model.make_lp([[-3, 4], [0, -2]], [0, 0], [1, 1]), cfg()).status == "unbounded"

    @pytest.mark.parametrize(
        "point,basis,message",
        [
            ((1, 1), (0, 2), "infeasible"),  # x + y <= 1 fails at the tight corner
            ((1, 0), (0, 2), "reproduce"),  # y <= 1 is not tight at y = 0
            ((1, 0), (0, 1), "dependent"),  # x <= 1 and -x <= 0
            ((1, 0), (0,), "n distinct"),
        ],
    )
    def test_bad_start_raises_on_tableau_build(self, point, basis, message):
        lp = model.make_lp(
            [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]], [1, 0, 1, 0, 1], [1, 1]
        )
        start = BasicSolution(point=tuple(F(v) for v in point), basis=basis)
        with pytest.raises(walk.WalkError, match=message):
            solve(lp, cfg(), initial_bfs=start)

    def test_start_checked_only_by_the_tableau(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("start re-derived outside the tableau")

        monkeypatch.setattr(model, "validate_basic_solution", refuse)
        monkeypatch.setattr(model, "tight_basis_at", refuse)
        start = BasicSolution(point=(F(0), F(0)), basis=(1, 3))
        assert solve(square(c0=(2, 3)), cfg(), initial_bfs=start).value == 5
        # cold, with a start that skips Phase 1 (whose crawl to a vertex
        # calls tight_basis_at)
        assert solve(square(c0=(2, 3)), cfg()).value == 5

    def test_chain_starts_from_the_given_basis(self):
        # (1, 1) is degenerate: x <= 1, y <= 1 and x + y <= 2 are tight there,
        # and the greedy basis would be (0, 2)
        lp = model.make_lp(
            [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]], [1, 0, 1, 0, 2], [1, 2]
        )
        start = BasicSolution(point=(F(1), F(1)), basis=(2, 4))
        out = solve(lp, cfg(), initial_bfs=start)
        assert out.status == "optimal" and out.value == 3
        assert out.traces[0].path.start_basis == (2, 4)

    def test_no_state_survives_a_solve(self):
        # the same LinearProgram object solved twice: same outcome, and the
        # solve leaves nothing on it
        warm = harness.generate_tu_instance("interval-matrix", 16, 8, 3)
        start = model.move_to_vertex(warm, _interior_point("interval-matrix", 16, 8, 3))
        dyadic = randomness.RngConfig(seed=3, mode=randomness.MODE_DYADIC)
        cases = [
            (harness.generate_random_integer(9, 5, 920), cfg(seed=0), None),
            (warm, SolveConfig(rng=dyadic), start),
        ]
        for lp, conf, bfs in cases:
            before = dict(vars(lp))
            first = solve(lp, conf, initial_bfs=bfs)
            second = solve(lp, conf, initial_bfs=bfs)
            assert first == second
            assert vars(lp) == before

    def test_zero_objective(self):
        out = solve(model.make_lp([[1], [-1]], [1, 0], [0]), cfg())
        assert out.status == "optimal" and out.value == 0
        assert out.phi_accepted == PhiSchedule(driver.SCHEDULE_BASE, n=1, m=2).phi(0)

    def test_zero_objective_returns_the_given_start(self):
        # the start is the optimum: the facet chain stops at round 0 and the
        # certificate walk finds no improving edge; Phase 1 does not run
        start = BasicSolution(point=(F(0), F(0)), basis=(1, 3))
        out = solve(square(c0=(0, 0)), cfg(), initial_bfs=start)
        assert out.status == "optimal" and out.value == 0
        assert out.point == (0, 0) and out.vertex == start
        assert out.pivots == out.phase1_artificials == 0
        # the start is checked by the chain's Tableau build
        bad = BasicSolution(point=(F(1), F(0)), basis=(0, 1))
        with pytest.raises(walk.WalkError, match="dependent"):
            solve(square(c0=(0, 0)), cfg(), initial_bfs=bad)

    @pytest.mark.parametrize("basis", [(-2, -1), (2, 7)])
    def test_start_rows_out_of_range_raise(self, basis):
        # rows x <= 1, y <= 1, -x <= 0, -y <= 0 at (0, 0): negative rows
        # would alias rows 3 and 2, the tight ones, and row 7 does not exist
        lp = model.make_lp([[1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, 0, 0], [0, 0])
        start = BasicSolution(point=(F(0), F(0)), basis=basis)
        with pytest.raises(walk.WalkError, match="range"):
            solve(lp, cfg(), initial_bfs=start)
        with pytest.raises(walk.WalkError, match="range"):
            walk.Tableau(model.integer_form(lp), start)

    def test_escape_ignores_the_given_start(self):
        # rank 2 of 3 and c0 off the row span: the LP has no vertex, so Phase
        # 1 decides feasibility even when a start is given
        lp = _flat_in_x3([2, 2, 3, 0, 0, 4], [1, 1, 1])
        start = BasicSolution(point=(F(0), F(0), F(0)), basis=(3, 4, 6))
        out = solve(lp, cfg(seed=1), initial_bfs=start)
        assert out.status == "unbounded" and out.ray == (0, 0, 1)
        assert out.phase1_artificials == 2
        assert out == solve(lp, cfg(seed=1))

    def test_rank_deficient_escape(self):
        out = solve(model.make_lp([[1, 0]], [1], [0, 1]), cfg())
        assert out.status == "unbounded"

    def test_rank_deficient_in_span(self):
        out = solve(model.make_lp([[1, 1]], [2], [1, 1]), cfg())
        assert out.status == "optimal" and out.value == 2

    def test_rank_completion_checks_escape_once(self, monkeypatch):
        calls = []
        escape = model._objective_escape
        monkeypatch.setattr(
            model, "_objective_escape", lambda c0, rows: calls.append(rows) or escape(c0, rows)
        )
        lp = model.make_lp([[1, 0], [-1, 0]], [1, 0], [1, 0])
        out = solve(lp, cfg())
        assert out.status == "optimal" and out.value == 1
        assert len(calls) == 1

    def test_given_bfs_skips_phase1(self):
        lp = square()
        start = BasicSolution(point=(F(0), F(0)), basis=(1, 3))
        out = solve(lp, cfg(), initial_bfs=start)
        assert out.status == "optimal" and out.phase1_pivots == 0

    def test_tu_flow_instance_matches_oracle(self):
        lp = harness.generate_tu_instance("tu-incidence", m=4, n=3, seed=9)
        out = solve(lp, cfg(seed=4))
        ref = oracle.classify(lp)
        assert out.status == ref.status == "optimal"
        assert out.value == ref.value

    def test_schedule_accepts_within_delta_bound(self):
        rng = random.Random(2)
        done = 0
        while done < 10:
            n = rng.randint(1, 3)
            m = rng.randint(n, 6)
            A = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)]
            A = [r for r in A if any(x != 0 for x in r)]
            if len(A) < n or linalg.rank(A) < n:
                continue
            b = [F(rng.randint(0, 3)) for _ in range(len(A))]
            c = [F(rng.randint(-2, 2)) for _ in range(n)]
            if all(x == 0 for x in c):
                continue
            lp = model.make_lp(A, b, c)
            if oracle.classify(lp).status != "optimal":
                continue
            boxed = box(lp)
            delta = metrics.delta_matrix(boxed.rows()).delta
            out = solve(lp, cfg(seed=done))
            assert out.status == "optimal"
            assert float(out.phi_accepted) <= 8 * n**1.5 / delta * (1 + 1e-9)
            assert out.doublings <= ceil(log2(1 / delta)) + 2
            done += 1

    def test_dyadic_random_bit_mode_still_certifies(self):
        lp = square(c0=(2, 3))
        out = solve(lp, cfg(seed=5), initial_bfs=None)
        dy = SolveConfig(rng=randomness.RngConfig(seed=5, mode="dyadic", bits_per_draw=64))
        out2 = solve(lp, dy)
        assert out.status == out2.status == "optimal"
        assert out.value == out2.value == 5

    def test_doubling_guard_raises(self):
        lp = square()
        bad = SolveConfig(rng=randomness.RngConfig(seed=0), max_doublings=0)
        with pytest.raises(driver.DoublingLimitError):
            solve(lp, bad)

    def test_traces_collected(self):
        out = solve(square(c0=(1, 3)), cfg())
        assert out.traces
        for tr in out.traces:
            validate_shadow_path(tr.path)

    def test_traces_are_the_pivot_record(self):
        # every solve keeps each round's path, also when Phase 1 runs and when
        # a walk is capped; its pivot count and sequence are read off them
        warm = harness.generate_tu_instance("interval-matrix", 16, 8, 3)
        warm_start = model.move_to_vertex(warm, _interior_point("interval-matrix", 16, 8, 3))
        # a parabola's edges from x = -2 to 30, under y <= 900: from the
        # bottom vertex the optimum (30, 900) is 3 pivots away on the left
        # and 30 on the right, which a cap of 8n = 16 pivots cuts
        rows = [[2 * x + 1, -1] for x in range(-2, 30)] + [[0, 1]]
        rhs = [x * (x + 1) for x in range(-2, 30)] + [900]
        fan = model.make_lp(rows, rhs, [1, 100])
        bottom = BasicSolution(point=(F(0), F(0)), basis=(1, 2))
        dyadic = randomness.RngConfig(seed=0, mode=randomness.MODE_DYADIC)
        cold = solve(harness.generate_tu_instance("interval-matrix", 6, 3, 0), cfg())
        capped = solve(fan, SolveConfig(rng=dyadic, cap_constant=0), initial_bfs=bottom)
        assert cold.phase1_artificials > 0 and cold.phase1_pivots > 0
        assert capped.doublings == 1 and len(capped.traces[0].path.steps) == 16
        for out in (cold, solve(warm, cfg(seed=3), initial_bfs=warm_start), capped):
            assert out.traces
            steps = sum(len(tr.path.steps) for tr in out.traces)
            assert out.pivots == len(out.pivot_sequence) == steps

    def test_tri_oracle_agreement(self):
        # enumeration, the textbook simplex, and the shadow pipeline agree
        # exactly on the optimal value of feasible bounded desk instances
        rng = random.Random(55)
        done = 0
        while done < 30:
            n = rng.randint(1, 3)
            m = rng.randint(n + 1, 7)
            A = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
            A = [r for r in A if any(x != 0 for x in r)]
            if len(A) < n or linalg.rank(A) < n:
                continue
            b = [F(rng.randint(0, 4)) for _ in range(len(A))]
            c = [F(rng.randint(-3, 3)) for _ in range(n)]
            if all(x == 0 for x in c):
                continue
            lp = model.make_lp(A, b, c)
            brute = oracle.brute_force_optimum(lp)
            if brute.status != "optimal":
                continue
            start = model.move_to_vertex(lp, [F(0)] * n)
            ref = oracle.reference_simplex(lp, start)
            out = solve(lp, cfg(seed=done))
            assert ref.status == out.status == "optimal"
            assert brute.value == ref.value == out.value
            done += 1

    def test_facet_identification_with_large_phi(self):
        # with phi above 2 n^{3/2}/delta the identified row must be in the
        # true optimal basis, deterministically
        rng = random.Random(33)
        done = 0
        while done < 30:
            n = rng.randint(2, 3)
            m = rng.randint(n + 1, 6)
            A = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)]
            A = [r for r in A if any(x != 0 for x in r)]
            if len(A) < n or linalg.rank(A) < n:
                continue
            b = [F(rng.randint(0, 3)) for _ in range(len(A))]
            c = [F(rng.randint(-2, 2)) for _ in range(n)]
            if all(x == 0 for x in c):
                continue
            lp0 = model.make_lp(A, b, c)
            ref = oracle.brute_force_optimum(lp0)
            if ref.status != "optimal":
                continue
            opt_tight = lp0.tight_rows(ref.point)
            if len(opt_tight) != n:
                continue  # need a unique nondegenerate optimum
            others = [
                dot(list(lp0.c0), list(v.point))
                for v in oracle.enumerate_vertices(lp0).vertices
                if v.point != ref.point
            ]
            if any(v == ref.value for v in others):
                continue
            boxed = box(lp0)
            inv2 = metrics.delta_matrix(boxed.rows()).inv_delta_sq
            phi = 4 * n * ratsqrt_ceil(F(n)) * ratsqrt_ceil(inv2)
            # the first round of a facet chain: nothing fixed yet
            basis, c0_face = restrict(boxed, [])
            tab = walk.Tableau(model.integer_form(boxed), model.move_to_vertex(boxed, [F(0)] * n))
            stream = randomness.DrawStream(done)
            pert = randomness.perturb_objective(c0_face, phi, BITS, stream)
            u = image_values(restriction_coords(basis, [tab.R[i] for i in sorted(tab.basis)]))
            lam = randomness.draw_lambda(n, BITS, stream)
            w = randomness.cone_objective(u, values(lam))
            res = walk.shadow_walk(tab, basis.lift((pert.c, pert.den)), basis.lift(pair(w)))
            assert res.finished
            free = sorted(tab.basis)
            assert free[identify_basis_element(tab, basis, free, {})] in opt_tight
            done += 1
