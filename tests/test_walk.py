import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from boxing import box, lifted, orthants
from chains import nested_objective
from reference import pair, validate_shadow_path, values
from test_golden import _interior_point
from test_integer_path import load_workloads

from shadow_simplex import driver, harness, linalg, model, oracle, randomness, rational, walk
from shadow_simplex.model import BasicSolution, integer_form
from shadow_simplex.rational import dot, unit_scale
from shadow_simplex.walk import (
    ShadowPath,
    Tableau,
    UnboundedEdgeError,
    WalkError,
    first_gain,
    shadow_walk,
    tight_rows_at,
)

F = Fraction


def square(c0=(1, 1)):
    return model.make_lp([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0], list(c0))


def unit(row):
    """row scaled to near-unit norm, as the draws need it."""
    t = unit_scale(list(row))
    return [t * x for x in row]


def origin_start():
    return BasicSolution(point=(F(0), F(0)), basis=(1, 3))


class TestTightRows:
    def test_square_origin(self):
        rows = tight_rows_at(square(), origin_start())
        assert rows == [[-1, 0], [0, -1]]

    def test_cube_corner(self):
        lp = model.make_lp(
            [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]],
            [1, 1, 1, 0, 0, 0],
            [1, 1, 1],
        )
        rows = tight_rows_at(lp, BasicSolution(point=(F(1), F(1), F(1)), basis=(0, 1, 2)))
        assert rows == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_dependent_basis_rejected(self):
        with pytest.raises(WalkError):
            tight_rows_at(square(), BasicSolution(point=(F(0), F(0)), basis=(1, 1)))


class TestShadowPivot:
    def test_first_pivot_by_slope(self):
        # From the origin with w = (l1, l2): neighbors (1,0) and (0,1).
        # Slopes are l1/c1 and l2/c2; choose c so (1,0) wins clearly.
        lp = square()
        c = [F(9, 10), F(1, 10)]
        w = [F(1, 2), F(1, 2)]  # -(-e1*l) - .. with l = 1/2 each
        tab = Tableau(integer_form(lp), origin_start())
        tab.aim(pair(c), pair(w))
        step = tab.pivot()
        assert step is not None
        assert tab.vertex() == [1, 0]
        assert step.entering_row == 0 and step.leaving_row == 1

    def test_at_optimum_returns_none(self):
        lp = square()
        tab = Tableau(integer_form(lp), BasicSolution(point=(F(1), F(1)), basis=(0, 2)))
        tab.aim(pair([F(1, 2), F(1, 2)]), pair([F(-1), F(-1)]))
        assert tab.pivot() is None

    def test_equal_slope_tie_takes_lowest_entering_row(self):
        # symmetric square, c and w chosen to tie the two improving edges:
        # slopes l/c equal componentwise
        lp = square()
        c = [F(1, 2), F(1, 2)]
        w = [F(1, 3), F(1, 3)]
        tab = Tableau(integer_form(lp), origin_start())
        tab.aim(pair(c), pair(w))
        step = tab.pivot()
        assert step.entering_row == 0  # rows 0 and 2 tie; lowest index wins

    def test_dependent_basis_rejected(self):
        # rows 0 and 1 (x <= 1, -x <= 0) are parallel
        lp = square()
        with pytest.raises(WalkError):
            Tableau(integer_form(lp), BasicSolution(point=(F(0), F(0)), basis=(0, 1)))

    def test_unbounded_edge_raises(self):
        lp = model.make_lp([[-1, 0], [0, -1]], [0, 0], [1, 1])
        tab = Tableau(integer_form(lp), BasicSolution(point=(F(0), F(0)), basis=(0, 1)))
        tab.aim(pair([F(1), F(0)]), pair([F(-1), F(-1)]))
        with pytest.raises(UnboundedEdgeError):
            tab.pivot()


class TestFirstGain:
    def test_returns_first_vertex_off_the_point(self):
        tab = Tableau(integer_form(square()), origin_start())
        assert first_gain(tab, [F(1, 2), F(1, 2)]) is True
        assert tab.vertex() in ([1, 0], [0, 1]) and tab.ray is None

    def test_none_when_basis_carries_c(self):
        # (1, 0) of the square with c = (1, -1): the basis {x <= 1, -y <= 0}
        # carries c; starting from it the walk makes no pivot
        tab = Tableau(integer_form(square()), BasicSolution(point=(F(1), F(0)), basis=(0, 3)))
        assert first_gain(tab, [F(1), F(-1)]) is False
        assert tab.pivot_count == 0


class TestShadowWalk:
    def test_square_reaches_argmax(self):
        tab = Tableau(integer_form(square()), origin_start())
        c = [F(7, 10), F(7, 10)]
        w = [F(2, 3), F(1, 3)]
        res = shadow_walk(tab, pair(c), pair(w))
        assert res.finished
        assert tab.solution().point == (1, 1)
        assert 1 <= res.pivots <= 2
        validate_shadow_path(res.path)

    def test_already_optimal_empty_path(self):
        tab = Tableau(integer_form(square()), BasicSolution(point=(F(1), F(1)), basis=(0, 2)))
        res = shadow_walk(tab, pair([F(1, 2), F(1, 2)]), pair([F(-1), F(-1)]))
        assert res.finished and res.pivots == 0 and res.path.steps == ()

    def test_cap_zero_contract(self):
        tab = Tableau(integer_form(square()), origin_start())
        res = shadow_walk(tab, pair([F(1, 2), F(1, 2)]), pair([F(1, 3), F(2, 3)]), pivot_cap=0)
        assert not res.finished and res.path.steps == ()

    def test_optimum_on_the_capth_pivot_is_finished(self):
        # a walk that reaches its optimum on the cap-th pivot is finished,
        # with the path of the uncapped walk; one pivot short, it is not
        c, w = pair([F(1, 2), F(1, 2)]), pair([F(1, 3), F(2, 3)])
        free = shadow_walk(Tableau(integer_form(square()), origin_start()), c, w)
        assert free.finished and free.pivots == 2
        capped = shadow_walk(Tableau(integer_form(square()), origin_start()), c, w, pivot_cap=2)
        assert capped.finished and capped.path == free.path
        short = shadow_walk(Tableau(integer_form(square()), origin_start()), c, w, pivot_cap=1)
        assert not short.finished and short.path.steps == free.path.steps[:1]

    def test_one_scan_of_the_improving_edges_per_pivot(self, monkeypatch):
        # the seed-7 tu-cold benchmark pool: inside its walks, the improving
        # edges are scanned once per pivot, plus once at each walk's end (777
        # scans for 304 pivots when the loop test scanned them too; 304
        # pivots in 169 walks before chains whose start basis carries c0
        # ended before round 0 and main chains began on Phase 1's basis)
        from test_integer_path import load_workloads

        seen = {"scans": 0, "pivots": 0, "walks": 0, "inside": False}
        improving, walk_fn = Tableau._improving, walk.shadow_walk

        def scanned(tab):
            seen["scans"] += seen["inside"]
            return improving(tab)

        def walking(tab, *args, **kwargs):
            seen["inside"] = True
            try:
                res = walk_fn(tab, *args, **kwargs)
            finally:
                seen["inside"] = False
            seen["pivots"] += res.pivots
            seen["walks"] += 1
            return res

        monkeypatch.setattr(Tableau, "_improving", scanned)
        monkeypatch.setattr(walk, "shadow_walk", walking)
        workloads = load_workloads()
        pkg = SimpleNamespace(harness=harness, model=model, rational=rational)
        for inst in workloads.build_pool(pkg, "tu-cold", 7):
            conf = driver.SolveConfig(rng=randomness.RngConfig(seed=inst.seed, mode=inst.mode))
            driver.solve(inst.lp, conf, initial_bfs=inst.start)
        assert (seen["pivots"], seen["walks"]) == (299, 156), seen  # Phase 1's included
        assert seen["pivots"] <= seen["scans"] <= seen["pivots"] + seen["walks"], seen

    def test_walk_matches_brute_force_on_random_instances(self):
        rng = random.Random(77)
        done = 0
        while done < 40:
            m, n = rng.randint(2, 7), rng.randint(1, 3)
            A = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
            A = [r for r in A if any(x != 0 for x in r)]
            if len(A) < n:
                continue
            b = [F(rng.randint(0, 5)) for _ in range(len(A))]  # origin feasible
            raw = [F(rng.randint(-3, 3)) for _ in range(n)]
            if all(x == 0 for x in raw):
                continue
            lp0 = model.make_lp(A, b, raw)
            from shadow_simplex import linalg

            if linalg.rank(lp0.rows()) < n:
                continue
            lp = box(lp0)
            try:
                start = model.move_to_vertex(lp, [F(0)] * n)
            except model.LPModelError:
                continue
            u = [unit(r) for r in tight_rows_at(lp, start)]
            lam = randomness.draw_lambda(n, randomness.CONTINUOUS_BITS, randomness.DrawStream(done))
            w = randomness.cone_objective(u, values(lam))
            pert = randomness.perturb_objective(
                pair(unit(lp.c0)),
                F(8 * n),
                randomness.CONTINUOUS_BITS,
                randomness.DrawStream(1000 + done),
            )
            c = values((pert.c, pert.den))
            tab = Tableau(integer_form(lp), start)
            res = shadow_walk(tab, (pert.c, pert.den), pair(w))
            assert res.finished
            validate_shadow_path(res.path)
            best = max(
                dot(c, list(v.point))
                for v in oracle.enumerate_vertices(lp).vertices
            )
            assert dot(c, list(tab.solution().point)) == best
            done += 1

    def test_degenerate_start_walks_cleanly(self):
        # pyramid apex has 4 tight rows in R^3: start there, minimize -z-ish
        lp0 = model.make_lp(
            [[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1], [0, 0, -1]],
            [1, 1, 1, 1, 0],
            [0, 0, -1],
        )
        lp = box(lp0)
        apex = BasicSolution(point=(F(0), F(0), F(1)), basis=(0, 1, 2))
        u = [unit(r) for r in tight_rows_at(lp, apex)]
        lam = [F(1, 2), F(1, 3), F(1, 4)]
        w = randomness.cone_objective(u, lam)
        pert = randomness.perturb_objective(
            pair(unit(lp.c0)), F(40), randomness.CONTINUOUS_BITS, randomness.DrawStream(5)
        )
        tab = Tableau(integer_form(lp), apex)
        res = shadow_walk(tab, (pert.c, pert.den), pair(w))
        assert res.finished
        validate_shadow_path(res.path)
        assert tab.solution().point[2] == 0  # reached the base


class TestTableauInternals:
    def test_integer_inverse_invariant_along_walk(self):
        rng = random.Random(5)
        lp = box(model.make_lp([[1, 2], [-1, 1], [0, -1], [2, -1]], [4, 2, 0, 3], [1, 1]))
        start = model.move_to_vertex(lp, [F(0), F(0)])
        c = [F(3, 5), F(4, 5)]
        w = [F(-1, 2), F(-1, 3)]
        tab = Tableau(integer_form(lp), start)
        tab.aim(pair(c), pair(w))
        while True:
            # invariant: R_basis @ M == D * I exactly
            n = tab.n
            for i in range(n):
                for j in range(n):
                    got = sum(tab.R[tab.basis[i]][t] * tab.M[t][j] for t in range(n))
                    assert got == (tab.D if i == j else 0)
            # the objective value stays consistent with the exact vertex
            assert tab.c_value() == dot(c, tab.vertex())
            step = tab.pivot()
            if step is None:
                break
            # the step's value, from the pricing pass before it
            assert step.c_value == dot(c, tab.vertex())

    def test_vertex_shares_equal_coordinates(self):
        # equal coordinates are one Fraction, and small integral ones the
        # shared rational.SMALL_INTEGRAL values: kept answers hold no copies
        lp = model.make_lp([[1, 0], [0, 1], [-1, -1]], [F(1, 2), F(1, 2), 5], [1, 1])
        x = Tableau(integer_form(lp), BasicSolution(point=(F(1, 2), F(1, 2)), basis=(0, 1))).vertex()
        assert x == [F(1, 2), F(1, 2)] and x[0] is x[1]
        x = Tableau(integer_form(square()), BasicSolution(point=(F(1), F(0)), basis=(0, 3))).vertex()
        assert x == [1, 0]
        assert x[0] is rational.SMALL_INTEGRAL[257] and x[1] is rational.SMALL_INTEGRAL[256]
        assert rational.fraction(10**6, 2) == 5 * 10**5 and rational.fraction(-3, 2) == F(-3, 2)


def assert_carried(tab):
    """The tableau's M is D inv(B) for its basis rows B, its vertex and
    prices equal M beta_B, c M and w M, recomputed from it, and its slacks
    beta_i D - R_i x_num over every row of its form."""
    M, n, beta = tab.M, tab.n, tab.beta
    B = [tab.R[i] for i in tab.basis]
    assert tab.D > 0 and all(
        sum(a * row[k] for a, row in zip(Bi, M)) == (tab.D if i == k else 0)
        for i, Bi in enumerate(B)
        for k in range(n)
    )
    assert tab.x_num == [sum(M[t][k] * beta[i] for k, i in enumerate(tab.basis)) for t in range(n)]
    assert tab.t_c == [sum(a * M[t][k] for t, a in enumerate(tab.c_num)) for k in range(n)]
    assert tab.t_w == [sum(a * M[t][k] for t, a in enumerate(tab.w_num)) for k in range(n)]
    assert len(tab.slack) == tab.m == len(tab.form.R)
    assert tab.slack == [
        bt * tab.D - sum(a * x for a, x in zip(r, tab.x_num)) for r, bt in zip(tab.R, beta)
    ]


@pytest.fixture
def checked_pivots(monkeypatch):
    """Check the carried state after every pivot of every tableau; yields
    the checked steps, each with whether its walk held rows, whether it was
    a certificate walk (w = 0), whether it appended the box, and its D
    before and after the step."""
    seen = []
    pivot = Tableau.pivot

    def checked(tab):
        m, D = tab.m, tab.D
        step = pivot(tab)
        if step is not None:
            assert_carried(tab)
            seen.append((step, bool(tab.held), not any(tab.w_num), tab.m != m, (D, tab.D)))
        return step

    monkeypatch.setattr(Tableau, "pivot", checked)
    return seen


class TestCarriedState:
    @pytest.mark.parametrize("mode", [randomness.MODE_FLOAT, randomness.MODE_DYADIC])
    def test_carried_along_solves(self, checked_pivots, mode):
        # cold solves of seeded random LPs: Phase 1, the facet chains on the
        # boxed LPs with their held rows, and the certificate walks; each LP
        # is solved once more with a nested objective, whose chains walk
        # several rounds and so pivot with held rows.  Their unbounded ones
        # answer at an edge, so the orthants add the recession walks.  Phase
        # 1 makes no pivot on its degenerate face sum(y) = 0, so 32 seeds
        # are needed for more than 15 degenerate pivots
        kinds = ("tu-incidence", "interval-matrix", "network-matrix")
        for seed in range(32):
            rng = random.Random(seed)
            n = rng.randint(3, 6)
            if seed % 2:
                lp = harness.generate_random_integer(rng.randint(n + 1, 8), n, seed)
            else:
                lp = harness.generate_tu_instance(kinds[seed // 2 % 3], 2 * n, n, seed)
            for each in (lp, nested_objective(lp, seed)):
                driver.solve(each, driver.SolveConfig(rng=randomness.RngConfig(seed=seed, mode=mode)))
        for lp, seed in orthants(range(50)):
            driver.solve(lp, driver.SolveConfig(rng=randomness.RngConfig(seed=seed, mode=mode)))
        held = sum(h for _, h, _, _, _ in checked_pivots)
        certificate = sum(c for _, _, c, _, _ in checked_pivots)
        degenerate = sum(st.step_length == 0 for st, _, _, _, _ in checked_pivots)
        boxing = sum(b for _, _, _, b, _ in checked_pivots)
        assert len(checked_pivots) > 150 and held > 5 and certificate > 15 and degenerate > 15
        assert boxing > 0
        # the random LPs' bases are not unimodular: steps that divide by D > 1
        divided = sum(before > 1 for *_, (before, _) in checked_pivots)
        assert divided > 80, divided

    @pytest.mark.parametrize("seed", [1, 7])
    def test_carried_along_the_tu_warm_pool(self, checked_pivots, seed):
        # the tu-warm benchmark pool: TU LPs from a vertex, whose bases all
        # have |det| = 1, so every pivot takes the unit step, D = 1 before
        # and after it
        pkg = SimpleNamespace(harness=harness, model=model, rational=rational)
        for inst in load_workloads().build_pool(pkg, "tu-warm", seed):
            conf = driver.SolveConfig(rng=randomness.RngConfig(seed=inst.seed, mode=inst.mode))
            assert driver.solve(inst.lp, conf, initial_bfs=inst.start).status == "optimal"
        assert all(d == (1, 1) for *_, d in checked_pivots)
        assert len(checked_pivots) > 500, len(checked_pivots)

    def test_carried_with_held_rows(self, checked_pivots):
        # from the unit cube's origin, holding z >= 0: the walk stays on z = 0
        lp = model.make_lp(
            [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]],
            [1, 1, 1, 0, 0, 0],
            [1, 1, 1],
        )
        start = BasicSolution(point=(F(0), F(0), F(0)), basis=(3, 4, 5))
        tab = Tableau(integer_form(lp), start)
        c, w = pair([F(3, 5), F(4, 7), F(1)]), pair([F(-1, 2), F(-1, 3), F(-1, 4)])
        res = shadow_walk(tab, c, w, held=[5])
        assert res.finished and res.pivots == 2 and tab.vertex() == [1, 1, 0]
        assert [h for _, h, _, _, _ in checked_pivots] == [True, True]

    def test_carried_through_the_box(self, checked_pivots):
        # x, y >= 0 and x - y <= 1 on c = (1, 1) from the origin, with w = 0
        # and c0 = (1, 0): both edges tie on slope, and the one up the y axis
        # has no blocking row and is flat in c0, so the first pivot appends
        # the box over its basis, rows 0 and 1, redoes its ratio tests and
        # takes the x axis to (1, 0); box rows block the next two edges.  The
        # walk is the one on the eagerly boxed form
        lp = model.make_lp([[-1, 0], [0, -1], [1, -1]], [0, 0, 1], [1, 1])
        form = integer_form(lp)
        start = BasicSolution(point=(F(0), F(0)), basis=(0, 1))
        c, w = pair([F(1), F(1)]), pair([F(0), F(0)])
        tab = Tableau(form, start, c0=[1, 0])
        res = shadow_walk(tab, c, w)
        boxed = model.bound_polytope(form, [0, 1])
        assert res.finished and tab.boxed and tab.form == boxed
        assert tab.box_basis == (0, 1)  # kept: the recession LP's basis at d = 0
        assert [b for _, _, _, b, _ in checked_pivots] == [True] + [False] * (res.pivots - 1)
        assert [st.entering_row for st in res.path.steps] == [2, 4, 6]
        assert tab.vertex() == [3, 3]
        eager = Tableau(boxed, start)
        assert shadow_walk(eager, c, w).path == res.path
        assert (eager.basis, eager.slack) == (tab.basis, tab.slack)

    def test_boxed_over_the_basis_of_its_pivot(self, checked_pivots):
        # the LP of the test above from the vertex (1, 0), on the basis
        # {-y <= 0, x - y <= 1}: the one improving edge, up x - y = 1, has
        # no blocking row and is flat in c0 = (1, -1), so the box is over
        # that basis, rows 1 and 2, not the lead rows 0 and 1
        lp = model.make_lp([[-1, 0], [0, -1], [1, -1]], [0, 0, 1], [1, 1])
        form = integer_form(lp)
        tab = Tableau(form, BasicSolution(point=(F(1), F(0)), basis=(1, 2)), c0=[1, -1])
        res = shadow_walk(tab, pair([F(1), F(1)]), pair([F(0), F(0)]))
        assert res.finished and tab.box_basis == (1, 2)
        assert tab.form == model.bound_polytope(form, [1, 2])

    def test_carried_from_a_degenerate_start(self, checked_pivots):
        # the pyramid apex has 4 tight rows in R^3: a first_gain walk from it
        # makes a degenerate pivot before its step off the apex
        lp = box(model.make_lp(
            [[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1], [0, 0, -1]],
            [1, 1, 1, 1, 0],
            [0, 0, -1],
        ))
        apex = BasicSolution(point=(F(0), F(0), F(1)), basis=(0, 1, 2))
        assert first_gain(Tableau(integer_form(lp), apex), [F(1), F(-1), F(-1)]) is True
        assert [st.step_length for st, _, _, _, _ in checked_pivots] == [0, 2]
        assert all(cert for _, _, cert, _, _ in checked_pivots)


@pytest.fixture
def dense_products(monkeypatch):
    """Hold the two zero-skipping products of every pivot against their
    dense forms: each ratio test's R d, d = -M[:,k], against -R_i . M[:,k]
    over every row, and each rank-one step's u = R_enter M against
    R_enter . M[:,q] over every column.  Counts the products checked and the
    zero entries they skipped, and the ratio tests on an appended box."""
    seen = {"rd": 0, "u": 0, "skipped": 0, "boxed": 0}
    ratio_test, update, combine = Tableau._ratio_test, Tableau._update_basis, linalg.combine
    want_u = []

    def checked_ratio_test(tab, k):
        col = [row[k] for row in tab.M]
        got = ratio_test(tab, k)
        assert got[1] == [-sum(a * x for a, x in zip(Ri, col)) for Ri in tab.R]
        seen["rd"] += 1
        seen["skipped"] += col.count(0)
        seen["boxed"] += tab.boxed
        return got

    def checked_update(tab, pos, enter, rd):
        want_u.append([sum(a * x for a, x in zip(tab.R[enter], col)) for col in zip(*tab.M)])
        seen["skipped"] += tab.R[enter].count(0)
        update(tab, pos, enter, rd)
        assert not want_u  # the step formed its u

    def checked_combine(terms, size):
        got = combine(terms, size)
        if want_u:  # the step's u; a ratio test's R d is checked above
            assert got == want_u.pop()
            seen["u"] += 1
        return got

    monkeypatch.setattr(Tableau, "_ratio_test", checked_ratio_test)
    monkeypatch.setattr(Tableau, "_update_basis", checked_update)
    monkeypatch.setattr(linalg, "combine", checked_combine)
    return seen


class TestSparseProducts:
    @pytest.mark.parametrize("mode", [randomness.MODE_FLOAT, randomness.MODE_DYADIC])
    def test_equal_to_the_dense_products(self, dense_products, mode):
        # warm solves of TU LPs, whose rows hold a few +-1, and cold solves of
        # random integer LPs: Phase 1, facet chains that append the box, and
        # certificate walks.  Phase 1 makes no pivot on its face sum(y) = 0,
        # where the box is appended most, and a chain whose start basis
        # carries c0 walks nothing, so 48 random seeds are needed for more
        # than 10 ratio tests on a box (24 when every chain walked)
        kinds = ("tu-incidence", "interval-matrix", "network-matrix")
        conf = driver.SolveConfig(rng=randomness.RngConfig(seed=5, mode=mode))
        for seed in range(24):
            kind = kinds[seed % 3]
            lp = harness.generate_tu_instance(kind, 16, 8, seed)
            start = model.move_to_vertex(lp, _interior_point(kind, 16, 8, seed))
            driver.solve(lp, conf, initial_bfs=start)
        for seed in range(48):
            rng = random.Random(seed)
            n = rng.randint(2, 5)
            lp = harness.generate_random_integer(rng.randint(n, 9), n, seed)
            # lifted, since most of them answer unbounded at an edge unboxed
            for each in (lp, lifted(lp)):
                driver.solve(each, conf)
        # a pivot's ratio tests: one per slope-tied edge, redone on the box
        assert dense_products["rd"] >= dense_products["u"] > 100, dense_products
        assert dense_products["skipped"] > 800 and dense_products["boxed"] > 10, dense_products


class TestRayEdge:
    """A tableau built with c0 ends its walk at the first slope-tied edge no
    row blocks along which c0 rises, unboxed, with the ray in `ray`; an edge
    no row blocks that c0 does not rise along appends the box over the
    basis.  A tableau built without c0 raises at such an edge."""

    def tableau(self, c0):
        # x, y >= 0 and x - y <= 1 from the origin, on c = (1, 1) with w = 0:
        # both edges tie on slope, and the one up the y axis has no blocking row
        lp = model.make_lp([[-1, 0], [0, -1], [1, -1]], [0, 0, 1], [1, 1])
        start = BasicSolution(point=(F(0), F(0)), basis=(0, 1))
        return Tableau(integer_form(lp), start, c0=c0)

    def test_the_walk_ends_at_the_ray(self):
        tab = self.tableau([1, 1])
        res = shadow_walk(tab, pair([F(1), F(1)]), pair([F(0), F(0)]))
        assert res.finished and res.pivots == 0 and res.path.steps == ()
        assert tab.ray == (0, 1) and not tab.boxed and tab.vertex() == [0, 0]
        # the next aim starts without it
        tab.aim(pair([F(-1), F(-1)]), pair([F(0), F(0)]))
        assert tab.ray is None

    def test_an_edge_c0_does_not_rise_along_appends_the_box(self):
        # c0 = (1, 0) is flat up the y axis: the walk of
        # TestCarriedState.test_carried_through_the_box
        tab = self.tableau([1, 0])
        res = shadow_walk(tab, pair([F(1), F(1)]), pair([F(0), F(0)]))
        assert res.finished and tab.ray is None and tab.box_basis == (0, 1)
        assert [st.entering_row for st in res.path.steps] == [2, 4, 6]

    def test_without_c0_the_edge_raises(self):
        tab = self.tableau(None)
        with pytest.raises(UnboundedEdgeError):
            shadow_walk(tab, pair([F(1), F(1)]), pair([F(0), F(0)]))


class TestExactUpdate:
    """The rank-one step divides each carried vector exactly by the old D;
    a numerator that leaves a remainder raises instead of being rounded."""

    def aimed(self):
        # 2x + y <= 4, x + 3y <= 6, x >= 0, y >= 0 from the vertex (6/5, 8/5)
        # of the first two rows, where D = 5, on c = -x: the one improving
        # edge enters x >= 0 into a basis of determinant 3
        lp = model.make_lp([[2, 1], [1, 3], [-1, 0], [0, -1]], [4, 6, 0, 0], [-1, 0])
        tab = Tableau(integer_form(lp), BasicSolution(point=(F(6, 5), F(8, 5)), basis=(0, 1)))
        tab.aim(pair([F(-1), F(0)]), pair([F(-1), F(1)]))
        (pos,) = tab._improving()
        enter, rd = tab._ratio_test(pos)
        return tab, pos, enter, rd

    def test_the_update_divides_by_d(self):
        tab, pos, enter, rd = self.aimed()
        assert (tab.D, enter) == (5, 2)
        tab._update_basis(pos, enter, rd)
        assert tab.D == 3
        assert_carried(tab)

    @pytest.mark.parametrize("vector", ["M", "x_num", "t_c", "t_w", "slack", "t_c<0", "slack<0"])
    def test_a_remainder_raises(self, vector):
        tab, pos, enter, rd = self.aimed()
        q = 1 - pos  # an entry the step divides; as a row, one of the basis
        if vector == "M":
            tab.M[1][q] += 1  # R_enter has no weight on row 1, so u stays
        elif vector == "t_c<0":
            # its numerator -u_pos t_c[q] + u_q t_c[pos] becomes -3, over D = 5
            tab.t_c[q] -= 1
        elif vector == "slack<0":
            # the numerators -u_pos slack_i - se rd_i of rows 1 and 3 become
            # -3 and 33, over D = 5: truncated, their remainders -3 and 3
            # would cancel in the sum; floored, they are 2 and 3
            tab.slack[1] -= 1
            tab.slack[3] += 1
            se, up = tab.slack[enter], linalg.combine(zip(tab.R[enter], tab.M), tab.n)[pos]
            nums = [-up * x - se * r for x, r in zip(tab.slack, rd)]
            assert (nums[1], nums[3], tab.D) == (-3, 33, 5)
        else:
            getattr(tab, vector)[q] += 1
        with pytest.raises(WalkError, match="integer pivot update lost exactness"):
            tab._update_basis(pos, enter, rd)


class TestPathPlumbing:
    def test_validate_rejects_bad_paths(self):
        from shadow_simplex.walk import PathStep

        # slope, c gain, step length and c value as (numerator, denominator)
        good = PathStep(1, 0, 1, (1, 1), (2, 2), (3, 3), (-4, -4), (0, 2))
        assert (good.slope, good.c_gain, good.step_length, good.c_value) == (1, 1, 1, 1)
        path = ShadowPath(start_basis=(1, 2), start_value=F(0), steps=(good,))
        validate_shadow_path(path)  # differs by one row: {1,2} -> {0,2}
        bad = ShadowPath(
            start_basis=(0, 2),
            start_value=F(0),
            steps=(PathStep(1, 3, 1, (1, 1), (0, 5), (1, 1), (1, 1), (2, 3)),),
        )
        with pytest.raises(WalkError):
            validate_shadow_path(bad)

    def test_csv_trace_columns(self):
        tab = Tableau(integer_form(square()), origin_start())
        res = shadow_walk(tab, pair([F(7, 10), F(7, 10)]), pair([F(2, 3), F(1, 3)]))
        text = walk.path_to_csv(res.path)
        header = text.splitlines()[0]
        assert header == "pivot_index,entering_row,leaving_row,slope,c_value"
        assert len(text.splitlines()) == len(res.path.steps) + 1
