"""The solve path in integers, held against the Fraction formulas it
replaced (tests/reference.py): the round loop's draws, lift, cone objective
and `Tableau.aim` pairs, the crawl to a vertex, and the box-tight test read
off the certificate tableau."""

import importlib.util
import random
import sys
from fractions import Fraction
from operator import mul
from pathlib import Path
from types import SimpleNamespace

import pytest
import reference
from boxing import box, boxed_form, lead_rows, on_box
from chains import nested_objective
from reference import values
from test_golden import _interior_point

from shadow_simplex import driver, harness, linalg, model, randomness, rational, walk
from shadow_simplex.model import BasicSolution, LPModelError, UnboundedCertificate
from shadow_simplex.rational import common_denominator, primitive_int_row

F = Fraction
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def random_boxed(rng, n, m):
    """A boxed random LP with integer and rational rows, and a vertex of it."""
    while True:
        A = [[F(rng.randint(-4, 4), rng.choice([1, 1, 2, 3, 7])) for _ in range(n)] for _ in range(m)]
        A = [row for row in A if any(row)]
        c0 = [F(rng.randint(-3, 3), rng.choice([1, 5])) for _ in range(n)]
        if len(A) < n or linalg.rank(A) < n or not any(c0):
            continue
        lp = box(model.make_lp(A, [F(rng.randint(1, 6), rng.randint(1, 3)) for _ in A], c0))
        return lp, model.move_to_vertex(lp, [F(0)] * n)


@pytest.mark.parametrize("mode", [randomness.MODE_FLOAT, randomness.MODE_DYADIC])
def test_round_loop_matches_the_fraction_formulas(mode):
    # on seeded random faces: the perturbation's values and intervals, the
    # lift, the cone objective and the pairs aim keeps are exactly those of
    # the Fraction formulas, from the same draws
    rng = random.Random(61 if mode == randomness.MODE_FLOAT else 62)
    done = 0
    while done < 40:
        n = rng.randint(1, 5)
        lp, start = random_boxed(rng, n, rng.randint(n + 1, n + 5))
        tab = walk.Tableau(model.integer_form(lp), start)
        fixed = tab.basis[: rng.randint(0, n - 1)]
        r = driver.facet_restriction([tab.R[i] for i in fixed], primitive_int_row(lp.c0)[0])
        if r.c0 is None:
            continue
        (c0_face,) = driver.restriction_coords(r, [primitive_int_row(lp.c0)[0]])
        assert values(r.c0) == c0_face
        free = sorted(set(tab.basis) - set(fixed))
        phi = driver.PhiSchedule(driver.SCHEDULE_BASE, n=lp.n, m=lp.m).phi(rng.randint(0, 3))
        rcfg, _ = driver._walk_bits_and_cap(
            lp.m, lp.n, phi, driver.SolveConfig(rng=randomness.RngConfig(seed=done, mode=mode))
        )
        got_stream, ref_stream = randomness.DrawStream(done), randomness.DrawStream(done)

        pert = randomness.perturb_objective(r.c0, phi, rcfg, got_stream)
        ref_c, ref_intervals = reference.perturb_objective(c0_face, phi, rcfg, ref_stream)
        assert values((pert.c, pert.den)) == ref_c
        assert [(F(lo, pert.den), F(hi, pert.den)) for lo, hi in pert.intervals] == ref_intervals

        lam = randomness.draw_lambda(len(free), rcfg, got_stream)
        ref_lam = reference.draw_lambda(len(free), rcfg, ref_stream)
        assert values(lam) == ref_lam
        assert got_stream.bits_consumed == ref_stream.bits_consumed

        c = r.lift((pert.c, pert.den))
        ref_lift = reference.lift(r, ref_c)
        assert values(c) == ref_lift
        tau = [driver._face_scale(tab.R[i], r.cols, r.col_scale)[1] for i in free]
        w = driver.lifted_cone_objective([tab.R[i] for i in free], lam, tau)
        ref_w = reference.lifted_cone_objective([tab.R[i] for i in free], ref_lam, tau)
        assert values(w) == ref_w

        tab.aim(c, w, fixed)
        assert (tab.c_num, tab.c_den) == common_denominator(ref_lift)
        assert (tab.w_num, tab.w_den) == common_denominator(ref_w)
        done += 1


def test_chain_orthogonalizes_each_fixed_row_once():
    # a chain passes one carried face basis through its rounds: each round's
    # face basis is the one built from all the fixed rows afresh
    rng = random.Random(63)
    for _ in range(30):
        n = rng.randint(2, 6)
        lp, start = random_boxed(rng, n, n + 3)
        rows = model.integer_form(lp).R
        c0 = primitive_int_row(lp.c0)[0]
        basis = linalg.FaceBasis(n)
        for k in range(n):
            fixed = [rows[i] for i in start.basis[:k]]
            assert driver.facet_restriction(fixed, c0, basis) == driver.facet_restriction(fixed, c0)
            assert len(basis.ortho) == k


class TestCarriedFaceBasis:
    """Every round of every facet chain, on TU rows and on rational rows:
    the face basis the chain carries equals one built afresh from its fixed
    rows and the Fraction Gram-Schmidt residuals of tests/reference.py, and
    the round's face factors and facet choice equal their Fraction forms.
    The LPs take nested objectives (tests/chains.py), so that their chains
    walk several rounds."""

    @pytest.fixture
    def seen(self, monkeypatch):
        """Patch the round loop's checks in; returns the cases the carried
        updates met."""
        seen = {"skipped inside": 0, "dropped first": 0, "dropped last": 0, "rounds": 0}
        last_js = {}  # by the chain's FaceBasis itself, which the key keeps alive
        facet_restriction = driver.facet_restriction
        identify = driver.identify_basis_element

        def checked_restriction(fixed, c0, basis=None):
            r = facet_restriction(fixed, c0, basis)
            n = len(c0)
            fresh = linalg.FaceBasis(n)
            assert linalg.complement_basis_int(fixed, n, fresh) == basis.cols
            assert (basis.cols, basis.norms, basis.scales) == (fresh.cols, fresh.norms, fresh.scales)
            assert r == facet_restriction(fixed, c0)
            ref = reference.complement_basis(fixed, n)
            assert basis.cols == [v for _, v in ref]
            assert basis.norms == [sum(a * a for a in v) for v in basis.cols]
            assert basis.scales == [
                (t.numerator, t.denominator) for t in map(rational.unit_scale, basis.cols)
            ]
            if r.c0 is not None:
                tau = reference.face_factor(c0, r)
                assert values(r.c0) == [
                    tau * F(*s) * sum(map(mul, c0, v)) for v, s in zip(r.cols, r.col_scale)
                ]
            js = [j for j, _ in ref]
            prev = last_js.get(basis)
            if prev is not None and len(prev) > len(js):
                (gone,) = set(prev) - set(js)
                seen["dropped first"] += gone == prev[0]
                seen["dropped last"] += gone == prev[-1]
            seen["skipped inside"] += bool(js) and js[-1] + 1 > len(js)
            last_js[basis] = js
            seen["rounds"] += 1
            return r

        def checked_identify(tab, r, free, tau):
            for i, t in tau.items():
                assert t == reference.face_factor(tab.R[i], r)
            got = identify(tab, r, free, tau)
            assert got == reference.identify_basis_element(tab, r, free)
            return got

        monkeypatch.setattr(driver, "facet_restriction", checked_restriction)
        monkeypatch.setattr(driver, "identify_basis_element", checked_identify)
        return seen

    def test_tu_rows(self, seen):
        # the tu-warm setup, 16x8 from the generator's interior point
        for seed in range(12):
            kind = harness.GENERATORS[seed % 3]
            lp = nested_objective(harness.generate_tu_instance(kind, 16, 8, seed), seed)
            start = model.move_to_vertex(lp, _interior_point(kind, 16, 8, seed))
            rng = randomness.RngConfig(seed=seed, mode=randomness.MODE_DYADIC)
            out = driver.solve(lp, driver.SolveConfig(rng=rng), initial_bfs=start)
            assert out.status == "optimal"
        assert all(seen.values()), seen

    def test_rational_rows(self, seen):
        rng = random.Random(65)
        done = 0
        while done < 30:
            n = rng.randint(2, 6)
            lp = awkward_lp(rng, n, rng.randint(n, n + 4))
            if lp is None:
                continue
            lp = nested_objective(lp, done)
            start = model.move_to_vertex(lp, [F(0)] * n)
            driver.solve(lp, driver.SolveConfig(rng=randomness.RngConfig(seed=done)), initial_bfs=start)
            done += 1
        assert all(seen.values()), seen


def test_aim_strips_the_gcd():
    tab = walk.Tableau(
        boxed_form(model.make_lp([[1, 0], [0, 1]], [1, 1], [1, 1])),
        BasicSolution(point=(F(1), F(1)), basis=(0, 1)),
    )
    tab.aim(([6, -4], 10), ([0, 0], 7))
    assert (tab.c_num, tab.c_den, tab.w_num, tab.w_den) == ([3, -2], 5, [0, 0], 1)
    assert (tab.c_num, tab.c_den) == common_denominator([F(6, 10), F(-4, 10)])


def awkward_lp(rng, n, m):
    """Rows with rational entries, a duplicated row and parallel rows; the
    origin is feasible."""
    A = [[F(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(n)] for _ in range(m)]
    A = [row for row in A if any(row)]
    if not A:
        return None
    A.append(list(A[0]))
    A.append([F(2) * x for x in A[-1]])
    A.append([F(-1, 3) * x for x in A[rng.randrange(len(A))]])
    b = [F(rng.randint(0, 9), rng.randint(1, 4)) for _ in A]
    for i in range(n):  # a bounded slab keeps most crawls finite
        A += [[F(int(j == i)) for j in range(n)], [F(-int(j == i)) for j in range(n)]]
        b += [F(rng.randint(1, 5)), F(rng.randint(0, 5))]
    return model.make_lp(A, b, [1] * n)


def crawl_both(lp, x):
    """(integer crawl, Fraction crawl); an LPModelError from either is its
    message."""
    out = []
    for crawl in (model.move_to_vertex, reference.move_to_vertex):
        try:
            out.append(crawl(lp, x))
        except LPModelError as exc:
            out.append(str(exc))
    return out


def test_crawl_matches_the_fraction_crawl_on_awkward_rows():
    rng = random.Random(64)
    done = crawled = 0
    while done < 80:
        n = rng.randint(1, 4)
        lp = awkward_lp(rng, n, rng.randint(1, 5))
        if lp is None:
            continue
        x = [F(rng.randint(-1, 1), rng.randint(2, 9)) for _ in range(n)]
        got, want = crawl_both(lp, x)
        assert got == want
        if isinstance(got, BasicSolution):
            model.validate_basic_solution(lp, got)
            crawled += 1
        done += 1
    assert crawled > 40


def load_workloads():
    """perfbench/workloads.py, which builds the benchmark's pools."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return workloads


def test_crawl_matches_the_fraction_crawl_on_the_tu_warm_starts():
    # the seed-7 tu-warm benchmark pool: every start its setup crawls to
    workloads = load_workloads()
    pkg = SimpleNamespace(harness=harness, model=model, rational=rational)
    wl = workloads.WORKLOADS["tu-warm"]
    m, n = workloads.TU_WARM_SIZE
    rng = random.Random("tu-warm:7")
    for i in range(wl.pool_size):
        gen_seed = rng.getrandbits(31)
        rng.getrandbits(31)
        kind = workloads.TU_KINDS[i % 3]
        lp = harness.generate_tu_instance(kind, m, n, gen_seed)
        x = workloads._interior_point(pkg, kind, m, n, gen_seed)
        got, want = crawl_both(lp, x)
        assert isinstance(got, BasicSolution) and got == want


def test_crawl_rejects_what_the_fraction_crawl_rejects():
    square = model.make_lp([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0], [1, 1])
    with pytest.raises(LPModelError, match="infeasible"):
        model.move_to_vertex(square, [F(2), F(0)])
    with pytest.raises(LPModelError, match="coordinates"):
        model.move_to_vertex(square, [F(0)])
    strip = model.make_lp([[1, 0], [-1, 0]], [1, 0], [1, 0])
    assert crawl_both(strip, [F(1, 2), F(0)]) == ["no blocking row: rank(A) < n"] * 2


class TestBoxTightOnTheTableau:
    def recording(self, monkeypatch):
        walks = []
        first_gain = walk.first_gain

        def record(tab, c):
            walks.append(tab)
            return first_gain(tab, c)

        monkeypatch.setattr(walk, "first_gain", record)
        return walks

    def test_box_tight_vertex_runs_the_recession_walk(self, monkeypatch):
        # maximize x subject to -x <= 0: the top box corner, on box row
        # x <= r / t, is box-tight, which the tableau's slack numerators
        # tell, and the recession walk from d = 0 finds the ray
        lp = model.make_lp([[-1]], [0], [1])
        form = boxed_form(lp)
        top = BasicSolution(point=(F(form.beta[2], form.s),), basis=(2,))
        tab = on_box(form, top, lead_rows(lp))
        assert tab.slack[1:] != [0, 0] and tab.slack[2] == 0
        assert form.tight_rows(top.point) == [2]
        walks = self.recording(monkeypatch)
        got = model.assert_unbounded_if_box_tight(tab, lp.c0)
        assert isinstance(got, UnboundedCertificate) and got.point == top.point
        assert got.ray[0] > 0
        (rec,) = walks
        # the recession LP: the same integer rows, rhs 0 off the box
        assert rec.R == form.R and rec.beta[0] == 0 and all(rec.beta[1:])

    def test_vertex_off_the_box_walks_nothing(self, monkeypatch):
        lp = model.make_lp([[1], [-1]], [1, 0], [1])
        tab = on_box(boxed_form(lp), BasicSolution(point=(F(1),), basis=(0,)), lead_rows(lp))
        walks = self.recording(monkeypatch)
        assert model.assert_unbounded_if_box_tight(tab, lp.c0) == "vertex"
        assert walks == []
