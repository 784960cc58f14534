"""The solve path in integers, held against the Fraction formulas it
replaced (tests/reference.py): the round loop's draws, lift, cone objective
and `Tableau.aim` pairs, the crawl to a vertex, and the box-tight test read
off the certificate tableau."""

import importlib.util
import random
import sys
from fractions import Fraction
from math import gcd
from operator import mul
from pathlib import Path
from types import SimpleNamespace

import pytest
import reference
from boxing import box, boxed_form, lead_rows, on_box
from chains import nested_objective
from reference import values
from test_fuzz import lps as fuzz_lps
from test_golden import _interior_point

from shadow_simplex import driver, harness, linalg, model, phase1, randomness, rational, walk
from shadow_simplex.model import BasicSolution, LPModelError
from shadow_simplex.rational import primitive_int_row

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
        c0 = primitive_int_row(lp.c0)[0]
        basis = linalg.FaceBasis(n)
        c0_face = driver.facet_restriction([tab.R[i] for i in fixed], c0, basis)
        if c0_face is None:
            continue
        assert c0_face == reference.face_image(c0, basis.cols, basis.scales)[0]
        c0_ref = values(c0_face)
        free = sorted(set(tab.basis) - set(fixed))
        phi = driver.PhiSchedule(driver.SCHEDULE_BASE, n=lp.n, m=lp.m).phi(rng.randint(0, 3))
        bits, _ = driver._walk_bits_and_cap(
            lp.m, lp.n, phi, driver.SolveConfig(rng=randomness.RngConfig(seed=done, mode=mode))
        )
        got_stream, ref_stream = randomness.DrawStream(done), randomness.DrawStream(done)

        pert = randomness.perturb_objective(c0_face, phi, bits, got_stream)
        ref_c, ref_intervals = reference.perturb_objective(c0_ref, phi, bits, ref_stream)
        assert values((pert.c, pert.den)) == ref_c
        assert [(F(lo, pert.den), F(hi, pert.den)) for lo, hi in pert.intervals] == ref_intervals

        lam = randomness.draw_lambda(len(free), bits, got_stream)
        ref_lam = reference.draw_lambda(len(free), bits, ref_stream)
        assert values(lam) == ref_lam
        assert got_stream.bits_consumed == ref_stream.bits_consumed

        c = basis.lift((pert.c, pert.den))
        ref_lift = reference.lift(basis, ref_c)
        assert values(c) == ref_lift
        tau = [basis.tau(tab.R[i]) for i in free]
        assert tau == [reference.face_image(tab.R[i], basis.cols, basis.scales)[1] for i in free]
        w = driver.lifted_cone_objective([tab.R[i] for i in free], lam, tau)
        ref_w = reference.lifted_cone_objective([tab.R[i] for i in free], ref_lam, tau)
        assert values(w) == ref_w

        # aim keeps each pair as given
        tab.aim(c, w, fixed)
        assert (tab.c_num, tab.c_den, tab.w_num, tab.w_den) == (*c, *w)
        done += 1


def face_state(basis):
    """Everything a `linalg.FaceBasis` carries."""
    return basis.rows, basis.ortho, basis.ortho_norms, basis.cols, basis.norms, basis.scales


def solve_fuzz_corpus(mode):
    """Solve every LP of the differential fuzz corpus (tests/test_fuzz.py)
    in mode, with the case number as seed."""
    for case, _, lp in fuzz_lps():
        driver.solve(lp, driver.SolveConfig(rng=randomness.RngConfig(seed=case, mode=mode)))


def solve_benchmark_pools(seed):
    """Solve every instance of the three benchmark pools of seed, as the
    benchmark's first pass solves them."""
    workloads = load_workloads()
    pkg = SimpleNamespace(harness=harness, model=model, rational=rational)
    for name in workloads.WORKLOADS:
        for inst in workloads.build_pool(pkg, name, seed):
            rng = randomness.RngConfig(seed=inst.seed, mode=inst.mode)
            driver.solve(inst.lp, driver.SolveConfig(rng=rng), initial_bfs=inst.start)


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
            fresh = linalg.FaceBasis(n)
            got = driver.facet_restriction(fixed, c0, basis)
            assert got == driver.facet_restriction(fixed, c0, fresh)
            assert face_state(basis) == face_state(fresh)
            assert len(basis.ortho) == k


class TestCarriedFaceBasis:
    """Every round of every facet chain: the face basis the chain carries,
    once the round's new fixed row is added, equals one built afresh from
    its fixed rows (columns, norms, scales and c0's face image) and the
    Fraction Gram-Schmidt residuals of tests/reference.py, and the round's
    face factors and facet choice equal their Fraction forms.  The TU and
    rational LPs take nested objectives (tests/chains.py), so that their
    chains walk several rounds; the fuzz corpus and the benchmark pools are
    solved as they are."""

    @pytest.fixture
    def seen(self, monkeypatch):
        """Patch the round loop's checks in; returns the cases the carried
        updates met."""
        seen = {"skipped inside": 0, "dropped first": 0, "dropped last": 0, "rounds": 0, "fixed": 0}
        last_js = {}  # by the chain's FaceBasis itself, which the key keeps alive
        facet_restriction = driver.facet_restriction
        identify = driver.identify_basis_element

        def checked_restriction(fixed, c0, basis):
            got = facet_restriction(fixed, c0, basis)
            n = len(c0)
            fresh = linalg.FaceBasis(n)
            assert facet_restriction(fixed, c0, fresh) == got
            assert face_state(basis) == face_state(fresh)
            ref = reference.complement_basis(fixed, n)
            assert basis.cols == [v for _, v in ref]
            assert basis.norms == [sum(a * a for a in v) for v in basis.cols]
            assert basis.scales == [
                (t.numerator, t.denominator) for t in map(rational.unit_scale, basis.cols)
            ]
            image, tau = reference.face_image(c0, basis.cols, basis.scales)
            assert got == image
            if got is None:
                assert not any(sum(map(mul, c0, v)) for v in basis.cols)
            else:
                assert values(got) == [
                    F(*tau) * F(*s) * sum(map(mul, c0, v)) for v, s in zip(basis.cols, basis.scales)
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
            seen["fixed"] += bool(fixed)
            return got

        def checked_identify(tab, basis, free, tau):
            for i, t in tau.items():
                assert t == reference.face_image(tab.R[i], basis.cols, basis.scales)[1]
            got = identify(tab, basis, free, tau)
            assert got == reference.identify_basis_element(tab, basis, free)
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

    @pytest.mark.parametrize("mode", [randomness.MODE_FLOAT, randomness.MODE_DYADIC])
    def test_fuzz_corpus(self, seen, mode):
        # with their nested objectives too: a Phase-1 chain ends at its first
        # vertex where sum(y) = 0, so few chains of the corpus fix a row
        solve_fuzz_corpus(mode)
        for case, _, lp in fuzz_lps():
            conf = driver.SolveConfig(rng=randomness.RngConfig(seed=case, mode=mode))
            driver.solve(nested_objective(lp, case), conf)
        assert seen["rounds"] > 300 and seen["fixed"] > 10, seen

    def test_benchmark_pools(self, seen):
        solve_benchmark_pools(7)
        # one round per `complement_basis_int` call: 156 + 112 + 200 (169 +
        # 113 + 255 when every chain walked before its first Dantzig test
        # and a cold solve's main chain started on the crawl's basis; 256
        # on mixed-status when the box was over the lead rows: one chain
        # that boxes over its basis walks a round fewer)
        assert seen["rounds"] == 468 and seen["fixed"] > 10, seen


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


@pytest.fixture
def checked_crawls(monkeypatch):
    """Every crawl to a vertex, through the module attribute its callers
    reach, as (form, point, answer), and the number of crawl steps checked.
    At every step, where the crawl eliminates its tight rows, its state is
    read off its frame: its point is in lowest terms, its carried slack
    numerators equal their recomputation from that point, and the rows it
    eliminates are the tight ones."""
    crawls, steps = [], [0]
    crawl, echelon = model.crawl_to_vertex, linalg.echelon

    def recording(form, point):
        got = crawl(form, point)
        crawls.append((form, point, got))
        return got

    def checked(rows):
        frame = sys._getframe(1)
        if frame.f_code is crawl.__code__:
            state = frame.f_locals
            form, xn, xd, slack = state["form"], state["xn"], state["xd"], state["slack"]
            assert xd > 0 and gcd(xd, *xn) == 1
            assert slack == [
                bt * xd - form.s * sum(map(mul, r, xn)) for r, bt in zip(form.R, form.beta)
            ]
            assert rows == [r for r, v in zip(form.R, slack) if v == 0]
            steps[0] += 1
        return echelon(rows)

    monkeypatch.setattr(model, "crawl_to_vertex", recording)
    monkeypatch.setattr(linalg, "echelon", checked)
    return crawls, steps


def assert_fraction_crawls(crawls):
    """Each recorded crawl's vertex and basis are those of the Fraction
    crawl of tests/reference.py on the LP of the form crawled, and its
    point is Fractions."""
    for form, point, got in crawls:
        lp = model.make_lp(form.R, [F(bt, form.s) for bt in form.beta], [1] * form.n)
        assert got == reference.move_to_vertex(lp, point)
        assert all(type(x) is F for x in got.point)


def test_crawl_matches_the_fraction_crawl_on_awkward_rows(checked_crawls):
    # rational, duplicated and parallel rows from rational points, and the
    # crawls that raise; every step's carried slacks are checked
    crawls, steps = checked_crawls
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
    assert crawled > 40 and steps[0] > 100, (crawled, steps)
    assert_fraction_crawls(crawls)


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


def test_crawl_matches_the_fraction_crawl_on_the_tu_warm_starts(checked_crawls):
    # the tu-warm benchmark pools of seeds 1-4 and 7: every start their
    # setup crawls to from its generator's interior point, in at most n + 1
    # steps, fewer where a step makes several rows tight
    crawls, steps = checked_crawls
    workloads = load_workloads()
    pkg = SimpleNamespace(harness=harness, model=model, rational=rational)
    seeds = (1, 2, 3, 4, 7)
    for seed in seeds:
        crawls.clear()
        pool = workloads.build_pool(pkg, "tu-warm", seed)
        assert [got for _, _, got in crawls] == [inst.start for inst in pool]
        assert_fraction_crawls(crawls)
    n, size = workloads.TU_WARM_SIZE[1], len(seeds) * workloads.WORKLOADS["tu-warm"].pool_size
    assert 5 * size < steps[0] <= (n + 1) * size, steps


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 7])
def test_crawl_matches_the_fraction_crawl_on_the_phase1_answers(checked_crawls, monkeypatch, seed):
    # the tu-cold and mixed-status pools: the vertex each solve takes from a
    # Phase-1 answer where sum(y) = 0, handed over off the face tableau or,
    # when the face basis is not one of the LP's, crawled by extract_bfs on
    # the solve's form, is the Fraction crawl's from the answer's x-part.
    # A face basis with a -y_t <= 0 row out of it still stands on a vertex
    # of the LP (y = 0 makes every -y_t row tight), so the crawls stop at
    # their first step
    crawls, steps = checked_crawls
    answers = []
    handover = phase1.handover

    def handing(tab, form, p1):
        got = handover(tab, form, p1)
        answers.append((form, tab.vertex()[: p1.orig_n], got and got[0]))
        return got

    monkeypatch.setattr(phase1, "handover", handing)
    workloads = load_workloads()
    pkg = SimpleNamespace(harness=harness, model=model, rational=rational)
    for name in ("tu-cold", "mixed-status"):
        for inst in workloads.build_pool(pkg, name, seed):
            conf = driver.SolveConfig(rng=randomness.RngConfig(seed=inst.seed, mode=inst.mode))
            driver.solve(inst.lp, conf, initial_bfs=inst.start)
    handed = [(form, x, got) for form, x, got in answers if got is not None]
    assert [(form, x) for form, x, got in answers if got is None] == [(f, x) for f, x, _ in crawls]
    assert len(answers) > 100 and len(handed) > 90 and crawls, (len(answers), len(crawls))
    assert steps[0] == len(crawls), (len(crawls), steps)
    assert_fraction_crawls(crawls)
    for form, x, got in handed:
        lp = model.make_lp(form.R, [F(bt, form.s) for bt in form.beta], [1] * form.n)
        assert got.point == reference.move_to_vertex(lp, x).point


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
        route, ray = model.assert_unbounded_if_box_tight(tab, lp.c0)
        assert route == "recession" and tuple(tab.vertex()) == top.point
        assert ray[0] > 0
        (rec,) = walks
        # the recession LP: the same integer rows, rhs 0 off the box
        assert rec.R == form.R and rec.beta[0] == 0 and all(rec.beta[1:])

    def test_vertex_off_the_box_walks_nothing(self, monkeypatch):
        lp = model.make_lp([[1], [-1]], [1, 0], [1])
        tab = on_box(boxed_form(lp), BasicSolution(point=(F(1),), basis=(0,)), lead_rows(lp))
        walks = self.recording(monkeypatch)
        assert model.assert_unbounded_if_box_tight(tab, lp.c0) == ("vertex", None)
        assert walks == []
