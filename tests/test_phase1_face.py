"""Phase 1 on the face of LP' that the start point lies on."""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import reference
from boxing import box, lead_rows
from test_integer_path import load_workloads, solve_benchmark_pools, solve_fuzz_corpus

from shadow_simplex import driver, harness, linalg, metrics, model, oracle, phase1, randomness, rational
from shadow_simplex.model import BasicSolution
from shadow_simplex.phase1 import (
    InfeasibleCertificate,
    Phase1Problem,
    _lead_start,
    build_phase1,
    build_phase1_face,
    extract_bfs,
    phase1_matrix,
)
from shadow_simplex.rational import unit_scale

F = Fraction


def cfg(seed=0):
    return driver.SolveConfig(rng=randomness.RngConfig(seed=seed))


def square():
    # lead rows 0 and 2 meet at (1, 1), which satisfies every row
    return model.make_lp([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0], [1, 1])


def two_violated():
    # x <= 0 leads; x_bar = 0 violates x >= 1 and x >= 2
    return model.make_lp([[1], [-1], [-1]], [0, -1, -2], [1])


def build_face(lp):
    return build_phase1_face(model.integer_form(lp), lead_rows(lp))


def face_lp(lp, p1: Phase1Problem):
    """The face of LP' that p1 is, built in Fractions from lp's rows."""
    return reference.phase1_face(lp, lead_rows(lp), list(p1.initial.basis[lp.n :]))


def face_optimum(lp, p1: Phase1Problem) -> BasicSolution:
    face = face_lp(lp, p1)
    ref = oracle.brute_force_optimum(box(face))
    assert ref.status == "optimal"
    return model.move_to_vertex(face, list(ref.point))


class TestFaceDelta:
    def test_face_keeps_delta_on_criterion_3_instances(self):
        # the instances of acceptance criterion 3, each with a seeded random b
        rng = random.Random(31415)
        b_rng = random.Random(2718)
        done = with_face = 0
        while done < 100:
            n = rng.randint(1, 3)
            m = rng.randint(n, 5)
            A_int = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
            A_int = [r for r in A_int if any(r)]
            if len(A_int) < m:
                continue
            A = [[F(x) for x in r] for r in A_int]
            if linalg.rank(A) < n:
                continue
            done += 1
            normed = [[unit_scale(r) * x for x in r] for r in A]
            b = [F(b_rng.randint(-3, 3)) for _ in range(m)]
            lp = model.make_lp(normed, b, [1] * n)
            got = build_face(lp)
            full = phase1_matrix(normed)
            if not isinstance(got, Phase1Problem):
                face = normed  # every y_i fixed at 0
            else:
                face = face_lp(lp, got).rows()
                assert got.form == model.integer_form(face_lp(lp, got))
                with_face += 1
                # the face is LP' with the columns and lower rows of y_i,
                # i outside V, deleted; its rows come lead rows first
                lead = lead_rows(lp)
                perm = lead + [i for i in range(m) if i not in lead]
                V = got.initial.basis[n:]
                cols = list(range(n)) + [n + i for i in V]
                B = phase1_matrix([normed[i] for i in perm])
                sub = [B[i] for i in range(m)] + [B[m + i] for i in V]
                assert face == [[r[j] for j in cols] for r in sub]
            assert metrics.delta_matrix(face).delta >= metrics.delta_matrix(full).delta - 1e-12
        assert with_face >= 30


class TestSkipPath:
    def test_feasible_lead_vertex_skips_phase1(self):
        # the lead vertex comes with its basis's (M, D), read off the lead
        # rows' adjugate: x <= 1 and y <= 1 give M = I and D = 1
        lp = square()
        got, inverse = build_face(lp)
        assert got.point == (1, 1) and inverse == ([[1, 0], [0, 1]], 1)
        model.validate_basic_solution(lp, got)
        out = driver.solve(lp, cfg())
        assert out.status == "optimal" and out.value == 2
        assert out.phase1_pivots == 0 and out.phase1_artificials == 0

    def test_zero_objective_returns_the_lead_vertex(self):
        lp = model.make_lp(square().A, square().b, [0, 0])
        out = driver.solve(lp, cfg())
        assert out.status == "optimal" and out.phase1_pivots == 0
        model.validate_basic_solution(lp, out.vertex)


class TestInfeasibilityGap:
    def test_two_violated_rows_give_positive_gap(self):
        lp = two_violated()
        p1 = build_face(lp)
        assert p1.n == 1 + 2 and p1.form.m == 3 + 2
        model.validate_basic_solution(face_lp(lp, p1), p1.initial)
        out = driver.solve(lp, cfg())
        assert out.status == "infeasible" == oracle.classify(lp).status
        assert out.phase1_artificials == 2
        # sum(y_V) is least at x = 0; the full LP' reaches 2 at x = 1 or 2
        assert out.infeasible_gap == 3
        full = oracle.brute_force_optimum(box(build_phase1(lp).lp_prime))
        assert full.value == -2


class TestExtraction:
    def test_feasible_face_optimum_yields_vertex(self):
        # x <= 0 and y <= 0 lead; x_bar = (0, 0) violates x + y <= -1
        lp = model.make_lp([[1, 0], [0, 1], [1, 1]], [0, 0, -1], [1, 1])
        p1 = build_face(lp)
        assert p1.n == 3
        got = extract_bfs(face_optimum(lp, p1), model.integer_form(lp), p1)
        assert not isinstance(got, InfeasibleCertificate)
        model.validate_basic_solution(lp, got)

    def test_infeasible_face_optimum_yields_gap(self):
        lp = two_violated()
        p1 = build_face(lp)
        got = extract_bfs(face_optimum(lp, p1), model.integer_form(lp), p1)
        assert isinstance(got, InfeasibleCertificate)
        assert got.gap == 3


def rational_lp(rng, n):
    """A seeded LP whose rows have non-integral factors (q_i > 1 for rows
    like (1/2, 1)), duplicate and parallel rows, and possibly rank below n."""
    rows = []
    for _ in range(rng.randint(1, n + 3)):
        kind = rng.random()
        if rows and kind < 0.2:
            rows.append(list(rng.choice(rows)))
        elif rows and kind < 0.4:
            k = F(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
            rows.append([k * x for x in rng.choice(rows)])
        else:
            rows.append([F(rng.randint(-4, 4), rng.choice([1, 2, 3, 6])) for _ in range(n)])
    rows = [r for r in rows if any(r)] or [[F(1)] * n]
    b = [F(rng.randint(-6, 6), rng.choice([1, 1, 2, 5])) for _ in rows]
    return model.make_lp(rows, b, [rng.randint(-2, 2) for _ in range(n)])


class TestLeadStart:
    def test_lead_point_is_the_adjugate_solution(self):
        # x_bar, read off adj(R_L) beta_L / (d s), is the Fraction solution
        # of the lead rows a_i x = b_i, and (adj, d) is linalg.invert's, on
        # lead sets with negative determinants and rational rows
        rng = random.Random(67)
        negative = scaled = 0
        for _ in range(200):
            lp = rational_lp(rng, rng.randint(1, 4))
            form = model.integer_form(lp)
            idx = linalg.independent_rows(form.R)
            work = reference.complete_rank(lp, form, idx)[0]
            form, lead = model.complete_rank(form, idx)
            _, xn, xd, _, adj, d = _lead_start(lead, form)
            want = linalg.solve_square([work.row(i) for i in lead], [work.b[i] for i in lead])
            assert xd > 0 and [F(v, xd) for v in xn] == want
            assert (adj, d) == linalg.invert([form.R[i] for i in lead])
            negative += d < 0
            scaled += form.s > 1 or any(f.denominator > 1 for f in form.factor)
        assert negative >= 20 and scaled >= 20

    def test_lead_point_solves_random_lead_rows(self):
        # on random integer lead rows over a rhs denominator s, x_bar solves
        # R_L x = beta_L / s and every residual e_k has the sign of
        # a_i x_bar - b_i; singular lead rows raise LinAlgError
        rng = random.Random(7)
        singular = negative = 0
        for _ in range(80):
            n = rng.randint(1, 5)
            R = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n + 2)]
            beta = [rng.randint(-9, 9) for _ in R]
            s = rng.choice([1, 2, 3])
            form = model.IntegerForm(R, [F(1)] * len(R), beta, s)
            lead = list(range(n))
            det = reference.det_fraction([[F(v) for v in R[i]] for i in lead])
            if det == 0:
                singular += 1
                with pytest.raises(linalg.LinAlgError):
                    _lead_start(lead, form)
                continue
            negative += det < 0
            perm, xn, xd, e, _, d = _lead_start(lead, form)
            assert d == det and xd > 0 and all(type(v) is int for v in xn)
            x = [F(v, xd) for v in xn]
            rows = [[F(v) for v in R[i]] for i in lead]
            assert x == linalg.solve_square(rows, [F(beta[i], s) for i in lead])
            assert not any(e[:n])
            for k, i in enumerate(perm):
                excess = sum(a * v for a, v in zip(R[i], x)) - F(beta[i], s)
                assert (e[k] > 0, e[k] < 0) == (excess > 0, excess < 0)
        assert singular > 0 and negative > 0


class TestDirectFaceForm:
    def test_face_form_and_lead_rows_are_the_face_lps(self):
        # the face's integer form, start basis and objective, built from the
        # solve's form, are the ones the face LP's make_lp construction
        # (`reference.phase1_face`), its integer_form and its own rank pass
        # give, over the LP completed in Fractions
        rng = random.Random(53)
        faces = scaled = completed = 0
        for _ in range(300):
            lp = rational_lp(rng, rng.randint(1, 4))
            form = model.integer_form(lp)
            idx = linalg.independent_rows(form.R)
            work, want_form, want_lead = reference.complete_rank(lp, form, idx)
            form, lead = model.complete_rank(form, idx)
            assert (form, lead) == (want_form, want_lead)
            p1 = build_phase1_face(form, lead)
            if not isinstance(p1, Phase1Problem):
                continue
            faces += 1
            completed += work.m > lp.m
            n, nv = form.n, p1.n - form.n
            V = list(p1.initial.basis[n:])
            perm = lead + [i for i in range(work.m) if i not in lead]
            scaled += any(form.factor[perm[k]].denominator > 1 for k in V)
            face = reference.phase1_face(work, lead, V)
            assert p1.form == model.integer_form(face)
            assert list(p1.initial.basis) == linalg.independent_rows(face.rows())[: n + nv]
            assert p1.c0 == face.c0 and p1.n == face.n
        assert faces >= 100 and scaled >= 20 and completed >= 5

    def test_phase1_solve_on_the_direct_form_matches_the_face_lp(self):
        # the depth-1 solve on the face's form, start and objective
        # answers as a solve that derives everything from the face LP
        rng = random.Random(59)
        done = 0
        while done < 25:
            lp = rational_lp(rng, rng.randint(1, 3))
            form = model.integer_form(lp)
            idx = linalg.independent_rows(form.R)
            work = reference.complete_rank(lp, form, idx)[0]
            form, lead = model.complete_rank(form, idx)
            p1 = build_phase1_face(form, lead)
            if not isinstance(p1, Phase1Problem):
                continue
            done += 1
            face = reference.phase1_face(work, lead, list(p1.initial.basis[form.n :]))
            kw = dict(initial_bfs=p1.initial, _depth=1)
            got = driver.solve(None, cfg(done), _face=p1, **kw)
            want = driver.solve(face, cfg(done), **kw)
            assert (got.status, got.value, got.point) == (want.status, want.value, want.point)
            assert got.pivot_sequence == want.pivot_sequence


def bareiss_inverse(form, basis):
    """(M, D) of basis on form from a Bareiss pass, as `walk.Tableau`
    builds it when no inverse is given."""
    adj, det = linalg.invert([form.R[i] for i in sorted(basis)])
    return (adj if det > 0 else [[-v for v in row] for row in adj]), abs(det)


def fresh_inverse(p1: Phase1Problem):
    """(M, D) of the face's start basis from a Bareiss pass over its n + |V|
    rows."""
    return bareiss_inverse(p1.form, p1.initial.basis)


@pytest.fixture
def built_faces(monkeypatch):
    """Every Phase-1 face a solve builds, through the module attribute
    the driver calls."""
    faces = []
    build = phase1.build_phase1_face

    def recording(form, lead):
        p1 = build(form, lead)
        if isinstance(p1, Phase1Problem):
            faces.append(p1)
        return p1

    monkeypatch.setattr(phase1, "build_phase1_face", recording)
    return faces


class TestBlockInverse:
    """The face start's (M, D), built by blocks from the lead rows'
    adjugate, is the one a Bareiss pass over the start basis gives."""

    def test_block_inverse_on_rational_faces(self):
        # rational rows: V rows with p_t != 1 scale the y-rows by Pi / p_t
        rng = random.Random(53)
        faces = scaled = 0
        for _ in range(300):
            lp = rational_lp(rng, rng.randint(1, 4))
            form = model.integer_form(lp)
            form, lead = model.complete_rank(form, linalg.independent_rows(form.R))
            p1 = build_phase1_face(form, lead)
            if not isinstance(p1, Phase1Problem):
                continue
            faces += 1
            assert p1.inverse == fresh_inverse(p1)
            # a row of V holds -p_t in its y-column
            scaled += any(min(p1.form.R[k][form.n :]) != -1 for k in p1.initial.basis[form.n :])
        assert faces >= 120 and scaled >= 100

    @pytest.mark.parametrize("mode", [randomness.MODE_FLOAT, randomness.MODE_DYADIC])
    def test_block_inverse_on_the_fuzz_corpus(self, built_faces, mode):
        solve_fuzz_corpus(mode)
        assert len(built_faces) >= 150
        assert all(p1.inverse == fresh_inverse(p1) for p1 in built_faces)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 7])
    def test_block_inverse_on_the_cold_pools(self, built_faces, seed):
        # the tu-cold and mixed-status pools; tu-warm's starts build no face
        solve_benchmark_pools(seed)
        assert len(built_faces) >= 150
        assert all(p1.inverse == fresh_inverse(p1) for p1 in built_faces)


class TestLeadVertexInverse:
    """A cold solve whose lead rows' point is already a vertex skips Phase 1,
    and its chain's tableau takes that vertex's (M, D) from the lead rows'
    adjugate that `_lead_start` formed, rather than inverting them again."""

    def test_lead_vertex_inverse_on_rational_lps(self):
        # negative determinants and rational rows; the lead rows ascend, as
        # M's columns, in sorted basis order, need
        rng = random.Random(53)
        vertices = negative = 0
        for _ in range(300):
            lp = rational_lp(rng, rng.randint(1, 4))
            form = model.integer_form(lp)
            form, lead = model.complete_rank(form, linalg.independent_rows(form.R))
            got = build_phase1_face(form, lead)
            if isinstance(got, Phase1Problem):
                continue
            bfs, inverse = got
            vertices += 1
            negative += linalg.invert([form.R[i] for i in lead])[1] < 0
            assert list(bfs.basis) == lead == sorted(lead)
            assert inverse == bareiss_inverse(form, bfs.basis)
        assert vertices >= 150 and negative >= 60, (vertices, negative)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 7])
    def test_lead_vertex_inverse_on_the_cold_pools(self, monkeypatch, seed):
        # the tu-cold and mixed-status pools: the (M, D) handed on equals a
        # Bareiss pass's, and the solve calls linalg.invert once, in
        # `_lead_start`; the recession walk builds its tableau on the inverse
        # kept where the box was appended
        built, calls = [], [0]
        build, invert = phase1.build_phase1_face, linalg.invert

        def recording(form, lead):
            got = build(form, lead)
            if not isinstance(got, Phase1Problem):
                built.append((form, *got))
            return got

        def counted(rows):
            calls[0] += 1
            return invert(rows)

        monkeypatch.setattr(phase1, "build_phase1_face", recording)
        monkeypatch.setattr(linalg, "invert", counted)
        workloads = load_workloads()
        pkg = SimpleNamespace(harness=harness, model=model, rational=rational)
        vertices = 0
        for name in ("tu-cold", "mixed-status"):
            for inst in workloads.build_pool(pkg, name, seed):
                built.clear()
                calls[0] = 0
                conf = driver.SolveConfig(rng=randomness.RngConfig(seed=inst.seed, mode=inst.mode))
                out = driver.solve(inst.lp, conf, initial_bfs=inst.start)
                if not built:
                    continue
                vertices += 1
                assert calls[0] == 1, inst.id
                ((form, bfs, inverse),) = built
                assert inverse == bareiss_inverse(form, bfs.basis), inst.id
        # 131 to 146 lead vertices a pool, escapes included, which build no tableau
        assert vertices >= 120, vertices
