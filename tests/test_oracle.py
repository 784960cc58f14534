import random
from fractions import Fraction
from functools import cache
from types import SimpleNamespace

import pytest
import reference
from test_fuzz import lps as fuzz_lps
from test_integer_path import load_workloads

from shadow_simplex import harness, linalg, model, oracle, rational
from shadow_simplex.model import BasicSolution
from shadow_simplex.oracle import (
    OracleError,
    brute_force_optimum,
    classify,
    enumerate_vertices,
    reference_simplex,
)
F = Fraction


def square(c0=(1, 1)):
    return model.make_lp([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 1, 0], list(c0))


class TestEnumeration:
    def test_square_has_four_vertices(self):
        vs = enumerate_vertices(square())
        assert sorted(v.point for v in vs.vertices) == [
            (0, 0), (0, 1), (1, 0), (1, 1)
        ]

    def test_empty_polyhedron(self):
        lp = model.make_lp([[1], [-1]], [0, -1], [1])
        assert len(enumerate_vertices(lp)) == 0

    def test_cut_cube_corner_has_ten_vertices(self):
        # 3-cube with the (1,1,1) corner cut by a generic plane; the cut
        # replaces one vertex with three new ones: 8 - 1 + 3 = 10
        rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1],
                [-1, 0, 0], [0, -1, 0], [0, 0, -1],
                [2, 3, 4]]
        lp = model.make_lp(rows, [1, 1, 1, 0, 0, 0, F(17, 2)], [1, 1, 1])
        vs = enumerate_vertices(lp)
        assert len(vs) == 10

    def test_every_vertex_is_feasible_and_tight(self):
        lp = square()
        for v in enumerate_vertices(lp).vertices:
            model.validate_basic_solution(lp, BasicSolution(v.point, v.basis))


class TestBruteForce:
    def test_square_argmax(self):
        out = brute_force_optimum(square())
        assert out.status == "optimal" and out.point == (1, 1) and out.value == 2

    def test_infeasible(self):
        lp = model.make_lp([[1], [-1]], [0, -1], [1])
        assert brute_force_optimum(lp).status == "infeasible"

    def test_unbounded_by_ray(self):
        lp = model.make_lp([[-1, 0], [0, -1], [0, 1]], [0, 0, 1], [1, 0])
        assert brute_force_optimum(lp).status == "unbounded"


class TestReferenceSimplex:
    def test_square_walks_to_argmax(self):
        lp = square()
        start = BasicSolution(point=(F(0), F(0)), basis=(1, 3))
        out = reference_simplex(lp, start)
        assert out.status == "optimal" and out.point == (1, 1)

    def test_degenerate_pyramid_terminates(self):
        lp = model.make_lp(
            [[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1], [0, 0, -1]],
            [1, 1, 1, 1, 0],
            [0, 0, 1],
        )
        base = BasicSolution(point=(F(1), F(1), F(0)), basis=(0, 2, 4))
        got = reference_simplex(lp, base)
        assert got.status == "optimal"
        assert got.value == 1  # apex value; bounded pivots enforced inside

    def test_unbounded_detected(self):
        lp = model.make_lp([[-1, 0], [0, -1]], [0, 0], [1, 1])
        start = BasicSolution(point=(F(0), F(0)), basis=(0, 1))
        assert reference_simplex(lp, start).status == "unbounded"

    def test_agreement_with_brute_force(self):
        rng = random.Random(131)
        done = 0
        while done < 500:
            m, n = rng.randint(2, 7), rng.randint(1, 3)
            A = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
            A = [r for r in A if any(x != 0 for x in r)]
            if len(A) < n or linalg.rank(A) < n:
                continue
            b = [F(rng.randint(0, 4)) for _ in range(len(A))]
            lp = model.make_lp(A, b, [F(rng.randint(-3, 3)) for _ in range(n)])
            ref = brute_force_optimum(lp)
            try:
                start = model.move_to_vertex(lp, [F(0)] * n)
            except model.LPModelError:
                assert ref.status == "unbounded"
                done += 1
                continue
            got = reference_simplex(lp, start)
            assert got.status == ref.status
            if ref.status == "optimal":
                assert got.value == ref.value
            done += 1


class TestClassify:
    def test_rank_deficient_bounded(self):
        # one constraint in 2 vars, objective inside the row span
        lp = model.make_lp([[1, 1]], [2], [1, 1])
        out = classify(lp)
        assert out.status == "optimal" and out.value == 2

    def test_rank_deficient_escape_feasible(self):
        lp = model.make_lp([[1, 0]], [1], [0, 1])
        assert classify(lp).status == "unbounded"

    def test_rank_deficient_escape_infeasible(self):
        lp = model.make_lp([[1, 0], [-1, 0]], [0, -1], [0, 1])
        assert classify(lp).status == "infeasible"

    def test_guard_raises(self):
        rng = random.Random(0)
        A = [[F(rng.randint(-2, 2) or 1) for _ in range(10)] for _ in range(40)]
        lp = model.make_lp(A, [1] * 40, [1] * 10)
        with pytest.raises(OracleError):
            enumerate_vertices(lp)


def pool(name, seed):
    pkg = SimpleNamespace(harness=harness, model=model, rational=rational)
    return load_workloads().build_pool(pkg, name, seed)


def criterion2_lps():
    """Every 10th of the 200 TU LPs of acceptance criterion 2
    (tests/test_acceptance.py): its round robin makes them its 20 n = 2
    tu-incidence LPs."""
    for trial in range(0, 200, 10):
        kind = ("tu-incidence", "interval-matrix")[trial % 2]
        n = 2 + trial % 5
        yield harness.generate_tu_instance(kind, m=2 + trial % (n + 1), n=n, seed=7000 + trial)


def outcome(fn, *args):
    """fn's answer, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (oracle.OracleError, model.LPModelError, linalg.LinAlgError) as exc:
        return type(exc), str(exc)


LPS = {
    "fuzz": lambda: [lp for _, _, lp in fuzz_lps()],
    "mixed-status-7": lambda: [inst.lp for inst in pool("mixed-status", 7)],
    "criterion-2": criterion2_lps,
}
# (optimal, unbounded, infeasible) answers each group has at least
STATUS_FLOORS = {"fuzz": (75, 100, 100), "mixed-status-7": (30, 110, 90), "criterion-2": (20, 0, 0)}


class TestAgainstFractionForms:
    """The oracle eliminates in integers on linalg's kernels; its Fraction
    forms in tests/reference.py give the same answers, vertex order and
    bases included."""

    @pytest.mark.parametrize("group", LPS)
    def test_vertex_sets_and_classify(self, group, monkeypatch):
        # classify's brute force is the enumeration and the ray scan, so
        # brute_force_optimum is held too; the Fraction classify reuses the
        # Fraction vertex sets
        monkeypatch.setattr(reference, "enumerate_vertices", cache(reference.enumerate_vertices))
        statuses = []
        for lp in LPS[group]():
            where = model.serialize_lp(lp)
            got = outcome(enumerate_vertices, lp)
            assert got == outcome(reference.enumerate_vertices, lp), where
            got = classify(lp)
            assert got == reference.classify(lp), where
            statuses.append(got.status)
        counts = tuple(map(statuses.count, ("optimal", "unbounded", "infeasible")))
        assert all(map(int.__ge__, counts, STATUS_FLOORS[group])), counts

    def test_escape_on_rank_deficient_lps(self):
        # classify decides the escape by rank, with no solver code; its
        # Fraction form by the solver's own projection: the rank-deficient
        # LPs of the mixed-status pools of seeds 1-4 and 7 and of the fuzz
        # corpus agree
        lps = [inst.lp for seed in (1, 2, 3, 4, 7) for inst in pool("mixed-status", seed)]
        escapes = kept = 0
        for lp in lps + LPS["fuzz"]():
            if linalg.rank(lp.rows()) == lp.n:
                continue
            assert classify(lp) == reference.classify(lp), model.serialize_lp(lp)
            if model._objective_escape(lp.c0, model.integer_form(lp).R) is None:
                kept += 1
            else:
                escapes += 1
        assert escapes >= 300 and kept >= 10, (escapes, kept)

    def test_reference_simplex_on_tu_warm_pools(self):
        pivots = 0
        for seed in (1, 7):
            for inst in pool("tu-warm", seed):
                got = reference_simplex(inst.lp, inst.start)
                assert got == reference.reference_simplex(inst.lp, inst.start), inst.id
                pivots += got.basis != tuple(sorted(inst.start.basis))
        assert pivots >= 200, pivots  # starts that are not optimal
