"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete (they are also captured in the assertion messages).
"""

import random
import time
from fractions import Fraction
from itertools import combinations
from math import ceil, comb, log2, sqrt

import pytest
import reference
from boxing import box
from reference import pair, validate_shadow_path, values

from shadow_simplex import (
    driver,
    harness,
    linalg,
    metrics,
    model,
    oracle,
    phase1,
    randomness,
    walk,
)
from shadow_simplex.rational import dot, primitive_int_row, ratsqrt_ceil, unit_scale

F = Fraction


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


def random_lp(rng: random.Random):
    """n <= 5, m <= 10, integer entries in [-3, 3]; anything goes."""
    n = rng.randint(1, 5)
    m = rng.randint(1, 10)
    A = []
    while len(A) < m:
        row = [rng.randint(-3, 3) for _ in range(n)]
        if any(row):
            A.append(row)
    b = [rng.randint(-3, 3) for _ in range(m)]
    c = [rng.randint(-3, 3) for _ in range(n)]
    return model.make_lp(A, b, c)


def agreement(lp, out) -> bool:
    ref = oracle.classify(lp)
    if out.status != ref.status:
        return False
    if ref.status == "optimal" and out.value != ref.value:
        return False
    return True


@pytest.fixture(scope="module")
def criterion1_runs():
    rng = random.Random(20240817)
    runs = []
    t0 = time.perf_counter()
    for trial in range(500):
        lp = random_lp(rng)
        cfg = driver.SolveConfig(rng=randomness.RngConfig(seed=trial))
        out = driver.solve(lp, cfg)
        runs.append((lp, trial, out, agreement(lp, out)))
    elapsed = time.perf_counter() - t0
    return runs, elapsed


@pytest.fixture(scope="module")
def criterion2_runs():
    runs = []
    kinds = ["tu-incidence", "interval-matrix"]
    for trial in range(200):
        kind = kinds[trial % 2]
        n = 2 + trial % 5  # up to 6
        m = 2 + trial % (n + 1)
        lp = harness.generate_tu_instance(kind, m=m, n=n, seed=7000 + trial)
        cfg = driver.SolveConfig(rng=randomness.RngConfig(seed=trial))
        out = driver.solve(lp, cfg)
        Delta = metrics.max_subdeterminant([[int(x) for x in r] for r in lp.rows()])
        runs.append((lp, trial, out, agreement(lp, out), Delta))
    return runs


def test_criterion_1_solver_correctness(criterion1_runs):
    runs, elapsed = criterion1_runs
    bad = [t for (_, t, _, ok) in runs if not ok]
    ok = not bad and elapsed < 300.0
    report(1, ok, f"500/500 oracle agreement, {elapsed:.1f}s"
           if ok else f"disagreements={bad[:5]}, {elapsed:.1f}s")
    assert not bad, f"oracle disagreement on trials {bad[:5]}"
    assert elapsed < 300.0, f"criterion 1 runtime {elapsed:.1f}s exceeds 5 minutes"


def test_criterion_2_tu_correctness(criterion2_runs):
    bad = [t for (_, t, _, ok, _) in criterion2_runs if not ok]
    bad_delta = [t for (_, t, _, _, D) in criterion2_runs if D != 1]
    ok = not bad and not bad_delta
    report(2, ok, "200/200 TU agreement, all Delta=1"
           if ok else f"disagree={bad[:5]} delta_bad={bad_delta[:5]}")
    assert not bad and not bad_delta


def test_criterion_3_phase1_structure():
    rng = random.Random(31415)
    done = violations = 0
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
        # Delta(B) = Delta(A) exactly, on the integral data
        B_int = [[int(x) for x in r] for r in phase1.phase1_matrix(A)]
        if metrics.max_subdeterminant(B_int) != metrics.max_subdeterminant(A_int):
            violations += 1
            continue
        # rank(B) = m + n exactly
        if linalg.rank(phase1.phase1_matrix(A)) != m + n:
            violations += 1
            continue
        # 1/delta(B) <= 2 sqrt(m-n+1) / delta(A), rows of A normalized
        normed = []
        for row in A:
            t = unit_scale(row)
            normed.append([t * x for x in row])
        dA = metrics.delta_matrix(normed).delta
        dB = metrics.delta_matrix(phase1.phase1_matrix(normed)).delta
        if 1.0 / dB > 2 * sqrt(m - n + 1) / dA + 1e-9:
            violations += 1
    ok = violations == 0
    report(3, ok, f"100 instances, {violations} violations")
    assert violations == 0


def test_criterion_4_delta_machinery():
    rng = random.Random(27182)
    import numpy as np
    from float_orthonormal import complete_orthonormal

    nprng = np.random.default_rng(5)
    matrices = inverse_vs_angle_bad = bound_bad = rotation_bad = 0
    while matrices < 100:
        n = rng.randint(1, 4)
        m = rng.randint(n, n + 2)
        A = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        A = [r for r in A if any(x != 0 for x in r)]
        if len(A) < n or linalg.rank(A) < n:
            continue
        matrices += 1
        for S in combinations(range(len(A)), n):
            rows = [A[i] for i in S]
            try:
                inv2 = metrics.inv_delta_sq_of_rows(rows)
            except metrics.MetricsError:
                continue
            angle = reference.delta_sq_angle_definition(rows)
            if abs(1.0 / sqrt(float(inv2)) - sqrt(float(angle))) > 1e-9:
                inverse_vs_angle_bad += 1
            # rotation invariance of the tuple delta, rationalized float Q
            v = nprng.normal(size=n)
            v /= np.linalg.norm(v)
            Q = complete_orthonormal(v)
            rot = [
                [F(float(sum(float(rows[i][k]) * Q[k][j] for k in range(n))))
                 for j in range(n)]
                for i in range(n)
            ]
            try:
                d_rot = reference.delta_of_rows(rot)
            except metrics.MetricsError:
                rotation_bad += 1
                continue
            if abs(d_rot - 1.0 / sqrt(float(inv2))) > 1e-9:
                rotation_bad += 1
        rep = metrics.delta_matrix(A)
        if rep.bound_nDeltaSq_ok is not True or rep.bound_tight_ok is not True:
            bound_bad += 1
    ok = inverse_vs_angle_bad == bound_bad == rotation_bad == 0
    report(4, ok, f"{matrices} matrices; angle_bad={inverse_vs_angle_bad} "
                  f"bound_bad={bound_bad} rotation_bad={rotation_bad}")
    assert ok


def test_criterion_5_path_structure(criterion1_runs, criterion2_runs):
    runs, _ = criterion1_runs
    paths = 0
    violations = []
    for source in (runs, criterion2_runs):
        for rec in source:
            out = rec[2]
            for tr in out.traces:
                paths += 1
                try:
                    validate_shadow_path(tr.path)
                except walk.WalkError as exc:
                    violations.append(str(exc))
    ok = not violations
    report(5, ok, f"{paths} recorded walks, 0 violations"
           if ok else f"{len(violations)} violations: {violations[:3]}")
    assert not violations


def test_criterion_6_facet_identification():
    rng = random.Random(16180)
    done = wrong = 0
    while done < 300:
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
            continue  # unique nondegenerate optimum required by the premise
        if any(
            dot(list(lp0.c0), list(v.point)) == ref.value
            for v in oracle.enumerate_vertices(lp0).vertices
            if v.point != ref.point
        ):
            continue
        boxed = box(lp0)
        inv2 = metrics.delta_matrix(boxed.rows()).inv_delta_sq
        phi = 4 * n * ratsqrt_ceil(F(n)) * ratsqrt_ceil(inv2)  # > 2 n^{3/2}/delta
        # the first round of a facet chain: nothing fixed yet
        basis = linalg.FaceBasis(n)
        c0_face = driver.facet_restriction([], primitive_int_row(boxed.c0)[0], basis)
        tab = walk.Tableau(model.integer_form(boxed), model.move_to_vertex(boxed, [F(0)] * n))
        stream = randomness.DrawStream(done)
        bits = randomness.CONTINUOUS_BITS
        pert = randomness.perturb_objective(c0_face, phi, bits, stream)
        u = driver.restriction_coords(basis, [tab.R[i] for i in sorted(tab.basis)])
        lam = randomness.draw_lambda(n, bits, stream)
        w = randomness.cone_objective(u, values(lam))
        res = walk.shadow_walk(tab, basis.lift((pert.c, pert.den)), basis.lift(pair(w)))
        assert res.finished
        free = sorted(tab.basis)
        if free[driver.identify_basis_element(tab, basis, free, {})] not in opt_tight:
            wrong += 1
        done += 1
    ok = wrong == 0
    report(6, ok, f"300 trials, {wrong} misidentifications")
    assert wrong == 0


def test_criterion_7_random_bit_mode(criterion1_runs):
    runs, _ = criterion1_runs
    # part 1: the full random suite in dyadic mode with budgeted bits
    bad = []
    for lp, trial, _, _ in runs:
        cfg = driver.SolveConfig(
            rng=randomness.RngConfig(seed=trial, mode="dyadic", bits_per_draw=None)
        )
        out = driver.solve(lp, cfg)
        if not agreement(lp, out):
            bad.append(trial)
    # part 2: paired-seed pivot sequences, small instances, budgeted bits
    rng = random.Random(99)
    paired = matched = 0
    while paired < 100:
        n = rng.randint(1, 3)
        m = rng.randint(n, 6)
        A = []
        while len(A) < m:
            row = [rng.randint(-3, 3) for _ in range(n)]
            if any(row):
                A.append(row)
        lp = model.make_lp(A, [rng.randint(-3, 3) for _ in range(m)],
                           [rng.randint(-3, 3) for _ in range(n)])
        if linalg.rank(lp.rows()) < n:
            continue
        try:
            d = metrics.delta_matrix(lp.rows()).delta
        except metrics.MetricsError:
            continue
        phi0 = driver.PhiSchedule(variant="n32", n=n, m=m).phi(0)
        bits = randomness.bit_budget(m, n, phi0, F(d).limit_denominator(10**9))
        seed = 5000 + paired
        cont = driver.solve(lp, driver.SolveConfig(rng=randomness.RngConfig(seed=seed)))
        dyad = driver.solve(
            lp,
            driver.SolveConfig(
                rng=randomness.RngConfig(seed=seed, mode="dyadic", bits_per_draw=bits)
            ),
        )
        paired += 1
        if cont.pivot_sequence == dyad.pivot_sequence:
            matched += 1
        assert cont.status == dyad.status
        if cont.status == "optimal":
            assert cont.value == dyad.value
    rate = matched / paired
    ok = not bad and rate >= 0.95
    report(7, ok, f"dyadic suite {500 - len(bad)}/500, paired match rate {rate:.2%}")
    assert not bad, f"dyadic disagreement on trials {bad[:5]}"
    assert rate >= 0.95


def test_criterion_8_schedule_behavior():
    rng = random.Random(86)
    done = bad_phi = bad_doublings = 0
    while done < 50:
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
        out = driver.solve(lp, driver.SolveConfig(rng=randomness.RngConfig(seed=done)))
        assert out.status == "optimal"
        done += 1
        if float(out.phi_accepted) > 8 * n**1.5 / delta * (1 + 1e-9):
            bad_phi += 1
        if out.doublings > ceil(log2(1 / delta)) + 2:
            bad_doublings += 1
    ok = bad_phi == bad_doublings == 0
    report(8, ok, f"50 instances, phi_violations={bad_phi} "
                  f"doubling_violations={bad_doublings}")
    assert ok


def test_criterion_9_reproducibility(tmp_path):
    cfg = harness.ExperimentConfig(
        generator="tu-incidence",
        sizes=((6, 3), (8, 4)),
        trials=5,
        seed=7,
        out_path=str(tmp_path / "a.csv"),
    )
    harness.run_experiments(cfg)
    cfg2 = harness.ExperimentConfig(
        generator="tu-incidence",
        sizes=((6, 3), (8, 4)),
        trials=5,
        seed=7,
        out_path=str(tmp_path / "b.csv"),
    )
    harness.run_experiments(cfg2)
    a = (tmp_path / "a.csv").read_bytes()
    b = (tmp_path / "b.csv").read_bytes()
    ok = a == b and len(a) > 0
    report(9, ok, f"byte-identical summaries ({len(a)} bytes)")
    assert ok
