"""Pinned answers: a refactor that moves a status, value, ray or pivot count
fails here, not only in the benchmark's determinism digest.

Each entry is (status, value, ray, pivots, phase1_pivots) of
`driver.solve` in float mode, recorded before the solve path dropped
`model.normalize`; exact values and rays are written as `str(Fraction)`.
The warm entries pin (status, value, pivots) of dyadic-mode solves from a
`model.move_to_vertex` start, the path of the tu-warm benchmark workload.
The sequence entries pin the sha256 of `repr(SolveOutcome.pivot_sequence)`,
every (entering, leaving) row pair in order, for three cells of each kind:
the benchmark's determinism digest hashes pivot counts only.  Their test
ids name the cell alone, so a re-recorded hash keeps the test's name.
The zero-objective and objective-escape entries pin (status, value, ray,
pivots, phase1_pivots, phase1_artificials, bits_consumed) of cold solves,
recorded while `driver.solve` still sent those LPs down paths of their own;
the dyadic entries pin the bits that Phase 1 draws on its own schedule.
The unbounded rays were re-recorded when the recession LP's box rhs became
the integer 1: each new ray is a positive multiple of its old pin.
Pivot counts, bits and sequence hashes were re-recorded when a facet chain
began to end at the first round whose basis carries c0: chains walk fewer
rounds and draw less, while every status, value and ray stayed the same.
Six random-integer entries and two sequence hashes were re-recorded when an
edge no row blocks began to answer unbounded where c0 rises along it: the
walk stops there, unboxed, with fewer pivots, and the ray is that edge's
primitive direction.  Statuses and values held and every new ray passed
`driver._check_ray`: two rays are unchanged, three are positive multiples
of their old pins, and the one of (6, 5, 0) is another ray of its LP.
The pivot counts of sixteen entries and two sequence hashes were
re-recorded when a Phase-1 walk began to end at the first vertex where
sum(y) = 0: Phase 1 makes fewer pivots, while every status, value, ray,
artificial count and bit count held.
Three random-integer entries and one sequence hash were re-recorded when a
chain whose start basis already carries c0 began to end before round 0,
and a cold solve's main chain to start on the basis Phase 1 ended on: the
infeasible (3, 2, 1)'s Phase-1 start is already Phase-1-optimal (1 pivot
before), and the main chains of (8, 3, 3) and (10, 5, 1) start on a basis
that carries c0 (one walk of 1 pivot before).  Every status, value and
artificial count held.
"""

import hashlib
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from shadow_simplex import driver, harness, model, randomness

# (m, n, solver seed) -> the answer for generate_random_integer(m, n, 100 m + 10 n + seed)
RANDOM_INTEGER = [
    ((1, 1, 1), ("unbounded", None, ("-1",), 0, 0)),
    ((2, 2, 1), ("unbounded", None, ("0", "3"), 0, 0)),
    ((2, 2, 3), ("unbounded", None, ("1", "0"), 0, 0)),
    ((3, 2, 1), ("infeasible", None, None, 0, 0)),
    ((3, 4, 0), ("unbounded", None, ("-57/161", "19/230", "-57/805", "-95/322"), 0, 0)),
    (
        (4, 3, 1),
        (
            "unbounded",
            None,
            ("-2", "-3", "1"),
            1,
            1,
        ),
    ),
    ((4, 3, 3), ("optimal", "-10/9", None, 2, 1)),
    (
        (6, 3, 1),
        (
            "unbounded",
            None,
            ("-4", "7", "6"),
            3,
            2,
        ),
    ),
    (
        (6, 5, 0),
        (
            "unbounded",
            None,
            ("1", "-25", "-44", "55", "-44"),
            1,
            0,
        ),
    ),
    ((7, 4, 0), ("optimal", "41/18", None, 4, 1)),
    ((8, 3, 3), ("optimal", "-6", None, 3, 3)),
    (
        (9, 5, 0),
        (
            "unbounded",
            None,
            ("119", "-138", "-115", "63", "1"),
            8,
            3,
        ),
    ),
    ((10, 4, 1), ("infeasible", None, None, 3, 3)),
    ((10, 5, 1), ("optimal", "-19/5", None, 5, 5)),
]

# (kind, seed) -> the answer for generate_tu_instance(kind, 6, 3, seed), solver seed = seed
TU_COLD = [
    (("tu-incidence", 0), ("optimal", "89/4", None, 5, 4)),
    (("tu-incidence", 2), ("optimal", "10/3", None, 4, 1)),
    (("interval-matrix", 0), ("optimal", "25/4", None, 5, 1)),
    (("interval-matrix", 1), ("optimal", "45/4", None, 5, 0)),
    (("network-matrix", 0), ("optimal", "19/4", None, 4, 1)),
    (("network-matrix", 2), ("optimal", "22/3", None, 3, 1)),
]

# (kind, seed) -> (status, value, pivots) for generate_tu_instance(kind, 16, 8, seed)
# from the vertex move_to_vertex reaches from the generator's interior point,
# dyadic mode, solver seed = seed
TU_WARM = [
    (("tu-incidence", 0), ("optimal", "67/3", 6)),
    (("tu-incidence", 3), ("optimal", "517/12", 4)),
    (("interval-matrix", 1), ("optimal", "197/12", 8)),
    (("interval-matrix", 3), ("optimal", "335/12", 8)),
    (("network-matrix", 0), ("optimal", "142/3", 9)),
    (("network-matrix", 3), ("optimal", "53/2", 5)),
]

# sha256 of repr(pivot_sequence), recorded with the cone objective still
# formed in face coordinates and lifted
PIVOT_SEQUENCES = [
    (
        ("warm", "interval-matrix", 1),
        "2fef2f6053b86df4de95af09a2718a4ddd8e1786e13e4c856d555b42a5b6d8dd",
    ),
    (
        ("warm", "interval-matrix", 3),
        "a25e510ae70196d3102757ff05d980dc95d9088668a4b27b812a4d1b597c3dfe",
    ),
    (
        ("warm", "network-matrix", 0),
        "2197422778df1edc515d0b6314f930cd1373b3c18a3e7f6ecaf130532e0da051",
    ),
    (
        ("random", 6, 5, 0),
        "0d4e72cc4770e38e20f859ea3413bb76a21a1bc5fa7eb83e3f5cb6b4dd92a771",
    ),
    (
        ("random", 9, 5, 0),
        "304b04e37de38e8058c9de4c6bee9784e8a8e08a31651798a6ac6d470527b6d8",
    ),
    (
        ("random", 10, 5, 1),
        "5080ba6ae6a680b33726cf00bd4e1e352958927f273cfcbcfcf406e3ebc43f3b",
    ),
]


def _flat_in_x3(b, c0):
    """Rows in x1, x2 only, so rank 2 of 3: the lead rows x1 <= 2, x2 <= 2
    meet where x1 + x2 <= b[2] fails, so Phase 1 runs."""
    A = [[1, 0, 0], [0, 1, 0], [1, 1, 0], [-1, 0, 0], [0, -1, 0], [1, 2, 0]]
    return model.make_lp(A, b, c0)


def _zero_objective(lp):
    return replace(lp, c0=(Fraction(0),) * lp.n)


# name -> (LP, solver seed)
ZERO_AND_ESCAPE_LPS = {
    "zero-phase1-skipped": (
        lambda: _zero_objective(harness.generate_tu_instance("interval-matrix", 6, 3, 1)),
        1,
    ),
    "zero-phase1-run": (
        lambda: _zero_objective(harness.generate_tu_instance("tu-incidence", 6, 3, 0)),
        0,
    ),
    "zero-infeasible": (
        lambda: _zero_objective(harness.generate_random_integer(10, 4, 1041)),
        1,
    ),
    "zero-rank-deficient": (lambda: _flat_in_x3([2, 2, 3, 0, 0, 4], [0, 0, 0]), 1),
    "escape-unbounded": (lambda: _flat_in_x3([2, 2, 3, 0, 0, 4], [1, 1, 1]), 1),
    "escape-infeasible": (lambda: _flat_in_x3([2, 2, -1, 0, 0, 4], [1, 1, 1]), 1),
}

# (name, mode) -> (status, value, ray, pivots, phase1_pivots,
# phase1_artificials, bits_consumed) of the cold solve
ZERO_AND_ESCAPE = [
    (("zero-phase1-skipped", "float"), ("optimal", "0", None, 0, 0, 0, 0)),
    (("zero-phase1-run", "float"), ("optimal", "0", None, 4, 4, 3, 636)),
    (("zero-phase1-run", "dyadic"), ("optimal", "0", None, 4, 4, 3, 2760)),
    (("zero-infeasible", "float"), ("infeasible", None, None, 3, 3, 2, 636)),
    (("zero-rank-deficient", "float"), ("optimal", "0", None, 1, 1, 2, 530)),
    (("escape-unbounded", "float"), ("unbounded", None, ("0", "0", "1"), 1, 1, 2, 530)),
    (("escape-unbounded", "dyadic"), ("unbounded", None, ("0", "0", "1"), 1, 1, 2, 1790)),
    (("escape-infeasible", "float"), ("infeasible", None, None, 4, 4, 2, 530)),
]

ROW_MAKERS = {
    "tu-incidence": harness._incidence_rows,
    "interval-matrix": harness._interval_rows,
    "network-matrix": harness._network_rows,
}


def _interior_point(kind, m, n, seed):
    """The integer point generate_tu_instance builds its rhs around, by
    replaying the generator's random stream."""
    rng = random.Random(seed)
    for _ in range(20):
        if ROW_MAKERS[kind](rng, m, n):
            break
    return [Fraction(rng.randint(-2, 2)) for _ in range(n)]


def _solve_warm(kind, seed):
    lp = harness.generate_tu_instance(kind, 16, 8, seed)
    start = model.move_to_vertex(lp, _interior_point(kind, 16, 8, seed))
    rng = randomness.RngConfig(seed=seed, mode=randomness.MODE_DYADIC)
    return driver.solve(lp, driver.SolveConfig(rng=rng), initial_bfs=start)


def _full_answer(lp, seed, mode=randomness.MODE_FLOAT):
    rng = randomness.RngConfig(seed=seed, mode=mode)
    out = driver.solve(lp, driver.SolveConfig(rng=rng))
    return (
        out.status,
        None if out.value is None else str(out.value),
        None if out.ray is None else tuple(str(x) for x in out.ray),
        out.pivots,
        out.phase1_pivots,
        out.phase1_artificials,
        out.bits_consumed,
    )


def _answer(lp, seed):
    return _full_answer(lp, seed)[:5]


@pytest.mark.parametrize("cell,expected", RANDOM_INTEGER)
def test_random_integer_answer_pinned(cell, expected):
    m, n, seed = cell
    lp = harness.generate_random_integer(m, n, 100 * m + 10 * n + seed)
    assert _answer(lp, seed) == expected


@pytest.mark.parametrize("cell,expected", TU_COLD)
def test_tu_cold_answer_pinned(cell, expected):
    kind, seed = cell
    assert _answer(harness.generate_tu_instance(kind, 6, 3, seed), seed) == expected


@pytest.mark.parametrize("cell,expected", TU_WARM)
def test_tu_warm_answer_pinned(cell, expected):
    out = _solve_warm(*cell)
    assert (out.status, str(out.value), out.pivots) == expected


@pytest.mark.parametrize("cell,expected", ZERO_AND_ESCAPE)
def test_zero_objective_and_escape_answer_pinned(cell, expected):
    name, mode = cell
    make, seed = ZERO_AND_ESCAPE_LPS[name]
    assert _full_answer(make(), seed, mode) == expected


@pytest.mark.parametrize(
    "cell,expected", PIVOT_SEQUENCES, ids=["-".join(map(str, cell)) for cell, _ in PIVOT_SEQUENCES]
)
def test_pivot_sequence_pinned(cell, expected):
    if cell[0] == "warm":
        out = _solve_warm(*cell[1:])
    else:
        m, n, seed = cell[1:]
        lp = harness.generate_random_integer(m, n, 100 * m + 10 * n + seed)
        out = driver.solve(lp, driver.SolveConfig(rng=randomness.RngConfig(seed=seed)))
    assert out.pivot_sequence
    assert hashlib.sha256(repr(out.pivot_sequence).encode()).hexdigest() == expected
