"""Pinned answers: a refactor that moves a status, value, ray or pivot count
fails here, not only in the benchmark's determinism digest.

Each entry is (status, value, ray, pivots, phase1_pivots) of
`driver.solve` in float mode, recorded before the solve path dropped
`model.normalize`; exact values and rays are written as `str(Fraction)`.
The warm entries pin (status, value, pivots) of dyadic-mode solves from a
`model.move_to_vertex` start, the path of the tu-warm benchmark workload.
The sequence entries pin the sha256 of `repr(SolveOutcome.pivot_sequence)`,
every (entering, leaving) row pair in order, for three cells of each kind:
the benchmark's determinism digest hashes pivot counts only.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from shadow_simplex import driver, harness, model, randomness

# (m, n, solver seed) -> the answer for generate_random_integer(m, n, 100 m + 10 n + seed)
RANDOM_INTEGER = [
    ((1, 1, 1), ("unbounded", None, ("-1",), 1, 0)),
    ((2, 2, 1), ("unbounded", None, ("0", "3"), 0, 0)),
    ((2, 2, 3), ("unbounded", None, ("4611686018427387904/3260954456333195553", "0"), 2, 0)),
    ((3, 2, 1), ("infeasible", None, None, 1, 1)),
    ((3, 4, 0), ("unbounded", None, ("-57/161", "19/230", "-57/805", "-95/322"), 0, 0)),
    (
        (4, 3, 1),
        (
            "unbounded",
            None,
            (
                "-576460752303423488/983214762735871963",
                "-864691128455135232/983214762735871963",
                "288230376151711744/983214762735871963",
            ),
            6,
            3,
        ),
    ),
    ((4, 3, 3), ("optimal", "-10/9", None, 5, 5)),
    (
        (6, 3, 1),
        (
            "unbounded",
            None,
            (
                "-73786976294838206464/170011718944491854873",
                "129127208515966861312/170011718944491854873",
                "110680464442257309696/170011718944491854873",
            ),
            5,
            4,
        ),
    ),
    (
        (6, 5, 0),
        (
            "unbounded",
            None,
            (
                "92233720368547758080/117198880090397741703",
                "-9223372036854775808/117198880090397741703",
                "-39199331156632797184/117198880090397741703",
                "-94539563377761452032/117198880090397741703",
                "-39199331156632797184/117198880090397741703",
            ),
            7,
            0,
        ),
    ),
    ((7, 4, 0), ("optimal", "41/18", None, 6, 5)),
    ((8, 3, 3), ("optimal", "-6", None, 4, 3)),
    (
        (9, 5, 0),
        (
            "unbounded",
            None,
            (
                "548790636192859160576/870145065021246687255",
                "-212137556847659843584/290048355007082229085",
                "-106068778423829921792/174029013004249337451",
                "96845406386975145984/290048355007082229085",
                "4611686018427387904/870145065021246687255",
            ),
            17,
            9,
        ),
    ),
    ((10, 4, 1), ("infeasible", None, None, 5, 5)),
    ((10, 5, 1), ("optimal", "-19/5", None, 12, 12)),
]

# (kind, seed) -> the answer for generate_tu_instance(kind, 6, 3, seed), solver seed = seed
TU_COLD = [
    (("tu-incidence", 0), ("optimal", "89/4", None, 5, 5)),
    (("tu-incidence", 2), ("optimal", "10/3", None, 7, 3)),
    (("interval-matrix", 0), ("optimal", "25/4", None, 6, 4)),
    (("interval-matrix", 1), ("optimal", "45/4", None, 5, 0)),
    (("network-matrix", 0), ("optimal", "19/4", None, 7, 4)),
    (("network-matrix", 2), ("optimal", "22/3", None, 4, 3)),
]

# (kind, seed) -> (status, value, pivots) for generate_tu_instance(kind, 16, 8, seed)
# from the vertex move_to_vertex reaches from the generator's interior point,
# dyadic mode, solver seed = seed
TU_WARM = [
    (("tu-incidence", 0), ("optimal", "67/3", 6)),
    (("tu-incidence", 3), ("optimal", "517/12", 4)),
    (("interval-matrix", 1), ("optimal", "197/12", 8)),
    (("interval-matrix", 3), ("optimal", "335/12", 10)),
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
        "9e806701d45793b10c65c9e3e3345dcc34cfedd3c3e564b9d70a370a0aab3548",
    ),
    (
        ("warm", "network-matrix", 0),
        "2197422778df1edc515d0b6314f930cd1373b3c18a3e7f6ecaf130532e0da051",
    ),
    (
        ("random", 6, 5, 0),
        "a9dc4d27c6704ad4218d029ab5e764c3ee175015ca17e685aa3e0f18fff25942",
    ),
    (
        ("random", 9, 5, 0),
        "aa9cf61745a56897a221867dc6543280740a5e31e4c127f048db7860245e3e1e",
    ),
    (
        ("random", 10, 5, 1),
        "6fdae6818b39ae9e90d2820fe6bdd22fcd972a7ddfc0cd3545d851b3a03c8323",
    ),
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


def _answer(lp, seed):
    out = driver.solve(lp, driver.SolveConfig(rng=randomness.RngConfig(seed=seed)))
    return (
        out.status,
        None if out.value is None else str(out.value),
        None if out.ray is None else tuple(str(x) for x in out.ray),
        out.pivots,
        out.phase1_pivots,
    )


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


@pytest.mark.parametrize("cell,expected", PIVOT_SEQUENCES)
def test_pivot_sequence_pinned(cell, expected):
    if cell[0] == "warm":
        out = _solve_warm(*cell[1:])
    else:
        m, n, seed = cell[1:]
        lp = harness.generate_random_integer(m, n, 100 * m + 10 * n + seed)
        out = driver.solve(lp, driver.SolveConfig(rng=randomness.RngConfig(seed=seed)))
    assert out.pivot_sequence
    assert hashlib.sha256(repr(out.pivot_sequence).encode()).hexdigest() == expected
