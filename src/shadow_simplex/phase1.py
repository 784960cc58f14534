"""Auxiliary feasibility program: min sum(y) s.t. Ax - y <= b, y >= 0.

Encoded as a maximization of -sum(y) over the block matrix
[[A, -I], [0, -I]] with rhs (b, 0).  The construction provides an explicit
basic feasible start, so the main solver can run on it directly; optimal
value 0 yields a vertex of the original program, anything below certifies
infeasibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg, model
from .model import BasicSolution, LinearProgram
from .rational import as_fractions, dot


class Phase1Error(ValueError):
    pass


@dataclass(frozen=True)
class Phase1Problem:
    lp_prime: LinearProgram
    initial: BasicSolution
    row_permutation: tuple[int, ...]  # lp_prime row i of the A-block = lp row perm[i]
    orig_m: int
    orig_n: int


@dataclass(frozen=True)
class InfeasibleCertificate:
    gap: Fraction  # the positive optimal value of sum(y)


def phase1_matrix(A_rows) -> list[list[Fraction]]:
    """The (2m) x (n+m) block matrix [[A, -I], [0, -I]]."""
    rows = [as_fractions(r) for r in A_rows]
    m = len(rows)
    n = len(rows[0])
    out = []
    for i, a in enumerate(rows):
        out.append(list(a) + [Fraction(-int(i == j)) for j in range(m)])
    for i in range(m):
        out.append([Fraction(0)] * n + [Fraction(-int(i == j)) for j in range(m)])
    return out


def build_phase1(lp: LinearProgram) -> Phase1Problem:
    """Construct LP' and its basic feasible start from a full-rank LP."""
    m, n = lp.m, lp.n
    rows = lp.rows()
    idx = linalg.independent_rows(rows)
    if len(idx) < n:
        raise Phase1Error("constraint matrix is rank deficient")
    lead = idx[:n]
    perm = lead + [i for i in range(m) if i not in lead]
    A_perm = [rows[i] for i in perm]
    b_perm = [lp.b[i] for i in perm]

    x_bar = linalg.solve_square([A_perm[i] for i in range(n)], [b_perm[i] for i in range(n)])
    y = [max(dot(A_perm[i], x_bar) - b_perm[i], Fraction(0)) for i in range(m)]

    B = phase1_matrix(A_perm)
    rhs = b_perm + [Fraction(0)] * m
    c_prime = [Fraction(0)] * n + [Fraction(-1)] * m
    lp_prime = model.make_lp(B, rhs, c_prime, full_rank=True)

    point = tuple(x_bar) + tuple(y)
    basis = list(range(n)) + [m + i if y[i] == 0 else i for i in range(m)]
    initial = BasicSolution(point=point, basis=tuple(sorted(basis)))
    model.validate_basic_solution(lp_prime, initial)
    return Phase1Problem(
        lp_prime=lp_prime,
        initial=initial,
        row_permutation=tuple(perm),
        orig_m=m,
        orig_n=n,
    )


def slack_sum(problem: Phase1Problem, point) -> Fraction:
    return sum(as_fractions(point)[problem.orig_n :], Fraction(0))


def extract_bfs(
    solution: BasicSolution, lp: LinearProgram, problem: Phase1Problem
) -> BasicSolution | InfeasibleCertificate:
    """Turn a certified LP' optimum into a vertex of the original LP.

    The x-part of a zero-slack optimum is feasible; crawling fixes one
    independent tight row at a time until a genuine basis emerges (the LP'
    optimum may be degenerate or sit on the bounding box of LP').
    """
    point = as_fractions(solution.point)
    if len(point) != problem.orig_n + problem.orig_m:
        raise Phase1Error("solution has the wrong dimension")
    gap = slack_sum(problem, point)
    if gap > 0:
        return InfeasibleCertificate(gap=gap)
    if gap < 0:
        raise Phase1Error("negative slack sum: solution infeasible for LP'")
    x = point[: problem.orig_n]
    if not lp.feasible(x):
        raise Phase1Error("zero-slack point is not feasible for the original LP")
    return model.move_to_vertex(lp, x)
