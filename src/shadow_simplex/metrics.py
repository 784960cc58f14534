"""Brute-force delta-distance and subdeterminant metrics.

delta is computed through the inverse-column characterization, on the
integer inverse (adj, det) of the primitive rows, and kept as the exact
rational 1/delta^2 (the squared form is rational whenever the input is).
Both subset scans are exponential-time by design and guarded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, sqrt
from operator import mul

from . import linalg
from .rational import as_fractions, primitive_int_row

SUBSET_GUARD = 10**6


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class DeltaReport:
    delta: float
    inv_delta_sq: Fraction
    witness_rows: tuple[int, ...]
    Delta: int | None = None
    Delta1: int | None = None
    Delta_nminus1: int | None = None
    bound_nDeltaSq_ok: bool | None = None
    bound_tight_ok: bool | None = None

    def csv_row(self) -> list:
        return [
            self.delta,
            " ".join(str(i) for i in self.witness_rows),
            self.Delta if self.Delta is not None else "",
            self.Delta1 if self.Delta1 is not None else "",
            self.Delta_nminus1 if self.Delta_nminus1 is not None else "",
            self.bound_nDeltaSq_ok if self.bound_nDeltaSq_ok is not None else "",
        ]


def inv_delta_sq_of_rows(rows) -> Fraction:
    """Exact 1/delta^2 for n independent rows: max_k ||r_k||^2 ||col_k(R^-1)||^2,
    unchanged by row scaling: max_k ||R_k||^2 ||adj[:, k]||^2 / det^2 on R."""
    R = [primitive_int_row(r)[0] for r in rows]
    n = len(R)
    if any(len(r) != n for r in R):
        raise MetricsError("need n rows of dimension n")
    try:
        adj, det = linalg.invert(R)
    except linalg.LinAlgError:
        raise MetricsError("rows are linearly dependent") from None
    norms = [sum(map(mul, r, r)) * sum(map(mul, v, v)) for r, v in zip(R, zip(*adj))]
    return Fraction(max(norms, default=0), det * det)


def delta_matrix(A) -> DeltaReport:
    """Minimum delta over all independent n-subsets of rows, with witness."""
    rows = [as_fractions(r) for r in A]
    m = len(rows)
    n = len(rows[0])
    if comb(m, n) > SUBSET_GUARD:
        raise MetricsError(f"C({m},{n}) exceeds the {SUBSET_GUARD} subset guard")
    if linalg.rank(rows) < n:
        raise MetricsError("matrix is rank deficient")
    R = [primitive_int_row(r)[0] for r in rows]
    best: Fraction | None = None
    witness: tuple[int, ...] = ()
    for S in combinations(range(m), n):
        try:
            v = inv_delta_sq_of_rows([R[i] for i in S])
        except MetricsError:
            continue
        if best is None or v > best:
            best = v
            witness = S
    report = DeltaReport(
        delta=1.0 / sqrt(float(best)),
        inv_delta_sq=best,
        witness_rows=witness,
    )
    if all(x.denominator == 1 for r in rows for x in r):
        profile = subdeterminant_profile(rows)
        Delta = max(profile.values())
        Delta1 = profile[1]
        Dn1 = profile.get(n - 1, 1)
        report = DeltaReport(
            delta=report.delta,
            inv_delta_sq=report.inv_delta_sq,
            witness_rows=report.witness_rows,
            Delta=Delta,
            Delta1=Delta1,
            Delta_nminus1=Dn1,
            bound_nDeltaSq_ok=check_inv_delta_bound(best, n, Delta),
            bound_tight_ok=check_inv_delta_bound_pair(best, n, Delta1, Dn1),
        )
    return report


def subdeterminant_profile(A) -> dict[int, int]:
    """max |det| of k x k submatrices for every k, exact integer arithmetic:
    depth-first over row sets, each k x k minor from the (k-1)-minors of its
    first k-1 rows by Laplace expansion along its last row's nonzero entries.
    A row set with no nonzero minor is dependent, and so is every superset."""
    if any(x.as_integer_ratio()[1] != 1 for r in A for x in r):
        raise MetricsError("matrix must be integral")
    A = [[x.as_integer_ratio()[0] for x in r] for r in A]
    m, n = len(A), len(A[0])
    total = sum(comb(m, k) * comb(n, k) for k in range(1, min(m, n) + 1))
    if total > SUBSET_GUARD:
        raise MetricsError(f"{total} submatrices exceed the {SUBSET_GUARD} guard")
    out = dict.fromkeys(range(1, min(m, n) + 1), 0)

    def grow(minors: dict[tuple[int, ...], int], k: int, first: int) -> None:
        # minors: the nonzero k x k minors of the rows taken, by column set
        for i in range(first, m):
            entries = [(j, a) for j, a in enumerate(A[i]) if a]
            child: dict[tuple[int, ...], int] = {}
            for cols, v in minors.items():
                for j, a in entries:
                    if j in cols:
                        continue
                    p = sum(c < j for c in cols)  # j's column in the new minor
                    key = cols[:p] + (j,) + cols[p:]
                    term = a * v if (k + p) % 2 == 0 else -a * v
                    child[key] = child.get(key, 0) + term
            child = {key: v for key, v in child.items() if v}
            if child:
                out[k + 1] = max(out[k + 1], *map(abs, child.values()))
                if k + 1 < n:
                    grow(child, k + 1, i + 1)

    grow({(): 1}, 0, 0)
    return out


def max_subdeterminant(A) -> int:
    return max(subdeterminant_profile(A).values())


def check_inv_delta_bound(inv_delta_sq: Fraction, n: int, Delta: int) -> bool:
    """1/delta <= n * Delta^2, compared exactly in squared form."""
    return inv_delta_sq <= Fraction(n * Delta * Delta) ** 2


def check_inv_delta_bound_pair(
    inv_delta_sq: Fraction, n: int, Delta1: int, Delta_nminus1: int
) -> bool:
    """The tighter 1/delta <= n * Delta_1 * Delta_{n-1} form."""
    return inv_delta_sq <= Fraction(n * Delta1 * max(Delta_nminus1, 1)) ** 2
