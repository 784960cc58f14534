"""Exact linear algebra primitives over `fractions.Fraction` and ints.

Elimination pivots on the first nonzero entry in row order, so identical
inputs always take identical elimination paths.  Three private kernels do
it, all fraction-free: a Bareiss Gauss-Jordan pass for square integer
matrices, which gives the adjugate and the determinant (`invert`) or one
system's solution over the determinant (`solve_adj`), and whose pivots are
kept positive, so that on a totally unimodular matrix, where every pivot
is 1, it only adds and subtracts rows and divides none; an echelon pass
over the primitive integer forms of a row sequence (`echelon`), which
takes every rank decision (`independent_rows`, `rank`, `unit_completion`)
and takes rows of ints, the rows of an integer form, as they are, and
whose rows `back_substitute` solves for a null-space vector, so the crawl
to a vertex, which needs both, eliminates once; and a Gram-Schmidt pass
over integer rows (the objective escape's projection `_project_out`, and
the rows' own part of `FaceBasis`).  `FaceBasis` carries the complement of
a growing row sequence, so a facet chain updates its face basis with each
fixed row (`complement_basis_int`) instead of rebuilding it; it alone
forms each row's near-unit face image (`FaceBasis.image`) and factor tau
(`FaceBasis.tau`), in integers, and lifts face coordinates back to Q^n
(`FaceBasis.lift`).  `combine` multiplies a sparse integer vector into
integer vectors, skipping its zero entries: the two products of a tableau
pivot and the Phase-1 face's block inverse.  The oracle and the metrics
solve on the same kernels.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, neg, sub
from typing import Sequence

from .rational import as_fractions, common_denominator, primitive_int_row, unit_scale_pq

Vec = list[Fraction]


class LinAlgError(ValueError):
    """Raised for singular systems and malformed inputs."""


def _bareiss(a: list[list[int]], n: int) -> tuple[int, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968), in place, of
    the integer matrix a = [M | X] on the n columns of M, which ends on
    [d I | d M^-1 X].  Returns (d, sign), d = sign det M with sign that of
    the row swaps and negations; d is 0 when M is singular, else d > 0.

    Each pivot is made positive by negating its row (and flipping sign), so
    p and prev, the pivots before and after, stay > 0 and every division is
    exact.  A row whose multiplier is 0 is scaled by p / prev, and left as
    it is when p = prev; with prev = 1 no row is divided, and with p = 1 a
    multiplier of +-1 subtracts or adds row k.  On a totally unimodular
    matrix every pivot is 1 and every multiplier 0 or +-1, so the pass
    only adds and subtracts rows."""
    sign = prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k] != 0), None)
        if piv is None:
            return 0, sign
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        ak = a[k]
        p = ak[k]
        if p < 0:
            ak = a[k] = list(map(neg, ak))
            p, sign = -p, -sign
        unit = p == prev == 1
        for i in range(n):
            if i == k:
                continue
            ai = a[i]
            f = ai[k]
            if not f:
                if p != prev:
                    a[i] = [p * x // prev for x in ai]
            elif unit and f == 1:
                a[i] = list(map(sub, ai, ak))
            elif unit and f == -1:
                a[i] = list(map(add, ai, ak))
            elif prev == 1:
                a[i] = [p * x - f * y for x, y in zip(ai, ak)]
            else:
                a[i] = [(p * x - f * y) // prev for x, y in zip(ai, ak)]
        prev = p
    return prev, sign


def invert(M: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """(adj M, det M) of an integer matrix, with adj M = det M * M^-1, from
    one fraction-free Gauss-Jordan pass on [M | I]; raises LinAlgError if M
    is singular."""
    n = len(M)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(M)]
    d, sign = _bareiss(a, n)
    if d == 0:
        raise LinAlgError("singular matrix")
    if sign > 0:
        return [row[n:] for row in a], d
    return [list(map(neg, row[n:])) for row in a], -d


def solve_adj(M: Sequence[Sequence[int]], r: Sequence[int]) -> tuple[list[int], int] | None:
    """(adj M r, det M) of an integer matrix M and integer vector r, so that
    M^-1 r = adj M r / det M, from one fraction-free Gauss-Jordan pass on
    [M | r]; None when M is singular."""
    n = len(M)
    a = [[*row, x] for row, x in zip(M, r)]
    d, sign = _bareiss(a, n)
    if d == 0:
        return None
    if sign > 0:
        return [row[n] for row in a], d
    return [-row[n] for row in a], -d


def combine(terms, size: int) -> list[int]:
    """sum_j a_j v_j over the (a_j, v_j) with a_j != 0, as a list of size
    ints: the product of a sparse vector a with the integer vectors v_j,
    formed without reading the v_j of its zero entries."""
    out = None
    for a, v in terms:
        if not a:
            continue
        if out is None:
            out = list(v) if a == 1 else list(map(neg, v)) if a == -1 else [a * x for x in v]
        elif a == 1:
            out = list(map(add, out, v))
        elif a == -1:
            out = list(map(sub, out, v))
        else:
            out = [y + a * x for y, x in zip(out, v)]
    return [0] * size if out is None else out


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    # through the module attribute, so a wrapped independent_rows sees these calls
    return len(independent_rows(rows))


def echelon(rows: Sequence[Sequence]) -> tuple[list[int], list[int], list[list[int]]]:
    """Greedy (ascending index) elimination on integer rows: (chosen row
    indices, pivot columns, echelon rows).  A row of ints, such as a row of
    an integer form, is eliminated as it is; any other row is first made
    its primitive integer row.  v <- b_p v - v_p b, gcd stripped, per echelon
    row b with pivot p: each row is a nonzero multiple of its
    Fraction-elimination form, so rank decisions agree."""
    basis: list[list[int]] = []
    pivots: list[int] = []
    chosen: list[int] = []
    for idx, row in enumerate(rows):
        if len(pivots) == len(row):
            break  # full rank: every later row reduces to zero
        v = row if all(type(x) is int for x in row) else primitive_int_row(row)[0]
        for p, b in zip(pivots, basis):
            f = v[p]
            if f:
                bp = b[p]
                v = _strip_gcd([bp * x - f * y for x, y in zip(v, b)])
        lead = next((j for j, x in enumerate(v) if x), None)
        if lead is None:
            continue
        basis.append(v)
        pivots.append(lead)
        chosen.append(idx)
    return chosen, pivots, basis


def independent_rows(rows: Sequence[Sequence]) -> list[int]:
    """Greedy (ascending index) maximal independent subset, exact elimination."""
    return echelon(rows)[0]


def back_substitute(
    pivots: Sequence[int], basis: Sequence[Sequence[int]], n: int
) -> tuple[list[int], int] | None:
    """The null-space vector of echelon rows with these pivot columns, as
    `echelon` returns them, over n columns, as (integer numerators,
    denominator > 0), or None if they have full rank.  The first free
    coordinate is 1, the other free ones 0, and the pivot coordinates are
    back-substituted through the echelon rows in integers over one
    denominator, which grows by each pivot's share only."""
    free = next((j for j in range(n) if j not in pivots), None)
    if free is None:
        return None
    x = [0] * n
    x[free] = den = 1
    for p, b in sorted(zip(pivots, basis), reverse=True):
        # x_p = -t / (b_p den), t = sum over j != p of b_j x_j (b_j = 0 for j < p)
        t, bp = sum(map(mul, b[p + 1 :], x[p + 1 :])), b[p]
        if bp < 0:
            t, bp = -t, -bp
        g = gcd(t, bp)
        k = bp // g
        if k > 1:
            x = [v * k for v in x]
            den *= k
        x[p] = -t // g
    return x, den


def unit_completion(rows: Sequence[Sequence[int]]) -> list[int]:
    """The j, ascending, of the unit rows e_j that complete the independent
    integer rows to a basis: each e_j is reduced through the echelon of the
    rows and of the e_i taken before it, and taken when it stays nonzero,
    which is the greedy rank test of e_j."""
    n, r = len(rows[0]), len(rows)
    units = [[int(i == j) for i in range(n)] for j in range(n)]
    return [k - r for k in echelon(list(rows) + units)[0][r:]]


class FaceBasis:
    """The orthogonal complement of a growing sequence of integer rows,
    carried as rows are added: the rows orthogonalized (`ortho`, with squared
    norms `ortho_norms`), and the complement's basis `cols`, with each
    column's squared norm `norms` and near-unit scale `scales`, the
    (numerator, denominator) of `unit_scale_pq(norm, 1)` in lowest terms.
    It is a facet chain's face: the points x_f + sum_k y_k v_k, v_k =
    scale_k cols_k and x_f any point where the rows are tight.  It forms
    every face image: `image` and `tau` give a row's near-unit face
    coordinates and factor, and `lift` maps face coordinates back.

    Column k is the primitive residual of e_j off span(rows, e_1..e_{j-1})
    for the k-th j at which that residual is nonzero.  Fraction-free
    projection only multiplies by positive norms and strips positive gcds,
    so the residual is unique, and a row added to the span changes it only by
    projecting it off that row's own residual g off span(rows, e_1..e_{j-1}).
    So adding a row walks the columns v in order, from g the row projected off
    `ortho`: v <- strip(|g|^2 v - (v . g) g) and g <- strip(|v|^2 g - (v . g)
    v).  The first v that becomes 0 drops out, g is 0 from there on, and
    every later column stays: O(n^2) per row, and the same columns as
    projecting every e_j afresh.
    """

    def __init__(self, n: int) -> None:
        self.rows = 0  # rows added so far, dependent ones included
        self.ortho: list[list[int]] = []
        self.ortho_norms: list[int] = []
        e = (0,) * (n - 1) + (1,) + (0,) * (n - 1)  # e_j = e[n-1-j : 2n-1-j]
        self.cols = [e[n - 1 - j : 2 * n - 1 - j] for j in range(n)]
        self.norms = [1] * n
        self.scales = [(1, 1)] * n

    def _add(self, row: Sequence[int]) -> None:
        ortho = self.ortho
        k = len(ortho)
        _orthogonalize_int([row], ortho, self.ortho_norms)
        if len(ortho) == k:
            return  # row in the span already
        g, Ng = ortho[k], self.ortho_norms[k]
        cols, norms, scales = self.cols, self.norms, self.scales
        for q, v in enumerate(cols):
            d = sum(map(mul, v, g))
            if not d:
                continue
            v2 = _strip_gcd([Ng * x - d * y for x, y in zip(v, g)])
            if not any(v2):
                del cols[q], norms[q], scales[q]
                return
            g = _strip_gcd([norms[q] * y - d * x for x, y in zip(v, g)])
            Ng = sum(map(mul, g, g))
            N = sum(map(mul, v2, v2))
            cols[q], norms[q], scales[q] = tuple(v2), N, unit_scale_pq(N, 1)

    def _coords(self, row: Sequence[int]):
        """Face coordinate k of the integer row, (row . cols_k) scale_k, as
        its (p_k, q_k) in lowest terms, for each column k in turn."""
        for v, (sn, sd) in zip(self.cols, self.scales):
            d = sum(map(mul, row, v))
            g = gcd(d, sd)
            yield d // g * sn, sd // g

    def image(self, row: Sequence[int]) -> tuple[tuple[int, ...], int] | None:
        """The integer row's near-unit face image tau (p_k / q_k)_k as
        (integer numerators, denominator tau_den lcm(q)), tau = `tau(row)`;
        None when the row is constant on the face.  With no row added the
        row is its own face coordinates, (row_k / 1)_k, with no dot product."""
        pq = list(self._coords(row)) if self.rows else [(x, 1) for x in row]
        if not any(p for p, _ in pq):
            return None
        tn, td = _near_unit(*_norm_sq(pq))
        L = lcm(*(q for _, q in pq))
        return tuple(tn * p * (L // q) for p, q in pq), td * L

    def tau(self, row: Sequence[int]) -> tuple[int, int]:
        """The near-unit factor of the integer row's face image, as the
        reduced pair `unit_scale_pq` gives for its squared norm; the row must
        not be constant on the face.  With no row added the row is its own
        face coordinates, so the squared norm is read off it."""
        if not self.rows:
            return _near_unit(sum(map(mul, row, row)), 1)
        return _near_unit(*_norm_sq(self._coords(row)))

    def lift(self, y) -> tuple[list[int], int]:
        """The vector in span(cols) whose face coordinates (x . v_k)_k, v_k =
        scale_k cols_k, are exactly y, both as (integer numerators,
        denominator) pairs: x = sum_k y_k cols_k / (scale_k |cols_k|^2), over
        one denominator, on the integer columns.  With no row added the
        columns are the unit vectors, unscaled, and x is y itself."""
        yn, yd = y
        if not self.rows:
            return list(yn), yd
        # y_k / (scale_k N_k) = yn_k sd_k / (yd sn_k N_k), over yd L
        dens = [sn * N for (sn, _), N in zip(self.scales, self.norms)]
        L = lcm(*dens)
        coef = [yk * sd * (L // dk) for yk, (_, sd), dk in zip(yn, self.scales, dens)]
        return [sum(map(mul, coef, col)) for col in zip(*self.cols)], yd * L


def _norm_sq(coords) -> tuple[int, int]:
    """sum_k p_k^2 / q_k^2 over the (p_k, q_k) as (num, den), den the
    product of the q_k^2 of the nonzero p_k."""
    num, den = 0, 1
    for p, q in coords:
        if p:
            num, den = num * q * q + p * p * den, den * q * q
    return num, den


def _near_unit(num: int, den: int) -> tuple[int, int]:
    """tau = `unit_scale_pq(num, den)` for a face image of squared norm
    num / den > 0, checked in integers to scale it within 3e-10 of 1."""
    if not num:
        raise LinAlgError("row is constant on the face")
    tn, td = unit_scale_pq(num, den)
    sq_den = td * td * den
    if abs(tn * tn * num - sq_den) * 10**10 > 3 * sq_den:
        raise LinAlgError("face image is not unit norm")
    return tn, td


def complement_basis_int(
    rows: Sequence[Sequence[int]], n: int, basis: FaceBasis | None = None
) -> list[tuple[int, ...]]:
    """Primitive integer basis of the complement of integer rows in Z^n,
    pairwise exactly orthogonal.

    basis, when given, is the `FaceBasis` of rows[:basis.rows] from earlier
    calls; the rows after them are added to it in place.  A caller whose rows
    only grow, a facet chain's fixed rows, so adds each row once."""
    if basis is None:
        basis = FaceBasis(n)
    for row in rows[basis.rows:]:
        basis._add(row)
    basis.rows = len(rows)
    return list(basis.cols)


def _strip_gcd(v: list[int]) -> list[int]:
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _project_int(
    v: Sequence[int], ortho: Sequence[list[int]], norms: Sequence[int]
) -> list[int]:
    """Fraction-free projection of an integer vector off orthogonal int dirs
    with squared norms norms."""
    r = list(v)
    for o, N in zip(ortho, norms):
        d = sum(map(mul, r, o))
        if d:
            r = _strip_gcd([x * N - d * y for x, y in zip(r, o)])
    return r


def _orthogonalize_int(
    rows: Sequence[Sequence[int]], ortho: list[list[int]], norms: list[int]
) -> None:
    """Append each integer row's projection off ortho, when nonzero, to ortho
    and its squared norm to norms (fraction-free Gram-Schmidt)."""
    for d in rows:
        w = _project_int(d, ortho, norms)
        if any(w):
            ortho.append(w)
            norms.append(sum(map(mul, w, w)))


def _project_out(v: Vec, dirs: Sequence[Sequence[int]]) -> Vec:
    """Component of the rational v orthogonal to span(dirs), integer rows,
    exact.  Projecting v's numerators off the orthogonalized dirs gives a
    positive multiple r of it, which is (v . r / r . r) r."""
    ortho: list[list[int]] = []
    norms: list[int] = []
    _orthogonalize_int(dirs, ortho, norms)
    vn, vd = common_denominator(as_fractions(v))
    r = _project_int(vn, ortho, norms)
    rr = sum(map(mul, r, r))
    k = Fraction(sum(map(mul, vn, r)), vd * rr) if rr else Fraction(0)
    return [k * x for x in r]
