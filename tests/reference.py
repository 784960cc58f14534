"""Reference forms for the tests to hold the solver against: Fraction forms
of its integer round loop (the round loop's with the same draws from the
stream; its face basis, face factors and facet choice too), crawl,
null-space vector, rank completion, boxed LP, Phase-1 face,
objective-escape projection and determinant, the stand-in for delta, and
the structural check of a recorded shadow path; and the delta-distance
oracles the tests hold `metrics` against.  A test helper module, not a test
module."""

from fractions import Fraction
from math import isqrt, prod, sqrt
from operator import mul

from shadow_simplex import linalg, metrics, model
from shadow_simplex.metrics import MetricsError
from shadow_simplex.model import BasicSolution, LPModelError
from shadow_simplex.randomness import RandomnessError
from shadow_simplex.rational import (
    as_fractions,
    common_denominator,
    dot,
    norm_sq,
    primitive_int_row,
    ratsqrt_ceil,
    unit_scale_pq,
)
from shadow_simplex.walk import WalkError


def pair(vec):
    """A rational vector as (integer numerators, common denominator)."""
    return common_denominator(as_fractions(vec))


def values(p):
    """The rational vector of an (integer numerators, denominator) pair."""
    nums, den = p
    return [Fraction(x, den) for x in nums]


def unit(stream, bits):
    """One draw of the stream as the Fraction j / 2^bits."""
    return Fraction(stream.numerator(bits), 1 << bits)


def perturb_objective(c0, phi, bits, stream):
    """(c, intervals) as Fractions, c0 a near-unit Fraction vector, from
    draws of bits bits."""
    c0 = as_fractions(c0)
    n = len(c0)
    phi = Fraction(phi)
    if float(phi) ** 2 < n * (1 - 1e-10):
        raise RandomnessError("phi must be at least sqrt(n)")
    if abs(float(norm_sq(c0)) - 1.0) > 3e-10:
        raise RandomnessError("c0 must be unit norm")
    width = 1 / phi
    intervals = []
    c = []
    for i in range(n):
        lo = c0[i] - width if c0[i] > 1 - width else c0[i]
        intervals.append((lo, lo + width))
        c.append(lo + width * unit(stream, bits))
    return c, intervals


def draw_lambda(n, bits, stream):
    return [1 - unit(stream, bits) for _ in range(n)]


def lift(basis, y):
    """The vector in span(basis.cols) whose face coordinates are the
    Fractions y."""
    coef = [
        yk / (Fraction(*sk) * sum(a * a for a in v))
        for yk, sk, v in zip(as_fractions(y), basis.scales, basis.cols)
    ]
    nums, den = common_denominator(coef)
    return [Fraction(sum(map(mul, nums, col)), den) for col in zip(*basis.cols)]


def lifted_cone_objective(rows, lam, tau):
    """w = -sum_k lam_k tau_k R_k as Fractions, lam as Fractions."""
    nums, den = common_denominator([l * t for l, t in zip(lam, tau)])
    w = [0] * len(rows[0])
    for a, row in zip(nums, rows):
        for j, x in enumerate(row):
            w[j] -= a * x
    return [Fraction(x, den) for x in w]


def complement_basis(rows, n):
    """(j, primitive integer form of the residual of e_j off span(rows,
    e_1..e_{j-1})) for each j at which that residual is nonzero, by Fraction
    Gram-Schmidt of the rows and then of each e_j afresh."""
    ortho = []

    def residual(v):
        for o in ortho:
            c = dot(v, o) / norm_sq(o)
            if c != 0:
                v = [x - c * y for x, y in zip(v, o)]
        return v

    out = []
    for j, v in [(None, as_fractions(r)) for r in rows] + [
        (j, [Fraction(int(i == j)) for i in range(n)]) for j in range(n)
    ]:
        w = residual(v)
        if any(x != 0 for x in w):
            ortho.append(w)
            if j is not None:
                out.append((j, tuple(primitive_int_row(w)[0])))
    return out


def face_factor(row, basis):
    """tau of an integer row on the face of basis: `unit_scale_pq` of its
    face image's squared norm, the Fraction coordinates (row . cols_k)
    scale_k summed as p^2 / q^2 term by term over the product of the q^2,
    the unreduced form the solver rounds."""
    num, den = 0, 1
    for v, s in zip(basis.cols, basis.scales):
        x = Fraction(*s) * sum(map(mul, row, v))
        q2 = x.denominator**2
        num, den = num * q2 + x.numerator**2 * den, den * q2
    return unit_scale_pq(num, den)


def identify_basis_element(tab, basis, free):
    """Position in free of the largest mu_j = t_c[j] / tau_j, as Fractions,
    ties to the smallest position."""
    pos = {row: k for k, row in enumerate(tab.basis)}
    mu = [Fraction(tab.t_c[pos[i]]) / face_factor(tab.R[i], basis) for i in free]
    return max(range(len(free)), key=lambda k: (mu[k], -k))


def delta_hat(n, phi):
    """min(1, 2 n^{3/2} / phi) as a Fraction, with sqrt(n) from
    `ratsqrt_ceil`: the stand-in for delta the bit budget and pivot cap
    were first computed from."""
    return min(Fraction(1), 2 * n * ratsqrt_ceil(Fraction(n)) / Fraction(phi))


def move_to_vertex(lp, point):
    """The crawl to a vertex in Fraction steps, with a Fraction null-space
    direction and the greedy tight basis of the rows as given."""
    x = as_fractions(point)
    if not lp.feasible(x):
        raise LPModelError("point infeasible")
    while True:
        tight = lp.tight_rows(x)
        basis = [tight[k] for k in linalg.independent_rows([lp.row(i) for i in tight])]
        if len(basis) == lp.n:
            return BasicSolution(point=tuple(x), basis=tuple(basis))
        d = linalg.nullspace_vector([lp.row(i) for i in basis], lp.n)
        prods = [dot(lp.row(i), d) for i in range(lp.m)]
        if all(p <= 0 for p in prods):
            d = [-v for v in d]
            prods = [-p for p in prods]
        if all(p <= 0 for p in prods):
            raise LPModelError("no blocking row: rank(A) < n")
        theta = min(
            (lp.b[i] - dot(lp.row(i), x)) / prods[i] for i in range(lp.m) if prods[i] > 0
        )
        x = [xi + theta * di for xi, di in zip(x, d)]


def extend_to_full_rank(lp):
    """lp made full rank in Fractions, rhs 0 on the rows appended: for
    integral A each unit row e_j that raises the rank of the rows and of the
    e_i taken before it, by a fresh rank per row; else +-t_k o_k for each
    primitive o_k of the Fraction Gram-Schmidt complement of the rows, with
    t_k = `unit_scale_pq(|o_k|^2, 1)`."""
    rows, n = lp.rows(), lp.n
    r = linalg.rank(rows)
    if r == n:
        raise LPModelError("called on full-rank input")
    if lp.is_integral():
        for j in range(n):
            e = [Fraction(int(i == j)) for i in range(n)]
            if r < n and linalg.rank(rows + [e]) > r:
                rows.append(e)
                r += 1
    else:
        for _, o in complement_basis(rows, n):
            t = unit_scale_pq(sum(x * x for x in o), 1)
            rows += [[t * x for x in o], [-t * x for x in o]]
    return model.make_lp(rows, list(lp.b) + [0] * (len(rows) - lp.m), lp.c0)


def complete_rank(lp, form, idx):
    """(lp made full rank, its integer form, its n lead rows) from form,
    lp's integer form, and idx = independent_rows(form.R): the rows of
    `extend_to_full_rank` made primitive and appended to form, and the lead
    rows from a second rank pass over the longer form."""
    if len(idx) >= lp.n:
        return lp, form, idx[: lp.n]
    ext = extend_to_full_rank(lp)
    added = [primitive_int_row(a) for a in ext.A[lp.m :]]
    form = form.with_rows([r for r, _ in added], [f for _, f in added], [(0, 1)] * len(added))
    return ext, form, linalg.independent_rows(form.R)[: lp.n]


def bound_polytope(lp, lead):
    """The boxed LP by `model.make_lp`: lp's rows, then the 2n box rows
    +-a_i over the lead rows with rhs B_i / (s f_i), B_i = isqrt(|R_i|^2 n
    H^2) + 1, from each row's own `primitive_int_row` (R_i, f_i) and s the
    common denominator of the f_i b_i; H^2 is the product of the n largest
    |R_i|^2 + beta_i^2."""
    n = lp.n
    ints = [primitive_int_row(a) for a in lp.A]
    beta, s = common_denominator([f * b for (_, f), b in zip(ints, lp.b)])
    sq = [sum(x * x for x in R) for R, _ in ints]
    H2 = prod(sorted(v + bt * bt for v, bt in zip(sq, beta))[-n:])
    A, b = lp.rows(), list(lp.b)
    for i in lead:
        bi = Fraction(isqrt(sq[i] * n * H2) + 1) / (s * ints[i][1])
        A += [lp.row(i), [-x for x in lp.row(i)]]
        b += [bi, bi]
    return model.make_lp(A, b, lp.c0)


def phase1_face(lp, lead, V):
    """The face of LP' by `model.make_lp`: a_i x - [i in V] y_i <= b_i for the
    rows in lead-first order, then -y_i <= 0 for i in V, V given as positions
    in that order."""
    perm = list(lead) + [i for i in range(lp.m) if i not in lead]
    n, k = lp.n, len(V)
    A = [lp.row(i) + [-1 if v == pos else 0 for v in V] for pos, i in enumerate(perm)]
    A += [[0] * n + [-1 if v == u else 0 for v in V] for u in V]
    return model.make_lp(A, [lp.b[i] for i in perm] + [0] * k, [0] * n + [-1] * k)


def nullspace_vector(rows, n):
    """The free coordinate back-substituted in Fractions through the
    integer echelon rows."""
    _, pivots, basis = linalg._echelon(rows)
    free = next((j for j in range(n) if j not in pivots), None)
    if free is None:
        return None
    x = [Fraction(0)] * n
    x[free] = Fraction(1)
    for p, b in sorted(zip(pivots, basis), reverse=True):
        x[p] = -sum((b[j] * x[j] for j in range(n) if j != p), Fraction(0)) / b[p]
    return x


def project_out(v, dirs):
    """Component of v orthogonal to span(dirs) by Fraction Gram-Schmidt."""
    ortho = []
    for d in dirs:
        w = list(d)
        for o in ortho:
            c = dot(w, o) / norm_sq(o)
            if c != 0:
                w = [x - c * y for x, y in zip(w, o)]
        if any(x != 0 for x in w):
            ortho.append(w)
    r = list(v)
    for o in ortho:
        c = dot(r, o) / norm_sq(o)
        if c != 0:
            r = [x - c * y for x, y in zip(r, o)]
    return r


def det_fraction(M):
    """The determinant by Fraction Gaussian elimination."""
    n = len(M)
    a = [list(row) for row in M]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def path_values(path):
    """A `walk.ShadowPath` with each step's exact values, as Fractions, in
    place of the integer pairs it keeps."""
    return path.start_basis, path.start_value, [
        (st.pivot_index, st.entering_row, st.leaving_row, st.slope, st.c_gain,
         st.step_length, st.c_value, st.basis)
        for st in path.steps
    ]


def validate_shadow_path(path):
    """Structural invariants of a `walk.ShadowPath`: neighbor bases,
    improving directions, nondecreasing values, strictly increasing slopes;
    raises `walk.WalkError` on the first one broken."""
    prev_basis = set(path.start_basis)
    prev_value = path.start_value
    prev_slope = None
    for st in path.steps:
        cur = set(st.basis)
        if len(prev_basis - cur) != 1 or len(cur - prev_basis) != 1:
            raise WalkError("consecutive bases do not differ in exactly one row")
        if st.c_gain <= 0:
            raise WalkError("non-improving edge recorded")
        if st.c_value < prev_value:
            raise WalkError("objective value decreased")
        if st.step_length < 0:
            raise WalkError("negative step")
        if prev_slope is not None and st.slope <= prev_slope:
            raise WalkError("slopes not strictly increasing")
        prev_basis = cur
        prev_value = st.c_value
        prev_slope = st.slope


def delta_of_rows(rows):
    """delta of n independent rows as a float, from `metrics`' exact 1/delta^2."""
    return 1.0 / sqrt(float(metrics.inv_delta_sq_of_rows(rows)))


def sin_sq_angle_to_span(span_rows, z):
    """Exact sin^2 of the angle between z and span(span_rows), by projection
    through the Gram system.  Empty spans use the pi/2 convention."""
    z = as_fractions(z)
    nz = norm_sq(z)
    if nz == 0:
        raise MetricsError("zero vector has no angle")
    span_rows = [as_fractions(r) for r in span_rows]
    basis = [span_rows[i] for i in linalg.independent_rows(span_rows)]
    if not basis:
        return Fraction(1)
    G = [[dot(u, v) for v in basis] for u in basis]
    rhs = [dot(u, z) for u in basis]
    alpha = linalg.solve_square(G, rhs)
    return 1 - sum((a * r for a, r in zip(alpha, rhs)), Fraction(0)) / nz


def delta_sq_angle_definition(rows):
    """Exact delta^2 straight from the angle definition, independent of the
    inverse-column characterization `metrics` computes."""
    rows = [as_fractions(r) for r in rows]
    if len(rows) == 1:
        return Fraction(1)
    return min(
        sin_sq_angle_to_span(rows[:ell] + rows[ell + 1 :], rows[ell]) for ell in range(len(rows))
    )
