"""Reference forms for the tests to hold the solver against: Fraction forms
of its integer round loop (the round loop's with the same draws from the
stream; its face basis, face images and factors, and facet choice too),
dot product, Phase-1 artificial sum, generated LPs, the integer form made
row by row, crawl (on Fraction elimination), echelon and null-space
vector, rank completion, boxed LP, Phase-1 face, objective-escape
projection and determinant, the stand-in for delta and the rounded-up
square root it was first formed with, and the structural check of a
recorded shadow path; the delta-distance oracles the tests hold `metrics`
against; and the Fraction forms of the oracle (Gauss-Jordan solves and
their pivots, vertex enumeration, ray scan, Bland walk, classification)
and of the metrics (inverse columns, per-minor subdeterminant profile)
that the integer ones are held against.  A test helper module, not a test
module."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb, isqrt, lcm, prod, sqrt
from operator import mul

from shadow_simplex import harness, linalg, metrics, model, oracle
from shadow_simplex.metrics import MetricsError
from shadow_simplex.model import BasicSolution, LPModelError
from shadow_simplex.randomness import RandomnessError
from shadow_simplex.rational import (
    SQRT_BITS,
    as_fractions,
    common_denominator,
    primitive_int_row,
    unit_scale_pq,
)
from shadow_simplex.walk import WalkError


def dot(u, v):
    """sum_i u_i v_i as a Fraction sum, term by term."""
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def artificial_sum(solution, orig_n):
    """sum(y) of a point of LP' (full or face), its coordinates past the
    first orig_n, as a Fraction sum: the gap of a Phase-1 optimum."""
    return sum(as_fractions(solution.point[orig_n:]), Fraction(0))


def ratsqrt_ceil(v, bits=SQRT_BITS):
    """Rational upper bound on sqrt(v), tight to ~2**-bits relative."""
    if v < 0:
        raise ValueError("negative radicand")
    p, q = v.numerator, v.denominator
    return Fraction(isqrt((p * q) << (2 * bits)) + 1, q << bits)


def pair(vec):
    """A rational vector as (integer numerators, common denominator)."""
    return common_denominator(as_fractions(vec))


def values(p):
    """The rational vector of an (integer numerators, denominator) pair."""
    nums, den = p
    return [Fraction(x, den) for x in nums]


def image_values(images):
    """Face images, (integer numerators, denominator) pairs or None, as
    Fraction lists or None."""
    return [u and values(u) for u in images]


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
    if abs(float(dot(c0, c0)) - 1.0) > 3e-10:
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
    """w = -sum_k lam_k tau_k R_k as Fractions, lam as Fractions and each
    tau_k a (numerator, denominator) pair."""
    nums, den = common_denominator([l * Fraction(*t) for l, t in zip(lam, tau)])
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
            c = dot(v, o) / dot(o, o)
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


def face_image(row, cols, scales):
    """(near-unit face image, tau) of an integer row over the integer
    columns cols with near-unit scales, as `linalg.FaceBasis` forms them on
    its own: the image as (integer numerators, denominator), None when the
    row is constant there, and tau the pair `unit_scale_pq` gives for the
    image's squared norm.  The Fraction coordinates x_k = (row . cols_k)
    scale_k are summed as p^2 / q^2 term by term over the product of the
    q^2, the unreduced form the solver rounds, and the image is tau x over
    tau's denominator times the lcm of the q."""
    x = [Fraction(*s) * sum(map(mul, row, v)) for v, s in zip(cols, scales)]
    num, den = 0, 1
    for xk in x:
        q2 = xk.denominator**2
        num, den = num * q2 + xk.numerator**2 * den, den * q2
    if not num:
        return None, None
    tn, td = unit_scale_pq(num, den)
    L = lcm(*(xk.denominator for xk in x))
    return (tuple(tn * xk.numerator * (L // xk.denominator) for xk in x), td * L), (tn, td)


def identify_basis_element(tab, basis, free):
    """Position in free of the largest mu_j = t_c[j] / tau_j, as Fractions,
    ties to the smallest position."""
    pos = {row: k for k, row in enumerate(tab.basis)}
    taus = [face_image(tab.R[i], basis.cols, basis.scales)[1] for i in free]
    mu = [Fraction(tab.t_c[pos[i]]) / Fraction(*t) for i, t in zip(free, taus)]
    return max(range(len(free)), key=lambda k: (mu[k], -k))


def delta_hat(n, phi):
    """min(1, 2 n^{3/2} / phi) as a Fraction, with sqrt(n) from
    `ratsqrt_ceil`: the stand-in for delta the bit budget and pivot cap
    were first computed from."""
    return min(Fraction(1), 2 * n * ratsqrt_ceil(Fraction(n)) / Fraction(phi))


def echelon_fraction(rows):
    """The plain Fraction elimination the integer echelon pass is held
    against: greedy (ascending index), each echelon row normalized to a
    unit pivot; (chosen row indices, pivot columns, echelon rows)."""
    basis, pivots, chosen = [], [], []
    for idx, row in enumerate(rows):
        v = [Fraction(x) for x in row]
        for p, b in zip(pivots, basis):
            if v[p] != 0:
                f = v[p]
                v = [x - f * y for x, y in zip(v, b)]
        lead = next((j for j, x in enumerate(v) if x != 0), None)
        if lead is None:
            continue
        basis.append([x / v[lead] for x in v])
        pivots.append(lead)
        chosen.append(idx)
    return chosen, pivots, basis


def nullspace_fraction(rows, n):
    """The free coordinate back-substituted through `echelon_fraction`'s
    rows, or None if the rows have full rank."""
    _, pivots, basis = echelon_fraction(rows)
    free = next((j for j in range(n) if j not in pivots), None)
    if free is None:
        return None
    x = [Fraction(0)] * n
    x[free] = Fraction(1)
    for p, b in sorted(zip(pivots, basis), reverse=True):
        x[p] = -sum((b[j] * x[j] for j in range(n) if j != p), Fraction(0))
    return x


def integer_form(lp):
    """`model.integer_form` made one row at a time: each row's
    `primitive_int_row` and its factor, the rhs f_i b_i over their lcm s."""
    R, factor, rhs = [], [], []
    for a, b in zip(lp.A, lp.b):
        ints, f = primitive_int_row(a)
        R.append(ints)
        factor.append(f)
        rhs.append((f * b).as_integer_ratio())
    s = lcm(*(q for _, q in rhs))
    return model.IntegerForm(R, factor, [p * (s // q) for p, q in rhs], s)


def move_to_vertex(lp, point):
    """The crawl to a vertex in Fraction steps, with the greedy tight basis
    and null-space direction of Fraction elimination on the rows as given
    and every slack recomputed by `dot`: no integer kernel of the solver's
    crawl."""
    x = as_fractions(point)
    rows = lp.rows()
    if any(dot(r, x) > b for r, b in zip(rows, lp.b)):
        raise LPModelError("point infeasible")
    while True:
        tight = [i for i, (r, b) in enumerate(zip(rows, lp.b)) if dot(r, x) == b]
        basis = [tight[k] for k in echelon_fraction([rows[i] for i in tight])[0]]
        if len(basis) == lp.n:
            return BasicSolution(point=tuple(x), basis=tuple(basis))
        d = nullspace_fraction([rows[i] for i in basis], lp.n)
        prods = [dot(r, d) for r in rows]
        if all(p <= 0 for p in prods):
            d = [-v for v in d]
            prods = [-p for p in prods]
        if all(p <= 0 for p in prods):
            raise LPModelError("no blocking row: rank(A) < n")
        theta = min((b - dot(r, x)) / p for r, b, p in zip(rows, lp.b, prods) if p > 0)
        x = [xi + theta * di for xi, di in zip(x, d)]


def generate(kind, m, n, seed, span=3):
    """The LP `harness.generate_tu_instance` (or, for "random-integer",
    `harness.generate_random_integer` with span) builds, from the same draws
    of its seeded stream, with each entry built as Fraction(v) or
    Fraction(p, q)."""
    rng = random.Random(seed)
    if kind == "random-integer":
        rows = []
        while len(rows) < m:
            r = [rng.randint(-span, span) for _ in range(n)]
            if any(r):
                rows.append(r)
        b = [Fraction(rng.randint(-span, span)) for _ in range(m)]
        c0 = [Fraction(rng.randint(-span, span)) for _ in range(n)]
        return model.make_lp([[Fraction(v) for v in r] for r in rows], b, c0)
    makers = {
        "tu-incidence": harness._incidence_rows,
        "interval-matrix": harness._interval_rows,
        "network-matrix": harness._network_rows,
    }
    n, m = max(n, 1), max(m, 1)
    if kind == "tu-incidence" and n < 2:
        n = 2
    for _ in range(20):
        rows = makers[kind](rng, m, n)
        if rows:
            break
    x_tilde = [rng.randint(-2, 2) for _ in range(n)]
    big = max(3, max(abs(v) for v in x_tilde) + 3)
    b = [sum(a * v for a, v in zip(r, x_tilde)) + rng.randint(1, 3) for r in rows]
    units = [[int(i == j) for i in range(n)] for j in range(n)]
    rows += [r for e in units for r in (e, [-v for v in e])]
    b += [big] * (2 * n)
    while True:
        c0 = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n)]
        if any(c0):
            break
    return model.make_lp([[Fraction(v) for v in r] for r in rows], [Fraction(v) for v in b], c0)


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
            t = Fraction(*unit_scale_pq(sum(x * x for x in o), 1))
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
    _, pivots, basis = linalg.echelon(rows)
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
            c = dot(w, o) / dot(o, o)
            if c != 0:
                w = [x - c * y for x, y in zip(w, o)]
        if any(x != 0 for x in w):
            ortho.append(w)
    r = list(v)
    for o in ortho:
        c = dot(r, o) / dot(o, o)
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
    nz = dot(z, z)
    if nz == 0:
        raise MetricsError("zero vector has no angle")
    span_rows = [as_fractions(r) for r in span_rows]
    basis = [span_rows[i] for i in linalg.independent_rows(span_rows)]
    if not basis:
        return Fraction(1)
    G = [[dot(u, v) for v in basis] for u in basis]
    rhs = [dot(u, z) for u in basis]
    alpha = solve_square(G, rhs)
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


# The Fraction forms of the oracle and the metrics, as they solved before
# they moved onto linalg's integer kernels: Gauss-Jordan in Fractions for
# square systems, and per-subset Fraction solves and determinants.


def _gauss_jordan(M, rhs_cols):
    """Reduce [M | R] to [I | M^-1 R] and return the right block's rows."""
    n = len(M)
    a = [list(row) + list(r) for row, r in zip(M, rhs_cols, strict=True)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise linalg.LinAlgError("singular matrix")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def gauss_jordan_steps(M):
    """The pivot of each step of `_gauss_jordan` on M, before it is scaled
    to 1, and the number of rows it updates with a nonzero multiplier.  A
    Bareiss pass that pivots by the same rule updates the same rows, and its
    k-th pivot has the sign of the k-th one here once the earlier pivots
    are made positive."""
    n = len(M)
    a = [[Fraction(x) for x in row] for row in M]
    pivots, updates = [], 0
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise linalg.LinAlgError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        pivots.append(p)
        a[col] = [x / p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                updates += 1
    return pivots, updates


def solve_square(M, rhs):
    """Exact solution of the square system M x = rhs; raises LinAlgError if singular."""
    return [row[0] for row in _gauss_jordan(M, [[v] for v in rhs])]


def inverse_columns(M):
    """Columns m_1..m_n of M^{-1}; the basis of the 1/max||m_k|| distance formula."""
    n = len(M)
    inv = _gauss_jordan(M, [[Fraction(int(i == j)) for j in range(n)] for i in range(n)])
    return [list(col) for col in zip(*inv)]


def enumerate_vertices(lp):
    """All basic feasible solutions by exhaustive n-subset solving."""
    m, n = lp.m, lp.n
    if comb(m, n) > oracle.ENUM_GUARD:
        raise oracle.OracleError(f"C({m},{n}) exceeds the enumeration guard")
    rows = lp.rows()
    if len(linalg.independent_rows(rows)) < n:
        raise oracle.OracleError("matrix is rank deficient")
    seen = {}
    for S in combinations(range(m), n):
        try:
            x = solve_square([rows[i] for i in S], [lp.b[i] for i in S])
        except linalg.LinAlgError:
            continue
        if all(dot(rows[i], x) <= lp.b[i] for i in range(m)):
            key = tuple(x)
            if key not in seen:
                seen[key] = BasicSolution(point=key, basis=tuple(S))
    return oracle.VertexSet(vertices=tuple(seen.values()))


def improving_extreme_ray(lp, objective=None):
    """Exact scan over extreme-ray candidates of the recession cone."""
    obj = as_fractions(objective if objective is not None else lp.c0)
    rows = lp.rows()
    m, n = lp.m, lp.n
    if n == 1:
        for d in ([Fraction(1)], [Fraction(-1)]):
            if all(dot(r, d) <= 0 for r in rows) and dot(obj, d) > 0:
                return d
        return None
    if comb(m, n - 1) > oracle.ENUM_GUARD:
        raise oracle.OracleError("ray enumeration guard exceeded")
    for S in combinations(range(m), n - 1):
        sub = [rows[i] for i in S]
        d = nullspace_vector(sub, n)
        if d is None or len(linalg.independent_rows(sub)) < n - 1:
            continue
        for cand in (d, [-x for x in d]):
            if all(dot(r, cand) <= 0 for r in rows) and dot(obj, cand) > 0:
                return cand
    return None


def brute_force_optimum(lp):
    """Exact argmax of c0^T x over enumerated vertices, with ray screening."""
    vs = enumerate_vertices(lp)
    if not len(vs):
        return oracle.OracleOutcome(status="infeasible")
    ray = improving_extreme_ray(lp)
    if ray is not None:
        return oracle.OracleOutcome(status="unbounded")
    best = None
    for v in vs.vertices:
        val = dot(list(lp.c0), list(v.point))
        if best is None or val > best[0]:
            best = (val, v)
    return oracle.OracleOutcome(
        status="optimal", value=best[0], point=best[1].point, basis=best[1].basis
    )


def reference_simplex(lp, start):
    """Deterministic lowest-index (Bland) simplex over exact rationals."""
    model.validate_basic_solution(lp, start)
    m, n = lp.m, lp.n
    rows = lp.rows()
    basis = sorted(start.basis)
    x = as_fractions(start.point)
    guard = 10 * comb(m, n) + 100 if comb(m, n) < oracle.ENUM_GUARD else oracle.ENUM_GUARD
    pivots = 0
    while True:
        pivots += 1
        if pivots > guard:
            raise oracle.OracleError("reference simplex pivot guard exceeded")
        Bt = [[rows[i][t] for i in basis] for t in range(n)]  # columns are basis rows
        mu = solve_square(Bt, list(lp.c0))
        neg = [k for k in range(n) if mu[k] < 0]
        if not neg:
            val = dot(list(lp.c0), x)
            return oracle.OracleOutcome(
                status="optimal", value=val, point=tuple(x), basis=tuple(basis)
            )
        # Bland: relax the lowest-indexed basis row with negative multiplier
        k = min(neg, key=lambda q: basis[q])
        rhs = [Fraction(0)] * n
        rhs[k] = Fraction(-1)
        d = solve_square([rows[i] for i in basis], rhs)
        blocking = []
        for i in range(m):
            if i in basis:
                continue
            ad = dot(rows[i], d)
            if ad > 0:
                theta = (lp.b[i] - dot(rows[i], x)) / ad
                blocking.append((theta, i))
        if not blocking:
            return oracle.OracleOutcome(status="unbounded", point=tuple(x))
        theta_min = min(t for t, _ in blocking)
        enter = min(i for t, i in blocking if t == theta_min)
        x = [xi + theta_min * di for xi, di in zip(x, d)]
        basis[k] = enter
        basis.sort()


def classify(lp):
    """Classification + exact value for an arbitrary LP (handles rank < n),
    with the solver's own objective-escape projection.

    Rank-deficient inputs are lifted with the lp-model rank-raising rows
    (feasibility- and value-preserving) before enumeration.
    """
    rows = lp.rows()
    if len(linalg.independent_rows(rows)) < lp.n:
        escape = model._objective_escape(lp.c0, model.integer_form(lp).R)
        lifted = model.extend_to_full_rank(lp)
        if escape is not None:
            vs = enumerate_vertices(lifted)
            return oracle.OracleOutcome(status="unbounded" if len(vs) else "infeasible")
        lp = lifted
    return brute_force_optimum(lp)


def inv_delta_sq_of_rows(rows):
    """Exact 1/delta^2 for n independent rows: max_k ||r_k||^2 ||col_k(R^-1)||^2."""
    rows = [as_fractions(r) for r in rows]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise MetricsError("need n rows of dimension n")
    try:
        cols = inverse_columns(rows)
    except linalg.LinAlgError:
        raise MetricsError("rows are linearly dependent") from None
    best = Fraction(0)
    for k in range(n):
        v = dot(rows[k], rows[k]) * dot(cols[k], cols[k])
        if v > best:
            best = v
    return best


def subdeterminant_profile(A):
    """max |det| of k x k submatrices for every k, one `det_fraction` per
    minor."""
    m, n = len(A), len(A[0])
    out = {}
    for k in range(1, min(m, n) + 1):
        best = 0
        for rows_idx in combinations(range(m), k):
            sub_rows = [A[i] for i in rows_idx]
            for cols_idx in combinations(range(n), k):
                sub = [[Fraction(row[j]) for j in cols_idx] for row in sub_rows]
                d = abs(det_fraction(sub))
                if d > best:
                    best = d
        out[k] = best
    return out
