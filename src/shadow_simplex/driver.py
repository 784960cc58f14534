"""Repeated shadow vertex driver: perturb, walk, fix a facet, reduce, repeat;
wrapped in the doubling phi schedule with exact optimality certificates.

Dimension reduction works in exact coordinates: the facet of the identified
row is re-parametrized over an exactly-orthogonal rational basis of the
row's complement, so reduced problems (and their lifts) stay rational and
the delta-distance value is preserved to rounding of the unit scaling.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations
from math import comb

from . import linalg, model, phase1, randomness, walk
from .model import BasicSolution, LinearProgram, UnboundedCertificate
from .rational import (
    as_fractions,
    common_denominator,
    dot,
    norm_sq,
    primitive_int_row,
    ratsqrt_ceil,
    unit_scale_pq,
)

CONE_SUBSET_GUARD = 10**6
PHI_BITS = 60


class DriverError(RuntimeError):
    pass


class DoublingLimitError(DriverError):
    """The phi-doubling guard was exhausted; indicates a bug, i* is finite."""


# ---------------------------------------------------------------------------
# phi schedule
# ---------------------------------------------------------------------------

SCHEDULE_BASE = "n32"  # phi_i = 2^i n^{3/2}
SCHEDULE_DELTA_AWARE = "n52"  # phi_i = 2^i n^{5/2}
SCHEDULE_PHASE1 = "phase1"  # phi_i = 2^i sqrt(m) (n+m)^{3/2}


@dataclass(frozen=True)
class PhiSchedule:
    variant: str
    n: int
    m: int

    def base(self) -> Fraction:
        n, m = self.n, self.m
        if self.variant == SCHEDULE_BASE:
            return n * ratsqrt_ceil(Fraction(n), PHI_BITS)
        if self.variant == SCHEDULE_DELTA_AWARE:
            return n * n * ratsqrt_ceil(Fraction(n), PHI_BITS)
        if self.variant == SCHEDULE_PHASE1:
            nm = n + m
            return ratsqrt_ceil(Fraction(m), PHI_BITS) * nm * ratsqrt_ceil(Fraction(nm), PHI_BITS)
        raise DriverError(f"unknown schedule variant {self.variant!r}")

    def phi(self, i: int) -> Fraction:
        return self.base() * (1 << i)


def pivot_cap(m: int, n: int, phi: Fraction, delta: Fraction, constant: int = 16) -> int:
    """8n * p(m, n, phi, delta) with p = ceil(K (m n^2/d^2 + m sqrt(n) phi/d))."""
    phi_f = float(phi)
    d = float(delta)
    p = constant * (m * n**2 / d**2 + m * n**0.5 * phi_f / d)
    return 8 * n * (int(p) + 1)


# ---------------------------------------------------------------------------
# facet identification and dimension reduction
# ---------------------------------------------------------------------------


def identify_basis_element(basis_rows, c) -> int:
    """Index of the maximal coefficient in the conic combination of c.

    Solves [a'_1 ... a'_n] mu = c exactly; ties go to the smallest index.
    """
    rows = [as_fractions(r) for r in basis_rows]
    n = len(rows)
    cols = [[rows[k][i] for k in range(n)] for i in range(n)]  # columns a'_k
    try:
        mu = linalg.solve_square(cols, as_fractions(c))
    except linalg.LinAlgError:
        raise DriverError("singular basis in facet identification") from None
    best = max(range(n), key=lambda k: (mu[k], -k))
    return best


@dataclass(frozen=True)
class FacetRestriction:
    """The LP restricted to the intersection of fixed facets, re-parametrized
    over a near-orthonormal exact basis of the fixed rows' complement.

    Built from the top-level rows each round (chaining one-step reductions
    would square exact entry sizes per level), so numbers stay single-level
    small no matter how deep the facet chain is.
    """

    lp: LinearProgram
    basis_cols: tuple[tuple[Fraction, ...], ...]
    anchor: tuple[Fraction, ...]
    row_map: tuple[int, ...]  # reduced row index -> top-level row index


def _reduced_direction(dots: list[int], col_scale: list[Fraction]):
    """Near-unit scaled row [dots_j * col_scale_j], built via one integer
    norm computation; returns (entries, 1/t) or None for a zero row."""
    if not any(dots):
        return None
    red = [dj * sj for dj, sj in zip(dots, col_scale)]
    num = 0
    den = 1
    for x in red:
        num = num * x.denominator * x.denominator + x.numerator * x.numerator * den
        den = den * x.denominator * x.denominator
    t = unit_scale_pq(num, den)
    return [t * x for x in red], 1 / t


def facet_restriction(lp_top: LinearProgram, fixed_rows: list[int]) -> FacetRestriction:
    n = lp_top.n
    d = n - len(fixed_rows)
    if d < 1:
        raise DriverError("nothing left to restrict")
    prim: list[tuple[list[int], Fraction]] = [
        primitive_int_row(lp_top.row(i)) for i in range(lp_top.m)
    ]
    fixed_prim = [as_fractions(prim[i][0]) for i in fixed_rows]
    if fixed_rows:
        G = [[dot(u, v) for v in fixed_prim] for u in fixed_prim]
        rhs = [prim[i][1] * lp_top.b[i] for i in fixed_rows]
        try:
            z = linalg.solve_square(G, rhs)
        except linalg.LinAlgError:
            raise DriverError("fixed facet rows are dependent") from None
        anchor = [
            sum((zi * u[t] for zi, u in zip(z, fixed_prim)), Fraction(0)) for t in range(n)
        ]
    else:
        anchor = [Fraction(0)] * n
    V_int = linalg.complement_basis_int(fixed_prim, n)
    if len(V_int) != d:
        raise DriverError("fixed facet rows are dependent")
    # near-unit column scale, kept separate so row projections stay integer
    col_scale = [unit_scale_pq(sum(a * a for a in v), 1) for v in V_int]
    anch_num, anch_den = common_denominator(anchor)

    new_rows: list[list[Fraction]] = []
    new_b: list[Fraction] = []
    scales: list[Fraction] = []
    row_map: list[int] = []
    fixed_set = set(fixed_rows)
    for j in range(lp_top.m):
        if j in fixed_set:
            continue
        ints, fj = prim[j]
        dots = [sum(a * v[t] for t, a in enumerate(ints)) for v in V_int]
        rhs_j = fj * lp_top.b[j] - Fraction(
            sum(a * av for a, av in zip(ints, anch_num)), anch_den
        )
        got = _reduced_direction(dots, col_scale)
        if got is None:
            if rhs_j < 0:
                raise DriverError("facet chain infeasible against a parallel row")
            continue
        entries, inv_t = got
        new_rows.append(entries)
        new_b.append(rhs_j / inv_t)
        scales.append(inv_t)
        row_map.append(j)
    c_prim, _ = primitive_int_row(list(lp_top.c0))
    c_dots = [sum(a * v[t] for t, a in enumerate(c_prim)) for v in V_int]
    got = _reduced_direction(c_dots, col_scale)
    if got is None:
        c_red = [Fraction(0)] * d
        c_scale = Fraction(1)
    else:
        c_red, c_scale = got
    lp_red = LinearProgram(
        A=tuple(tuple(r) for r in new_rows),
        b=tuple(new_b),
        c0=tuple(c_red),
        row_scales=tuple(scales),
        c0_scale=c_scale,
        normalized=True,
        full_rank=True,
        bounded=lp_top.bounded,
    )
    return FacetRestriction(
        lp=lp_red,
        basis_cols=tuple(
            tuple(s * Fraction(x) for x in v) for s, v in zip(col_scale, V_int)
        ),
        anchor=tuple(anchor),
        row_map=tuple(row_map),
    )


def restriction_coords(r: FacetRestriction, x_top) -> list[Fraction]:
    x = as_fractions(x_top)
    diff = [xi - ai for xi, ai in zip(x, r.anchor)]
    return [dot(list(v), diff) / norm_sq(list(v)) for v in r.basis_cols]


def restriction_lift(r: FacetRestriction, y) -> list[Fraction]:
    x = list(r.anchor)
    for coef, v in zip(as_fractions(y), r.basis_cols):
        x = [xi + coef * vi for xi, vi in zip(x, v)]
    return x


# ---------------------------------------------------------------------------
# optimality certificate
# ---------------------------------------------------------------------------


def _cone_coefficients(rows, c) -> list[Fraction] | None:
    cols = [[rows[k][i] for k in range(len(rows))] for i in range(len(rows[0]))]
    try:
        mu = linalg.solve_square(cols, as_fractions(c))
    except linalg.LinAlgError:
        return None
    return mu


def is_optimal(lp: LinearProgram, x: BasicSolution) -> bool:
    """Exact test that c0 lies in the normal cone of the vertex.

    Fast path solves the basis system; degenerate vertices fall back to a
    subset scan over all tight rows (Caratheodory: membership is witnessed
    by some n-subset).
    """
    model.validate_basic_solution(lp, x)
    rows = [lp.row(i) for i in x.basis]
    mu = _cone_coefficients(rows, list(lp.c0))
    if mu is None:
        raise DriverError("singular basis in optimality test")
    if all(v >= 0 for v in mu):
        return True
    tight = lp.tight_rows(x.point)
    if len(tight) <= lp.n:
        return False
    if comb(len(tight), lp.n) > CONE_SUBSET_GUARD:
        raise DriverError("degenerate cone subset guard exceeded")
    for S in combinations(tight, lp.n):
        mu = _cone_coefficients([lp.row(i) for i in S], list(lp.c0))
        if mu is not None and all(v >= 0 for v in mu):
            return True
    return False


# ---------------------------------------------------------------------------
# the repeated shadow vertex algorithm
# ---------------------------------------------------------------------------


@dataclass
class RoundTrace:
    phi: Fraction
    dim: int
    path: walk.ShadowPath


@dataclass
class Candidate:
    solution: BasicSolution | None
    capped: bool
    pivots: int
    rounds: int
    traces: list[RoundTrace]
    pairs: list[tuple[int, int]]


def repeated_shadow_vertex(
    lp: LinearProgram,
    x0: BasicSolution,
    phi: Fraction,
    cfg: randomness.RngConfig,
    stream: randomness.DrawStream,
    cap: int | None = None,
    collect_paths: bool = False,
) -> Candidate:
    """Up to n rounds of perturb -> walk -> identify -> reduce, then lift."""
    cfg = cfg.with_phi(phi)
    fixed: list[int] = []
    x_top = as_fractions(x0.point)
    pivots = 0
    rounds = 0
    traces: list[RoundTrace] = []
    pairs: list[tuple[int, int]] = []
    while len(fixed) < lp.n:
        r = facet_restriction(lp, fixed)
        cur = r.lp
        if all(x == 0 for x in cur.c0):
            break  # objective constant on the current facet chain
        y0 = restriction_coords(r, x_top)
        basis0 = model.tight_basis_at(cur, y0)
        if len(basis0) < cur.n:
            raise DriverError("restricted start point is not a vertex")
        bs = BasicSolution(point=tuple(y0), basis=tuple(basis0[: cur.n]))
        pert = randomness.perturb_objective(list(cur.c0), cfg, stream)
        u = walk.tight_rows_at(cur, bs)
        lam = randomness.draw_lambda(cur.n, cfg, stream)
        w = randomness.cone_objective(u, lam)
        res = walk.shadow_walk(cur, bs, list(pert.c), w, pivot_cap=cap)
        pivots += res.pivots
        rounds += 1
        pairs.extend((st.entering_row, st.leaving_row) for st in res.path.steps)
        if collect_paths:
            traces.append(RoundTrace(phi=phi, dim=cur.n, path=res.path))
        if not res.finished:
            return Candidate(
                solution=None, capped=True, pivots=pivots, rounds=rounds,
                traces=traces, pairs=pairs,
            )
        bs = res.solution
        k = identify_basis_element([cur.row(i) for i in bs.basis], list(pert.c))
        fixed.append(r.row_map[bs.basis[k]])
        x_top = restriction_lift(r, bs.point)
    basis_full = model.tight_basis_at(lp, x_top)
    if len(basis_full) < lp.n:
        raise DriverError("lifted point is not a vertex")
    return Candidate(
        solution=BasicSolution(point=tuple(x_top), basis=tuple(basis_full[: lp.n])),
        capped=False,
        pivots=pivots,
        rounds=rounds,
        traces=traces,
        pairs=pairs,
    )


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolveConfig:
    rng: randomness.RngConfig
    schedule: str = SCHEDULE_BASE
    cap_constant: int = 16
    max_doublings: int = 64
    collect_paths: bool = False
    # set internally for Phase 1, whose schedule is parametrized by the
    # dimensions of the problem it serves, not the one it walks
    schedule_obj: PhiSchedule | None = None


@dataclass
class SolveOutcome:
    status: str  # "optimal" | "unbounded" | "infeasible"
    point: tuple[Fraction, ...] | None = None
    value: Fraction | None = None
    vertex: BasicSolution | None = None
    ray: tuple[Fraction, ...] | None = None
    infeasible_gap: Fraction | None = None
    pivots: int = 0
    phase1_pivots: int = 0
    phase1_artificials: int = 0  # |V|: the y_i Phase 1 walked; 0 if it did not run
    bits_consumed: int = 0
    doublings: int = 0
    phi_accepted: Fraction | None = None
    traces: list[RoundTrace] = field(default_factory=list)
    pivot_sequence: list[tuple[int, int]] = field(default_factory=list)


def _schedule_for(lp: LinearProgram, cfg: SolveConfig) -> PhiSchedule:
    if cfg.schedule_obj is not None:
        return cfg.schedule_obj
    return PhiSchedule(variant=cfg.schedule, n=lp.n, m=lp.m)


def _walk_bits_and_cap(
    lp_m: int, lp_n: int, phi: Fraction, cfg: SolveConfig
) -> tuple[randomness.RngConfig, int | None]:
    rng = cfg.rng
    if rng.mode == randomness.MODE_DYADIC:
        dh = randomness.delta_hat(lp_n, phi)
        if rng.bits_per_draw is None:
            rng = replace(rng, bits_per_draw=randomness.bit_budget(lp_m, lp_n, phi, dh))
        cap = pivot_cap(lp_m, lp_n, phi, dh, cfg.cap_constant)
        return rng, cap
    return rng, None


def solve(
    lp_raw: LinearProgram,
    cfg: SolveConfig,
    initial_bfs: BasicSolution | None = None,
    known_bounded_objective: bool = False,
    _stream: randomness.DrawStream | None = None,
    _depth: int = 0,
) -> SolveOutcome:
    """Parse-to-certificate pipeline: rank raise, normalize, Phase 1 when no
    start is given, box, then the doubling schedule around the repeated
    shadow vertex algorithm.  Accepted outcomes carry exact certificates."""
    if _depth > 1:
        raise DriverError("unexpected recursive Phase 1")
    stream = _stream or randomness.DrawStream(cfg.rng.seed)
    out = SolveOutcome(status="pending")

    c_raw = list(lp_raw.c0)
    if all(x == 0 for x in c_raw):
        return _solve_pure_feasibility(lp_raw, cfg, stream, out)

    # rank completion
    work_fr = lp_raw
    if not work_fr.full_rank:
        if len(linalg.independent_rows(work_fr.rows())) < work_fr.n:
            escape = model._objective_escape(work_fr)
            if escape is not None:
                return _solve_escape(work_fr, escape, cfg, stream, out)
            work_fr = model.extend_to_full_rank(work_fr)
        else:
            work_fr = replace(work_fr, full_rank=True)

    work = model.normalize(work_fr)

    # start vertex (Phase 1 runs on the pre-normalization data: same
    # polyhedron, much smaller exact numbers)
    if initial_bfs is None:
        bfs = _phase1_start(work_fr, cfg, stream, out)
        if isinstance(bfs, SolveOutcome):
            return bfs
    else:
        bfs = initial_bfs
    model.validate_basic_solution(work, bfs)

    boxed = model.bound_polytope(work)

    sched = _schedule_for(work, cfg)
    for i in range(cfg.max_doublings):
        phi = sched.phi(i)
        rng_i, cap = _walk_bits_and_cap(boxed.m, boxed.n, phi, cfg)
        cand = repeated_shadow_vertex(
            boxed, bfs, phi, rng_i, stream, cap=cap, collect_paths=cfg.collect_paths
        )
        out.pivots += cand.pivots
        out.traces.extend(cand.traces)
        out.pivot_sequence.extend(cand.pairs)
        out.doublings = i
        if cand.capped:
            continue
        if not is_optimal(boxed, cand.solution):
            continue
        out.phi_accepted = phi
        out.bits_consumed = stream.bits_consumed
        verdict = (
            model.BOUNDED
            if known_bounded_objective
            else model.assert_unbounded_if_box_tight(cand.solution, boxed)
        )
        if isinstance(verdict, UnboundedCertificate):
            _check_ray(lp_raw, verdict.ray)
            out.status = "unbounded"
            out.point = verdict.point
            out.ray = verdict.ray
            return out
        point = cand.solution.point
        if not lp_raw.feasible(point):
            raise DriverError("certificate failure: accepted point infeasible")
        out.status = "optimal"
        out.point = point
        out.value = dot(c_raw, as_fractions(point))
        out.vertex = cand.solution
        return out
    raise DoublingLimitError(
        f"no acceptance within {cfg.max_doublings} doublings (bug: i* is finite)"
    )


def _check_ray(lp: LinearProgram, ray) -> None:
    r = as_fractions(ray)
    if dot(list(lp.c0), r) <= 0:
        raise DriverError("certificate failure: ray does not improve")
    for i in range(lp.m):
        if dot(lp.row(i), r) > 0:
            raise DriverError("certificate failure: ray leaves the recession cone")


def _phase1_start(work, cfg, stream, out):
    """A vertex of work, or the infeasible outcome; Phase 1 walks the face of
    LP' its start lies on and is skipped when the start is already a vertex.
    The phi base stays on work's (n, m), the dimensions the paper's Phase-1
    schedule is stated in; bits and pivot cap follow the walked face."""
    p1 = phase1.build_phase1_face(work)
    if isinstance(p1, BasicSolution):
        return p1
    out.phase1_artificials = p1.lp_prime.n - p1.orig_n
    sub_cfg = SolveConfig(
        rng=cfg.rng,
        schedule=SCHEDULE_PHASE1,
        cap_constant=cfg.cap_constant,
        max_doublings=cfg.max_doublings,
        collect_paths=cfg.collect_paths,
        schedule_obj=PhiSchedule(variant=SCHEDULE_PHASE1, n=work.n, m=work.m),
    )
    sub = solve(
        p1.lp_prime,
        sub_cfg,
        initial_bfs=p1.initial,
        known_bounded_objective=True,
        _stream=stream,
        _depth=1,
    )
    out.phase1_pivots = sub.pivots
    out.pivots += sub.pivots
    out.traces.extend(sub.traces)
    out.pivot_sequence.extend(sub.pivot_sequence)
    if sub.status != "optimal":
        raise DriverError("Phase 1 subproblem must be bounded and feasible")
    got = phase1.extract_bfs(sub.vertex, work, p1)
    if isinstance(got, phase1.InfeasibleCertificate):
        out.status = "infeasible"
        out.infeasible_gap = got.gap
        out.bits_consumed = stream.bits_consumed
        return out
    return got


def _solve_pure_feasibility(lp_raw, cfg, stream, out) -> SolveOutcome:
    """Zero objective: every feasible point is optimal with value 0."""
    work = lp_raw
    if len(linalg.independent_rows(work.rows())) < work.n:
        work = model.extend_to_full_rank(work)
    work = replace(work, full_rank=True, c0=tuple([Fraction(0)] * work.n))
    # borrow the Phase 1 machinery with a placeholder objective
    probe = replace(work, c0=tuple([Fraction(1)] + [Fraction(0)] * (work.n - 1)))
    bfs = _phase1_start(probe, cfg, stream, out)
    if isinstance(bfs, SolveOutcome):
        return bfs
    out.status = "optimal"
    out.point = bfs.point
    out.vertex = bfs
    out.value = Fraction(0)
    out.bits_consumed = stream.bits_consumed
    return out


def _solve_escape(work, escape, cfg, stream, out) -> SolveOutcome:
    """c0 leaves the row span: infeasible, or unbounded along the escape."""
    probe = replace(model.extend_to_full_rank(work), c0=tuple(escape))
    bfs = _phase1_start(probe, cfg, stream, out)
    if isinstance(bfs, SolveOutcome):
        return bfs
    _check_ray(work, escape)
    out.status = "unbounded"
    out.point = bfs.point
    out.ray = tuple(as_fractions(escape))
    out.bits_consumed = stream.bits_consumed
    return out
