"""Repeated shadow vertex driver: perturb, walk, fix a facet, repeat;
wrapped in the doubling phi schedule with exact optimality certificates.

`solve` runs one path for every LP: a rank pass and rank completion, Phase 1
when no start vertex is given, then the doubling loop.  A given start is
checked first, by the first facet chain's tableau build on the solve's
integer form; a build that succeeds proves the form has rank n, so no rank
pass runs.  An LP of rank below n whose c0 leaves the row span (the
objective escape) has no vertex: a given start is ignored, Phase 1 decides
feasibility, and a feasible one is unbounded along the escape.  A zero
objective's chain stops at round 0, so its start vertex is accepted at the
first phi (`phi_accepted`).  Phase 1 is `solve` itself at depth 1, on the
Phase-1 phi schedule and without the box-tight check, which its bounded
objective does not need.

A solve builds the integer form of its rows once (`model.integer_form`),
first of all, and derives everything from that form, building no
`Fraction` LP: the rank pass, rank completion and the objective escape,
Phase 1's start and face, the chain's tableau, the box-tight test and the
check of its answer.  The box is not built up front.
Its rows strictly contain every vertex, so they can block only an edge that
is unbounded in the LP: each facet chain's `walk.Tableau` is built on the
solve's form with c0's primitive integer row.  An improving edge that no
row blocks and along which c0 rises is a ray (Dantzig): the walk ends
there, the tableau keeps it in `ray`, and the chain answers unbounded
along it.  The box (`model.bound_polytope`, the form's last 2n rows, with
integer rhs over the form's own s) is appended by the tableau over its own
basis at the first edge no row blocks that c0 does not rise along, with
the pivots a walk of the boxed form makes.  A bounded LP's solve never
builds it, and Phase 1's objective -sum(y), bounded above by 0, never ends
a walk at a ray.  The bit budget and the pivot cap are those of the boxed
form, m + 2n rows.  The Phase-1 face is only its own form, objective,
start and the start's integer inverse, built from the solve's
(`phase1.build_phase1_face`), so the depth-1 solve runs no rank pass and
builds no form or LP, its tableaus run no elimination, and it boxes the
face on its form.  When the lead rows' point is already a vertex, Phase 1
is skipped and the chain's tableau takes its inverse from the same
adjugate.  A facet chain's
tableau is built on the start vertex's own basis; a start that fails the
build on a form of rank n raises `walk.WalkError`.  The rows fixed so far
stay in its basis, held out of pricing, so each walk stays on the face
where they are tight.  That face is one `linalg.FaceBasis`, an exactly
orthogonal integer basis of the fixed rows' complement, which the chain
carries and each round updates with its new fixed row in O(n^2).  Each
round runs in integers: it draws its perturbed objective in coordinates of
that face, on c0's near-unit face image (`FaceBasis.image`), and lifts it
to the form exactly on the integer columns (`FaceBasis.lift`); its cone
objective is priced on the tableau's integer rows
(`lifted_cone_objective`), with each free row's near-unit factor tau
(`FaceBasis.tau`) formed once per round, and the facet is chosen by
integer cross-multiplication of the prices and the tau.  Both objectives
reach `Tableau.aim` as (numerators, denominator) pairs.  The walk is the
one on the restricted LP, whose delta-distance value is preserved to
rounding of the unit scaling, without building it.

A chain fixes at most n facets, and ends at the first finished walk whose
basis carries c0 (`Tableau.carries`: every entry of c0 M is >= 0, so c0 is a
nonnegative combination of the basis rows and the vertex is c0-optimal on
the form walked), or before round 0, with no trace and no draw, when its
start basis already carries c0.  No later round could improve on that
vertex: the paper's n rounds are an upper bound, and this is Dantzig's
optimality test, the certificate `is_optimal` reads at the end, off the
same reduced costs, before it walks anything.  Phase 1 ends sooner: its
objective -sum(y) is at most 0, so its tableau stops at zero
(`walk.Tableau.at_zero`).  Its walk ends at the first vertex where
sum(y) = 0, its chain ends there, and the depth-1 solve accepts that
vertex without `is_optimal`, since the bound is the certificate.  An
infeasible LP never reaches 0, and its Phase 1 ends as any chain does.
The depth-1 solve hands back the tableau standing on its vertex, on
which the cold solve reads Phase 1's answer: the gap -c0 x_num / (D s)
when it is positive, else the LP vertex and its basis's (M, D), the face
inverse's x-block (`phase1.handover`), on which the main chain's tableau
is built with no elimination.  Only a face basis that is not one of the LP's (a -y_i <= 0
row out of it, or a box row in it) is crawled from (`phase1.extract_bfs`).

An accepted vertex on a tight box row is bounded when c0 needs no box row
of its basis (`model.assert_unbounded_if_box_tight`), and unbounded
otherwise, along the ray the recession walk builds.

Every answer, at both depths, is accepted in one place (`_accept`), off
the tableau that stands on it: its vertex is checked against the LP's m
rows, the first rows of the tableau's form, with slack numerators
recomputed from x_num, its value c0 x is read off x_num, and a ray is
checked against c0 and those rows, all in integers.  A depth-0 answer's
point is the vertex its tableau stands on, which on the vertex and
box-cone routes `SolveOutcome.vertex` carries with the basis it ended on.
The objective escape walks nothing: it answers off the tableau the main
chain would start from, built on the (M, D) Phase 1 handed over.
`SolveOutcome.route` names the certificate that answered.

Each round keeps its walk's path in a `RoundTrace`, and the traces are the
one record of a solve's pivots: `SolveOutcome.traces` holds Phase 1's rounds
first, then every round of every doubling, and `SolveOutcome.pivots` and
`.pivot_sequence` are read off them.  Row indices in walk paths and in the
pivot sequence are rows of the form walked: the LP's rows, then any
rank-completion rows, then the 2n box rows once a walk has appended them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt, lcm
from operator import mul

from . import linalg, model, phase1, randomness, walk
from .model import BasicSolution, IntegerForm, LinearProgram
from .rational import as_fractions, common_denominator, fraction, primitive_int_row

PHI_BITS = 60


class DriverError(RuntimeError):
    pass


class DoublingLimitError(DriverError):
    """The phi-doubling guard was exhausted; indicates a bug, i* is finite."""


class SolveConfigError(ValueError):
    """A `SolveConfig` value no solve can run on."""


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

    def phi(self, i: int) -> Fraction:
        """phi_i, each square root rounded up at PHI_BITS bits as
        `ratsqrt_ceil` of tests/reference.py rounds it, formed from integers
        as one Fraction."""
        n, m = self.n, self.m
        if self.variant == SCHEDULE_BASE:
            num, bits = n * _sqrt_up(n), PHI_BITS
        elif self.variant == SCHEDULE_DELTA_AWARE:
            num, bits = n * n * _sqrt_up(n), PHI_BITS
        elif self.variant == SCHEDULE_PHASE1:
            nm = n + m
            num, bits = _sqrt_up(m) * nm * _sqrt_up(nm), 2 * PHI_BITS
        else:
            raise DriverError(f"unknown schedule variant {self.variant!r}")
        return Fraction(num << i, 1 << bits)


def _sqrt_up(k: int) -> int:
    """sqrt(k) rounded up at PHI_BITS bits, times 2^PHI_BITS: the numerator
    of `ratsqrt_ceil(k, PHI_BITS)` (tests/reference.py) over 2^PHI_BITS."""
    return isqrt(k << 2 * PHI_BITS) + 1


def pivot_cap(m: int, n: int, phi: Fraction, delta: float, constant: int = 16) -> int:
    """8n * p(m, n, phi, delta) with p = ceil(K (m n^2/d^2 + m sqrt(n) phi/d))."""
    phi_f = float(phi)
    d = float(delta)
    p = constant * (m * n**2 / d**2 + m * n**0.5 * phi_f / d)
    return 8 * n * (int(p) + 1)


# ---------------------------------------------------------------------------
# facet identification and dimension reduction
# ---------------------------------------------------------------------------


def facet_restriction(
    fixed: list[list[int]], c0: list[int], basis: linalg.FaceBasis
) -> tuple[tuple[int, ...], int] | None:
    """c0's near-unit face image on the face where the fixed rows are
    tight, as `FaceBasis.image` gives it: (integer numerators,
    denominator), or None when c0 is constant on the face.  fixed and c0
    are primitive integer rows.

    basis is the face: the `linalg.FaceBasis` of fixed[:basis.rows], to
    which the rows after them are added in place
    (`linalg.complement_basis_int`), so a facet chain, whose fixed rows only
    grow, orthogonalizes each one once, and only the columns it changes are
    recomputed.  Its columns are those of the top-level rows (chaining
    one-step reductions would square exact entry sizes per level), so
    numbers stay single-level small no matter how deep the chain is.
    """
    n = len(c0)
    if len(fixed) >= n:
        raise DriverError("nothing left to restrict")
    if len(linalg.complement_basis_int(fixed, n, basis)) != n - len(fixed):
        raise DriverError("fixed facet rows are dependent")
    return basis.image(c0)


def restriction_coords(
    basis: linalg.FaceBasis, rows: list[list[int]]
) -> list[tuple[tuple[int, ...], int] | None]:
    """Near-unit face images of integer rows on the face of basis, as
    `FaceBasis.image` gives them (None for a row constant on the face).  The
    solve path does not build them: its cone objective is priced on the
    integer rows."""
    return [basis.image(ints) for ints in rows]


def lifted_cone_objective(
    rows: list[list[int]], lam: tuple[list[int], int], tau: list[tuple[int, int]]
) -> tuple[list[int], int]:
    """w = -sum_k lam_k tau_k R_k over the integer rows R_k, as (integer
    numerators, denominator), lam given as numerators over one denominator
    and each tau_k as its (numerator, denominator) (`FaceBasis.tau`):
    the cone objective -sum_k lam_k u_k over the near-unit face images
    u_k = tau_k face(R_k), lifted without projecting.

    Lifting u_k gives tau_k P(R_k), P the projection onto the face's
    directions, so w differs from the lifted face form by a vector in the
    span of the fixed rows.  Every edge the walk prices keeps the held rows
    tight, so it lies in the face and sees no difference: slopes, gains and
    pivots are the same.  Only the prices of held positions differ, and the
    walk never reads them.
    """
    lnum, lden = lam
    if any(not 0 < l <= lden for l in lnum):
        raise DriverError("lambda coordinates must lie in (0, 1]")
    T = lcm(*(td for _, td in tau))
    coef = [l * tn * (T // td) for l, (tn, td) in zip(lnum, tau)]
    return [-sum(map(mul, coef, col)) for col in zip(*rows)], lden * T


def identify_basis_element(
    tab: walk.Tableau,
    basis: linalg.FaceBasis,
    free: list[int],
    tau: dict[int, tuple[int, int]],
) -> int:
    """Position in free of the basis row with the largest coefficient mu_j
    when the face image of tab's objective c is written over the free rows'
    near-unit face images u_j = tau_j face(R_j) on the face of basis; ties
    go to the smallest position.

    tab stands where its walk on c ended, so c = sum_k nu_k R_basis[k] with
    nu_k = t_c[k] / (D c_den) from its prices.  The fixed rows vanish on the
    face, hence mu_j = nu_j / tau_j: no system is solved.  tau holds the
    round's factors by row, as (numerator, denominator) pairs; only rows that
    entered the basis during the walk have theirs formed here
    (`FaceBasis.tau`).  The mu_j share the positive factor D c_den,
    so they are compared as t_c[j] tau_den / tau_num, by integer
    cross-multiplication.
    """
    pos = {row: k for k, row in enumerate(tab.basis)}
    t_c = tab.t_c
    best = bn = bd = 0
    for k, i in enumerate(free):
        tn, td = tau[i] if i in tau else basis.tau(tab.R[i])
        num, den = t_c[pos[i]] * td, tn
        if not k or num * bd > bn * den:
            best, bn, bd = k, num, den
    return best


# ---------------------------------------------------------------------------
# optimality certificate
# ---------------------------------------------------------------------------


def is_optimal(form: IntegerForm, x: BasicSolution, tab: walk.Tableau, c0) -> bool:
    """Exact test that c0 lies in the normal cone of the vertex x of the LP
    whose integer form is form, the form the facet chain walked.  c0 may be
    any positive multiple of the objective, rationals or integers: the
    solve passes its primitive integer row.

    tab is a Tableau on form standing on x, the facet chain's own (checked
    in integers).  x is optimal when tab's basis carries c0
    (`Tableau.carries`, off the reduced costs); else tab is walked in place
    on c0 by `walk.first_gain`.  x is optimal exactly when that walk ends
    without leaving x, on a basis that carries c0.  Every edge it walks
    improves c0, so on a tableau not yet boxed an edge no row blocks is a
    ray, which ends the walk and stays in `tab.ray`, as in the chain's
    walks; once boxed, the box blocks it.  At a degenerate vertex the walk
    makes degenerate pivots until it reaches such a basis, a step of
    positive length or a ray; no subset of the tight rows is scanned.
    These pivots are not counted in `SolveOutcome.pivots`.
    """
    if tab.form is not form:
        raise DriverError("tableau is not on the form")
    if not tab.stands_on(x.point):
        raise DriverError("tableau does not stand on the vertex")
    if tab.carries(c0):
        return True
    return not walk.first_gain(tab, c0)


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
    capped: bool
    traces: list[RoundTrace]  # one per round walked


def repeated_shadow_vertex(
    tab: walk.Tableau,
    c0: list[int],
    phi: Fraction,
    bits: int,
    stream: randomness.DrawStream,
    cap: int | None = None,
) -> Candidate:
    """Rounds of perturb -> walk -> identify -> fix, on the tableau tab, for
    the objective c0, a primitive integer row: at most n, and none after
    the first finished walk whose basis carries c0 or that ended at a ray,
    or once c0 is constant on the face of the fixed rows; none at all, with
    no trace and no draw, when the start basis already carries c0.

    tab stands on the chain's start vertex, freshly built on its basis (the
    build is the check of the start), and is walked in place and left on
    the chain's last vertex.  Built with c0, a walk that meets an improving
    edge no row blocks along which c0 rises ends there, with the ray in
    `tab.ray`, and tab appends the box over its basis at the first other
    edge no row blocks; without c0, it walks its form as given, which must
    then bound every walk.  The chain carries one
    `linalg.FaceBasis`, the face of its fixed rows, to which each round adds
    the row fixed last (`facet_restriction`).  Each round draws its
    perturbed objective in that face's coordinates at phi, bits random bits
    per draw, and lifts it to form's coordinates (`FaceBasis.lift`), prices
    its cone objective on the tableau's integer rows with each free row's
    factor tau formed once (`FaceBasis.tau`; the facet choice reuses them),
    and walks the tableau with the fixed rows held in the basis, from where
    the previous round stopped; every objective stays in integers.  Each
    round's walk path is kept in its trace.
    """
    if tab.carries(c0):
        return Candidate(capped=False, traces=[])  # Dantzig's test, before round 0
    fixed: list[int] = []
    basis = linalg.FaceBasis(tab.n)
    traces: list[RoundTrace] = []
    while len(fixed) < tab.n:
        c0_face = facet_restriction([tab.R[i] for i in fixed], c0, basis)
        if c0_face is None:
            break  # objective constant on the current facet chain
        free = sorted(set(tab.basis) - set(fixed))
        pert = randomness.perturb_objective(c0_face, phi, bits, stream)
        tau = {i: basis.tau(tab.R[i]) for i in free}
        lam = randomness.draw_lambda(len(free), bits, stream)
        w = lifted_cone_objective([tab.R[i] for i in free], lam, [tau[i] for i in free])
        c = basis.lift((pert.c, pert.den))
        res = walk.shadow_walk(tab, c, w, pivot_cap=cap, held=fixed)
        traces.append(RoundTrace(phi=phi, dim=len(free), path=res.path))
        if not res.finished:
            return Candidate(capped=True, traces=traces)
        if tab.ray is not None or tab.at_zero() or tab.carries(c0):
            break  # a ray, or the bound or the basis certifies c0
        free = sorted(set(tab.basis) - set(fixed))
        fixed.append(free[identify_basis_element(tab, basis, free, tau)])
    return Candidate(capped=False, traces=traces)


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolveConfig:
    rng: randomness.RngConfig
    schedule: str = SCHEDULE_BASE
    cap_constant: int = 16
    max_doublings: int = 64

    def __post_init__(self) -> None:
        # a cap constant below 1 caps the walks at 8n pivots or fewer at
        # every phi, and no doubling at all accepts nothing: either ends in
        # a DoublingLimitError that reports a bug
        if self.schedule not in (SCHEDULE_BASE, SCHEDULE_DELTA_AWARE, SCHEDULE_PHASE1):
            raise SolveConfigError(f"unknown schedule {self.schedule!r}")
        if self.cap_constant < 1:
            raise SolveConfigError(f"cap_constant must be >= 1, got {self.cap_constant}")
        if self.max_doublings < 1:
            raise SolveConfigError(f"max_doublings must be >= 1, got {self.max_doublings}")


@dataclass
class SolveOutcome:
    status: str  # "optimal" | "unbounded" | "infeasible"
    point: tuple[Fraction, ...] | None = None
    value: Fraction | None = None
    # on the "vertex" and "box-cone" routes: its basis carries c0 in the
    # form walked
    vertex: BasicSolution | None = None
    ray: tuple[Fraction, ...] | None = None
    infeasible_gap: Fraction | None = None
    phase1_pivots: int = 0
    phase1_artificials: int = 0  # |V|: the y_i Phase 1 walked; 0 if it did not run
    bits_consumed: int = 0
    doublings: int = 0
    phi_accepted: Fraction | None = None
    traces: list[RoundTrace] = field(default_factory=list)  # Phase 1's rounds first
    # at depth 1, the face tableau Phase 1 accepted, standing on its answer
    tableau: walk.Tableau | None = None
    # the certificate that answered, each checked off the tableau standing
    # on the answer: "vertex" (the chain's vertex, off the box or never
    # boxed, or Phase 1's where sum(y) = 0), "edge-ray" (an edge no row
    # blocks that improves c0), "box-cone" (box-tight, but c0 needs no box
    # row of the basis), "recession" (box-tight and c0 needs a box row: the
    # recession walk's ray), "escape" (on the main chain's start tableau)
    # or "phase1-gap"
    route: str | None = None

    @property
    def pivots(self) -> int:
        """Pivots of every walk in the traces, Phase 1's included."""
        return sum(len(tr.path.steps) for tr in self.traces)

    @property
    def pivot_sequence(self) -> list[tuple[int, int]]:
        """(entering, leaving) rows of every pivot in walk order, read off
        the traces; rows are indexed in the form walked."""
        return [
            (st.entering_row, st.leaving_row) for tr in self.traces for st in tr.path.steps
        ]


def _walk_bits_and_cap(
    lp_m: int, lp_n: int, phi: Fraction, cfg: SolveConfig
) -> tuple[int, int | None]:
    """(bits per draw, pivot cap) of the walks at phi: `CONTINUOUS_BITS` and
    no cap in float mode; in dyadic mode the configured bits or else the
    bit budget, and the pivot cap, both at the stand-in delta-hat."""
    rng = cfg.rng
    if rng.mode != randomness.MODE_DYADIC:
        return randomness.CONTINUOUS_BITS, None
    dh = randomness.delta_hat(lp_n, phi)
    bits = rng.bits_per_draw or randomness.bit_budget(lp_m, lp_n, phi, dh)
    return bits, pivot_cap(lp_m, lp_n, phi, dh, cfg.cap_constant)


def solve(
    lp_raw: LinearProgram | None,
    cfg: SolveConfig,
    initial_bfs: BasicSolution | None = None,
    _stream: randomness.DrawStream | None = None,
    _depth: int = 0,
    _face: phase1.Phase1Problem | None = None,
) -> SolveOutcome:
    """Parse-to-certificate pipeline: rank raise, Phase 1 when no start is
    given, then the doubling schedule around the repeated shadow vertex
    algorithm, whose walks answer unbounded at an improving edge no row
    blocks along which c0 rises, and box the LP at the first other such
    edge.  The rows are used as given, never scaled: a rank pass finds the
    lead rows Phase 1 starts from, unless a given start's tableau builds on
    the solve's form, which then has rank n.  The answer's
    certificate is named in `SolveOutcome.route`.  Every answer is checked
    off the tableau that stands on it (`_accept`), against lp_raw's rows in
    integer form: the vertex for feasibility, a ray for improvement and
    recession; an escape's tableau is the main chain's start, unwalked.

    - Rank below n with c0 off the row span (the objective escape): the LP
      has no vertex, so initial_bfs is ignored and Phase 1 runs; the answer
      is infeasible, or unbounded along the escape from Phase 1's point.
    - A zero objective: the facet chain stops at round 0 and the certificate
      walk finds no improving edge, so the start vertex (Phase 1's, or
      initial_bfs) is optimal with value 0, and `phi_accepted` is the first
      phi.

    initial_bfs is checked by the first facet chain's `walk.Tableau` build
    on the solve's form, whose rows include every row of lp_raw; that
    tableau is the chain's.  A build that fails is made again after the
    rank pass, on the rank-completed form: a basis that does not hold n
    distinct rows of the form, has dependent rows, is not tight at the
    point, or a point that violates a row, then raises `walk.WalkError`.

    Only Phase 1's own call sets _stream, _depth (1) and _face, and no
    lp_raw nor initial_bfs: it shares the caller's draws, and takes from
    _face the face's form, objective, start vertex and the start's inverse,
    and the dimensions of its Phase-1 phi schedule, those of the solve's
    form (n the face's x, m its rows less the |V| rows -y_i <= 0).  Its
    objective -sum(y) is bounded above by 0, so its walks stop at the first
    vertex where sum(y) = 0, which it accepts with no `is_optimal` call,
    and it skips the box-tight check.  Its answer is checked as every
    answer is, against the face's rows, and it hands back the tableau
    standing on it (`SolveOutcome.tableau`), with the value c0 x but no
    point."""
    if _depth > 1:
        raise DriverError("unexpected recursive Phase 1")
    stream = _stream or randomness.DrawStream(cfg.rng.seed)
    out = SolveOutcome(status="pending")

    c0 = lp_raw.c0 if _face is None else _face.c0
    c0_int = primitive_int_row(c0)[0]
    first = inverse = escape = None  # first: the start's tableau, when it builds
    # Phase 1's objective -sum(y) is at most 0: its walks stop where it is 0
    stop = _depth == 1
    if _face is None:
        m = lp_raw.m
        form = model.integer_form(lp_raw)
        if initial_bfs is not None:
            # a build on n rows of the form proves it has rank n: no rank pass
            try:
                first = walk.Tableau(form, initial_bfs, c0_int, stop_at_zero=stop)
            except walk.WalkError:
                pass  # rank below n, or a bad start: the rank pass decides
        if first is None:
            # the rank pass, whose independent rows are the lead rows Phase 1
            # starts from; rank completion appends rows to both
            idx = linalg.independent_rows(form.R)
            rows = [form.R[i] for i in idx]
            escape = model._objective_escape(c0, rows) if len(idx) < form.n else None
            form, lead = model.complete_rank(form, idx)
        sched = PhiSchedule(variant=cfg.schedule, n=form.n, m=form.m)
    else:
        m, form = _face.form.m, _face.form
        k = _face.n - _face.orig_n
        sched = PhiSchedule(variant=SCHEDULE_PHASE1, n=_face.orig_n, m=form.m - k)
        initial_bfs = _face.initial
        inverse = _face.inverse

    if initial_bfs is None or escape is not None:
        start = _phase1_start(form, lead, cfg, stream, out)
        if isinstance(start, SolveOutcome):
            return start
        bfs, inverse = start
    else:
        bfs = initial_bfs

    if escape is not None:
        # no vertex to walk: the answer stands on the main chain's start tableau
        out.bits_consumed = stream.bits_consumed
        out.route = "escape"
        tab = walk.Tableau(form, bfs, c0_int, inverse=inverse)
        out.point = bfs.point
        return _accept(out, tab, m, c0, tuple(escape))

    for i in range(cfg.max_doublings):
        phi = sched.phi(i)
        # the boxed form's m + 2n rows, whether or not a walk appends the box
        bits, cap = _walk_bits_and_cap(form.m + 2 * form.n, form.n, phi, cfg)
        tab = first or walk.Tableau(form, bfs, c0_int, inverse=inverse, stop_at_zero=stop)
        first = None
        cand = repeated_shadow_vertex(tab, c0_int, phi, bits, stream, cap=cap)
        out.traces.extend(cand.traces)
        out.doublings = i
        if cand.capped:
            continue
        # a chain that ended at a ray answers there, and at depth 1 a vertex
        # where sum(y) = 0 is optimal by the bound; else the certificate
        # walk decides, which may meet a ray at the vertex
        vertex = None if tab.ray or tab.at_zero() else tab.solution()
        if vertex is not None and not is_optimal(tab.form, vertex, tab, c0_int):
            if tab.ray is None:
                continue  # the certificate walk left the vertex
        out.phi_accepted = phi
        out.bits_consumed = stream.bits_consumed
        if _depth:
            out.route, out.tableau = "vertex", tab
            return _accept(out, tab, m, c0)
        if vertex is None or tuple(sorted(tab.basis)) != vertex.basis:
            vertex = tab.solution()  # the basis the certificate walk ended on
        out.point = vertex.point
        if tab.ray is not None:
            out.route = "edge-ray"
            return _accept(out, tab, m, c0, tuple(map(Fraction, tab.ray)))
        out.route, ray = model.assert_unbounded_if_box_tight(tab, c0_int)
        if ray is None:
            out.vertex = vertex
        return _accept(out, tab, m, c0, ray)
    raise DoublingLimitError(
        f"no acceptance within {cfg.max_doublings} doublings (bug: i* is finite)"
    )


def _accept(out: SolveOutcome, tab: walk.Tableau, m: int, c0, ray=None) -> SolveOutcome:
    """out answered at the vertex tab stands on, unbounded along ray when
    one is given, after checking the vertex against the LP's m rows, the
    first rows of tab's form, with each slack numerator recomputed from
    tab's x_num, not read off the carried ones, and the ray against those
    rows and c0.  The value c0 x is read off x_num too, as one Fraction of
    integer numerators, shared from `SMALL_INTEGRAL` when it is a small
    integer: no `Fraction` point is built."""
    if any(v < 0 for v in tab.recomputed_slacks(range(m))):
        raise DriverError("certificate failure: accepted point infeasible")
    if ray is None:
        cn, cd = common_denominator(c0)
        out.status = "optimal"
        out.value = fraction(sum(map(mul, cn, tab.x_num)), cd * tab.D * tab.s)
    else:
        _check_ray(tab.form, m, c0, ray)
        out.status, out.ray = "unbounded", ray
    return out


def _check_ray(form: IntegerForm, m: int, c0, ray) -> None:
    """c0 r > 0 and a_i r <= 0 for the LP's m rows, the first rows of form,
    decided in integers: r's numerators against c0's and each R_i."""
    rn = common_denominator(as_fractions(ray))[0]
    if sum(map(mul, common_denominator(c0)[0], rn)) <= 0:
        raise DriverError("certificate failure: ray does not improve")
    if any(sum(map(mul, r, rn)) > 0 for r in form.R[:m]):
        raise DriverError("certificate failure: ray leaves the recession cone")


def _phase1_start(form, lead, cfg, stream, out):
    """(a vertex of the LP of the full-rank form, its basis's (M, D) or
    None), or the infeasible outcome.  Phase 1 walks the face of LP' its
    start lies on and is skipped when the start is already a vertex, whose
    (M, D) the face build reads off the lead rows' adjugate.  Its answer is
    read off the face tableau it hands back: a value below 0 is the gap,
    and at 0 the LP vertex and its (M, D) come from `phase1.handover`, or,
    when the face basis is not one of the LP's, from `phase1.extract_bfs`'s
    crawl, with None.  The face is
    built from form (`phase1.build_phase1_face`), so the Phase-1 solve runs
    no rank pass and builds no form of its own.  Its phi base stays on
    form's (n, m), the dimensions the paper's Phase-1 schedule is stated in,
    which it reads off the face; bits and pivot cap follow the walked
    face."""
    p1 = phase1.build_phase1_face(form, lead)
    if not isinstance(p1, phase1.Phase1Problem):
        return p1
    out.phase1_artificials = p1.n - p1.orig_n
    sub = solve(None, cfg, _stream=stream, _depth=1, _face=p1)
    out.phase1_pivots = sub.pivots
    out.traces.extend(sub.traces)
    if sub.status != "optimal":
        raise DriverError("Phase 1 subproblem must be bounded and feasible")
    if sub.value:
        out.status, out.route = "infeasible", "phase1-gap"
        out.infeasible_gap = -sub.value  # sum(y_V) at the face optimum
        out.bits_consumed = stream.bits_consumed
        return out
    tab = sub.tableau
    return phase1.handover(tab, form, p1) or (phase1.extract_bfs(tab.solution(), form, p1), None)
