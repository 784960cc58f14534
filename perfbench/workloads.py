"""Seeded instance pools for the three benchmark workloads.

Each workload turns a seed into a fixed pool of LPs.  Generator kind and
size follow a fixed round-robin, so the seed picks instance contents but
not the mix of kinds and sizes; that keeps runs with different seeds
comparable.  Nothing is filtered: every generated instance is solved,
degenerate optima included.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

TU_KINDS = ("tu-incidence", "interval-matrix", "network-matrix")


@dataclass(frozen=True)
class Instance:
    id: str
    lp: object  # shadow_simplex.model.LinearProgram
    start: object | None  # BasicSolution handed to solve(initial_bfs=...)
    mode: str  # "float" | "dyadic"
    seed: int  # solver seed of pass 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pool_size: int
    params: str  # generator parameters, as recorded next to the results
    check: str  # "classify" | "reference-simplex"
    # solve_tail_ms percentile: fixed per workload so that a faster commit,
    # which fits more solves into a run, is not measured at a higher
    # percentile; low enough that every measured run (slow CPU state
    # included) had at least ten samples above it
    tail_pct: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tu-cold",
            why="raw TU instances solved with no start vertex in float mode; Phase 1 on the "
            "(n+m)-dimensional auxiliary LP does nearly all the work",
            pool_size=99,
            params="harness.generate_tu_instance, kinds round-robin "
            + "/".join(TU_KINDS)
            + ", m=6 n=3 plus 2n bound rows, float mode, no start",
            check="classify",
            tail_pct=80.0,
        ),
        Workload(
            name="tu-warm",
            why="larger TU instances from a given start vertex in dyadic mode; Phase 1 is "
            "bypassed, the doubling loop, degenerate is_optimal and wide draws remain",
            pool_size=102,
            params="harness.generate_tu_instance, kinds round-robin "
            + "/".join(TU_KINDS)
            + ", m=16 n=8 plus 2n bound rows, dyadic mode with the "
            "computed bit budget, start = model.move_to_vertex from the generator's "
            "interior point",
            check="reference-simplex",
            tail_pct=90.0,
        ),
        Workload(
            name="mixed-status",
            why="arbitrary integer LPs (n 1-5, m 1-10, entries in [-3, 3]) mixing optimal, "
            "unbounded and infeasible, rank raising and escapes, in float mode",
            pool_size=250,
            params="harness.generate_random_integer(m, n, span=3), cell = 17 i mod 50, "
            "n = 1 + cell mod 5, m = 1 + cell div 5, float mode, no start",
            check="classify",
            tail_pct=90.0,
        ),
    )
}

# One size per TU workload: mixed sizes make the latency distribution
# multi-modal, and a median that falls between the modes jumps from seed to
# seed.
TU_COLD_SIZE = (6, 3)
TU_WARM_SIZE = (16, 8)


def _interior_point(pkg, kind: str, m: int, n: int, seed: int) -> list[Fraction]:
    """The integer point generate_tu_instance builds its right-hand side
    around (strictly interior by construction), recovered by replaying the
    generator's random stream."""
    harness = pkg.harness
    makers = {
        "tu-incidence": harness._incidence_rows,
        "interval-matrix": harness._interval_rows,
        "network-matrix": harness._network_rows,
    }
    rng = random.Random(seed)
    n = max(n, 1)
    m = max(m, 1)
    if kind == "tu-incidence" and n < 2:
        n = 2
    for _ in range(20):
        if makers[kind](rng, m, n):
            break
    return [Fraction(rng.randint(-2, 2)) for _ in range(n)]


def build_pool(pkg, name: str, seed: int) -> list[Instance]:
    """The workload's instances for this seed; same seed, same pool."""
    wl = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    pool = []
    for i in range(wl.pool_size):
        gen_seed = rng.getrandbits(31)
        solver_seed = rng.getrandbits(31)
        if name == "tu-cold":
            kind = TU_KINDS[i % 3]
            m, n = TU_COLD_SIZE
            lp = pkg.harness.generate_tu_instance(kind, m, n, gen_seed)
            pool.append(Instance(f"{kind}-{m}x{n}-g{gen_seed}", lp, None, "float", solver_seed))
        elif name == "tu-warm":
            kind = TU_KINDS[i % 3]
            m, n = TU_WARM_SIZE
            lp = pkg.harness.generate_tu_instance(kind, m, n, gen_seed)
            x = _interior_point(pkg, kind, m, n, gen_seed)
            if not all(pkg.rational.dot(lp.row(j), x) < lp.b[j] for j in range(lp.m)):
                raise RuntimeError(f"replayed point is not interior for {kind}-{m}x{n}-g{gen_seed}")
            start = pkg.model.move_to_vertex(lp, x)
            pool.append(Instance(f"{kind}-{m}x{n}-g{gen_seed}", lp, start, "dyadic", solver_seed))
        else:
            # a stride coprime to the 50 grid cells: every 50 consecutive
            # instances cover the grid once, and a run cut short still sees
            # an even spread of sizes
            cell = (i * 17) % 50
            n = 1 + cell % 5
            m = 1 + cell // 5
            lp = pkg.harness.generate_random_integer(m, n, gen_seed)
            pool.append(Instance(f"random-{m}x{n}-g{gen_seed}", lp, None, "float", solver_seed))
    return pool
