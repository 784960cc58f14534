"""Instance generators (totally unimodular families) and the experiment runner.

Generated instances are feasible and bounded by construction: a random
integer point gets positive slack on every row, and ±unit bound rows (which
preserve total unimodularity) close the recession cone.  The runner is
seeded and serial; per-trial seeds derive as base XOR trial index, and the
summary CSV is byte-stable for a fixed config.
"""

from __future__ import annotations

import csv
import io
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import driver, metrics, model, oracle, randomness
from .model import LinearProgram
from .rational import fraction

GENERATORS = ("tu-incidence", "interval-matrix", "network-matrix", "random-integer")

SUMMARY_COLUMNS = [
    "m",
    "n",
    "delta",
    "Delta",
    "mean_pivots",
    "median_pivots",
    "max_pivots",
    "oracle_agree_rate",
    "mean_bits",
    "oracle_unchecked",
]


class HarnessError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    generator: str
    sizes: tuple[tuple[int, int], ...]
    trials: int
    seed: int
    schedule: str = driver.SCHEDULE_BASE
    mode: str = randomness.MODE_FLOAT
    bits: int | None = None
    verify: bool = True
    out_path: str | None = None
    instance_path: str | None = None  # generator "file": solve this LP per trial

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise HarnessError("trials must be >= 1")
        if self.generator == "file":
            if not self.instance_path:
                raise HarnessError("generator 'file' needs instance_path")
        elif self.generator not in GENERATORS:
            raise HarnessError(f"unknown generator {self.generator!r}")


@dataclass
class TrialRecord:
    instance_id: str
    m: int
    n: int
    delta: float | None
    Delta: int | None
    phi_accepted: float | None
    total_pivots: int
    pivots_per_round: list[int]
    bits_consumed: int
    outcome: str
    oracle_agrees: bool | None
    wall_time: float
    pivot_ratio: float | None = None  # pivots / (m n^3 / delta^2) when delta known


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _random_objective(rng: random.Random, n: int) -> list[Fraction]:
    while True:
        c = [fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n)]
        if any(x != 0 for x in c):
            return c


def _with_bounds_and_rhs(
    rng: random.Random, rows: list[list[int]], n: int
) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Append ±e_i rows and pick b so a random integer point is interior."""
    x_tilde = [rng.randint(-2, 2) for _ in range(n)]
    big = max(3, max(abs(v) for v in x_tilde) + 3)
    full = [list(r) for r in rows]
    for j in range(n):
        e = [0] * n
        e[j] = 1
        full.append(list(e))
        full.append([-v for v in e])
    b = []
    for r in full[: len(rows)]:
        b.append(sum(a * v for a, v in zip(r, x_tilde)) + rng.randint(1, 3))
    for j in range(n):
        b.append(big)
        b.append(big)
    A = [[fraction(v, 1) for v in r] for r in full]
    return A, [fraction(v, 1) for v in b]


def _incidence_rows(rng: random.Random, edges: int, n: int) -> list[list[int]]:
    rows = []
    for _ in range(edges):
        u = rng.randrange(n)
        v = rng.randrange(n)
        while v == u:
            v = rng.randrange(n)
        row = [0] * n
        row[u] = 1
        row[v] = -1
        rows.append(row)
    return rows


def _interval_rows(rng: random.Random, count: int, n: int) -> list[list[int]]:
    rows = []
    for _ in range(count):
        lo = rng.randrange(n)
        hi = rng.randint(lo, n - 1)
        row = [1 if lo <= j <= hi else 0 for j in range(n)]
        if rng.random() < 0.5:
            row = [-v for v in row]
        rows.append(row)
    return rows


def _network_rows(rng: random.Random, count: int, n: int) -> list[list[int]]:
    """Network matrix: rows are signed tree paths of the non-tree arcs.

    Tree arcs are the n columns (a random oriented spanning tree on n+1
    nodes); each generated row walks the unique tree path of a random arc.
    """
    # parent[v] for nodes 1..n, arc j connects node j+1 with parent, random sign
    parent = [0] * (n + 1)
    sign = [0] * (n + 1)
    for v in range(1, n + 1):
        parent[v] = rng.randrange(v)
        sign[v] = rng.choice((1, -1))

    def path_to_root(v: int) -> dict[int, int]:
        out: dict[int, int] = {}
        while v != 0:
            out[v - 1] = sign[v]
            v = parent[v]
        return out

    rows = []
    for _ in range(count):
        u = rng.randrange(n + 1)
        v = rng.randrange(n + 1)
        while v == u:
            v = rng.randrange(n + 1)
        pu, pv = path_to_root(u), path_to_root(v)
        row = [0] * n
        for j, s in pu.items():
            row[j] += s
        for j, s in pv.items():
            row[j] -= s
        if any(row):
            rows.append(row)
    return rows


def generate_tu_instance(kind: str, m: int, n: int, seed: int) -> LinearProgram:
    """Feasible bounded LP over a totally unimodular matrix (plus ±unit rows).

    m counts the kind-specific rows before the 2n bound rows are appended.
    """
    rng = random.Random(seed)
    n = max(n, 1)
    m = max(m, 1)
    makers = {
        "tu-incidence": _incidence_rows,
        "interval-matrix": _interval_rows,
        "network-matrix": _network_rows,
    }
    if kind not in makers:
        raise HarnessError(f"unknown TU kind {kind!r}")
    if kind == "tu-incidence" and n < 2:
        n = 2
    rows: list[list[int]] = []
    for _ in range(20):
        rows = makers[kind](rng, m, n)
        if rows:
            break
    A, b = _with_bounds_and_rhs(rng, rows, n)
    c0 = _random_objective(rng, n)
    return model.make_lp(A, b, c0)


def generate_random_integer(m: int, n: int, seed: int, span: int = 3) -> LinearProgram:
    """Arbitrary random integer LP: feasibility and boundedness not arranged."""
    rng = random.Random(seed)
    rows = []
    while len(rows) < m:
        r = [rng.randint(-span, span) for _ in range(n)]
        if any(r):
            rows.append(r)
    b = [fraction(rng.randint(-span, span), 1) for _ in range(m)]
    c0 = [fraction(rng.randint(-span, span), 1) for _ in range(n)]
    return model.make_lp([[fraction(v, 1) for v in r] for r in rows], b, c0)


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------


def _generate(cfg: ExperimentConfig, m: int, n: int, seed: int) -> LinearProgram:
    if cfg.generator == "file":
        with open(cfg.instance_path, "r", encoding="utf-8") as fh:
            return model.parse_lp(fh.read())
    if cfg.generator == "random-integer":
        return generate_random_integer(m, n, seed)
    return generate_tu_instance(cfg.generator, m, n, seed)


def _verify_against_oracle(lp: LinearProgram, out: driver.SolveOutcome) -> bool | None:
    """Whether out agrees with `oracle.classify` on status and value, or
    None, unchecked, when the oracle's vertex enumeration would pass
    C(m, n) > 200,000 bases (solve has still checked its own certificate)."""
    if comb(lp.m, lp.n) > 200_000:
        return None
    ref = oracle.classify(lp)
    if ref.status != out.status:
        return False
    return ref.status != "optimal" or ref.value == out.value


def run_trial(cfg: ExperimentConfig, m: int, n: int, index: int) -> TrialRecord:
    seed = cfg.seed ^ index
    lp = _generate(cfg, m, n, seed)
    solve_cfg = driver.SolveConfig(
        rng=randomness.RngConfig(seed=seed, mode=cfg.mode, bits_per_draw=cfg.bits),
        schedule=cfg.schedule,
    )
    t0 = time.perf_counter()
    out = driver.solve(lp, solve_cfg)
    wall = time.perf_counter() - t0
    delta_val: float | None = None
    Delta_val: int | None = None
    ratio: float | None = None
    try:
        if comb(lp.m, lp.n) <= 20_000 and lp.n >= 1:
            rep = metrics.delta_matrix(lp.rows())
            delta_val = rep.delta
            Delta_val = rep.Delta
            if delta_val:
                ratio = out.pivots / (lp.m * lp.n**3 / delta_val**2)
    except metrics.MetricsError:
        pass
    agrees = _verify_against_oracle(lp, out) if cfg.verify else None
    return TrialRecord(
        instance_id=f"{cfg.generator}-{m}x{n}-s{seed}",
        m=lp.m,
        n=lp.n,
        delta=delta_val,
        Delta=Delta_val,
        phi_accepted=float(out.phi_accepted) if out.phi_accepted is not None else None,
        total_pivots=out.pivots,
        pivots_per_round=[len(tr.path.steps) for tr in out.traces],
        bits_consumed=out.bits_consumed,
        outcome=out.status,
        oracle_agrees=agrees,
        wall_time=wall,
        pivot_ratio=ratio,
    )


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def summarize(records: list[TrialRecord]) -> list[list[str]]:
    """One summary row per (m, n), deterministic ordering and formatting.
    oracle_agree_rate is over the trials the oracle checked, and
    oracle_unchecked counts the others."""
    by_size: dict[tuple[int, int], list[TrialRecord]] = {}
    for r in records:
        by_size.setdefault((r.m, r.n), []).append(r)
    rows = []
    for (m, n) in sorted(by_size):
        rs = by_size[(m, n)]
        pivots = sorted(r.total_pivots for r in rs)
        mid = len(pivots) // 2
        median = (
            pivots[mid]
            if len(pivots) % 2
            else (pivots[mid - 1] + pivots[mid]) / 2
        )
        deltas = [r.delta for r in rs if r.delta is not None]
        Deltas = [r.Delta for r in rs if r.Delta is not None]
        checked = [r.oracle_agrees for r in rs if r.oracle_agrees is not None]
        rows.append(
            [
                _fmt(m),
                _fmt(n),
                _fmt(min(deltas) if deltas else None),
                _fmt(max(Deltas) if Deltas else None),
                _fmt(sum(pivots) / len(pivots)),
                _fmt(median),
                _fmt(max(pivots)),
                _fmt(sum(checked) / len(checked) if checked else None),
                _fmt(sum(r.bits_consumed for r in rs) / len(rs)),
                _fmt(len(rs) - len(checked)),
            ]
        )
    return rows


def summary_csv(records: list[TrialRecord]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\r\n")
    w.writerow(SUMMARY_COLUMNS)
    for row in summarize(records):
        w.writerow(row)
    return buf.getvalue()


def run_experiments(cfg: ExperimentConfig) -> tuple[list[TrialRecord], str]:
    """All trials for every size; failures are recorded, not fatal."""
    records: list[TrialRecord] = []
    index = -1
    for m, n in cfg.sizes:
        for _ in range(cfg.trials):
            index += 1
            try:
                records.append(run_trial(cfg, m, n, index))
            except Exception as exc:  # recorded, not fatal
                records.append(
                    TrialRecord(
                        instance_id=f"{cfg.generator}-{m}x{n}-s{cfg.seed ^ index}",
                        m=m,
                        n=n,
                        delta=None,
                        Delta=None,
                        phi_accepted=None,
                        total_pivots=0,
                        pivots_per_round=[],
                        bits_consumed=0,
                        outcome=f"error:{type(exc).__name__}",
                        oracle_agrees=False,
                        wall_time=0.0,
                    )
                )
    csv_text = summary_csv(records)
    if cfg.out_path:
        with open(cfg.out_path, "w", newline="") as fh:
            fh.write(csv_text)
    return records, csv_text


def parse_sizes(spec: str) -> tuple[tuple[int, int], ...]:
    """Parse '6x3,8x4' into ((6,3),(8,4))."""
    out = []
    for tok in spec.split(","):
        tok = tok.strip().lower()
        m_s, _, n_s = tok.partition("x")
        try:
            out.append((int(m_s), int(n_s)))
        except ValueError:
            raise HarnessError(f"bad size token {tok!r}") from None
    return tuple(out)
