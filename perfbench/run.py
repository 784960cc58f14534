#!/usr/bin/env python3
"""Closed-loop solve benchmark for shadow_simplex.

    python3 perfbench/run.py --workload tu-cold --seed 1 --seconds 30 --trace 0

One client in one process calls `driver.solve` on the workload's seeded
instance pool, one solve at a time: the next solve starts only after the
previous one returns.  Each latency is a perf_counter around `driver.solve`
alone, reported at reference machine speed (see REFERENCE_PROBE_S); every
answer is checked against an exact oracle afterwards, outside the timed
region.

--trace 0 cycles the pool for --seconds (always finishing the first third
of the pool) and reports the end-to-end metrics.  --trace 1 solves the
first third of the pool untraced, then the whole pool once with the span
recorder installed, and reports per-layer metrics; the traced pass is fixed
work, so its counts repeat exactly for a given seed.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MODULES = ("driver", "harness", "linalg", "model", "oracle", "phase1", "randomness", "rational", "walk")
SETUP_REPEATS = 3
# The first third of the pool is solved in both trace modes: the digest
# covers it, and --trace 1 solves it untraced as the trace.overhead baseline.
PREFIX_SHARE = 3
# The CPU of the 2-vCPU VM the benchmark was built on switches between speed
# states up to 1.9x apart, within seconds and for minutes at a time, which
# no affordable run length averages out.  Latencies are reported at reference speed: scaled by
# REFERENCE_PROBE_S / speed_probe() measured next to each solve.  The
# constant is the probe's time on the machine the bounds were set on (Intel
# Xeon 2.0 GHz VM, 2 vCPUs, fast state); raw figures are printed as well.
REFERENCE_PROBE_S = 0.0008
PASS_SEED_STRIDE = 1_000_003  # pass p solves instance i with seed_i + p * stride
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import shadow_simplex\n"
    "print(time.perf_counter() - t)\n"
)


def load_package():
    sys.path.insert(0, str(SRC))
    importlib.import_module("shadow_simplex")
    return SimpleNamespace(**{m: importlib.import_module(f"shadow_simplex.{m}") for m in MODULES})


def import_seconds() -> float:
    """Package import time in a fresh interpreter (numpy included)."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------


def speed_probe() -> float:
    """Best of three timings of a fixed exact-rational kernel: a 300-term
    harmonic sum, the big-integer Fraction arithmetic the solver spends its
    time in."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 301):
            acc += Fraction(1, i)
        best = min(best, time.perf_counter() - t0)
    return best


class Answer(NamedTuple):
    status: str
    value: Fraction | None
    point: tuple | None
    pivots: int
    phase1_pivots: int
    bits: int


@dataclass
class Solve:
    pass_index: int
    k: int  # index into the pool
    seconds: float  # perf_counter around driver.solve
    probe: float  # speed_probe() around it (mean of the one before and after)
    answer: Answer | None
    error: str | None

    @property
    def scaled(self) -> float:
        """Latency at the reference machine speed."""
        return self.seconds * REFERENCE_PROBE_S / self.probe


def solve_one(pkg, inst, pass_index: int):
    """(latency seconds, Answer or None, error text or None)."""
    cfg = pkg.driver.SolveConfig(
        rng=pkg.randomness.RngConfig(seed=inst.seed + pass_index * PASS_SEED_STRIDE, mode=inst.mode)
    )
    t0 = time.perf_counter()
    try:
        out = pkg.driver.solve(inst.lp, cfg, initial_bfs=inst.start)
    except Exception as exc:  # recorded as a failure; the run keeps going
        dt = time.perf_counter() - t0
        print(f"solve failed on {inst.id}:\n{traceback.format_exc()}", file=sys.stderr)
        return dt, None, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    return dt, Answer(out.status, out.value, out.point, out.pivots, out.phase1_pivots, out.bits_consumed), None


def solve_loop(pkg, pool, keep_going, recorder=None) -> list[Solve]:
    """Closed loop over the pool (cycling) while keep_going(i, elapsed)."""
    solves: list[Solve] = []
    before = speed_probe()
    t_start = time.perf_counter()
    i = 0
    while keep_going(i, time.perf_counter() - t_start):
        p, k = divmod(i, len(pool))
        if recorder is not None:
            recorder.begin_solve(i)
        dt, answer, err = solve_one(pkg, pool[k], p)
        if recorder is not None:
            recorder.end_solve()
        after = speed_probe()
        solves.append(Solve(p, k, dt, (before + after) / 2, answer, err))
        before = after
        i += 1
    return solves


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------


def reference_answer(pkg, check: str, inst):
    """(status, exact value) from the oracle; never timed with the solves."""
    if check == "classify":
        ref = pkg.oracle.classify(inst.lp)
    else:
        ref = pkg.oracle.reference_simplex(inst.lp, inst.start)
    return ref.status, ref.value


def agrees(pkg, inst, ans: Answer, ref) -> bool:
    if ans.status != ref[0]:
        return False
    if ans.status != "optimal":
        return True
    lp = inst.lp
    return (
        ans.value == ref[1]
        and lp.feasible(ans.point)
        and pkg.rational.dot(list(lp.c0), list(ans.point)) == ans.value
    )


def check_solves(pkg, check: str, pool, solves):
    """Failures as (instance id, "raised" | "disagrees"), and the check time."""
    refs: dict[int, tuple] = {}
    failed: list[tuple[str, str]] = []
    t0 = time.perf_counter()
    for sv in solves:
        inst = pool[sv.k]
        if sv.error is None:
            if sv.k not in refs:
                try:
                    refs[sv.k] = reference_answer(pkg, check, inst)
                except Exception as exc:  # an oracle that cannot decide is not a pass
                    refs[sv.k] = (f"oracle-error:{type(exc).__name__}", None)
            if agrees(pkg, inst, sv.answer, refs[sv.k]):
                continue
            failed.append((inst.id, "disagrees"))
        else:
            failed.append((inst.id, "raised"))
    return failed, time.perf_counter() - t0


def digest(pool, solves) -> str:
    """Fingerprint of (status, exact value, pivots, phase1_pivots) over pass 0
    of the pool's first third, which both trace modes always solve."""
    h = hashlib.sha256()
    for sv in solves:
        if sv.pass_index != 0 or sv.k >= len(pool) // PREFIX_SHARE:
            continue
        a = sv.answer
        if a is None:
            line = f"{pool[sv.k].id}|error|{sv.error}"
        else:
            line = f"{pool[sv.k].id}|{a.status}|{a.value}|{a.pivots}|{a.phase1_pivots}"
        h.update(line.encode() + b"\n")
    return h.hexdigest()[:16]


def describe_pool(pool, solves) -> dict:
    """Status shares and degenerate-vertex share over the pass-0 solves."""
    statuses: dict[str, int] = {}
    degenerate = 0
    done = 0
    for sv in solves:
        if sv.pass_index != 0 or sv.answer is None:
            continue
        done += 1
        status = sv.answer.status
        statuses[status] = statuses.get(status, 0) + 1
        lp = pool[sv.k].lp
        if status == "optimal" and len(lp.tight_rows(sv.answer.point)) > lp.n:
            degenerate += 1
    return {
        "status_share": {st: round(c / max(done, 1), 4) for st, c in sorted(statuses.items())},
        "degenerate_share": round(degenerate / max(done, 1), 4),
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def percentile(latencies: list[float], pct: float) -> tuple[float, int]:
    """(nearest-rank value at pct, number of samples above it)."""
    xs = sorted(latencies)
    rank = max(math.ceil(pct / 100 * len(xs)), 1)
    return xs[rank - 1], len(xs) - rank


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(pkg, wl, seed: int, seconds: float):
    setups = []  # (seconds, probe)
    pool = None
    for _ in range(SETUP_REPEATS):
        before = speed_probe()
        imp = import_seconds()
        t0 = time.perf_counter()
        built = workloads.build_pool(pkg, wl.name, seed)
        setups.append((imp + time.perf_counter() - t0, (before + speed_probe()) / 2))
        pool = pool or built
    prefix = len(pool) // PREFIX_SHARE
    solves = solve_loop(pkg, pool, lambda i, elapsed: i < prefix or elapsed < seconds)
    failed, verify_s = check_solves(pkg, wl.check, pool, solves)
    ok = len(solves) - len(failed)
    scaled = [sv.scaled for sv in solves]
    raw = [sv.seconds for sv in solves]
    tail, above = percentile(scaled, wl.tail_pct)
    raw_tail, _ = percentile(raw, wl.tail_pct)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "solves_per_s": metric(ok / sum(scaled), "1/s"),
        "solve_p50_ms": metric(statistics.median(scaled) * 1e3, "ms"),
        "solve_tail_ms": metric(tail * 1e3, "ms"),
        "setup_s": metric(statistics.median(t * REFERENCE_PROBE_S / p for t, p in setups), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    notes = {
        "solves_per_s": f"raw {ok / sum(raw):.6g}",
        "solve_p50_ms": f"raw {statistics.median(raw) * 1e3:.6g}",
        "solve_tail_ms": f"raw {raw_tail * 1e3:.6g}; p{wl.tail_pct:g} of {len(scaled)} samples, {above} above it",
        "setup_s": f"raw {statistics.median(t for t, _ in setups):.6g}",
        "fail_rate": f"{len(failed) / len(solves):.6g} ({len(failed)}/{len(solves)})",
        "machine speed": f"probe {statistics.median(sv.probe for sv in solves) * 1e3:.4g} ms"
        f" vs reference {REFERENCE_PROBE_S * 1e3:g} ms",
        "passes": f"{solves[-1].pass_index + 1} over {len(pool)} instances ({len(solves)} solves)",
        "oracle.verify_s": f"{verify_s:.3f} s, outside the timed region",
    }
    return pool, solves, failed, metrics, notes, True


def per_layer(pkg, wl, seed: int):
    pool = workloads.build_pool(pkg, wl.name, seed)
    prefix = len(pool) // PREFIX_SHARE
    plain = solve_loop(pkg, pool, lambda i, _: i < prefix)
    rec = tracing.SpanRecorder()
    rec.install(pkg)
    try:
        traced = solve_loop(pkg, pool, lambda i, _: i < len(pool), rec)
    finally:
        rec.uninstall()
    failed, verify_s = check_solves(pkg, wl.check, pool, traced)
    same = digest(pool, plain) == digest(pool, traced)

    solve_s = sum(sv.seconds for sv in traced)
    overhead = sum(sv.scaled for sv in traced[:prefix]) / sum(sv.scaled for sv in plain) - 1
    tot = rec.total
    c = rec.counts
    answers = [sv.answer for sv in traced if sv.answer is not None]
    p1 = tot(tracing.NESTED_PHASE1)
    walk = tot("walk.shadow_walk")
    rsv = tot("driver.repeated_shadow_vertex")
    accounted = sum(t.self_s for t in rec.totals.values())
    metrics = {
        "phase1.span_s": metric(p1.span_s, "s"),
        "phase1.share": metric(p1.span_s / solve_s, "ratio"),
        "phase1.pivots": metric(sum(a.phase1_pivots for a in answers), "count"),
        "phase1.solve.self_s": metric(p1.self_s, "s"),
        "driver.solve.self_s": metric(tot(tracing.TOP).self_s, "s"),
        "driver.accept_ratio": metric(c.optimal_true / max(rsv.calls, 1), "ratio"),
        "driver.doublings": metric(rsv.calls - c.optimal_true, "count"),
        "driver.is_optimal.degenerate_calls": metric(c.degenerate_calls, "count"),
        "walk.pivots": metric(c.walk_pivots, "count"),
        "walk.pivots_per_s": metric(c.walk_pivots / walk.span_s if walk.span_s else 0.0, "1/s"),
        "walk.capped_walks": metric(c.capped_walks, "count"),
        "randomness.bits_consumed": metric(sum(a.bits for a in answers), "count"),
    }
    for group in tracing.SELF_TIMED:
        metrics[f"{group}.self_s"] = metric(tot(group).self_s, "s")
    for group in tracing.COUNTED:
        metrics[f"{group}.calls"] = metric(tot(group).calls, "count")
    metrics.update({
        "oracle.verify_s": metric(verify_s, "s"),
        "oracle.fail_rate": metric(len(failed) / len(pool), "ratio"),
        "trace.solve_s": metric(solve_s, "s"),
        "trace.accounted_share": metric(accounted / tot(tracing.TOP).span_s, "ratio"),
        "trace.overhead": metric(overhead, "ratio"),
        "trace.spans": metric(len(rec.spans), "count"),
    })
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-s{seed}.csv"
    rec.write_spans(spans_path)
    notes = {
        "fail_rate": f"{len(failed) / len(pool):.6g} ({len(failed)}/{len(pool)})",
        "traced digest matches untraced": str(same),
        "spans": str(spans_path.relative_to(HERE.parent)),
    }
    return pool, traced, failed, metrics, notes, same


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "shadow_simplex" / "__init__.py").is_file():
        print(f"shadow_simplex sources not found under {SRC}", file=sys.stderr)
        return 2
    pkg = load_package()
    wl = workloads.WORKLOADS[args.workload]

    if args.trace:
        pool, solves, failed, metrics, notes, correct = per_layer(pkg, wl, args.seed)
    else:
        pool, solves, failed, metrics, notes, correct = end_to_end(pkg, wl, args.seed, args.seconds)
    info = describe_pool(pool, solves)
    correct = correct and all(why != "disagrees" for _, why in failed)

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}")
    print(f"  generator: {wl.params}")
    for name, m in metrics.items():
        note = notes.get(name)
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    for name, note in notes.items():
        if name not in metrics:
            print(f"  {name:40s} {note}")
    print(f"  status_share {json.dumps(info['status_share'])}  degenerate_share {info['degenerate_share']}")
    print(f"  digest {digest(pool, solves)}")
    if failed:
        print(f"  failing instances: {' '.join(sorted({f'{i}:{why}' for i, why in failed}))}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(solves),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
