"""Command line interface: solve | oracle | analyze | phase1 | bench."""

from __future__ import annotations

import argparse
import csv
import os
import sys

from . import driver, harness, linalg, metrics, model, oracle, phase1, randomness, walk
from .rational import format_fraction

SCHEDULES = (driver.SCHEDULE_BASE, driver.SCHEDULE_DELTA_AWARE, driver.SCHEDULE_PHASE1)
# faults of the input (the file, the LP in it, the flags) end in one line;
# a solver fault still raises
INPUT_ERRORS = (model.LPFormatError, model.LPModelError, metrics.MetricsError,
                harness.HarnessError, oracle.OracleError, randomness.RandomnessError, OSError)


def _read_lp(path: str) -> model.LinearProgram:
    with open(path, "r", encoding="utf-8") as fh:
        return model.parse_lp(fh.read())


def _add_rng_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bits", type=int, default=None, help="bits per draw (dyadic mode)")
    p.add_argument("--mode", choices=(randomness.MODE_FLOAT, randomness.MODE_DYADIC),
                   default=randomness.MODE_FLOAT)
    p.add_argument("--schedule", choices=SCHEDULES, default=driver.SCHEDULE_BASE)


def _cmd_solve(args: argparse.Namespace) -> int:
    lp = _read_lp(args.file)
    cfg = driver.SolveConfig(
        rng=randomness.RngConfig(seed=args.seed, mode=args.mode, bits_per_draw=args.bits),
        schedule=args.schedule,
        cap_constant=args.cap_constant,
        max_doublings=args.max_doublings,
    )
    out = driver.solve(lp, cfg)
    if args.trace is not None:
        os.makedirs(args.trace, exist_ok=True)
        for k, tr in enumerate(out.traces):
            name = os.path.join(args.trace, f"walk{k:03d}_dim{tr.dim}.csv")
            with open(name, "w", newline="") as fh:
                fh.write(walk.path_to_csv(tr.path))
    print(f"status: {out.status}")
    if out.status == "optimal":
        print(f"value: {format_fraction(out.value)}")
        print("point: " + " ".join(format_fraction(x) for x in out.point))
    elif out.status == "unbounded":
        print("ray: " + " ".join(format_fraction(x) for x in out.ray))
    else:
        print(f"phase1 gap: {format_fraction(out.infeasible_gap)}")
    print(f"route: {out.route}")
    print(f"pivots: {out.pivots} (phase1 {out.phase1_pivots})")
    print(f"phase1 artificials: {out.phase1_artificials}")
    print(f"doublings: {out.doublings}")
    print(f"bits: {out.bits_consumed}")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    lp = _read_lp(args.file)
    res = oracle.classify(lp)
    print(f"status: {res.status}")
    if res.status == "optimal":
        print(f"value: {format_fraction(res.value)}")
        print("point: " + " ".join(format_fraction(x) for x in res.point))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    lp = _read_lp(args.file)
    rep = metrics.delta_matrix(lp.rows())
    w = csv.writer(sys.stdout, lineterminator="\n")
    w.writerow(["delta", "witness_rows", "Delta", "Delta1", "Delta_nminus1", "bound_nDeltaSq_ok"])
    w.writerow(rep.csv_row())
    return 0


def _emit_phase1(lp: model.LinearProgram) -> int:
    work = lp
    if len(linalg.independent_rows(work.rows())) < work.n:
        work = model.extend_to_full_rank(work)
    p1 = phase1.build_phase1(work)
    sys.stdout.write(model.serialize_lp(p1.lp_prime))
    print("# initial basic feasible solution")
    print("point: " + " ".join(format_fraction(x) for x in p1.initial.point))
    print("basis: " + " ".join(str(i) for i in p1.initial.basis))
    return 0


def _cmd_phase1(args: argparse.Namespace) -> int:
    return _emit_phase1(_read_lp(args.file))


def _cmd_bench(args: argparse.Namespace) -> int:
    cfg = harness.ExperimentConfig(
        generator=args.generator,
        sizes=harness.parse_sizes(args.sizes),
        trials=args.trials,
        seed=args.seed,
        schedule=args.schedule,
        mode=args.mode,
        bits=args.bits,
        verify=not args.no_verify,
        out_path=args.out,
        instance_path=args.instance,
    )
    records, csv_text = harness.run_experiments(cfg)
    bad = [r for r in records if r.oracle_agrees is False]
    ratios = [r.pivot_ratio for r in records if r.pivot_ratio is not None]
    if ratios:
        print(f"pivots/(m n^3/delta^2): mean {sum(ratios)/len(ratios):.4g} "
              f"max {max(ratios):.4g}")
    if not args.out:
        sys.stdout.write(csv_text)
    else:
        print(f"wrote {args.out} ({len(records)} trials)")
    if cfg.verify:
        # past the guard a trial is not compared with the oracle at all
        unchecked = sum(r.oracle_agrees is None for r in records)
        print(f"{unchecked} of {len(records)} trials unchecked: past the oracle's "
              "enumeration guard", file=sys.stderr)
    if bad:
        print(f"{len(bad)} trials disagreed with the oracle", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="shadow-simplex")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("solve", help="solve an LP file with the shadow vertex pipeline")
    p.add_argument("file")
    _add_rng_flags(p)
    p.add_argument("--cap-constant", type=int, default=16)
    p.add_argument("--max-doublings", type=int, default=64)
    p.add_argument("--trace", default=None,
                   help="directory for per-walk path CSVs (row indices are rows "
                   "of the form walked, then the 2n box rows once a walk appends them)")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("oracle", help="exact brute-force classification")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("analyze", help="delta/Delta report as a CSV row")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("phase1", help="emit the feasibility subproblem and its start")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_phase1)

    p = sub.add_parser("bench", help="seeded experiment runner, summary CSV")
    p.add_argument("--generator", choices=harness.GENERATORS + ("file",),
                   default="tu-incidence")
    p.add_argument("--instance", default=None, help="LP file for --generator file")
    p.add_argument("--sizes", default="6x3", help="comma list like 6x3,8x4")
    p.add_argument("--trials", type=int, default=10)
    _add_rng_flags(p)
    p.add_argument("--out", default=None)
    p.add_argument("--no-verify", action="store_true")
    p.set_defaults(fn=_cmd_bench)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
