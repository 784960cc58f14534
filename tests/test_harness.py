import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

import shadow_simplex
from shadow_simplex import driver, harness, metrics, oracle, randomness
from shadow_simplex.harness import (
    ExperimentConfig,
    HarnessError,
    generate_tu_instance,
    parse_sizes,
    run_experiments,
)

F = Fraction


class TestGenerators:
    def test_incidence_is_tu_and_feasible(self):
        for seed in range(6):
            lp = generate_tu_instance("tu-incidence", m=4, n=3, seed=seed)
            ints = [[int(x) for x in r] for r in lp.rows()]
            assert metrics.max_subdeterminant(ints) == 1
            assert oracle.classify(lp).status == "optimal"

    def test_interval_matrix_is_tu(self):
        for seed in range(6):
            lp = generate_tu_instance("interval-matrix", m=5, n=3, seed=seed)
            ints = [[int(x) for x in r] for r in lp.rows()]
            assert metrics.max_subdeterminant(ints) == 1

    def test_network_matrix_is_tu(self):
        for seed in range(6):
            lp = generate_tu_instance("network-matrix", m=4, n=3, seed=seed)
            ints = [[int(x) for x in r] for r in lp.rows()]
            assert metrics.max_subdeterminant(ints) == 1

    def test_generated_instances_are_feasible(self):
        # Phase 1 value is zero for every generated instance: the auxiliary
        # objective is bounded, so the textbook simplex certifies it without
        # boxing
        from shadow_simplex import phase1

        for seed in range(5):
            lp = generate_tu_instance("interval-matrix", m=4, n=2, seed=seed)
            p1 = phase1.build_phase1(lp)
            ref = oracle.reference_simplex(p1.lp_prime, p1.initial)
            assert ref.status == "optimal" and ref.value == 0

    def test_unknown_kind(self):
        with pytest.raises(HarnessError):
            generate_tu_instance("magic", 3, 3, 0)


class TestRunner:
    def test_parse_sizes(self):
        assert parse_sizes("6x3,8x4") == ((6, 3), (8, 4))
        with pytest.raises(HarnessError):
            parse_sizes("6by3")

    def test_small_run_agrees_with_oracle(self):
        cfg = ExperimentConfig(
            generator="tu-incidence", sizes=((4, 2),), trials=5, seed=7
        )
        records, csv_text = run_experiments(cfg)
        assert len(records) == 5
        assert all(r.oracle_agrees for r in records)
        header = csv_text.splitlines()[0]
        assert header == "m,n,delta,Delta,mean_pivots,median_pivots,max_pivots,oracle_agree_rate,mean_bits,oracle_unchecked"

    def test_trials_past_the_oracle_guard_are_unchecked(self):
        # 30 interval rows and 10 bound rows in R^5: C(40, 5) = 658,008
        # bases, past the oracle's enumeration guard, so nothing is checked
        lp = generate_tu_instance("interval-matrix", 30, 5, 4)
        out = driver.solve(lp, driver.SolveConfig(rng=randomness.RngConfig(seed=4)))
        assert out.status == "optimal"
        assert harness._verify_against_oracle(lp, out) is None
        small = generate_tu_instance("interval-matrix", 4, 2, 4)
        good = driver.solve(small, driver.SolveConfig(rng=randomness.RngConfig(seed=4)))
        assert harness._verify_against_oracle(small, good) is True
        assert harness._verify_against_oracle(small, replace(good, value=good.value + 1)) is False
        records, csv_text = run_experiments(
            ExperimentConfig(generator="interval-matrix", sizes=((4, 2), (30, 5)), trials=2, seed=4)
        )
        assert [r.oracle_agrees for r in records] == [True, True, None, None]
        rows = [line.split(",") for line in csv_text.splitlines()[1:]]
        # oracle_agree_rate over the checked trials, then the unchecked count
        assert [(r[7], r[-1]) for r in rows] == [("1", "0"), ("", "2")]

    def test_reproducible_csv_bytes(self):
        cfg = ExperimentConfig(
            generator="interval-matrix", sizes=((4, 2), (5, 2)), trials=3, seed=42
        )
        _, a = run_experiments(cfg)
        _, b = run_experiments(cfg)
        assert a == b

    def test_random_integer_generator_runs(self):
        cfg = ExperimentConfig(
            generator="random-integer", sizes=((4, 2),), trials=4, seed=3
        )
        records, _ = run_experiments(cfg)
        assert all(r.oracle_agrees for r in records)
        assert all(not r.outcome.startswith("error") for r in records)

    def test_file_generator(self, tmp_path):
        p = tmp_path / "sq.lp"
        p.write_text("maximize 1 1\nst\n1 0 <= 1\n-1 0 <= 0\n0 1 <= 1\n0 -1 <= 0\n")
        cfg = ExperimentConfig(
            generator="file", sizes=((4, 2),), trials=3, seed=1,
            instance_path=str(p),
        )
        records, _ = run_experiments(cfg)
        assert len(records) == 3
        assert all(r.outcome == "optimal" and r.oracle_agrees for r in records)
        with pytest.raises(HarnessError):
            ExperimentConfig(generator="file", sizes=((1, 1),), trials=1, seed=0)


def package_env():
    """Environment for a subprocess that must import the package under test.

    The subprocess may run from another directory, where a relative
    PYTHONPATH entry such as "src" no longer resolves. Put the directory
    holding the package this suite imported first, so it runs the same code.
    """
    package_root = os.path.dirname(os.path.dirname(shadow_simplex.__file__))
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = package_root if not inherited else package_root + os.pathsep + inherited
    return env


class TestImport:
    def test_import_loads_no_numpy(self, tmp_path):
        # the solver is exact end to end; numpy is a test-only dependency
        code = (
            "import sys, shadow_simplex, shadow_simplex.cli; "
            "print('numpy' in sys.modules)"
        )
        r = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=package_env(),
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "False"


class TestCli:
    def run_cli(self, *args, cwd):
        return subprocess.run(
            [sys.executable, "-m", "shadow_simplex.cli", *args],
            capture_output=True,
            text=True,
            cwd=cwd,
            env=package_env(),
        )

    @pytest.fixture()
    def square_file(self, tmp_path):
        p = tmp_path / "square.lp"
        p.write_text("maximize 1 1\nst\n1 0 <= 1\n-1 0 <= 0\n0 1 <= 1\n0 -1 <= 0\n")
        return str(p)

    def test_solve_subcommand(self, square_file, tmp_path):
        r = self.run_cli("solve", square_file, "--seed", "1", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert "status: optimal" in r.stdout and "value: 2" in r.stdout

    def test_solve_prints_phase1_artificials(self, tmp_path):
        p = tmp_path / "infeasible.lp"
        p.write_text("maximize 1\nst\n1 <= 0\n-1 <= -1\n-1 <= -2\n")
        r = self.run_cli("solve", str(p), cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert "status: infeasible" in r.stdout
        assert "phase1 artificials: 2\n" in r.stdout

    def test_solve_trace_writes_csvs(self, square_file, tmp_path):
        trace = tmp_path / "trace"
        r = self.run_cli("solve", square_file, "--trace", str(trace), cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        files = sorted(os.listdir(trace))
        assert files and all(f.endswith(".csv") for f in files)

    def test_oracle_subcommand(self, square_file, tmp_path):
        r = self.run_cli("oracle", square_file, cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert "value: 2" in r.stdout

    def test_analyze_subcommand(self, square_file, tmp_path):
        r = self.run_cli("analyze", square_file, cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines()[1].startswith("1.0,")

    def test_phase1_subcommand(self, square_file, tmp_path):
        r = self.run_cli("phase1", square_file, cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert r.stdout.startswith("maximize")
        assert "basis:" in r.stdout

    def test_bench_subcommand(self, tmp_path):
        out = tmp_path / "results.csv"
        r = self.run_cli(
            "bench", "--generator", "tu-incidence", "--sizes", "4x2",
            "--trials", "2", "--seed", "7", "--out", str(out), cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        text = out.read_text()
        assert text.startswith("m,n,delta")

    def test_bench_reports_unchecked_trials(self, tmp_path):
        # 30x5 interval LPs lie past the oracle's enumeration guard (see
        # test_trials_past_the_oracle_guard_are_unchecked), 4x2 ones do not
        args = ["bench", "--generator", "interval-matrix", "--trials", "2", "--seed", "4"]
        r = self.run_cli(*args, "--sizes", "4x2,30x5", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert "2 of 4 trials unchecked: past the oracle's enumeration guard" in r.stderr
        r = self.run_cli(*args, "--sizes", "4x2", cwd=tmp_path)
        assert "0 of 2 trials unchecked" in r.stderr

    def test_dyadic_flags(self, square_file, tmp_path):
        r = self.run_cli(
            "solve", square_file, "--mode", "dyadic", "--bits", "40", "--seed", "3",
            cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        assert "status: optimal" in r.stdout

    def test_schedule_n52(self, square_file, tmp_path):
        r = self.run_cli("solve", square_file, "--schedule", "n52", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert "status: optimal" in r.stdout

    @pytest.mark.parametrize(
        "args, text, message",
        [
            # MetricsError
            (("analyze", "lp.lp"), "maximize 1 1\nst\n1 1 <= 1\n2 2 <= 3\n", "rank deficient"),
            # LPFormatError
            (("solve", "lp.lp"), "maximize 1 x\nst\n1 1 <= 1\n", "line 1: bad rational"),
            # RandomnessError
            (("solve", "lp.lp", "--mode", "dyadic", "--bits", "0"), None, "bits_per_draw"),
            # FileNotFoundError, an OSError
            (("solve", "missing.lp"), None, "No such file"),
            # HarnessError
            (("bench", "--sizes", "4"), None, "bad size token"),
            # OracleError: C(40, 8) LP rows past the enumeration guard
            (("oracle", "lp.lp"), "maximize " + "1 " * 8 + "\nst\n" + "1 0 0 0 0 0 0 0 <= 1\n" * 40,
             "enumeration guard"),
        ],
        ids=["metrics", "lp-format", "randomness", "missing-file", "harness", "oracle"],
    )
    def test_input_error_ends_in_one_line(self, square_file, tmp_path, args, text, message):
        # a fault of the input exits 2 with one line on stderr, no traceback
        (tmp_path / "lp.lp").write_text(text or open(square_file).read())
        r = self.run_cli(*args, cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1, r.stderr
        assert message in r.stderr and not r.stdout
