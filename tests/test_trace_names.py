"""The span recorder of the benchmark (perfbench/tracing.py) wraps module
attributes by name, so deleting or renaming one of them breaks
`perfbench/run.py --trace 1`.  This reads its list; it changes nothing.

The recorder also names a `driver.solve` span `phase1.solve` when the call
passes `_depth=1` by keyword, so the `phase1.*` per-layer metrics rest on
Phase 1 re-entering `solve` through the module attribute, once per solve
that runs it."""

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from test_golden import _solve_warm

from shadow_simplex import driver, harness, linalg, model, phase1, randomness, walk

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the file executes
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_wrapped_name_resolves(monkeypatch):
    tracing = load_tracing(monkeypatch)
    missing = [
        f"{module}.{attr}"
        for module, _, attr in tracing.WRAPPED
        if not hasattr(importlib.import_module(f"shadow_simplex.{module}"), attr)
    ]
    assert tracing.WRAPPED and not missing


@pytest.fixture
def solve_depths(monkeypatch):
    """The `_depth` keyword of every `driver.solve` call, None when absent."""
    depths = []
    inner = driver.solve

    def recording(*args, **kwargs):
        depths.append(kwargs.get("_depth"))
        return inner(*args, **kwargs)

    monkeypatch.setattr(driver, "solve", recording)
    return depths


def _cold(kind, seed):
    lp = harness.generate_tu_instance(kind, 6, 3, seed)
    return driver.solve(lp, driver.SolveConfig(rng=randomness.RngConfig(seed=seed)))


def test_cold_phase1_reenters_solve_once_at_depth_1(solve_depths):
    out = _cold("tu-incidence", 0)
    assert out.phase1_artificials > 0
    assert solve_depths == [None, 1]


@pytest.fixture
def setup_calls(monkeypatch):
    """Calls of `linalg.independent_rows` outside the crawl to a vertex, and
    of `model.integer_form`, counted through their module attributes."""
    calls = {"independent_rows": 0, "integer_form": 0}
    crawling = []

    def counted(module, attr, outside_crawl_only=False):
        inner = getattr(module, attr)

        def recording(*args, **kwargs):
            if not (outside_crawl_only and crawling):
                calls[attr] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, attr, recording)

    counted(linalg, "independent_rows", outside_crawl_only=True)
    counted(model, "integer_form")
    crawl = model.crawl_to_vertex

    def crawl_recording(*args, **kwargs):
        crawling.append(True)
        try:
            return crawl(*args, **kwargs)
        finally:
            crawling.pop()

    monkeypatch.setattr(model, "crawl_to_vertex", crawl_recording)
    return calls


def test_cold_solve_sets_up_once(setup_calls, solve_depths):
    # one rank pass and one integer form for the solve: its Phase 1 reads
    # the face's form and start off the face, and still re-enters solve
    out = _cold("tu-incidence", 0)
    assert out.status == "optimal" and out.phase1_artificials > 0
    assert setup_calls == {"independent_rows": 1, "integer_form": 1}
    assert solve_depths == [None, 1]


def test_warm_solve_never_reenters(solve_depths):
    out = _solve_warm("interval-matrix", 1)
    assert out.status == "optimal"
    assert solve_depths == [None]


def test_cold_start_violating_no_row_never_reenters(solve_depths):
    out = _cold("interval-matrix", 1)
    assert out.status == "optimal" and out.phase1_artificials == 0
    assert solve_depths == [None]


# the names the round loop and the box reach through their module
# attributes; the per-layer spans of `randomness.draw`, `model.bound_polytope`,
# `driver.facet_restriction` and `linalg.complement_basis_int` rest on them.
# The walk's tableau builds the box only at an improving edge no row blocks
# that c0 does not rise along, which a bounded LP's solve never meets
ROUND_LOOP_NAMES = (
    (randomness, "perturb_objective"),
    (randomness, "draw_lambda"),
    (model, "bound_polytope"),
    (driver, "facet_restriction"),
    (linalg, "complement_basis_int"),
)


@pytest.fixture
def round_loop_calls(monkeypatch):
    """Call counts of a recorder patched onto each round-loop name."""
    calls = {}
    for module, attr in ROUND_LOOP_NAMES:
        inner = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        calls[name] = 0

        def recording(*args, _inner=inner, _name=name, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(module, attr, recording)
    return calls


def test_cold_solve_reaches_the_round_loop_names(round_loop_calls):
    assert _cold("tu-incidence", 0).status == "optimal"
    assert round_loop_calls.pop("model.bound_polytope") == 0
    assert all(round_loop_calls.values()), round_loop_calls


def test_warm_solve_reaches_the_round_loop_names(round_loop_calls):
    assert _solve_warm("interval-matrix", 1).status == "optimal"
    assert round_loop_calls.pop("model.bound_polytope") == 0
    assert all(round_loop_calls.values()), round_loop_calls


def test_unbounded_solve_reaches_the_round_loop_names(round_loop_calls):
    # maximize x subject to x, y >= 0, at seed 245: the first walk rises up
    # the y axis, which no row blocks and c0 does not rise along, so it
    # appends the box, and the recession walk answers
    lp = model.make_lp([[-1, 0], [0, -1]], [0, 0], [1, 0])
    out = driver.solve(lp, driver.SolveConfig(rng=randomness.RngConfig(seed=245)))
    assert (out.status, out.route) == ("unbounded", "recession")
    assert all(round_loop_calls.values()), round_loop_calls


def test_recorder_counts_degenerate_optimality_checks(monkeypatch):
    # the recorder keeps is_optimal's first two arguments and, after each
    # solve, counts the calls whose vertex has more than n tight rows with
    # `.n` and `.tight_rows(point)` of the first and `.point` of the second;
    # here the same calls are counted from the tableau's slack numerators,
    # read before the certificate walk moves it
    tracing = load_tracing(monkeypatch)
    degenerate = []
    inner = driver.is_optimal

    def counting(form, x, tab, c0):
        assert tab.form is form and tab.stands_on(x.point)
        degenerate[-1] += tab.slack.count(0) > form.n
        return inner(form, x, tab, c0)

    monkeypatch.setattr(driver, "is_optimal", counting)
    pkg = SimpleNamespace(
        driver=driver, linalg=linalg, model=model, phase1=phase1, randomness=randomness, walk=walk
    )
    rec = tracing.SpanRecorder()
    rec.install(pkg)
    try:
        # a cold solve whose optimum has 4 tight rows in R^3, then a warm one
        solves = (
            lambda: _cold_seeded("interval-matrix", 1356726337, 1591348382),
            lambda: _solve_warm("interval-matrix", 1),
        )
        for k, run in enumerate(solves):
            degenerate.append(0)
            rec.begin_solve(k)
            assert run().status == "optimal"
            rec.end_solve()
            assert rec.counts.degenerate_calls == sum(degenerate)
    finally:
        rec.uninstall()
    assert driver.is_optimal is counting
    assert degenerate[0] > 0 and rec.counts.optimal_true >= 2


def _cold_seeded(kind, generator_seed, solver_seed):
    lp = harness.generate_tu_instance(kind, 6, 3, generator_seed)
    return driver.solve(lp, driver.SolveConfig(rng=randomness.RngConfig(seed=solver_seed)))
