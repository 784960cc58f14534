"""Span recorder that wraps module attributes of shadow_simplex.

The driver reaches every layer through a module attribute looked up at call
time (`walk.shadow_walk`, `model.tight_basis_at`, the driver's own globals),
so replacing the attribute with a timing wrapper records a span around each
call without touching the program.  Helpers that modules import by name
(everything in `shadow_simplex.rational`: `dot`, `norm_sq`,
`primitive_int_row`, ...) are bound at import time and cannot be wrapped from
outside; their cost stays in the self time of whichever wrapped caller runs
them.  Spans inside the program are left to a later change.

A span's self time is its duration minus the durations of its direct child
spans.  Every wrapped call nests inside the top-level `driver.solve` span, so
the per-name self times sum exactly to the traced solve time.
"""

from __future__ import annotations

import csv
import functools
import time
from dataclasses import dataclass, field

# (module, span group, attribute): every wrapped module attribute.  Several
# attributes may share a group; metric names are built from the groups.
WRAPPED = (
    ("driver", "driver.facet_restriction", "facet_restriction"),
    ("driver", "driver.restriction_coords", "restriction_coords"),
    ("driver", "driver.identify_basis_element", "identify_basis_element"),
    ("driver", "driver.is_optimal", "is_optimal"),
    ("driver", "driver.repeated_shadow_vertex", "repeated_shadow_vertex"),
    ("phase1", "phase1.build_phase1", "build_phase1"),
    ("phase1", "phase1.extract_bfs", "extract_bfs"),
    ("walk", "walk.shadow_walk", "shadow_walk"),
    ("walk", "walk.tight_rows_at", "tight_rows_at"),
    ("randomness", "randomness.draw", "perturb_objective"),
    ("randomness", "randomness.draw", "draw_lambda"),
    ("randomness", "randomness.cone_objective", "cone_objective"),
    ("model", "model.normalize", "normalize"),
    ("model", "model.bound_polytope", "bound_polytope"),
    ("model", "model.tight_basis_at", "tight_basis_at"),
    ("model", "model.certify_unbounded", "assert_unbounded_if_box_tight"),
    ("model", "model.rank_raise", "_objective_escape"),
    ("model", "model.rank_raise", "raise_rank_delta"),
    ("model", "model.rank_raise", "raise_rank_Delta"),
    ("model", "model.rank_raise", "extend_to_full_rank_delta"),
    ("model", "model.rank_raise", "extend_to_full_rank_Delta"),
    ("linalg", "linalg.independent_rows", "independent_rows"),
    ("linalg", "linalg.invert", "invert"),
    ("linalg", "linalg.complement_basis_int", "complement_basis_int"),
)

TOP = "driver.solve"
NESTED_PHASE1 = "phase1.solve"

# groups reported with a self time, and those also reported with a call count
SELF_TIMED = tuple(dict.fromkeys(group for _, group, _ in WRAPPED))
COUNTED = (
    "driver.facet_restriction",
    "driver.is_optimal",
    "driver.repeated_shadow_vertex",
    "walk.shadow_walk",
    "model.tight_basis_at",
    "linalg.independent_rows",
    "linalg.invert",
    "linalg.complement_basis_int",
)


@dataclass
class Totals:
    self_s: float = 0.0
    span_s: float = 0.0
    calls: int = 0


@dataclass
class SolveCounts:
    """Counts taken from return values at the wrapped boundaries."""

    walk_pivots: int = 0
    capped_walks: int = 0
    optimal_true: int = 0
    degenerate_calls: int = 0
    optimal_checks: list = field(default_factory=list)  # (boxed lp, vertex)


class SpanRecorder:
    """Records spans in memory while installed; single-threaded use only."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.totals: dict[str, Totals] = {}
        self.counts = SolveCounts()
        self.solve_id = -1
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self, pkg) -> None:
        """Wrap every attribute in WRAPPED, plus driver.solve; `pkg` holds
        the shadow_simplex modules by name."""
        self._patch(pkg.driver, "solve", self._wrap_solve(pkg.driver.solve))
        after = {"walk.shadow_walk": self._after_walk, "driver.is_optimal": self._after_is_optimal}
        for module_name, group, attr in WRAPPED:
            module = getattr(pkg, module_name)
            self._patch(module, attr, self._wrap(group, getattr(module, attr), after.get(group)))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _patch(self, module, attr, wrapped) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapped)

    # -- spans -------------------------------------------------------------

    def begin_solve(self, solve_id: int) -> None:
        self.solve_id = solve_id

    def end_solve(self) -> None:
        """Count the is_optimal calls of the solve that just returned whose
        vertex has more than n tight rows; called outside the timed region."""
        for lp, x in self.counts.optimal_checks:
            if len(lp.tight_rows(x.point)) > lp.n:
                self.counts.degenerate_calls += 1
        self.counts.optimal_checks.clear()

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, 0.0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child = frame
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        tot = self.totals.get(name)
        if tot is None:
            tot = self.totals[name] = Totals()
        tot.self_s += dur - child
        tot.span_s += dur
        tot.calls += 1
        self.spans.append(
            (span_id, parent[0] if parent is not None else -1, self.solve_id, name, start, end)
        )

    def _wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _wrap_solve(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = NESTED_PHASE1 if kwargs.get("_depth", 0) == 1 else TOP
            frame = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)

        return wrapper

    def _after_walk(self, args, res) -> None:
        self.counts.walk_pivots += res.pivots
        self.counts.capped_walks += not res.finished

    def _after_is_optimal(self, args, optimal) -> None:
        # degeneracy is judged in end_solve, outside every span
        self.counts.optimal_checks.append(args[:2])
        self.counts.optimal_true += bool(optimal)

    # -- output ------------------------------------------------------------

    def total(self, name: str) -> Totals:
        return self.totals.get(name, Totals())

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["span_id", "parent_id", "solve_id", "name", "start_s", "end_s"])
            for span_id, parent_id, solve_id, name, start, end in self.spans:
                w.writerow([span_id, parent_id, solve_id, name, f"{start:.9f}", f"{end:.9f}"])
