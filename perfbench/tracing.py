"""Spans and counts around the public functions of mub3q, installed from
benchmark code at the binding each caller looks up.

Spans nest on one stack (the workload runs on one thread), and are folded
into per-name totals as they close: calls, inclusive time, and self time,
which is the span's duration minus the durations of the spans directly
inside it.  Counters are updated after the wrapped call returns.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.stack: list[float] = []  # child time accumulated per open span
        self.spans: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Counter = Counter()
        self.fits: Counter = Counter()  # (row, lcoef, mcoef) of fit_curve calls

    def call(self, name: str, fn, *args, **kwargs):
        self.stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            child = self.stack.pop()
            if self.stack:
                self.stack[-1] += dt
            agg = self.spans[name]
            agg[0] += 1
            agg[1] += dt
            agg[2] += dt - child

    def wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return traced


def _count_enumeration(tracer, args, kwargs, result):
    fixed = args[0] if args else kwargs["fixed"]
    tracer.counts["solver.enumerate_assignments.candidates"] += 8 ** (12 - len(fixed))
    tracer.counts["solver.enumerate_assignments.hits"] += len(result)


def _count_valid(tracer, args, kwargs, result):
    tracer.counts["solver.solution_is_valid.valid"] += bool(result)


def _record_fit(tracer, args, kwargs, result):
    row = args[0] if args else kwargs["row"]
    tracer.fits[(tuple(row), tuple(result.lcoef), tuple(result.mcoef))] += 1


# (module, attribute the callers look up, span name, counter).  `mub` calls
# its own binding of class_from_row (`from .pauli import ...`), so that is
# the one wrapped; every other caller goes through `module.attribute`.
TARGETS = (
    ("solver", "enumerate_assignments", "solver.enumerate_assignments", _count_enumeration),
    ("solver", "solution_is_valid", "solver.solution_is_valid", _count_valid),
    ("phasespace", "build_table", "phasespace.build_table", None),
    ("phasespace", "validate_table", "phasespace.validate_table", None),
    ("phasespace", "failing_equations", "phasespace.failing_equations", None),
    ("phasespace", "fit_curve", "phasespace.fit_curve", _record_fit),
    ("phasespace", "render_grid", "phasespace.render_grid", None),
    ("mub", "class_from_row", "pauli.class_from_row", None),
    ("mub", "eigenbasis", "mub.eigenbasis", None),
    ("mub", "verify_mub_set", "mub.verify_mub_set", None),
    ("mub", "structure", "mub.structure", None),
    ("reference", "solve_example", "reference.solve_example", None),
    ("reference", "system_solutions", "reference.system_solutions", None),
    ("reference", "run_all_checks", "reference.run_all_checks", None),
)


@contextmanager
def installed(tracer: Tracer, package):
    """Replace each target binding with a traced wrapper while the block runs."""
    saved = []
    for module_name, attr, name, on_result in TARGETS:
        module = getattr(package, module_name)
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), on_result))
    try:
        yield tracer
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)
