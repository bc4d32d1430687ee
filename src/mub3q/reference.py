"""Bundled reference examples and the checks that reproduce them.

The package ships the four worked constructions it is expected to
reproduce: a three-axes table (two completions), a two-axes table, a
one-axis table (first of two completions) and a no-axis table, together
with the published grids, curve equations, instantiated trace systems
and solution values.  `run_all_checks` re-derives everything from
scratch and compares.

Three of the 36 published curve equations (one-axis #2 and #7, no-axis
#7) are inconsistent with the grid printed alongside them: no generated
row satisfies them, and the grids themselves reproduce cell-for-cell.
Those three checks therefore fail by construction; the recomputed
relations are reported in the failure detail.  Everything else passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf8, mub, phasespace, solver
from .gf8 import from_token as tk
from .phasespace import ORIGIN, CurveRelation, StriationTable

# The four structure tuples a complete three-qubit MUB set can realize.
KNOWN_STRUCTURES = ((3, 0, 6), (2, 3, 4), (1, 6, 2), (0, 9, 0))


def _rel(l: tuple[str, str, str], m: tuple[str, str, str]) -> CurveRelation:
    return CurveRelation(
        lcoef=tuple(tk(t) for t in l), mcoef=tuple(tk(t) for t in m)
    )


_ID = ("1", "0", "0")
_ZERO = ("0", "0", "0")


@dataclass(frozen=True)
class Example:
    """One worked construction: its fixing, expected results, grid, curves."""

    name: str
    kind: str
    fixed: dict[str, str]  # tokens
    expected_free: tuple[tuple[str, ...], ...]  # expected solution tuples (tokens)
    # literal transcription of the instantiated trace system displayed for
    # this example: (lhs_terms, rhs) with rhs a bit or another term tuple;
    # term atoms are parameter names (str) or constant tokens prefixed "=".
    system: tuple
    grid: tuple[str, ...] | None  # 8 rows of 8 cells, top row is b = mu^6
    curves: tuple[CurveRelation, ...] | None
    curve_rows: tuple[int, ...] | None  # generated row matching each curve
    structures: tuple[tuple[int, int, int], ...]  # per expected solution


def _side(*terms):
    out = []
    for u, v in terms:
        out.append((u if not u.startswith("=") else tk(u[1:]),
                    v if not v.startswith("=") else tk(v[1:])))
    return tuple(out)


THREE_AXES = Example(
    name="three-axes",
    kind="three-axes",
    fixed={"l1": "m2", "l2": "m6"},
    expected_free=(("m3",), ("m5",)),
    system=(
        (_side(("l3", "=1")), 1),
        (_side(("l3", "=m2")), 1),
        (_side(("l3", "=m6")), 0),
    ),
    grid=(
        "1 8 6 4 9 7 5 3",
        "1 6 4 9 7 5 3 8",
        "1 4 9 7 5 3 8 6",
        "1 9 7 5 3 8 6 4",
        "1 7 5 3 8 6 4 9",
        "1 5 3 8 6 4 9 7",
        "1 3 8 6 4 9 7 5",
        "o 2 2 2 2 2 2 2",
    ),
    curves=(
        _rel(_ZERO, _ID),
        _rel(_ID, _ZERO),
        _rel(_ID, _ID),
        _rel(_ID, ("m", "0", "0")),
        _rel(_ID, ("m2", "0", "0")),
        _rel(_ID, ("m3", "0", "0")),
        _rel(_ID, ("m4", "0", "0")),
        _rel(_ID, ("m5", "0", "0")),
        _rel(_ID, ("m6", "0", "0")),
    ),
    # The published curve list for this table is ordered by slope, not by
    # construction order; the grid fixes the actual row of each curve.
    curve_rows=(1, 2, 3, 5, 7, 9, 4, 6, 8),
    structures=((3, 0, 6), (3, 0, 6)),
)

TWO_AXES = Example(
    name="two-axes",
    kind="two-axes",
    fixed={"b11": "m4", "b12": "m3", "b13": "m5", "a21": "1"},
    expected_free=(("m2", "m3"),),
    system=(
        (_side(("a22", "=m4")), 1),
        (_side(("a23", "=m4")), 1),
        (_side(("a23", "=m3")), _side(("a22", "=m5"))),
        (_side(("a22", "=m3")), 1),
        (_side(("a23", "=m3")), 1),
        (_side(("a23", "=m5")), _side(("a22", "=m6"))),
    ),
    grid=(
        "1 6 7 5 4 8 9 3",
        "1 5 6 4 3 7 8 9",
        "1 3 4 9 8 5 6 7",
        "1 4 5 3 9 6 7 8",
        "1 7 8 6 5 9 3 4",
        "1 8 9 7 6 3 4 5",
        "1 9 3 8 7 4 5 6",
        "o 2 2 2 2 2 2 2",
    ),
    curves=(
        _rel(_ZERO, _ID),
        _rel(_ID, _ZERO),
        _rel(_ID, ("m2", "m5", "m6")),
        _rel(_ID, ("m3", "0", "0")),
        _rel(_ID, ("1", "m2", "m")),
        _rel(_ID, ("m5", "m5", "m6")),
        _rel(_ID, ("m", "m2", "m")),
        _rel(_ID, ("m4", "m3", "m5")),
        _rel(_ID, ("m6", "m3", "m5")),
    ),
    curve_rows=(1, 2, 3, 4, 5, 6, 7, 8, 9),
    structures=((2, 3, 4),),
)

ONE_AXIS = Example(
    name="one-axis",
    kind="one-axis",
    fixed={
        "b11": "m4", "b12": "m3", "b13": "m",
        "a21": "1", "b22": "m2", "b23": "m6",
    },
    expected_free=(("m2", "m6", "m4"), ("m3", "m6", "m4")),
    system=(
        (_side(("a22", "b21")), 0),
        (_side(("a23", "b21")), 1),
        (_side(("a22", "=m6")), _side(("a23", "=m2"))),
        (_side(("a22", "=m4")), 1),
        (_side(("a23", "=m4")), 0),
        (_side(("a22", "=m"), ("a23", "=m3")), 0),
        (_side(("a22", "=m3")), 0),
        (_side(("a23", "=m3")), 1),
        (_side(("a22", "=m6"), ("a23", "=m")), 0),
    ),
    grid=(
        "1 7 2 3 5 2 3 6",
        "1 4 7 5 6 3 4 3",
        "1 5 6 7 4 9 9 4",
        "1 8 5 8 8 8 6 7",
        "1 2 9 6 9 5 7 2",
        "1 3 3 9 7 6 5 9",
        "1 6 4 4 2 7 2 5",
        "o 9 8 2 3 4 8 8",
    ),
    curves=(
        _rel(_ZERO, _ID),
        _rel(_ID, ("m5", "1", "m3")),
        _rel(_ID, ("0", "m5", "m6")),
        _rel(_ID, ("1", "m6", "m3")),
        _rel(_ID, ("m2", "m4", "m2")),
        _rel(_ID, ("m5", "m6", "m3")),
        _rel(_ID, ("m5", "m5", "m6")),
        _rel(_ID, ("m6", "m2", "m")),
        _rel(_ID, ("m", "m4", "m2")),
    ),
    curve_rows=(1, 2, 3, 4, 5, 6, 7, 8, 9),
    structures=((2, 3, 4), (2, 3, 4)),
)

NO_AXIS = Example(
    name="no-axis",
    kind="no-axis",
    fixed={
        "a11": "m2", "b11": "m5", "b12": "m3", "b13": "1",
        "a21": "m3", "b22": "m2", "b23": "m",
    },
    expected_free=(("1", "m3", "m2", "m", "1"),),  # the one published solution
    system=(
        (_side(("a12", "=m5")), 1),
        (_side(("a13", "=m5")), 0),
        (_side(("a12", "=1")), _side(("a13", "=m3"))),
        (_side(("a22", "b21")), 1),
        (_side(("a23", "b21")), 0),
        (_side(("a22", "=m")), _side(("a23", "=m2"))),
        (_side(("a22", "=m5"), ("a12", "b21")), 1),
        (_side(("a23", "=m5"), ("a13", "b21")), 0),
        (_side(("a22", "=1"), ("a12", "=m"), ("a23", "=m3"), ("a13", "=m2")), 0),
        (_side(("a12", "=m2"), ("a22", "=m3"), ("a13", "b21")), 1),
        (
            _side(("a12", "=m"), ("a23", "=m3"), ("a12", "b21")),
            _side(("=m5", "=1"), ("=m2", "b21")),
        ),
        (_side(("a22", "=m2"), ("a13", "=m"), ("a23", "=1"), ("a12", "=m2")), 0),
    ),
    grid=(
        "5 4 7 5 5 1 5 8",
        "8 6 4 1 3 3 6 7",
        "6 7 2 4 2 6 1 8",
        "8 1 3 9 7 9 3 4",
        "8 3 2 3 2 7 4 1",
        "2 2 1 9 4 9 7 8",
        "9 6 9 7 1 4 6 8",
        "o 2 9 5 5 6 5 3",
    ),
    curves=(
        _rel(_ID, ("m6", "m6", "m3")),
        _rel(("m", "1", "0"), ("m2", "m2", "0")),
        _rel(_ID, ("0", "m3", "m5")),
        _rel(_ID, ("m3", "m2", "m")),
        _rel(("m2", "m3", "0"), ("m3", "m2", "1")),
        _rel(("m5", "m", "0"), ("m3", "m5", "1")),
        _rel(_ID, ("m6", "1", "1")),
        _rel(("m5", "m4", "m2"), _ID),
        _rel(("m", "m", "0"), ("0", "m2", "1")),
    ),
    curve_rows=(1, 2, 3, 4, 5, 6, 7, 8, 9),
    structures=((2, 3, 4),),
)

EXAMPLES = (THREE_AXES, TWO_AXES, ONE_AXIS, NO_AXIS)

# Published curve equations that contradict the grid printed beside them
# (no generated row satisfies them); mapped to the recomputed relation.
# Acceptance criterion 05 reads this table: each printed entry must fail on
# its generated row, and each correction must be the unique b = M(a)
# relation of that row among all 512 mcoef triples.
# One-axis #7 as transcribed (b = m5*a + m5*a^2 + m6*a^4) is exactly the
# relation of two-axes row 6, so the slip is either in the source or in the
# transcription of ONE_AXIS.curves.  PAPER.md holds only the abstract of the
# source, so the repository cannot settle which; the transcribed value stays.
MISPRINTED_CURVES: dict[tuple[str, int], CurveRelation] = {
    ("one-axis", 2): _rel(_ID, ("m4", "m5", "m6")),
    ("one-axis", 7): _rel(_ID, ("m3", "m2", "m")),
    ("no-axis", 7): _rel(_ID, ("m4", "1", "1")),
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "pass": self.passed, "detail": self.detail}


def _scenario(example: Example) -> solver.Scenario:
    return solver.Scenario.make(example.kind, {n: tk(t) for n, t in example.fixed.items()})


def solve_example(example: Example) -> list[solver.Solution]:
    return solver.solve_scenario(_scenario(example))


def example_tables(example: Example) -> list[StriationTable]:
    """One table per expected solution, in solution order."""
    return _tables(example, solve_example(example))


def _tables(example: Example, sols: list[solver.Solution]) -> list[StriationTable]:
    want = [tuple(tk(t) for t in f) for f in example.expected_free]
    tables = []
    for w in want:
        match = [s for s in sols if s.free_values() == w]
        if not match:
            raise LookupError(f"expected solution {w} not produced for {example.name}")
        tables.append(phasespace.build_table(match[0].seed))
    return tables


def system_solutions(system, unknowns: tuple[str, ...]) -> list[tuple[int, ...]]:
    """Brute-force the displayed system over its unknowns (vectorized)."""
    n = len(unknowns)
    idx = np.arange(8**n, dtype=np.int64)
    elems = np.array(gf8.ELEMENTS, dtype=np.uint8)
    env = {
        name: elems[(idx // 8 ** (n - 1 - k)) % 8] for k, name in enumerate(unknowns)
    }
    mul_t = np.array([[gf8.mul(x, y) for y in range(8)] for x in range(8)], dtype=np.uint8)
    tr_t = np.array(gf8.TRACE, dtype=np.uint8)

    def side_bits(side):
        acc = None
        for u, v in side:
            a = env[u] if isinstance(u, str) else u
            b = env[v] if isinstance(v, str) else v
            term = mul_t[a, b]
            acc = term if acc is None else acc ^ term
        return tr_t[acc]

    mask = np.ones(8**n, dtype=bool)
    for lhs, rhs in system:
        left = side_bits(lhs)
        right = np.uint8(rhs) if isinstance(rhs, int) else side_bits(rhs)
        mask &= left == right
    out = []
    for h in np.flatnonzero(mask):
        out.append(tuple(int(gf8.ELEMENTS[(h // 8 ** (n - 1 - k)) % 8]) for k in range(n)))
    return out


def _fmt_tuples(tuples) -> str:
    return ", ".join("(" + ",".join(gf8.to_token(v) for v in t) + ")" for t in tuples)


def check_solutions(example: Example, sols: list[solver.Solution]) -> CheckResult:
    """Solver output matches the published solution values."""
    got = [s.free_values() for s in sols]
    want = [tuple(tk(t) for t in f) for f in example.expected_free]
    if example.kind == "no-axis":
        # only one solution is published; it must be present and valid
        present = [s for s in sols if s.free_values() == want[0]]
        ok = bool(present) and present[0].valid
        detail = f"{len(sols)} solutions, published one present and valid: {ok}"
    else:
        ok = got == want
        detail = f"got {_fmt_tuples(got)}, expected {_fmt_tuples(want)}"
    return CheckResult(f"{example.name} solution set", ok, detail)


def check_system(example: Example, sols: list[solver.Solution]) -> CheckResult:
    """The displayed trace system has the same solutions as the solver."""
    fromsys = system_solutions(example.system, _scenario(example).free_names())
    fromsolver = [s.free_values() for s in sols]
    ok = fromsys == fromsolver
    return CheckResult(
        f"{example.name} instantiated system",
        ok,
        f"system gives {_fmt_tuples(fromsys)}; solver gives {_fmt_tuples(fromsolver)}",
    )


def check_grid(example: Example, table: StriationTable) -> CheckResult:
    """The rendered grid matches the published one cell-for-cell."""
    rendered = phasespace.render_grid(table)
    cells = [line.split("| ", 1)[1] for line in rendered.strip().splitlines()[1:]]
    ok = tuple(cells) == example.grid
    diff = [i for i, (c, w) in enumerate(zip(cells, example.grid)) if c != w]
    return CheckResult(
        f"{example.name} grid",
        ok,
        "64 cells match" if ok else f"mismatch in grid line(s) {diff}",
    )


def check_curves(example: Example, table: StriationTable) -> list[CheckResult]:
    """Each published curve equation, evaluated on its generated row."""
    out = []
    for k, (rel, row_idx) in enumerate(zip(example.curves, example.curve_rows), start=1):
        row = table.rows[row_idx - 1]
        ok = all(rel.holds_at(p) for p in row + (ORIGIN,))
        name = f"{example.name} curve {k}"
        if ok:
            detail = f"holds on generated row {row_idx}"
        else:
            fitted = phasespace.fit_curve(row)
            detail = (
                f"published relation [{rel.text()}] does not hold on generated row "
                f"{row_idx}; it is inconsistent with the published grid, which does "
                f"reproduce; recomputed relation: [{fitted.text()}]"
            )
        out.append(CheckResult(name, ok, detail))
    return out


def check_mub(example: Example, reports: list[mub.MubReport]) -> list[CheckResult]:
    out = []
    for tokens, report in zip(example.expected_free, reports):
        label = f"{example.name} ({','.join(tokens)})"
        out.append(
            CheckResult(
                f"{label} MUB verification",
                report.passed,
                f"orthonormality defect {report.orthonormality_defect:.3e}, "
                f"unbiasedness defect {report.unbiasedness_defect:.3e}",
            )
        )
    return out


def check_structures(example: Example, reports: list[mub.MubReport]) -> list[CheckResult]:
    out = []
    for tokens, report, want in zip(example.expected_free, reports, example.structures):
        label = f"{example.name} ({','.join(tokens)})"
        got = report.structure
        ok = got in KNOWN_STRUCTURES and sum(got) == 9 and got == want
        out.append(
            CheckResult(
                f"{label} structure",
                ok,
                f"structure {got}, member of known set: {got in KNOWN_STRUCTURES}",
            )
        )
    return out


def run_all_checks() -> list[CheckResult]:
    """Re-derive every bundled reference result and compare.

    Each example is solved once, each of its tables built once and each
    table's MUB set verified once.  The MUB and structure checks of every
    example come after all the solution, system, grid and curve checks.
    """
    out: list[CheckResult] = []
    mub_checks: list[CheckResult] = []
    for example in EXAMPLES:
        sols = solve_example(example)
        tables = _tables(example, sols)
        out.append(check_solutions(example, sols))
        out.append(check_system(example, sols))
        out.append(check_grid(example, tables[0]))
        out.extend(check_curves(example, tables[0]))
        reports = [mub.verify_mub_set(table) for table in tables]
        mub_checks.extend(check_mub(example, reports))
        mub_checks.extend(check_structures(example, reports))
    return out + mub_checks
