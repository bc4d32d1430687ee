"""Exact solvers for the twelve seed equations.

Four fixing schemes are supported, one per number of coordinate axes
appearing in the striation table (three, two, one, none), plus a generic
partial-assignment solver.  Every scheme pins some of the 12 parameters
(Scenario.pinned) and goes through the one solver, enumerate_assignments.
Each pair (i, j) of an equation expands to two terms, tr(a_i*b_j) and
tr(a_j*b_i), so the equations are bilinear and unchanged when every
point's a and b are swapped: once the free coordinates on one side are
fixed, the bits of the other side's free coordinates satisfy 12
GF(2)-linear equations.  The solver sweeps the side with fewer free
coordinates over GF(8) and solves the linear system at each sweep point,
which lists every solution and no others.

Solutions are returned in a fixed order: free parameters are sorted in
canonical parameter order, each by the element display order, so the
output is lexicographically sorted.  Assignments whose seed points are
GF(2)-dependent are returned with valid=False rather than dropped.

A solution is valid exactly when its six seed points are GF(2)-independent.
Every table point is the sum of the seed points that its coefficient
vector in GF(2)^6 selects, and the 63 table positions carry the 63
nonzero vectors once each; so the 63 points are distinct and nonzero,
each row plus the origin a 3-dimensional subspace and the 9 rows a
partition, iff the seed points are independent.  The twelve equations
are the row-commutation conditions, and every solution satisfies them.
Validity is therefore one rank test per solution (SeedSet.rank);
solution_is_valid and build_table add failing_equations for any seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

from . import gf8, phasespace
from .phasespace import PARAM_NAMES, SeedSet


class Scheme(NamedTuple):
    """A fixing scheme: the names the caller fixes (None: any subset of
    PARAM_NAMES) and the parameters the scheme sets to zero."""

    fixes: tuple[str, ...] | None
    zeros: tuple[str, ...]


# Row 1 on the vertical axis (a = 0), row 2 on the horizontal one (b = 0).
_ROW1_ON_AXIS = ("a11", "a12", "a13")
_ROW2_ON_AXIS = ("b21", "b22", "b23")

# Every scheme solves the twelve equations for the parameters it neither
# fixes nor sets to zero.  Three-axes places l1 at b11 and a21 and l2 at
# b12 and a22 (Scenario.pinned), and its l3 is a solution's b13 = a23.
SCHEMES: dict[str, Scheme] = {
    "three-axes": Scheme(("l1", "l2"), _ROW1_ON_AXIS + _ROW2_ON_AXIS),
    "two-axes": Scheme(("b11", "b12", "b13", "a21"), _ROW1_ON_AXIS + _ROW2_ON_AXIS),
    "one-axis": Scheme(("b11", "b12", "b13", "a21", "b22", "b23"), _ROW1_ON_AXIS),
    "no-axis": Scheme(("a11", "b11", "b12", "b13", "a21", "b22", "b23"), ()),
    "generic": Scheme(None, ()),
}

SCENARIO_KINDS = tuple(SCHEMES)

MAX_FREE_DEFAULT = 6  # 8^6 assignments; anything larger needs allow_large

MAX_SOLUTIONS = 8**7  # output ceiling, whatever allow_large says

# Compact JSON text of each element's token and of each point packed as
# a << 3 | b, from which Solution.json_text is joined.
_TOKEN_TEXT = tuple(f'"{t}"' for t in gf8.TOKEN_OF)
_POINT_TEXT = tuple(f"[{_TOKEN_TEXT[x >> 3]},{_TOKEN_TEXT[x & 7]}]" for x in range(64))


class InvalidInputError(ValueError):
    """A solver precondition was violated (bad fixing, dependent triple...)."""


class CostGuardError(InvalidInputError):
    """Refused enumeration: too many free parameters without allow_large,
    or more than MAX_SOLUTIONS solutions."""


@dataclass(frozen=True)
class Scenario:
    """A fixing scheme plus its fixed parameter values."""

    kind: str
    fixed: tuple[tuple[str, int], ...]

    @classmethod
    def make(cls, kind: str, fixed: dict[str, int]) -> "Scenario":
        if not isinstance(kind, str) or kind not in SCHEMES:
            raise InvalidInputError(f"unknown scenario kind: {kind!r}")
        names = SCHEMES[kind].fixes
        if names is not None and set(fixed) != set(names):
            raise InvalidInputError(
                f"scenario {kind!r} fixes exactly {', '.join(names)}"
            )
        if names is None:
            for name in fixed:
                if name not in PARAM_NAMES:
                    raise InvalidInputError(f"unknown parameter name: {name!r}")
        for v in fixed.values():
            gf8.check_element(v)
        if kind == "three-axes":
            l1, l2 = fixed["l1"], fixed["l2"]
            if l1 == 0 or l2 == 0 or l1 == l2:
                raise InvalidInputError("l1 and l2 must be distinct and nonzero")
        elif kind in ("two-axes", "one-axis"):
            if len(phasespace.echelon((fixed["b11"], fixed["b12"], fixed["b13"]))[0]) < 3:
                raise InvalidInputError("b11, b12, b13 must be GF(2)-independent (a basis)")
        order = names if names is not None else PARAM_NAMES
        return cls(kind=kind, fixed=tuple((n, fixed[n]) for n in order if n in fixed))

    def pinned(self) -> dict[str, int]:
        """The fixed parameter values plus the zeros the scheme implies;
        three-axes puts l1 at b11 and a21, and l2 at b12 and a22."""
        fixed = dict(self.fixed)
        if self.kind == "three-axes":
            l1, l2 = fixed["l1"], fixed["l2"]
            fixed = {"b11": l1, "a21": l1, "b12": l2, "a22": l2}
        return {**fixed, **dict.fromkeys(SCHEMES[self.kind].zeros, 0)}

    def free_names(self) -> tuple[str, ...]:
        """The names solved for, in PARAM_NAMES order (l3 for three-axes)."""
        if self.kind == "three-axes":
            return ("l3",)
        pinned = self.pinned()
        return tuple(n for n in PARAM_NAMES if n not in pinned)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "fixed": {n: gf8.to_token(v) for n, v in self.fixed},
        }

    @classmethod
    def from_json(cls, obj) -> "Scenario":
        if (
            not isinstance(obj, dict)
            or set(obj) != {"kind", "fixed"}
            or not isinstance(obj["fixed"], dict)
        ):
            raise InvalidInputError('a scenario must be {"kind": ..., "fixed": {...}}')
        fixed = {n: gf8.from_token(t) for n, t in obj["fixed"].items()}
        return cls.make(obj["kind"], fixed)


@dataclass(frozen=True)
class Solution:
    """One satisfying assignment: the full seed, the solved values, validity."""

    seed: SeedSet
    free: tuple[tuple[str, int], ...]
    valid: bool

    def free_values(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.free)

    def to_json(self) -> dict:
        # The solver built every value from GF(8), so the token table is
        # read without gf8.to_token's element check.
        tok = gf8.TOKEN_OF
        return {
            "free": {n: tok[v] for n, v in self.free},
            "seed": {
                "row1": [[tok[a], tok[b]] for a, b in self.seed.row1],
                "row2": [[tok[a], tok[b]] for a, b in self.seed.row2],
            },
            "valid": self.valid,
        }

    def json_text(self) -> str:
        """to_json() as compact JSON text, joined from the token tables."""
        free = ",".join(f'"{n}":{_TOKEN_TEXT[v]}' for n, v in self.free)
        row1, row2 = (
            ",".join([_POINT_TEXT[a << 3 | b] for a, b in row])
            for row in (self.seed.row1, self.seed.row2)
        )
        valid = "true" if self.valid else "false"
        return f'{{"free":{{{free}}},"seed":{{"row1":[{row1}],"row2":[{row2}]}},"valid":{valid}}}'


def _solve_gf2(system: list[tuple[int, int]], unknown: int):
    """Solve a GF(2) linear system of (row, bit) pairs, each row a bitmask
    over the columns set in `unknown`.

    Returns (particular solution, nullspace basis) as bitmasks over those
    columns, or None if the system is inconsistent: echelon of the rows
    row << 1 | bit has a pivot at bit 0.  A pivot's row holds no column
    above its own, so one pass over the pivots in increasing order sets
    each pivot column, in the particular solution (free columns 0) and in
    the nullspace vector of each free column.
    """
    pivots, _ = phasespace.echelon([r << 1 | b for r, b in system])
    if 0 in pivots:
        return None
    particular = 0
    columns = range(unknown.bit_length())
    basis = [1 << c for c in columns if unknown >> c & 1 and c + 1 not in pivots]
    for top in sorted(pivots):
        col = 1 << (top - 1)
        below = pivots[top] >> 1 ^ col
        if pivots[top] & 1 ^ (below & particular).bit_count() & 1:
            particular |= col
        basis = [v | col if (below & v).bit_count() & 1 else v for v in basis]
    return particular, basis


def _solved_fixings(fixed: dict[str, int]):
    """Solve the twelve equations as GF(2) systems, one per sweep point.

    The free coordinates of the side with fewer of them run over GF(8);
    at each sweep point, phasespace.equation_rows gives the rows over the
    other side's coordinates o, whose fixed bits move to the right-hand
    side.

    Yields (swept side, 0 for a and 1 for b; the swept coordinates; o with
    its unknown bits zero; particular solution; nullspace basis) for each
    sweep point whose system is consistent.
    """
    a, b = ([fixed.get(PARAM_NAMES[2 * i + side]) for i in range(6)] for side in (0, 1))
    side = 0 if a.count(None) <= b.count(None) else 1
    swept, other = (a, b) if side == 0 else (b, a)
    known = sum(v << 3 * j for j, v in enumerate(other) if v is not None)
    unknown = sum(7 << 3 * j for j, v in enumerate(other) if v is None)
    slots = [i for i, v in enumerate(swept) if v is None]
    for values in product(gf8.ELEMENTS, repeat=len(slots)):
        for i, v in zip(slots, values):
            swept[i] = v
        system = [
            (row & unknown, (row & known).bit_count() & 1)
            for row in phasespace.equation_rows(swept)
        ]
        solved = _solve_gf2(system, unknown)
        if solved is not None:
            yield (side, tuple(swept), known, *solved)


def count_assignments(fixed: dict[str, int]) -> int:
    """Number of assignments extending `fixed` that satisfy the twelve
    equations, counted without listing them (no cost guard applies)."""
    Scenario.make("generic", fixed)  # checks the names and values
    return sum(1 << len(basis) for *_, basis in _solved_fixings(fixed))


def enumerate_assignments(
    fixed: dict[str, int], *, allow_large: bool = False
) -> list[dict[str, int]]:
    """All full 12-parameter assignments extending `fixed` that satisfy
    the twelve equations, in lexicographic order, keys in PARAM_NAMES order.

    Free parameters run in canonical order, each over the element
    display order.  More than MAX_FREE_DEFAULT free parameters is
    refused unless allow_large is set.  More than MAX_SOLUTIONS
    solutions is always refused, before any of them is listed.
    """
    free = Scenario.make("generic", fixed).free_names()
    if len(free) > MAX_FREE_DEFAULT and not allow_large:
        raise CostGuardError(
            f"{len(free)} free parameters means 8^{len(free)} assignments; "
            "pass allow_large to enumerate anyway"
        )
    systems, total = [], 0
    for system in _solved_fixings(fixed):
        total += 1 << len(system[4])
        if total > MAX_SOLUTIONS:
            raise CostGuardError(
                f"more than {MAX_SOLUTIONS} (8^7) solutions; fix more parameters"
            )
        systems.append(system)
    solutions, values = [], [0] * 12  # values in PARAM_NAMES order: a11, b11, ...
    for side, swept, known, particular, basis in systems:
        span = [known | particular]
        for vec in basis:
            span += [x ^ vec for x in span]
        values[side::2] = swept
        for o in span:
            values[1 - side::2] = [o >> 3 * j & 7 for j in range(6)]
            solutions.append(tuple(values))
    solutions.sort(key=lambda values: tuple(map(gf8.ORDER_KEY.__getitem__, values)))
    return [dict(zip(PARAM_NAMES, values)) for values in solutions]


def solution_is_valid(seed: SeedSet) -> bool:
    """Seed whose table passes every validation flag, decided by the rule
    of the module docstring: the seed points are independent and the
    twelve equations hold."""
    return seed.rank() == 6 and not phasespace.failing_equations(seed)


def solve_scenario(scenario: Scenario, *, allow_large: bool = False) -> list[Solution]:
    """Solve a scenario: enumerate the twelve equations over the names its
    pinned values leave free.  Three-axes keeps the assignments with
    b13 = a23 and reports that value as l3."""
    three_axes = scenario.kind == "three-axes"
    names = scenario.free_names()
    out = []
    for p in enumerate_assignments(scenario.pinned(), allow_large=allow_large):
        if three_axes and p["b13"] != p["a23"]:
            continue
        v = tuple(p.values())
        points = tuple(zip(v[::2], v[1::2]))
        seed = SeedSet(row1=points[:3], row2=points[3:])
        free = (("l3", p["b13"]),) if three_axes else tuple((n, p[n]) for n in names)
        out.append(Solution(seed=seed, free=free, valid=seed.rank() == 6))
    return out


def solve_generic(fixed: dict[str, int], *, allow_large: bool = False) -> list[Solution]:
    """Solve with an arbitrary partial fixing of the 12 parameters."""
    return solve_scenario(Scenario.make("generic", fixed), allow_large=allow_large)


def solve_three_axes(l1: int, l2: int) -> list[Solution]:
    """All l3 completing the three-axes seed (both rows on the axes)."""
    return solve_scenario(Scenario.make("three-axes", {"l1": l1, "l2": l2}))


def solve_two_axes(b11: int, b12: int, b13: int, a21: int) -> list[Solution]:
    """Row 1 on the vertical axis, row 2 on the horizontal one; solves a22, a23."""
    fixed = {"b11": b11, "b12": b12, "b13": b13, "a21": a21}
    return solve_scenario(Scenario.make("two-axes", fixed))


def solve_one_axis(
    b11: int, b12: int, b13: int, a21: int, b22: int, b23: int
) -> list[Solution]:
    """Row 1 on the vertical axis; solves b21, a22, a23."""
    fixed = {"b11": b11, "b12": b12, "b13": b13, "a21": a21, "b22": b22, "b23": b23}
    return solve_scenario(Scenario.make("one-axis", fixed))


def solve_no_axis(
    a11: int, b11: int, b12: int, b13: int, a21: int, b22: int, b23: int
) -> list[Solution]:
    """No axis fixed; solves a12, a13, b21, a22, a23."""
    fixed = {"a11": a11, "b11": b11, "b12": b12, "b13": b13,
             "a21": a21, "b22": b22, "b23": b23}
    return solve_scenario(Scenario.make("no-axis", fixed))
