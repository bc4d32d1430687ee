"""Exact solvers for the twelve seed equations.

Four fixing schemes are supported, one per number of coordinate axes
appearing in the striation table (three, two, one, none), plus a generic
partial-assignment solver.  Each pair (i, j) of an equation expands to
two terms, tr(a_i*b_j) and tr(a_j*b_i), so the equations are bilinear:
once the free parameters on one side are fixed, the bits of the other
side's free parameters satisfy 12 GF(2)-linear equations.  The solver
sweeps the side with fewer free parameters over GF(8) and solves the
linear system at each sweep point, which lists every solution and no
others.

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
solution_is_valid and build_table add the equations for arbitrary seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

from . import gf8, phasespace
from .phasespace import PARAM_NAMES, TWELVE_EQUATIONS, SeedSet


class Scheme(NamedTuple):
    """A fixing scheme: the names the caller fixes (None: any subset of
    PARAM_NAMES) and the parameters the scheme sets to zero."""

    fixes: tuple[str, ...] | None
    zeros: tuple[str, ...]


# Row 1 on the vertical axis (a = 0), row 2 on the horizontal one (b = 0).
_ROW1_ON_AXIS = ("a11", "a12", "a13")
_ROW2_ON_AXIS = ("b21", "b22", "b23")

# The three-axes scheme fixes l1, l2 of the axes seed (_axes_seed_params)
# and solves for l3; every other scheme solves the twelve equations for the
# parameters it neither fixes nor sets to zero.
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

# Bit j of _TRACE_FORM[c] is tr(c * 2^j), so tr(c*u) = sum_j u_j * tr(c * 2^j)
# is the parity of _TRACE_FORM[c] & u.
_TRACE_FORM = tuple(
    sum(gf8.TRACE[gf8.mul(c, 1 << j)] << j for j in range(3)) for c in range(8)
)

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
            if len(phasespace.greedy_basis((fixed["b11"], fixed["b12"], fixed["b13"]))) < 3:
                raise InvalidInputError("b11, b12, b13 must be GF(2)-independent (a basis)")
        order = names if names is not None else PARAM_NAMES
        return cls(kind=kind, fixed=tuple((n, fixed[n]) for n in order if n in fixed))

    def pinned(self) -> dict[str, int]:
        """The fixed values plus the zeros the scheme implies."""
        return {**dict(self.fixed), **dict.fromkeys(SCHEMES[self.kind].zeros, 0)}

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


def _solve_gf2(rows: list[int], rhs: list[int], nvars: int):
    """Solve a GF(2) linear system given as bitmask rows.

    Returns (particular solution bitmask or None, nullspace basis list).
    """
    pivots: dict[int, tuple[int, int]] = {}  # pivot column -> mutually reduced (row, bit)
    for r, b in zip(rows, rhs):
        for col, (pr, pb) in pivots.items():
            if r >> col & 1:
                r ^= pr
                b ^= pb
        if r == 0:
            if b:
                return None, []
            continue
        col = r.bit_length() - 1
        for c2, (pr, pb) in list(pivots.items()):
            if pr >> col & 1:
                pivots[c2] = (pr ^ r, pb ^ b)
        pivots[col] = (r, b)
    particular = 0
    for c, (_, b) in pivots.items():
        if b:
            particular |= 1 << c
    basis = []
    for free in range(nvars):
        if free in pivots:
            continue
        vec = 1 << free
        for c, (r, _) in pivots.items():
            if r >> free & 1:
                vec |= 1 << c
        basis.append(vec)
    return particular, basis


def _solved_fixings(fixed: dict[str, int], free: list[str]):
    """Solve the twelve equations as GF(2) systems, one per sweep point.

    The free names of the side (`a` or `b`) with fewer of them are swept
    over GF(8).  Each sweep point leaves 12 GF(2)-linear equations in the
    bits of the other side's free names, the unknowns; unknown i owns
    bits 3i..3i+2 of a solution bitmask.

    Yields (swept values by name, unknown names, particular solution,
    nullspace basis) for each sweep point whose system is consistent.
    """
    free_a = [n for n in free if n[0] == "a"]
    free_b = [n for n in free if n[0] == "b"]
    swept, unknown = (free_a, free_b) if len(free_a) <= len(free_b) else (free_b, free_a)
    shift = {n: 3 * i for i, n in enumerate(unknown)}
    # The terms tr(a_i*b_j) + tr(a_j*b_i) of an equation's pairs sum to 0:
    # those with an unknown factor must sum to the trace of the fully
    # known ones.  Per equation: (name of the known factor, bit shift of
    # the unknown) for each term with an unknown factor, and the fully
    # known terms.
    plan = []
    for pairs in TWELVE_EQUATIONS:
        linear, constant = [], []
        for i, j in pairs:
            for u, v in ((i, j), (j, i)):
                p, q = PARAM_NAMES[2 * u - 2], PARAM_NAMES[2 * v - 1]  # a_u, b_v
                if p in shift:
                    linear.append((q, shift[p]))
                elif q in shift:
                    linear.append((p, shift[q]))
                else:
                    constant.append((p, q))
        plan.append((linear, constant))
    env = dict(fixed)
    for values in product(gf8.ELEMENTS, repeat=len(swept)):
        env.update(zip(swept, values))
        rows, rhs = [], []
        for linear, constant in plan:
            row = 0
            for c, s in linear:
                row ^= _TRACE_FORM[env[c]] << s
            acc = 0
            for p, q in constant:
                acc ^= gf8.mul(env[p], env[q])
            rows.append(row)
            rhs.append(gf8.TRACE[acc])
        particular, basis = _solve_gf2(rows, rhs, 3 * len(unknown))
        if particular is not None:
            yield dict(zip(swept, values)), unknown, particular, basis


def count_assignments(fixed: dict[str, int]) -> int:
    """Number of assignments extending `fixed` that satisfy the twelve
    equations, counted without listing them (no cost guard applies)."""
    free = Scenario.make("generic", fixed).free_names()
    return sum(1 << len(basis) for *_, basis in _solved_fixings(fixed, free))


def enumerate_assignments(
    fixed: dict[str, int], *, allow_large: bool = False
) -> list[dict[str, int]]:
    """All full 12-parameter assignments extending `fixed` that satisfy
    the twelve equations, in lexicographic order.

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
    for system in _solved_fixings(fixed, free):
        total += 1 << len(system[3])
        if total > MAX_SOLUTIONS:
            raise CostGuardError(
                f"more than {MAX_SOLUTIONS} (8^7) solutions; fix more parameters"
            )
        systems.append(system)
    solutions = []
    for solved, unknown, particular, basis in systems:
        span = [particular]
        for vec in basis:
            span += [x ^ vec for x in span]
        for x in span:
            solved.update((n, x >> 3 * i & 7) for i, n in enumerate(unknown))
            solutions.append(tuple(solved[n] for n in free))
    solutions.sort(key=lambda values: tuple(map(gf8.ORDER_KEY.__getitem__, values)))
    return [{**fixed, **dict(zip(free, values))} for values in solutions]


def solution_is_valid(seed: SeedSet) -> bool:
    """Seed whose table passes every validation flag, decided by the rule
    of the module docstring: the seed points are independent and the
    twelve equations hold."""
    return seed.rank() == 6 and not phasespace.failing_equations(seed)


def _package(assignments, free_names) -> list[Solution]:
    """Solutions of checked assignments: the seed is built directly, since
    enumerate_assignments yields only GF(8) values for all 12 names."""
    out = []
    for p in assignments:
        seed = SeedSet(
            row1=((p["a11"], p["b11"]), (p["a12"], p["b12"]), (p["a13"], p["b13"])),
            row2=((p["a21"], p["b21"]), (p["a22"], p["b22"]), (p["a23"], p["b23"])),
        )
        free = tuple((n, p[n]) for n in free_names)
        out.append(Solution(seed=seed, free=free, valid=seed.rank() == 6))
    return out


def _axes_seed_params(l1: int, l2: int, l3: int) -> dict[str, int]:
    params = dict.fromkeys(SCHEMES["three-axes"].zeros, 0)
    for c, l in enumerate((l1, l2, l3), start=1):
        params[f"b1{c}"] = params[f"a2{c}"] = l
    return params


def solve_scenario(scenario: Scenario, *, allow_large: bool = False) -> list[Solution]:
    """Solve a scenario.  Three-axes tries each l3 of the axes seed; every
    other kind enumerates the twelve equations over its free names."""
    if scenario.kind == "three-axes":
        fixed = dict(scenario.fixed)
        out = []
        for l3 in gf8.ELEMENTS:
            seed = SeedSet.from_params(_axes_seed_params(fixed["l1"], fixed["l2"], l3))
            if not phasespace.failing_equations(seed):
                out.append(Solution(seed=seed, free=(("l3", l3),), valid=seed.rank() == 6))
        return out
    assignments = enumerate_assignments(scenario.pinned(), allow_large=allow_large)
    return _package(assignments, scenario.free_names())


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
