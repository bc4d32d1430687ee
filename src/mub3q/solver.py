"""Exact solvers for the twelve seed equations.

Four fixing schemes are supported, one per number of coordinate axes
appearing in the striation table (three, two, one, none), plus a generic
partial-assignment solver.  Each term of the twelve equations is one `a`
parameter times one `b` parameter, so the equations are bilinear: once
the free parameters on one side are fixed, the bits of the other side's
free parameters satisfy 12 GF(2)-linear equations.  The solver sweeps
the side with fewer free parameters over GF(8) and solves the linear
system at each sweep point, which lists every solution and no others.

Solutions are returned in a fixed order: free parameters are sorted in
canonical parameter order, each by the element display order, so the
output is lexicographically sorted.  Degenerate assignments (seeds that
fail well-formedness or whose table fails validation) are returned with
valid=False rather than dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import gf8, phasespace
from .phasespace import PARAM_NAMES, TWELVE_EQUATIONS, SeedSet

SCENARIO_KINDS = ("three-axes", "two-axes", "one-axis", "no-axis", "generic")

# Fixed-parameter names required by each scheme (the rest of the seed is
# implied zero for the axis schemes; see the seed builders below).
_SCHEME_FIXED = {
    "three-axes": ("l1", "l2"),
    "two-axes": ("b11", "b12", "b13", "a21"),
    "one-axis": ("b11", "b12", "b13", "a21", "b22", "b23"),
    "no-axis": ("a11", "b11", "b12", "b13", "a21", "b22", "b23"),
}

MAX_FREE_DEFAULT = 6  # 8^6 assignments; anything larger needs allow_large

MAX_SOLUTIONS = 8**7  # output ceiling, whatever allow_large says

# Every term of the twelve equations is an `a` parameter times a `b` one,
# so fixing one side leaves the equations linear in the other.
assert all(p[0] == "a" and q[0] == "b" for eq in TWELVE_EQUATIONS for side in eq for p, q in side)

# Bit j of _TRACE_FORM[c] is tr(c * 2^j), so tr(c*u) = sum_j u_j * tr(c * 2^j)
# is the parity of _TRACE_FORM[c] & u.
_TRACE_FORM = tuple(
    sum(gf8.TRACE[gf8.mul(c, 1 << j)] << j for j in range(3)) for c in range(8)
)


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
        if kind not in SCENARIO_KINDS:
            raise InvalidInputError(f"unknown scenario kind: {kind!r}")
        names = _SCHEME_FIXED.get(kind)
        if names is not None and set(fixed) != set(names):
            raise InvalidInputError(
                f"scenario {kind!r} fixes exactly {', '.join(names)}"
            )
        if kind == "generic":
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
            _require_basis(fixed["b11"], fixed["b12"], fixed["b13"])
        order = names if names is not None else PARAM_NAMES
        return cls(kind=kind, fixed=tuple((n, fixed[n]) for n in order if n in fixed))

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
        return {
            "free": {n: gf8.to_token(v) for n, v in self.free},
            "seed": self.seed.to_json(),
            "valid": self.valid,
        }


def _check_fixed(fixed: dict[str, int]) -> list[str]:
    """Validate a partial fixing; returns the free names in canonical order."""
    for name in fixed:
        if name not in PARAM_NAMES:
            raise InvalidInputError(f"unknown parameter name: {name!r}")
    for v in fixed.values():
        gf8.check_element(v)
    return [n for n in PARAM_NAMES if n not in fixed]


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
    # tr(lhs) = tr(rhs) is tr(lhs + rhs) = 0: the terms with an unknown
    # factor must sum to the trace of the fully known ones.  Per equation:
    # (name of the known factor, bit shift of the unknown) for each term
    # with an unknown factor, and the fully known terms.
    plan = []
    for lhs, rhs in TWELVE_EQUATIONS:
        linear, constant = [], []
        for p, q in lhs + rhs:
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
        particular, basis = phasespace._solve_gf2(rows, rhs, 3 * len(unknown))
        if particular is not None:
            yield dict(zip(swept, values)), unknown, particular, basis


def count_assignments(fixed: dict[str, int]) -> int:
    """Number of assignments extending `fixed` that satisfy the twelve
    equations, counted without listing them (no cost guard applies)."""
    free = _check_fixed(fixed)
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
    free = _check_fixed(fixed)
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
    """Well-formed seed whose table passes every validation flag."""
    if not seed.is_well_formed():
        return False
    table = phasespace.build_table(seed, check_seed=False)
    return phasespace.validate_table(table).valid


def _package(assignments, free_names) -> list[Solution]:
    out = []
    for assignment in assignments:
        seed = SeedSet.from_params(assignment)
        free = tuple((n, assignment[n]) for n in free_names)
        out.append(Solution(seed=seed, free=free, valid=solution_is_valid(seed)))
    return out


def solve_generic(fixed: dict[str, int], *, allow_large: bool = False) -> list[Solution]:
    """Solve with an arbitrary partial fixing of the 12 parameters."""
    free_names = [n for n in PARAM_NAMES if n not in fixed]
    return _package(enumerate_assignments(fixed, allow_large=allow_large), free_names)


def _axes_seed_params(l1: int, l2: int, l3: int) -> dict[str, int]:
    return {
        "a11": 0, "b11": l1, "a12": 0, "b12": l2, "a13": 0, "b13": l3,
        "a21": l1, "b21": 0, "a22": l2, "b22": 0, "a23": l3, "b23": 0,
    }


def solve_three_axes(l1: int, l2: int) -> list[Solution]:
    """All l3 completing the three-axes seed (both rows on the axes)."""
    gf8.check_element(l1)
    gf8.check_element(l2)
    if l1 == 0 or l2 == 0 or l1 == l2:
        raise InvalidInputError("l1 and l2 must be distinct and nonzero")
    out = []
    for l3 in gf8.ELEMENTS:
        seed = SeedSet.from_params(_axes_seed_params(l1, l2, l3))
        if phasespace.check_twelve_equations(seed):
            out.append(
                Solution(seed=seed, free=(("l3", l3),), valid=solution_is_valid(seed))
            )
    return out


def _require_basis(b11: int, b12: int, b13: int) -> None:
    span = {0}
    for b in (b11, b12, b13):
        gf8.check_element(b)
        span |= {b ^ s for s in span}
    if len(span) != 8:
        raise InvalidInputError("b11, b12, b13 must be GF(2)-independent (a basis)")


def solve_two_axes(b11: int, b12: int, b13: int, a21: int) -> list[Solution]:
    """Row 1 on the vertical axis, row 2 on the horizontal one; solves a22, a23."""
    _require_basis(b11, b12, b13)
    gf8.check_element(a21)
    fixed = {
        "a11": 0, "b11": b11, "a12": 0, "b12": b12, "a13": 0, "b13": b13,
        "a21": a21, "b21": 0, "b22": 0, "b23": 0,
    }
    return _package(enumerate_assignments(fixed), ["a22", "a23"])


def solve_one_axis(
    b11: int, b12: int, b13: int, a21: int, b22: int, b23: int
) -> list[Solution]:
    """Row 1 on the vertical axis; solves b21, a22, a23."""
    _require_basis(b11, b12, b13)
    for v in (a21, b22, b23):
        gf8.check_element(v)
    fixed = {
        "a11": 0, "b11": b11, "a12": 0, "b12": b12, "a13": 0, "b13": b13,
        "a21": a21, "b22": b22, "b23": b23,
    }
    return _package(enumerate_assignments(fixed), ["b21", "a22", "a23"])


def solve_no_axis(
    a11: int, b11: int, b12: int, b13: int, a21: int, b22: int, b23: int
) -> list[Solution]:
    """No axis fixed; solves a12, a13, b21, a22, a23."""
    for v in (a11, b11, b12, b13, a21, b22, b23):
        gf8.check_element(v)
    fixed = {
        "a11": a11, "b11": b11, "b12": b12, "b13": b13,
        "a21": a21, "b22": b22, "b23": b23,
    }
    return _package(enumerate_assignments(fixed), ["a12", "a13", "b21", "a22", "a23"])


def solve_scenario(scenario: Scenario, *, allow_large: bool = False) -> list[Solution]:
    fixed = dict(scenario.fixed)
    if scenario.kind == "three-axes":
        return solve_three_axes(fixed["l1"], fixed["l2"])
    if scenario.kind == "two-axes":
        return solve_two_axes(fixed["b11"], fixed["b12"], fixed["b13"], fixed["a21"])
    if scenario.kind == "one-axis":
        return solve_one_axis(
            fixed["b11"], fixed["b12"], fixed["b13"],
            fixed["a21"], fixed["b22"], fixed["b23"],
        )
    if scenario.kind == "no-axis":
        return solve_no_axis(
            fixed["a11"], fixed["b11"], fixed["b12"], fixed["b13"],
            fixed["a21"], fixed["b22"], fixed["b23"],
        )
    return solve_generic(fixed, allow_large=allow_large)
