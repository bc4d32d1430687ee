"""Exact solvers for the twelve seed equations.

Four fixing schemes are supported, one per number of coordinate axes
appearing in the striation table (three, two, one, none), plus a generic
partial fixing; SCHEMES states each.  solve_scenario(Scenario.make(kind,
fixed)) solves any of them: every scheme pins some of the 12 parameters
(Scenario.pinned) and goes through the one solver, enumerate_assignments.
Each pair (i, j) of an equation expands to two terms, tr(a_i*b_j) and
tr(a_j*b_i), so the equations are bilinear and unchanged when every
point's a and b are swapped: once the free coordinates on one side are
fixed, the bits of the other side's free coordinates satisfy 12
GF(2)-linear equations.  The solver sweeps the side with fewer free
coordinates over GF(8) and solves the linear system at each sweep point,
which lists every solution and no others.  The rows are linear in the
swept coordinates too, so the sweep is a walk that sets one coordinate
per level.  Each node carries its solution set, a particular solution
plus a nullspace basis; each row restricts it once the coordinates the
row depends on are set, and an empty set drops every point below it.

Solutions are returned in a fixed order: free parameters are sorted in
canonical parameter order, each by the element display order, so the
output is lexicographically sorted.  Assignments whose seed points are
GF(2)-dependent are returned with valid=False rather than dropped.  The
one form of a listed solution is an int, its key (see Solution), and
integer order is that order.

A solution is valid exactly when its six seed points are GF(2)-independent.
Every table point is the sum of the seed points that its coefficient
vector in GF(2)^6 selects, and the 63 table positions carry the 63
nonzero vectors once each (phasespace.COEFFICIENTS, whose rows are the 9
GF(8)-lines through the origin); so the 63 points are distinct and
nonzero, each row plus the origin a 3-dimensional subspace and the 9
rows a partition, iff the seed points are independent.  The twelve equations
are the row-commutation conditions, and every solution satisfies them.
solution_is_valid and build_table test the rank (SeedSet.rank) and add
failing_equations for any seed.

For a solution the rank is read off the symplectic form pulled back to
GF(2)^6, f(e_i, e_j) = omega(p_i, p_j).  The twelve equations are linear
in f, and the forms that satisfy them are 0 and seven nondegenerate ones
(test_forms_satisfying_the_equations_are_nondegenerate).  If the seed map
T: e_i -> p_i is injective it is a bijection onto GF(8)^2, so f is the
nondegenerate omega carried over by T and is not 0.  If T v = 0 for some
v != 0, then f(v, .) = omega(T v, T .) = 0, so f is degenerate and hence
0.  So a solution is valid iff f is not 0.  Rows 1 and 2 are isotropic
(equations 1-6), so f is not 0 iff some point of row 2 anticommutes with
some point of row 1: iff C = PERP[x1] & PERP[x2] & PERP[x3] misses x4,
x5 or x6, for the packed points x1..x6.  This is _form_is_nonzero, one
table test per solution with no elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
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
# Memory budget: a listed key holds about 40 bytes (the int and its list
# slot) and peaks at about 58 during the solve; solve_scenario's Solution
# tuples add about 64 more.  The CLI's JSON output lists keys only (see
# scenario_keys), so at the ceiling it would need about 140 MB (estimated,
# not run).  `solve` of 622,592 solutions peaks at 52 MB RSS, import
# included; the CI step "Bounded solve memory" requires at most 128 MB.

# _SHIFT[n] is the shift of n's digit in a solution key (see Solution);
# l3, the three-axes free name, is read as b13.  Seed point i is the
# 6-bit chunk key >> 6*(5-i) & 63; coordinate j of side s (0: the a's,
# 1: the b's) has shift 33 - 6*j - 3*s.
_SHIFT = {n: 33 - 3 * i for i, n in enumerate(PARAM_NAMES)}
_SHIFT["l3"] = _SHIFT["b13"]

# Per chunk: its point (a, b) and the point packed as a << 3 | b.
_CHUNK_POINT = tuple((gf8.ELEMENTS[c >> 3], gf8.ELEMENTS[c & 7]) for c in range(64))
_CHUNK_PACKED = tuple(map(phasespace.pack, _CHUNK_POINT))

# Compact JSON text, per digit, of a token and of each free name's entry,
# and per chunk of a point, from which json_texts joins a solution's text.
_TOKEN_TEXT = tuple(f'"{t}"' for t in gf8.TOKENS)
_FREE_TEXT = {n: tuple(f'"{n}":{t}' for t in _TOKEN_TEXT) for n in _SHIFT}
_CHUNK_TEXT = tuple(f"[{_TOKEN_TEXT[c >> 3]},{_TOKEN_TEXT[c & 7]}]" for c in range(64))


def _spread(side: int, j: int) -> tuple[int, ...]:
    """The key digits of coordinates j, j+1, j+2 of one side, indexed by
    their 9 bits as the sweep packs them."""
    x, y, z = ([gf8.ORDER_KEY[v] << 33 - 6 * i - 3 * side for v in range(8)]
               for i in range(j, j + 3))
    return tuple(dx | dy | dz for dz in z for dy in y for dx in x)


_SPREAD = tuple((_spread(side, 0), _spread(side, 3)) for side in (0, 1))


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
            if len(phasespace.echelon((fixed["l1"], fixed["l2"]))[0]) < 2:
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


def _form_is_nonzero(key: int) -> bool:
    """Validity of a solution key, by the form rule of the module
    docstring: some point of row 2 anticommutes with some point of row 1."""
    x, perp = _CHUNK_PACKED, phasespace.PERP
    c = perp[x[key >> 30]] & perp[x[key >> 24 & 63]] & perp[x[key >> 18 & 63]]
    return not c >> x[key >> 12 & 63] & c >> x[key >> 6 & 63] & c >> x[key & 63] & 1


class Solution(NamedTuple):
    """One satisfying assignment: its key and the names solved for.

    The key is a 36-bit int that holds the gf8.ORDER_KEY digit of each of
    the 12 values, 3 bits each, in PARAM_NAMES order with a11 most
    significant, so integer order is output order.  The seed, the solved
    values and validity (by the form rule of the module docstring) are
    read off the key; json_texts joins its text from the module's tables.
    """

    key: int
    names: tuple[str, ...]

    @property
    def seed(self) -> SeedSet:
        points = [_CHUNK_POINT[self.key >> s & 63] for s in (30, 24, 18, 12, 6, 0)]
        return SeedSet(row1=tuple(points[:3]), row2=tuple(points[3:]))

    @property
    def free(self) -> tuple[tuple[str, int], ...]:
        return tuple((n, gf8.ELEMENTS[self.key >> _SHIFT[n] & 7]) for n in self.names)

    @property
    def valid(self) -> bool:
        return _form_is_nonzero(self.key)

    def free_values(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.free)

    def to_json(self) -> dict:
        return {
            "free": {n: gf8.to_token(v) for n, v in self.free},
            "seed": self.seed.to_json(),
            "valid": self.valid,
        }

    def json_text(self) -> str:
        """to_json() as compact JSON text (see json_texts)."""
        return next(json_texts((self.key,), self.names))


def json_texts(keys, names: tuple[str, ...]):
    """Yield, key by key, the compact JSON text of Solution(key,
    names).to_json(), joined from the module's text tables."""
    t = _CHUNK_TEXT
    free_text = [(_SHIFT[n], _FREE_TEXT[n]) for n in names]
    for k in keys:
        free = ",".join([text[k >> shift & 7] for shift, text in free_text])
        valid = "true" if _form_is_nonzero(k) else "false"
        yield (
            f'{{"free":{{{free}}},"seed":{{"row1":[{t[k >> 30]},{t[k >> 24 & 63]},'
            f'{t[k >> 18 & 63]}],"row2":[{t[k >> 12 & 63]},{t[k >> 6 & 63]},{t[k & 63]}]}},'
            f'"valid":{valid}}}'
        )


def _restrict(particular: int, basis: list[int], rows):
    """Restrict the solution set particular + span(basis) to the rows
    row << 1 | bit, each row a bitmask over the basis' columns.

    The first basis vector a row hits (odd parity) is its pivot: the
    pivot leaves the basis and is added to each later vector the row
    hits and, when particular misses the row's bit, to particular.  Then
    the vectors left have parity 0 on the row and particular has the
    row's bit, so the new set is the old one's solutions of the row.  A
    row that no vector hits holds on the whole set or on none of it.
    Returns (particular, basis), or None if the set is empty.
    """
    for row in rows:
        mask = row >> 1
        pivot, rest = 0, []
        for v in basis:
            if (mask & v).bit_count() & 1:
                if not pivot:
                    pivot = v
                    continue
                v ^= pivot
            rest.append(v)
        if (row ^ (mask & particular).bit_count()) & 1:
            if not pivot:
                return None
            particular ^= pivot
        basis = rest
    return particular, basis


def _solved_fixings(fixed: dict[str, int]):
    """Solve the twelve equations as GF(2) systems, one per sweep point.

    The free coordinates of the side with fewer of them run over GF(8),
    one level of a walk per coordinate.  The rows that
    phasespace.equation_rows gives over the other side's coordinates o
    are linear in the swept side (TRACE_FORM[0] is 0), and so is each
    row augmented as (row & unknown o bits) << 1 | parity of its fixed
    bits: the walk builds the fixed part and each swept coordinate's
    part once per fixing and adds one part per level.  Each node holds
    its solution set over the unknown o bits, a particular solution and
    a nullspace basis, starting from every assignment (0 and the unit
    vectors).  A row restricts its parent's set (_restrict) at the level
    of the last coordinate it depends on, and an empty set drops the
    subtree; a leaf's set is its solutions.  Sweep points come in the
    order of itertools.product over gf8.ELEMENTS, the first slot slowest.

    Yields (swept side, 0 for a and 1 for b; the swept side's key digits;
    o with its unknown bits zero; particular solution; nullspace basis)
    for each sweep point whose system is consistent.
    """
    a, b = ([fixed.get(PARAM_NAMES[2 * i + side]) for i in range(6)] for side in (0, 1))
    side = 0 if a.count(None) <= b.count(None) else 1
    swept, other = (a, b) if side == 0 else (b, a)
    known = sum(v << 3 * j for j, v in enumerate(other) if v is not None)
    unknown = sum(7 << 3 * j for j, v in enumerate(other) if v is None)
    slots = [i for i, v in enumerate(swept) if v is None]

    def augmented(values):
        return [(row & unknown) << 1 | (row & known).bit_count() & 1
                for row in phasespace.equation_rows(values)]

    def digit(j, v):
        return gf8.ORDER_KEY[v] << 33 - 6 * j - 3 * side

    # per slot, the rows of each of its 3 bits; a row belongs to the level
    # of the last slot that reaches it (-1: none), and rows go in level order
    units, level_of = [], [-1] * 12
    for lv, i in enumerate(slots):
        bits = [augmented([1 << bit if j == i else 0 for j in range(6)]) for bit in range(3)]
        level_of = [lv if x | y | z else last for last, x, y, z in zip(level_of, *bits)]
        units.append(bits)
    order = sorted(range(12), key=level_of.__getitem__)
    base = augmented([v or 0 for v in swept])
    base = [base[k] for k in order]
    root = done = level_of.count(-1)
    plan = []  # per level: (rows that restrict there, [(key digit, parts of the rows left)])
    for lv, (i, bits) in enumerate(zip(slots, units)):
        parts = [[0] * (12 - done)]  # indexed by the value's 3 bits
        for bit_rows in bits:
            parts += [[p ^ bit_rows[k] for p, k in zip(part, order[done:])] for part in parts]
        ready = level_of.count(lv)
        plan.append((ready, [(digit(i, v), parts[v]) for v in gf8.ELEMENTS]))
        done += ready
    digits = sum(digit(j, v) for j, v in enumerate(swept) if v is not None)

    def walk(lv, rows, solved, digits):
        if lv == len(plan):
            yield side, digits, known, *solved
            return
        ready, parts = plan[lv]
        for digit, part in parts:
            here = [r ^ p for r, p in zip(rows, part)]
            found = _restrict(*solved, here[:ready]) if ready else solved
            if found is not None:
                yield from walk(lv + 1, here[ready:], found, digits | digit)

    columns = [1 << c for c in range(unknown.bit_length()) if unknown >> c & 1]
    solved = _restrict(0, columns, base[:root])
    if solved is not None:
        yield from walk(0, base[root:], solved, digits)


def count_assignments(fixed: dict[str, int]) -> int:
    """Number of assignments extending `fixed` that satisfy the twelve
    equations, counted without listing them (no cost guard applies)."""
    Scenario.make("generic", fixed)  # checks the names and values
    return sum(1 << len(basis) for *_, basis in _solved_fixings(fixed))


def enumerate_assignments(fixed: dict[str, int], *, allow_large: bool = False) -> list[int]:
    """The keys (see Solution) of all full 12-parameter assignments extending
    `fixed` that satisfy the twelve equations, in increasing order, which
    is lexicographic order by the element display order.

    More than MAX_FREE_DEFAULT free parameters is refused unless
    allow_large is set.  More than MAX_SOLUTIONS solutions is always
    refused, before any of them is listed.
    """
    free = Scenario.make("generic", fixed).free_names()
    if len(free) > MAX_FREE_DEFAULT and not allow_large:
        raise CostGuardError(
            f"{len(free)} free parameters means 8^{len(free)} assignments; "
            "pass allow_large (--allow-large) to enumerate anyway"
        )
    systems, total = [], 0
    for system in _solved_fixings(fixed):
        total += 1 << len(system[4])
        if total > MAX_SOLUTIONS:
            raise CostGuardError(
                f"more than {MAX_SOLUTIONS} (8^7) solutions; fix more parameters"
            )
        systems.append(system)
    keys = []
    for side, swept_digits, known, particular, basis in systems:
        # the other side's 18 bits o through two 9-bit lookups per solution
        low, high = _SPREAD[1 - side]
        span = [known | particular]
        for vec in basis:
            span += [o ^ vec for o in span]
        keys += [swept_digits | low[o & 511] | high[o >> 9] for o in span]
    keys.sort()
    return keys


def solution_is_valid(seed: SeedSet) -> bool:
    """Seed whose table passes every validation flag, decided by the rule
    of the module docstring: the seed points are independent and the
    twelve equations hold."""
    return seed.rank() == 6 and not phasespace.failing_equations(seed)


def scenario_keys(scenario: Scenario, *, allow_large: bool = False) -> list[int]:
    """The keys of a scenario's solutions: the twelve equations enumerated
    over the names its pinned values leave free.  Three-axes keeps the
    assignments with b13 = a23, compared as key digits."""
    keys = enumerate_assignments(scenario.pinned(), allow_large=allow_large)
    if scenario.kind == "three-axes":
        b13, a23 = _SHIFT["b13"], _SHIFT["a23"]
        keys = [k for k in keys if k >> b13 & 7 == k >> a23 & 7]
    return keys


def solve_scenario(scenario: Scenario, *, allow_large: bool = False) -> list[Solution]:
    """Solve a scenario: its solutions (scenario_keys), solved for
    scenario.free_names(); three-axes reports b13 = a23 as l3."""
    names = scenario.free_names()
    return [Solution(k, names) for k in scenario_keys(scenario, allow_large=allow_large)]
