"""The 8x8 discrete phase space over GF(8).

A point (a, b) labels a three-qubit Pauli operator; two points commute
(in the operator sense) iff tr(a1*b2) = tr(a2*b1).  Six seed points --
three per row -- extend by additive recursion to a table of 9 rows of 7
points each, the striation-generating curves.  A well-formed table
partitions the 63 nonzero points into 9 rows that are each, together
with the origin, a 3-dimensional GF(2) subspace of GF(8)^2.

Twelve trace equations on the seed parameters are necessary and
sufficient for the internal commutation of all 9 rows; they are checked
here exactly, and every row can be fitted with a linearized curve
relation L(b) = M(a) with L(b) = l0*b + l1*b^2 + l2*b^4 and
M(a) = m0*a + m1*a^2 + m2*a^4.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from operator import xor

from . import gf8
from .gf8 import mul, trace

Point = tuple[int, int]
ORIGIN: Point = (0, 0)

# Canonical parameter order; also the JSON/CLI order everywhere.
PARAM_NAMES: tuple[str, ...] = (
    "a11", "b11", "a12", "b12", "a13", "b13",
    "a21", "b21", "a22", "b22", "a23", "b23",
)

# The twelve seed equations, each tr(sum of products) = tr(sum of products).
# A term (p, q) stands for the product of parameters p and q.
TWELVE_EQUATIONS: tuple[tuple[tuple[tuple[str, str], ...], tuple[tuple[str, str], ...]], ...] = (
    ((("a11", "b12"),), (("a12", "b11"),)),
    ((("a11", "b13"),), (("a13", "b11"),)),
    ((("a12", "b13"),), (("a13", "b12"),)),
    ((("a21", "b22"),), (("a22", "b21"),)),
    ((("a21", "b23"),), (("a23", "b21"),)),
    ((("a22", "b23"),), (("a23", "b22"),)),
    ((("a21", "b12"), ("a11", "b22")), (("a22", "b11"), ("a12", "b21"))),
    ((("a21", "b13"), ("a11", "b23")), (("a23", "b11"), ("a13", "b21"))),
    ((("a22", "b13"), ("a12", "b23")), (("a23", "b12"), ("a13", "b22"))),
    ((("a21", "b13"), ("a12", "b22")), (("a22", "b12"), ("a13", "b21"))),
    (
        (("a21", "b11"), ("a21", "b12"), ("a12", "b23")),
        (("a23", "b12"), ("a11", "b21"), ("a12", "b21")),
    ),
    (
        (("a22", "b11"), ("a22", "b12"), ("a13", "b23")),
        (("a23", "b13"), ("a11", "b22"), ("a12", "b22")),
    ),
)


class InvalidSeedError(ValueError):
    """Raised when a seed violates the well-formedness invariants."""


class InvalidTableError(ValueError):
    """Raised when an operation requires a valid table but got a broken one."""


def add_points(p: Point, q: Point) -> Point:
    return (p[0] ^ q[0], p[1] ^ q[1])


def commutes(p: Point, q: Point) -> bool:
    """Commutation criterion: tr(a1*b2) = tr(a2*b1)."""
    return trace(mul(p[0], q[1])) == trace(mul(q[0], p[1]))


def greedy_basis(vectors, add=xor, zero=0) -> list:
    """The vectors, in order, that are not in the GF(2) span of those before
    them: a basis of their span.  Field elements by default; pass
    add_points and ORIGIN for points."""
    span = {zero}
    basis = []
    for v in vectors:
        if v not in span:
            basis.append(v)
            span |= {add(v, s) for s in span}
    return basis


def point_to_json(p: Point) -> list[str]:
    return [gf8.to_token(p[0]), gf8.to_token(p[1])]


def point_from_json(obj) -> Point:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise ValueError(f"a point must be a two-element array, got {obj!r}")
    return (gf8.from_token(obj[0]), gf8.from_token(obj[1]))


@dataclass(frozen=True)
class SeedSet:
    """The six seed points: three for row 1, three for row 2."""

    row1: tuple[Point, Point, Point]
    row2: tuple[Point, Point, Point]

    @classmethod
    def from_params(cls, params: dict[str, int]) -> "SeedSet":
        missing = [n for n in PARAM_NAMES if n not in params]
        if missing:
            raise ValueError(f"missing seed parameters: {', '.join(missing)}")
        unknown = [n for n in params if n not in PARAM_NAMES]
        if unknown:
            raise ValueError(f"unknown seed parameters: {', '.join(unknown)}")
        for n in PARAM_NAMES:
            gf8.check_element(params[n])
        pts = [(params[f"a{r}{c}"], params[f"b{r}{c}"]) for r in (1, 2) for c in (1, 2, 3)]
        return cls(row1=tuple(pts[:3]), row2=tuple(pts[3:]))

    def params(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r, row in ((1, self.row1), (2, self.row2)):
            for c, (a, b) in enumerate(row, start=1):
                out[f"a{r}{c}"] = a
                out[f"b{r}{c}"] = b
        return {n: out[n] for n in PARAM_NAMES}

    def points(self) -> tuple[Point, ...]:
        return self.row1 + self.row2

    def well_formedness_errors(self) -> list[str]:
        errors = []
        if any(p == ORIGIN for p in self.points()):
            errors.append("seed contains the origin")
        for r, row in ((1, self.row1), (2, self.row2)):
            if len(greedy_basis(row, add_points, ORIGIN)) < 3:
                errors.append(f"row {r} seed points are GF(2)-dependent")
        return errors

    def is_well_formed(self) -> bool:
        return not self.well_formedness_errors()

    def to_json(self) -> dict:
        return {
            "row1": [point_to_json(p) for p in self.row1],
            "row2": [point_to_json(p) for p in self.row2],
        }

    @classmethod
    def from_json(cls, obj) -> "SeedSet":
        if not isinstance(obj, dict) or set(obj) != {"row1", "row2"}:
            raise ValueError('a seed must be {"row1": [...], "row2": [...]}')
        rows = []
        for key in ("row1", "row2"):
            row = obj[key]
            if not isinstance(row, list) or len(row) != 3:
                raise ValueError(f"{key} must hold exactly three points")
            rows.append(tuple(point_from_json(p) for p in row))
        return cls(row1=rows[0], row2=rows[1])


def _eval_side(side, env) -> int:
    acc = 0
    for p, q in side:
        acc ^= mul(env[p], env[q])
    return acc


def equation_holds(eq, env) -> bool:
    lhs, rhs = eq
    return trace(_eval_side(lhs, env)) == trace(_eval_side(rhs, env))


def failing_equations(seed: SeedSet) -> list[int]:
    """1-based indices of the seed equations that fail."""
    env = seed.params()
    return [i for i, eq in enumerate(TWELVE_EQUATIONS, start=1) if not equation_holds(eq, env)]


def check_twelve_equations(seed: SeedSet) -> bool:
    """True iff all twelve trace identities hold for the seed parameters."""
    return not failing_equations(seed)


@dataclass(frozen=True)
class StriationTable:
    """9 rows x 7 points: the striation-generating curves."""

    rows: tuple[tuple[Point, ...], ...]

    def seed(self) -> SeedSet:
        return SeedSet(row1=self.rows[0][:3], row2=self.rows[1][:3])

    def to_json(self) -> list:
        return [[point_to_json(p) for p in row] for row in self.rows]

    @classmethod
    def from_json(cls, obj) -> "StriationTable":
        if not isinstance(obj, list) or len(obj) != 9 or any(len(r) != 7 for r in obj):
            raise ValueError("a table must be a 9x7 array of points")
        return cls(rows=tuple(tuple(point_from_json(p) for p in row) for row in obj))


def build_table(seed: SeedSet, *, check_seed: bool = True) -> StriationTable:
    """Extend the six seed points to the full 9x7 table.

    Rows 1-2 continue with p_c = p_{c-2} + p_{c-3} for c = 4..7; rows
    3..9 are p^{(r)}_c = p^{(2)}_c + p^{(1)}_{c+r-3} with the row-1
    column index wrapped back into 1..7 modulo 7.
    """
    if check_seed:
        errors = seed.well_formedness_errors()
        if errors:
            raise InvalidSeedError("; ".join(errors))
    rows: list[tuple[Point, ...]] = []
    for base in (seed.row1, seed.row2):
        pts = list(base)
        for c in range(3, 7):
            pts.append(add_points(pts[c - 2], pts[c - 3]))
        rows.append(tuple(pts))
    row1, row2 = rows
    for shift in range(7):  # rows 3..9
        rows.append(tuple(add_points(row2[c], row1[(c + shift) % 7]) for c in range(7)))
    return StriationTable(rows=tuple(rows))


def check_all_striation_conditions(table: StriationTable) -> bool:
    """True iff every pair of points within every row commutes."""
    for row in table.rows:
        for p, q in combinations(row, 2):
            if not commutes(p, q):
                return False
    return True


@dataclass(frozen=True)
class ValidationReport:
    """Structural checks of a striation table."""

    rows_are_subgroups: bool
    rows_disjoint: bool
    covers_all_points: bool
    rows_commute: bool

    @property
    def valid(self) -> bool:
        return (
            self.rows_are_subgroups
            and self.rows_disjoint
            and self.covers_all_points
            and self.rows_commute
        )

    def first_failure(self) -> str | None:
        for name in ("rows_are_subgroups", "rows_disjoint", "covers_all_points", "rows_commute"):
            if not getattr(self, name):
                return name.replace("_", "-")
        return None

    def to_json(self) -> dict:
        return {
            "rows_are_subgroups": self.rows_are_subgroups,
            "rows_disjoint": self.rows_disjoint,
            "covers_all_points": self.covers_all_points,
            "rows_commute": self.rows_commute,
            "valid": self.valid,
        }


def _row_is_subgroup(row: tuple[Point, ...]) -> bool:
    members = set(row) | {ORIGIN}
    if len(members) != 8 or ORIGIN in row:
        return False
    return all(add_points(p, q) in members for p, q in combinations(row, 2))


def validate_table(table: StriationTable) -> ValidationReport:
    """Check the partition and subgroup structure of a table."""
    subgroups = all(_row_is_subgroup(row) for row in table.rows)
    seen: list[Point] = [p for row in table.rows for p in row]
    disjoint = len(set(seen)) == len(seen)
    covers = set(seen) == {p for p in product(range(8), repeat=2) if p != ORIGIN}
    return ValidationReport(
        rows_are_subgroups=subgroups,
        rows_disjoint=disjoint,
        covers_all_points=covers,
        rows_commute=check_all_striation_conditions(table),
    )


@dataclass(frozen=True)
class CurveRelation:
    """A linearized relation L(b) = M(a) between the coordinates of a curve.

    lcoef are the coefficients of (b, b^2, b^4) and mcoef those of
    (a, a^2, a^4); not both triples may be all-zero.
    """

    lcoef: tuple[int, int, int]
    mcoef: tuple[int, int, int]

    def holds_at(self, p: Point) -> bool:
        return linearized_eval(self.lcoef, p[1]) == linearized_eval(self.mcoef, p[0])

    def text(self) -> str:
        """Human form, e.g. "b = m4*a + a^2" or "0 = a"."""

        def side(coeffs: tuple[int, int, int], var: str) -> str:
            terms = []
            for c, pw in zip(coeffs, ("", "^2", "^4")):
                if c == 0:
                    continue
                terms.append(f"{var}{pw}" if c == 1 else f"{gf8.to_token(c)}*{var}{pw}")
            return " + ".join(terms) if terms else "0"

        return f"{side(self.lcoef, 'b')} = {side(self.mcoef, 'a')}"

    def to_json(self) -> dict:
        return {
            "l": [gf8.to_token(c) for c in self.lcoef],
            "m": [gf8.to_token(c) for c in self.mcoef],
        }

    @classmethod
    def from_json(cls, obj) -> "CurveRelation":
        if not isinstance(obj, dict) or set(obj) != {"l", "m"}:
            raise ValueError('a curve relation must be {"l": [...], "m": [...]}')
        l = tuple(gf8.from_token(t) for t in obj["l"])
        m = tuple(gf8.from_token(t) for t in obj["m"])
        if len(l) != 3 or len(m) != 3:
            raise ValueError("curve coefficient triples must have length 3")
        return cls(lcoef=l, mcoef=m)


def linearized_eval(coeffs: tuple[int, int, int], x: int) -> int:
    """c0*x + c1*x^2 + c2*x^4 in GF(8)."""
    x2 = mul(x, x)
    x4 = mul(x2, x2)
    return mul(coeffs[0], x) ^ mul(coeffs[1], x2) ^ mul(coeffs[2], x4)


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


def _coeffs_from_bits(u: int) -> tuple[int, int, int]:
    return (u & 7, (u >> 3) & 7, (u >> 6) & 7)


def _linear_fit_system(inputs: list[int], targets: list[int]):
    """GF(2) system for coefficients (c0,c1,c2) with sum c_k x^(2^k) = t."""
    rows, rhs = [], []
    for x, t in zip(inputs, targets):
        powers = [x, mul(x, x), mul(mul(x, x), mul(x, x))]
        cols = [mul(e, pw) for k, pw in enumerate(powers) for e in (1, 2, 4)]
        # unknown bit index 3k+j multiplies basis element 2^j times x^(2^k)
        for bit in range(3):
            row = 0
            for idx, contrib in enumerate(cols):
                if contrib >> bit & 1:
                    row |= 1 << idx
            rows.append(row)
            rhs.append(t >> bit & 1)
    return rows, rhs


def _solve_linearized(inputs: list[int], targets: list[int]):
    """All coefficient triples c with sum c_k x^(2^k) = t at every (x, t)."""
    rows, rhs = _linear_fit_system(inputs, targets)
    particular, basis = _solve_gf2(rows, rhs, 9)
    if particular is None:
        return []
    sols = {particular}
    for vec in basis:
        sols |= {s ^ vec for s in sols}
    key = lambda u: tuple(gf8.order_key(c) for c in _coeffs_from_bits(u))
    return [_coeffs_from_bits(u) for u in sorted(sols, key=key)]


def fit_curve(row: tuple[Point, ...]) -> CurveRelation:
    """Fit a nonzero linearized relation to a subgroup row.

    Preference order: explicit b = M(a) when every point has a distinct
    first coordinate; then a = L(b) when every second coordinate is
    distinct; otherwise the implicit relation with the smallest lcoef
    (then mcoef) under the element display order.
    """
    pts = (ORIGIN,) + tuple(row)
    gens = greedy_basis(row, add_points, ORIGIN)[:3]
    if len(gens) < 3:
        raise InvalidTableError("row does not span a 3-dimensional subspace")
    relation = None
    if len({p[0] for p in pts}) == 8:
        fits = _solve_linearized([p[0] for p in gens], [p[1] for p in gens])
        if fits:
            relation = CurveRelation(lcoef=(1, 0, 0), mcoef=fits[0])
    if relation is None and len({p[1] for p in pts}) == 8:
        fits = _solve_linearized([p[1] for p in gens], [p[0] for p in gens])
        if fits:
            relation = CurveRelation(lcoef=fits[0], mcoef=(1, 0, 0))
    if relation is None:
        for l in product(gf8.ELEMENTS, repeat=3):
            targets = [linearized_eval(l, p[1]) for p in gens]
            fits = _solve_linearized([p[0] for p in gens], targets)
            for m in fits:
                if l != (0, 0, 0) or m != (0, 0, 0):
                    relation = CurveRelation(lcoef=l, mcoef=m)
                    break
            if relation is not None:
                break
    if relation is None or not all(relation.holds_at(p) for p in pts):
        raise InvalidTableError("no linearized relation fits the row; not a subgroup row?")
    return relation


GRID_HEADER = "b\\a | " + " ".join(gf8.TOKENS)


def render_grid(table: StriationTable) -> str:
    """Render the 8x8 grid of row indices, origin marked "o".

    Rows are labeled b = mu^6 at the top down to 0 at the bottom;
    columns run a = 0, 1, mu, ..., mu^6 left to right.
    """
    owner: dict[Point, str] = {}
    for idx, row in enumerate(table.rows, start=1):
        for p in row:
            if p in owner or p == ORIGIN:
                raise InvalidTableError(f"point {point_to_json(p)} is multiply assigned")
            owner[p] = str(idx)
    owner[ORIGIN] = "o"
    if len(owner) != 64:
        raise InvalidTableError("table does not cover the phase space")
    lines = [GRID_HEADER]
    for b in reversed(gf8.ELEMENTS):
        cells = " ".join(owner[(a, b)] for a in gf8.ELEMENTS)
        lines.append(f"{gf8.to_token(b):>3} | {cells}")
    return "\n".join(lines) + "\n"
