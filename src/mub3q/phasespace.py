"""The 8x8 discrete phase space over GF(8).

A point (a, b) labels a three-qubit Pauli operator; two points commute
(in the operator sense) iff tr(a1*b2) = tr(a2*b1).  Inside the module a
point is the 6-bit int pack(p) = a << 3 | b, added by XOR, and PERP[x]
masks the points that commute with x.  Six seed points -- three per row
-- map to a table of 9 rows of 7 points each, the striation-generating
curves: position (r, c) sums the seed points that COEFFICIENTS[r][c]
selects.  A valid table partitions the 63 nonzero points into 9 rows
that are each, together with the origin, a 3-dimensional GF(2) subspace
of GF(8)^2.

Twelve trace equations on the seed parameters are necessary and
sufficient for the internal commutation of all 9 rows.  equation_rows
makes them GF(2) rows over one coordinate side of the seed, given the
other, for failing_equations and the solver; echelon is the one GF(2)
elimination of a list of vectors (the solver's walk restricts solution
sets instead).  A seed is valid iff it satisfies the equations and its six
points have GF(2) rank 6 (SeedSet.rank; see the solver module for the
proof); build_table checks it.  A striation row is 7 distinct nonzero
commuting points (row_generators, the one rule).  With
the origin it is a Lagrangian subspace of GF(8)^2 under the symplectic
form omega(p, q) = tr(a1*b2 + a2*b1), so fit_curve gives it an exact
curve relation l0*b + l1*b^2 + l2*b^4 = m0*a + m1*a^2 + m2*a^4.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gf8
from .gf8 import MUL, TRACE

Point = tuple[int, int]
ORIGIN: Point = (0, 0)


def pack(p: Point) -> int:
    """The point (a, b) as the 6-bit int a << 3 | b."""
    return p[0] << 3 | p[1]


# Bit y of PERP[x] is set iff the packed points x and y commute: the
# symplectic form tr(a_x*b_y) + tr(a_y*b_x) vanishes.
PERP: tuple[int, ...] = tuple(
    sum(1 << y for y in range(64) if TRACE[MUL[x >> 3][y & 7]] == TRACE[MUL[y >> 3][x & 7]])
    for x in range(64)
)

# Canonical parameter order; also the JSON/CLI order everywhere.
PARAM_NAMES: tuple[str, ...] = (
    "a11", "b11", "a12", "b12", "a13", "b13",
    "a21", "b21", "a22", "b22", "a23", "b23",
)

# The twelve seed equations.  Number the seed points p1-p3 (row 1) and
# p4-p6 (row 2).  Equation k says that the symplectic products
# omega(p_i, p_j) = tr(a_i*b_j) + tr(a_j*b_i) over its pairs (i, j) sum to
# 0 in GF(2); omega(p, q) = 0 iff p and q commute.  Expanded into a*b
# terms, these are the paper's twelve trace equations.
TWELVE_EQUATIONS: tuple[tuple[tuple[int, int], ...], ...] = (
    ((1, 2),), ((1, 3),), ((2, 3),), ((4, 5),), ((4, 6),), ((5, 6),),
    ((1, 5), (2, 4)),
    ((1, 6), (3, 4)),
    ((2, 6), (3, 5)),
    ((2, 5), (3, 4)),
    ((1, 4), (2, 4), (2, 6)),
    ((1, 5), (2, 5), (3, 6)),
)

_EQUATION_PAIRS = tuple(tuple((i - 1, j - 1) for i, j in pairs) for pairs in TWELVE_EQUATIONS)

# Bit i of COEFFICIENTS[r][c] selects seed point i + 1 for table position
# (r + 1, c + 1).  Read as the point (v & 7, v >> 3), column c of a row is
# mu^c times its first entry: the rows are the 9 GF(8)-lines through the
# origin, and the 63 entries are 1..63 once each.
COEFFICIENTS: tuple[tuple[int, ...], ...] = (
    gf8.EXP,
    tuple(x << 3 for x in gf8.EXP),
    *(tuple(gf8.EXP[c] << 3 | gf8.EXP[(c + s) % 7] for c in range(7)) for s in range(7)),
)

# Bit j of TRACE_FORM[c] is tr(c * 2^j), so tr(c*u) is the parity of TRACE_FORM[c] & u.
TRACE_FORM = tuple(sum(TRACE[MUL[c][1 << j]] << j for j in range(3)) for c in range(8))


def equation_rows(side) -> list[int]:
    """The twelve equations as 18-bit GF(2) rows over the other side's
    coordinates o (o_j in bits 3j..3j+2), given one side s: the six a's
    or, as omega is unchanged when a and b swap, the six b's.  Equation k
    holds iff row k - 1 & o has even parity.  Pair (i, j) adds
    tr(s_i*o_j) + tr(s_j*o_i): TRACE_FORM[s_i] << 3j ^ TRACE_FORM[s_j] << 3i."""
    t = [TRACE_FORM[v] for v in side]
    rows = []
    for pairs in _EQUATION_PAIRS:
        row = 0
        for i, j in pairs:
            row ^= t[i] << 3 * j ^ t[j] << 3 * i
        rows.append(row)
    return rows


class InvalidSeedError(ValueError):
    """Raised when a seed fails an equation or its points have rank below 6."""


class InvalidTableError(ValueError):
    """Raised when an operation requires a valid table or row but got a broken one."""


class AnticommutingRowError(InvalidTableError):
    """A supposed commuting row or class contains a non-commuting pair."""


def commutes(p: Point, q: Point) -> bool:
    """Commutation criterion: tr(a1*b2) = tr(a2*b1), read from PERP."""
    return PERP[pack(p)] >> pack(q) & 1 == 1


def echelon(vectors) -> tuple[dict[int, int], list[int]]:
    """GF(2) elimination of ints added by XOR.  Returns ({leading bit:
    vector}, kept): the dict's vectors span the input, one per leading
    bit, and kept indexes the vectors outside the span of those before."""
    pivots: dict[int, int] = {}
    kept = []
    for i, r in enumerate(vectors):
        while r:
            top = r.bit_length() - 1
            if top not in pivots:
                pivots[top] = r
                kept.append(i)
                break
            r ^= pivots[top]
    return pivots, kept


def row_mask(row: tuple[Point, ...]) -> int:
    """The 64-bit mask of a row's points: bit pack(p) for each point p."""
    mask = 0
    for p in row:
        mask |= 1 << pack(p)
    return mask


def row_generators(row: tuple[Point, ...]) -> tuple[int, int, int]:
    """Indices of the first three GF(2)-independent points of a striation
    row: 7 distinct nonzero points that pairwise commute.  Their span is
    isotropic, so at most 3-dimensional, and holds them, so it is
    Lagrangian and they are its nonzero points.  Any other row raises
    InvalidTableError (AnticommutingRowError for a non-commuting pair)."""
    packed = [pack(p) for p in row]
    members = row_mask(row)
    if len(packed) != 7 or members.bit_count() != 7 or members & 1:
        raise InvalidTableError("a row must hold 7 distinct nonzero points")
    for p, x in zip(row, packed):
        if PERP[x] & members != members:
            q = next(q for q in row if not PERP[x] >> pack(q) & 1)
            raise AnticommutingRowError(
                f"points {point_to_json(p)} and {point_to_json(q)} do not commute"
            )
    return tuple(echelon(packed)[1])


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

    def rank(self) -> int:
        """GF(2) rank of the six seed points."""
        return len(echelon([a << 3 | b for a, b in self.row1 + self.row2])[0])

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


def failing_equations(seed: SeedSet) -> list[int]:
    """1-based indices of the seed equations that fail: those whose row
    given the a's has odd parity against the b's."""
    pts = seed.points()
    o = sum(b << 3 * j for j, (_, b) in enumerate(pts))
    rows = equation_rows([a for a, _ in pts])
    return [k for k, row in enumerate(rows, start=1) if (row & o).bit_count() & 1]


@dataclass(frozen=True)
class StriationTable:
    """9 rows x 7 points: the striation-generating curves."""

    rows: tuple[tuple[Point, ...], ...]

    def seed(self) -> SeedSet:
        return SeedSet(row1=self.rows[0][:3], row2=self.rows[1][:3])

    def to_json(self) -> list:
        return [[point_to_json(p) for p in row] for row in self.rows]


def build_table(seed: SeedSet) -> StriationTable:
    """The 9x7 table of a valid seed, whose position (r, c) sums the seed
    points that COEFFICIENTS[r][c] selects.  InvalidSeedError names the
    first check the seed fails: the twelve equations, then rank 6."""
    failing = failing_equations(seed)
    if failing:
        raise InvalidSeedError(f"seed fails equation {failing[0]} of 12")
    rank = seed.rank()
    if rank < 6:
        raise InvalidSeedError(f"seed points are GF(2)-dependent: rank {rank} of 6")
    sums = [ORIGIN]  # sums[v]: the sum of the seed points that v selects
    for a, b in seed.points():
        sums += [(a ^ x, b ^ y) for x, y in sums]
    return StriationTable(rows=tuple(tuple(sums[v] for v in row) for row in COEFFICIENTS))


def check_all_striation_conditions(table: StriationTable) -> bool:
    """True iff every pair of points within every row commutes."""
    rows = [[pack(p) for p in row] for row in table.rows]
    return all(PERP[x] >> y & 1 for row in rows for x in row for y in row)


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


def validate_table(table: StriationTable) -> ValidationReport:
    """Check the partition and subgroup structure of a table.  A row plus
    the origin is a subgroup iff the row holds 7 distinct nonzero points
    of GF(2) rank 3."""
    rows = [[pack(p) for p in row] for row in table.rows]
    seen = [x for row in rows for x in row]
    return ValidationReport(
        rows_are_subgroups=all(
            len(set(row)) == 7 and 0 not in row and len(echelon(row)[0]) == 3
            for row in rows
        ),
        rows_disjoint=len(set(seen)) == len(seen),
        covers_all_points=set(seen) == set(range(1, 64)),
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


def linearized_eval(coeffs: tuple[int, int, int], x: int) -> int:
    """c0*x + c1*x^2 + c2*x^4 in GF(8)."""
    x2 = MUL[x][x]
    return MUL[coeffs[0]][x] ^ MUL[coeffs[1]][x2] ^ MUL[coeffs[2]][MUL[x2][x2]]


def _dual_basis(xs) -> list[int] | None:
    """The trace-dual basis t of xs, with tr(t_i*x_j) = [i == j]: t_i is
    the element whose traces against the xs are the unit vector i.  None
    if the xs are GF(2)-dependent, for then some unit vector is missed."""
    traces = {tuple(TRACE[MUL[t][x]] for x in xs): t for t in gf8.ELEMENTS}
    dual = [traces.get(unit) for unit in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    return None if None in dual else dual


def _frobenius_sums(t, xs) -> tuple[int, int, int]:
    """(sum t_i*x_i^(2^k) for k = 0, 1, 2)."""
    sums = []
    for _ in range(3):
        sums.append(MUL[t[0]][xs[0]] ^ MUL[t[1]][xs[1]] ^ MUL[t[2]][xs[2]])
        xs = [MUL[x][x] for x in xs]
    return tuple(sums)


def fit_curve(row: tuple[Point, ...]) -> CurveRelation:
    """The linearized relation L(b) = M(a) whose zero set is exactly a
    striation row plus the origin, W.  The row must pass `row_generators`.

    W is Lagrangian (W = W-perp): for generators g_i = (a_i, b_i) of W and
    a GF(2) basis t of GF(8), p is in W iff sum t_i*omega(g_i, p) = 0.  As
    tr(c*x) = c*x + c^2*x^2 + c^4*x^4, l_k = sum t_i*a_i^(2^k) and
    m_k = sum t_i*b_i^(2^k).  t is the trace-dual basis of the a_i if they
    are independent (L(b) = b: the unique b = M(a)), else of the b_i if
    they are (the unique a = L(b)), else (1, mu, mu^2).
    """
    a, b = zip(*(row[i] for i in row_generators(row)))
    t = _dual_basis(a) or _dual_basis(b) or gf8.EXP[:3]
    return CurveRelation(lcoef=_frobenius_sums(t, a), mcoef=_frobenius_sums(t, b))


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
