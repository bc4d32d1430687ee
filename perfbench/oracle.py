"""Independent GF(8) oracle for checking mub3q output.

Nothing here imports mub3q.  Field elements are ints 0..7 whose bits are
the coefficients of 1, x, x^2 modulo x^3 + x + 1; the JSON tokens "0", "1",
"m", "m2", ..., "m6" name 0 and the powers of m = x.  Points are pairs
(a, b) of elements.  The twelve seed equations are transcribed below as
text and evaluated through the trace form tr(x*y), which is GF(2)-bilinear,
so each equation is the XOR of its terms' trace bits.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

MODULUS = 0b1011  # x^3 + x + 1


def _mul(x: int, y: int) -> int:
    acc = 0
    for bit in range(3):
        if y >> bit & 1:
            acc ^= x << bit
    for bit in (4, 3):
        if acc >> bit & 1:
            acc ^= MODULUS << (bit - 3)
    return acc


MUL = tuple(tuple(_mul(x, y) for y in range(8)) for x in range(8))


def _power(k: int) -> int:
    acc = 1
    for _ in range(k):
        acc = MUL[acc][0b010]
    return acc


# Display order 0 < 1 < m < m2 < ... < m6, as ints and as tokens.
ORDER = (0,) + tuple(_power(k) for k in range(7))
TOKENS = ("0", "1", "m", "m2", "m3", "m4", "m5", "m6")
VALUE = dict(zip(TOKENS, ORDER))
TOKEN = {v: t for t, v in VALUE.items()}
RANK = {v: i for i, v in enumerate(ORDER)}

TRACE = tuple(x ^ MUL[x][x] ^ MUL[MUL[x][x]][MUL[x][x]] for x in range(8))
TRACE_FORM = np.array([[TRACE[MUL[x][y]] for y in range(8)] for x in range(8)], dtype=np.uint8)

# The basis {b1, b2, b3} with tr(bi*bj) = 1 iff i = j; it is unique, so it is
# found by search rather than written down.  Qubit j of the Pauli image of
# (a, b) reads tr(a*bj) as its X bit and tr(b*bj) as its Z bit.
SELF_DUAL = next(
    trip for trip in combinations(sorted(ORDER[1:], key=RANK.get), 3)
    if all(TRACE[MUL[u][v]] == (u == v) for u in trip for v in trip)
)

PARAMS = ("a11", "b11", "a12", "b12", "a13", "b13",
          "a21", "b21", "a22", "b22", "a23", "b23")

EQUATIONS_TEXT = """
a11 b12 = a12 b11
a11 b13 = a13 b11
a12 b13 = a13 b12
a21 b22 = a22 b21
a21 b23 = a23 b21
a22 b23 = a23 b22
a21 b12 + a11 b22 = a22 b11 + a12 b21
a21 b13 + a11 b23 = a23 b11 + a13 b21
a22 b13 + a12 b23 = a23 b12 + a13 b22
a21 b13 + a12 b22 = a22 b12 + a13 b21
a21 b11 + a21 b12 + a12 b23 = a23 b12 + a11 b21 + a12 b21
a22 b11 + a22 b12 + a13 b23 = a23 b13 + a11 b22 + a12 b22
"""


def _parse_equations(text: str) -> tuple[tuple[tuple[str, str], ...], ...]:
    """Each equation as the list of product terms of both sides together:
    tr(lhs) = tr(rhs) iff the trace bits of all terms XOR to 0."""
    out = []
    for line in text.strip().splitlines():
        lhs, rhs = line.split("=")
        terms = [tuple(t.split()) for side in (lhs, rhs) for t in side.split("+")]
        assert all(len(t) == 2 and set(t) <= set(PARAMS) for t in terms), line
        out.append(tuple(terms))
    return tuple(out)


EQUATIONS = _parse_equations(EQUATIONS_TEXT)
assert len(EQUATIONS) == 12

# Parameters each fixing scheme pins to zero, and its free parameters.
SCHEME_ZEROS = {
    "three-axes": ("a11", "a12", "a13", "b21", "b22", "b23"),
    "two-axes": ("a11", "a12", "a13", "b21", "b22", "b23"),
    "one-axis": ("a11", "a12", "a13"),
    "no-axis": (),
}
SCHEME_FREE = {
    "three-axes": ("l3",),
    "two-axes": ("a22", "a23"),
    "one-axis": ("b21", "a22", "a23"),
    "no-axis": ("a12", "a13", "b21", "a22", "a23"),
}


def three_axes_params(l1: int, l2: int, l3: int) -> dict[str, int]:
    """Row 1 on the b axis, row 2 on the a axis, both with values l1, l2, l3."""
    out = dict.fromkeys(SCHEME_ZEROS["three-axes"], 0)
    out.update(b11=l1, b12=l2, b13=l3, a21=l1, a22=l2, a23=l3)
    return out


def failing(params: dict[str, int]) -> list[int]:
    """1-based numbers of the twelve equations that fail."""
    return [
        k for k, terms in enumerate(EQUATIONS, start=1)
        if sum(TRACE[MUL[params[p]][params[q]]] for p, q in terms) % 2
    ]


def solutions(fixed: dict[str, int]) -> list[tuple[int, ...]]:
    """Every assignment of the parameters not in `fixed` that satisfies the
    twelve equations, as value tuples over the free parameters in PARAMS
    order, lexicographic in display order."""
    free = [p for p in PARAMS if p not in fixed]
    n = len(free)
    order = np.array(ORDER, dtype=np.intp)
    env: dict[str, object] = dict(fixed)
    for k, name in enumerate(free):
        env[name] = order.reshape([8 if i == k else 1 for i in range(n)])
    ok = np.ones((8,) * n, dtype=bool)
    for terms in EQUATIONS:
        bits = np.zeros((1,) * n, dtype=np.uint8)
        for p, q in terms:
            bits = bits ^ TRACE_FORM[env[p], env[q]]
        ok &= bits == 0
    hits = np.argwhere(ok)  # row-major, so lexicographic over display ranks
    return [tuple(ORDER[i] for i in row) for row in hits.tolist()]


def _add(p, q):
    return (p[0] ^ q[0], p[1] ^ q[1])


def table(params: dict[str, int]) -> list[list[tuple[int, int]]]:
    """The 9x7 table: rows 1-2 continue p_c = p_{c-2} + p_{c-3}; row 3 + s
    is row 2 plus row 1 shifted left by s columns, cyclically."""
    rows = []
    for r in (1, 2):
        row = [(params[f"a{r}{c}"], params[f"b{r}{c}"]) for c in (1, 2, 3)]
        for c in range(3, 7):
            row.append(_add(row[c - 2], row[c - 3]))
        rows.append(row)
    for s in range(7):
        rows.append([_add(rows[1][c], rows[0][(c + s) % 7]) for c in range(7)])
    return rows


def commute(p, q) -> bool:
    return TRACE[MUL[p[0]][q[1]]] == TRACE[MUL[q[0]][p[1]]]


def table_is_valid(rows) -> bool:
    """The 63 nonzero points split into 9 rows, each a commuting subgroup
    once the origin is added."""
    everything = [p for row in rows for p in row]
    nonzero = {(a, b) for a in range(8) for b in range(8)} - {(0, 0)}
    if len(everything) != 63 or set(everything) != nonzero:
        return False
    for row in rows:
        group = set(row) | {(0, 0)}
        if any(_add(p, q) not in group for p, q in combinations(row, 2)):
            return False
        if not all(commute(p, q) for p, q in combinations(row, 2)):
            return False
    return True


def pure_qubits(row) -> tuple[int, ...]:
    """Qubits j whose reduced state is pure in the row's basis: the row holds
    a point whose Pauli acts on qubit j alone, i.e. a, b in {0, bj}."""
    return tuple(
        j for j, bj in enumerate(SELF_DUAL)
        if any({a, b} <= {0, bj} for a, b in row)
    )


LABELS = {3: "triseparable", 1: "biseparable", 0: "nonseparable"}


def labels(rows) -> list[str]:
    return [LABELS[len(pure_qubits(row))] for row in rows]


def structure(rows) -> tuple[int, int, int]:
    found = labels(rows)
    return tuple(found.count(name) for name in LABELS.values())


def grid_lines(rows) -> list[str]:
    """Cells of the 8x8 grid: b from m6 at the top down to 0, a from 0 to m6
    left to right, each cell the 1-based row holding the point, "o" at the
    origin."""
    owner = {(0, 0): "o"}
    for k, row in enumerate(rows, start=1):
        for p in row:
            owner[p] = str(k)
    return [" ".join(owner[(a, b)] for a in ORDER) for b in reversed(ORDER)]


def linearized(coeffs, x: int) -> int:
    x2 = MUL[x][x]
    x4 = MUL[x2][x2]
    return MUL[coeffs[0]][x] ^ MUL[coeffs[1]][x2] ^ MUL[coeffs[2]][x4]


def curve_points(lcoef, mcoef) -> set[tuple[int, int]]:
    """All (a, b) with l0*b + l1*b^2 + l2*b^4 = m0*a + m1*a^2 + m2*a^4."""
    return {
        (a, b) for a in range(8) for b in range(8)
        if linearized(lcoef, b) == linearized(mcoef, a)
    }


def point_json(p) -> list[str]:
    return [TOKEN[p[0]], TOKEN[p[1]]]
