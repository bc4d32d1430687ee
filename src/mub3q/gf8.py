"""Arithmetic in GF(8) = GF(2)[x] / (x^3 + x + 1).

A field element is an int in 0..7 whose bits are the coordinates in the
polynomial basis {1, mu, mu^2}, where mu is the primitive element (the
class of x, with mu^3 = mu + 1).  Every nonzero element is a power mu^k
with k in 0..6; log/antilog tables are built once at import time, so
multiplication is two table lookups.

Conventions used by the whole package:
  * trace map        tr(x) = x + x^2 + x^4, values in {0, 1}
  * self-dual basis  (mu^3, mu^5, mu^6), i.e. tr(b_i * b_j) = delta_ij;
                     SELF_DUAL_MASK[x] holds x's coordinates, 3 bits
  * display order    0 < 1 < mu < mu^2 < ... < mu^6
  * text tokens      "0", "1", "m", "m2", ..., "m6"

All functions are pure and all tables are immutable after import.
"""

from __future__ import annotations

IRREDUCIBLE = 0b1011  # x^3 + x + 1
MU = 0b010

FieldElement = int
Bit = int


def _xtime(v: int) -> int:
    """Multiply by mu, reducing with mu^3 = mu + 1."""
    v <<= 1
    if v & 0b1000:
        v ^= IRREDUCIBLE
    return v


def _build_exp() -> tuple[int, ...]:
    out = [1]
    for _ in range(6):
        out.append(_xtime(out[-1]))
    return tuple(out)


# EXP[k] = mu^k for k in 0..6; LOG[x] = k for nonzero x, None for 0.
EXP: tuple[int, ...] = _build_exp()
LOG: tuple[int | None, ...] = tuple(
    None if x == 0 else EXP.index(x) for x in range(8)
)

# All 8 elements in display order: 0, 1, mu, mu^2, ..., mu^6.
ELEMENTS: tuple[int, ...] = (0,) + EXP
ORDER_KEY: tuple[int, ...] = tuple(ELEMENTS.index(x) for x in range(8))

TOKENS: tuple[str, ...] = ("0", "1", "m", "m2", "m3", "m4", "m5", "m6")
# TOKEN_OF[x] is the token of element x; unchecked, unlike to_token.
TOKEN_OF: tuple[str, ...] = tuple(TOKENS[ORDER_KEY[x]] for x in range(8))
_ELEMENT_OF_TOKEN: dict[str, int] = {t: ELEMENTS[i] for i, t in enumerate(TOKENS)}


def check_element(x: int) -> int:
    """Validate that x is a field element; returns it unchanged."""
    if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x <= 7:
        raise ValueError(f"not a GF(8) element: {x!r}")
    return x


def add(x: FieldElement, y: FieldElement) -> FieldElement:
    """Sum in GF(8): coordinate-wise GF(2) addition (XOR)."""
    return x ^ y


def mul(x: FieldElement, y: FieldElement) -> FieldElement:
    """Product in GF(8) via log/antilog tables."""
    if x == 0 or y == 0:
        return 0
    return EXP[(LOG[x] + LOG[y]) % 7]


# MUL[x][y] = x * y, the product table.
MUL: tuple[tuple[int, ...], ...] = tuple(tuple(mul(x, y) for y in range(8)) for x in range(8))


def square(x: FieldElement) -> FieldElement:
    """x^2 (the Frobenius map, GF(2)-linear)."""
    return mul(x, x)


def _trace_raw(x: int) -> int:
    x2 = mul(x, x)
    return x ^ x2 ^ mul(x2, x2)


TRACE: tuple[int, ...] = tuple(_trace_raw(x) for x in range(8))
assert all(t in (0, 1) for t in TRACE)


def trace(x: FieldElement) -> Bit:
    """tr(x) = x + x^2 + x^4, in {0, 1}."""
    return TRACE[x]


SELF_DUAL_BASIS: tuple[int, int, int] = (EXP[3], EXP[5], EXP[6])
# SELF_DUAL_MASK[x] holds the self-dual coordinates tr(x*mu^3), tr(x*mu^5)
# and tr(x*mu^6) of x as bits 2, 1 and 0.  It is a bijection, and tr(x*y)
# is the parity of SELF_DUAL_MASK[x] & SELF_DUAL_MASK[y].
SELF_DUAL_MASK: tuple[int, ...] = tuple(
    sum(TRACE[mul(x, b)] << 2 - i for i, b in enumerate(SELF_DUAL_BASIS)) for x in range(8)
)


def order_key(x: FieldElement) -> int:
    """Position of x in the display order 0 < 1 < mu < ... < mu^6."""
    return ORDER_KEY[x]


def to_token(x: FieldElement) -> str:
    """Text token of an element: "0", "1", "m", "m2", ..., "m6"."""
    return TOKEN_OF[check_element(x)]


def from_token(s: str) -> FieldElement:
    """Parse a text token back to an element."""
    if not isinstance(s, str) or s not in _ELEMENT_OF_TOKEN:
        raise ValueError(f"not a GF(8) token: {s!r}")
    return _ELEMENT_OF_TOKEN[s]
