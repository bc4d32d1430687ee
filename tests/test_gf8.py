"""GF(8) arithmetic against an independent polynomial oracle."""

from itertools import product

import pytest

from mub3q import gf8

M = gf8.from_token


# ---------------------------------------------------------------------------
# Oracle: plain polynomial arithmetic in GF(2)[x] mod x^3 + x + 1, written
# with shift/xor only, independent of the log/antilog tables under test.
# ---------------------------------------------------------------------------

def oracle_mul(a: int, b: int) -> int:
    prod = 0
    for shift in range(3):
        if b >> shift & 1:
            prod ^= a << shift
    for deg in (4, 3):
        if prod >> deg & 1:
            prod ^= 0b1011 << (deg - 3)
    return prod


def oracle_trace(x: int) -> int:
    x2 = oracle_mul(x, x)
    x4 = oracle_mul(x2, x2)
    return x ^ x2 ^ x4


def test_mul_matches_polynomial_oracle():
    for a, b in product(range(8), repeat=2):
        assert gf8.mul(a, b) == oracle_mul(a, b) == gf8.MUL[a][b]


def test_trace_matches_polynomial_oracle():
    for x in range(8):
        assert gf8.trace(x) == oracle_trace(x)
        assert gf8.trace(x) in (0, 1)


def test_exp_log_bijection():
    assert sorted(gf8.EXP) == list(range(1, 8))
    for k in range(7):
        assert gf8.LOG[gf8.EXP[k]] == k
    assert gf8.LOG[0] is None


# ---------------------------------------------------------------------------
# Pinned examples.
# ---------------------------------------------------------------------------

def test_add_examples():
    assert gf8.add(0, M("m5")) == M("m5")
    assert gf8.add(M("m3"), M("m")) == M("1")
    assert gf8.add(M("m6"), M("m2")) == M("1")


def test_mul_examples():
    assert gf8.mul(M("m5"), M("m4")) == M("m2")
    assert gf8.mul(M("1"), M("m3")) == M("m3")
    assert gf8.mul(M("m3"), M("m5")) == M("m")


def test_trace_examples():
    assert gf8.trace(0) == 0
    assert gf8.trace(M("m3")) == 1
    assert gf8.trace(M("m4")) == 0


def test_self_dual_coords_examples():
    # the self-dual basis elements are the unit masks, qubit 1 in bit 2
    assert gf8.SELF_DUAL_MASK[0] == 0
    assert gf8.SELF_DUAL_MASK[M("m3")] == 0b100
    assert gf8.SELF_DUAL_MASK[M("m5")] == 0b010
    assert gf8.SELF_DUAL_MASK[M("m6")] == 0b001


def test_from_coords_examples():
    # the table is a bijection, so a mask names one element
    assert sorted(gf8.SELF_DUAL_MASK) == list(range(8))
    # mu^3 + mu^5 + mu^6 = (m+1) + (m^2+m+1) + (m^2+1) = 1
    assert M("m3") ^ M("m5") ^ M("m6") == M("1")
    assert gf8.SELF_DUAL_MASK.index(0b111) == M("1")


# ---------------------------------------------------------------------------
# Field axioms and structural properties, exhaustively.
# ---------------------------------------------------------------------------

def test_field_axioms_exhaustive():
    elems = range(8)
    for a, b in product(elems, repeat=2):
        assert gf8.add(a, b) == gf8.add(b, a)
        assert gf8.mul(a, b) == gf8.mul(b, a)
    for a, b, c in product(elems, repeat=3):
        assert gf8.add(gf8.add(a, b), c) == gf8.add(a, gf8.add(b, c))
        assert gf8.mul(gf8.mul(a, b), c) == gf8.mul(a, gf8.mul(b, c))
        assert gf8.mul(a, gf8.add(b, c)) == gf8.add(gf8.mul(a, b), gf8.mul(a, c))
    for a in elems:
        assert gf8.add(a, a) == 0
        assert gf8.add(a, 0) == a
        assert gf8.mul(a, 1) == a
        assert gf8.mul(a, 0) == 0
    # multiplicative inverses for the 7 nonzero elements
    for a in range(1, 8):
        assert any(gf8.mul(a, b) == 1 for b in range(1, 8))


def test_frobenius_is_additive():
    for a, b in product(range(8), repeat=2):
        lhs = gf8.square(gf8.add(a, b))
        assert lhs == gf8.add(gf8.square(a), gf8.square(b))


def test_trace_is_linear_surjective_balanced():
    for a, b in product(range(8), repeat=2):
        assert gf8.trace(gf8.add(a, b)) == gf8.trace(a) ^ gf8.trace(b)
    values = [gf8.trace(x) for x in range(8)]
    assert values.count(0) == 4
    assert values.count(1) == 4


def test_self_dual_basis_property():
    basis = gf8.SELF_DUAL_BASIS
    assert basis == (M("m3"), M("m5"), M("m6"))
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            assert gf8.trace(gf8.mul(bi, bj)) == (1 if i == j else 0)


def test_coords_round_trip():
    # the basis is self-dual: tr(x*y) is the dot product of the coordinates
    for x, y in product(range(8), repeat=2):
        dot = (gf8.SELF_DUAL_MASK[x] & gf8.SELF_DUAL_MASK[y]).bit_count() % 2
        assert oracle_trace(oracle_mul(x, y)) == dot


def test_tokens_round_trip_and_order():
    assert [gf8.to_token(x) for x in gf8.ELEMENTS] == list(gf8.TOKENS)
    for x in range(8):
        assert gf8.from_token(gf8.to_token(x)) == x
    # display order: 0 < 1 < m < m2 < ... < m6
    keys = [gf8.order_key(x) for x in gf8.ELEMENTS]
    assert keys == sorted(keys)
    assert gf8.order_key(0) == 0
    assert gf8.order_key(1) == 1
    assert gf8.order_key(M("m6")) == 7


def test_token_errors():
    with pytest.raises(ValueError):
        gf8.from_token("m7")
    with pytest.raises(ValueError):
        gf8.from_token("")
    with pytest.raises(ValueError):
        gf8.check_element(8)
    with pytest.raises(ValueError):
        gf8.check_element(-1)
