"""Pauli operators: association anchors, phase-exact products, commutation."""

import random
from itertools import product

import numpy as np
import pytest

from mub3q.pauli import (
    AnticommutingRowError,
    PauliOp,
    class_from_row,
    commutes_op,
    multiply,
    pauli_to_point,
    point_to_pauli,
)
from mub3q.phasespace import InvalidTableError, commutes

from conftest import tk
from oracles import IDENTITY, class_from_generators

ALL_POINTS = [(a, b) for a in range(8) for b in range(8)]


# ---------------------------------------------------------------------------
# Oracle: 2x2 matrices and kron products built here, independent of
# PauliOp.matrix's phase bookkeeping.
# ---------------------------------------------------------------------------

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SINGLE = {"I": I2, "X": SX, "Y": SY, "Z": SZ}


def oracle_matrix(op: PauliOp) -> np.ndarray:
    out = np.array([[1j ** (op.phase % 4)]], dtype=complex)
    for x, z in ((op.x >> k & 1, op.z >> k & 1) for k in (2, 1, 0)):
        letter = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}[(x, z)]
        out = np.kron(out, SINGLE[letter])
    return out


def test_association_anchors():
    assert point_to_pauli((tk("m3"), 0)).label() == "XII"
    assert point_to_pauli((tk("m5"), 0)).label() == "IXI"
    assert point_to_pauli((tk("m6"), 0)).label() == "IIX"
    assert point_to_pauli((0, tk("m3"))).label() == "ZII"
    assert point_to_pauli((0, tk("m5"))).label() == "IZI"
    assert point_to_pauli((0, tk("m6"))).label() == "IIZ"


def test_diagonal_point_gives_hermitian_y():
    op = point_to_pauli((tk("m3"), tk("m3")))
    assert op.label() == "YII"
    assert op.phase == 0
    mat = op.matrix()
    assert np.allclose(mat, mat.conj().T)  # Hermitian
    assert np.allclose(mat @ mat, np.eye(8))  # involutive


def test_point_operator_bijection():
    labels = {point_to_pauli(p).label() for p in ALL_POINTS}
    assert len(labels) == 64
    for p in ALL_POINTS:
        assert pauli_to_point(point_to_pauli(p)) == p
    assert point_to_pauli((0, 0)) == IDENTITY


def test_multiply_examples():
    x1 = PauliOp.from_label("XII")
    z3 = PauliOp.from_label("IIZ")
    assert multiply(x1, z3).label() == "XIZ"
    assert multiply(x1, x1) == IDENTITY
    z1 = PauliOp.from_label("ZII")
    prod = multiply(x1, z1)
    assert prod.label() == "-iYII"  # XZ = -iY
    assert np.allclose(prod.matrix(), oracle_matrix(x1) @ oracle_matrix(z1))


def test_multiply_phase_exact_on_random_pairs():
    # every pair of the 64 X/Z masks, each operator with a random phase;
    # the entries are sums of products of 0, +-1 and +-i, so exact
    rng = random.Random(20240817)
    ops = [PauliOp(x, z, rng.randrange(4)) for x, z in product(range(8), repeat=2)]
    mats = [oracle_matrix(op) for op in ops]
    for (p, mp), (q, mq) in product(zip(ops, mats), repeat=2):
        assert np.array_equal(multiply(p, q).matrix(), mp @ mq)
    # associativity on a few random triples
    for _ in range(50):
        p, q, r = (rng.choice(ops) for _ in range(3))
        assert multiply(multiply(p, q), r) == multiply(p, multiply(q, r))


def test_commutes_op_examples():
    assert commutes_op(PauliOp.from_label("XII"), PauliOp.from_label("IZI"))
    assert not commutes_op(PauliOp.from_label("XII"), PauliOp.from_label("ZII"))


def test_symplectic_matches_trace_condition_everywhere():
    for p, q in product(ALL_POINTS, repeat=2):
        assert commutes_op(point_to_pauli(p), point_to_pauli(q)) == commutes(p, q)


def test_commutes_op_matches_matrix_commutator():
    ops = [point_to_pauli(p) for p in ALL_POINTS]
    mats = [oracle_matrix(op) for op in ops]
    for (p, mp), (q, mq) in product(zip(ops, mats), repeat=2):
        assert commutes_op(p, q) == np.array_equal(mp @ mq, mq @ mp)


def test_label_round_trip():
    for p in ALL_POINTS:
        op = point_to_pauli(p)
        assert PauliOp.from_label(op.label()) == op
    for s in ("XIZ", "-iYIX", "+iZZZ", "-XYZ"):
        assert PauliOp.from_label(s).label() == s
    with pytest.raises(ValueError):
        PauliOp.from_label("XY")
    with pytest.raises(ValueError):
        PauliOp.from_label("ABC")


def test_class_from_axis_rows(three_axes_m3_table):
    z_class = class_from_row(three_axes_m3_table.rows[0])
    assert {op.letters() for op in z_class.ops} == {
        "ZII", "IZI", "IIZ", "ZZI", "ZIZ", "IZZ", "ZZZ"
    }
    x_class = class_from_row(three_axes_m3_table.rows[1])
    assert {op.letters() for op in x_class.ops} == {
        "XII", "IXI", "IIX", "XXI", "XIX", "IXX", "XXX"
    }
    assert z_class.generators == (0, 1, 2)


def test_class_rows_commute_in_reference_tables(example_tables):
    for table in example_tables.values():
        for row in table.rows:
            cls = class_from_row(row)
            for i in range(7):
                for j in range(i + 1, 7):
                    assert commutes_op(cls.ops[i], cls.ops[j])


def test_class_rejects_anticommuting_row():
    row = (
        (tk("m3"), 0), (0, tk("m3")), (tk("m5"), 0),
        (0, tk("m5")), (tk("m6"), 0), (0, tk("m6")), (tk("m3"), tk("m3")),
    )
    with pytest.raises(AnticommutingRowError):
        class_from_row(row)


def test_class_rejects_rows_that_are_not_striation_rows():
    # a repeated point or the origin: rejected by the row rule, not later by
    # a label that finds exactly two pure qubits
    axis = tuple((0, b) for b in range(1, 8))
    for row in (axis[:6] + axis[:1], axis[:6] + ((0, 0),)):
        with pytest.raises(InvalidTableError, match="7 distinct nonzero points"):
            class_from_row(row)
    assert issubclass(AnticommutingRowError, InvalidTableError)


def test_class_closed_under_multiplication_up_to_phase(example_tables):
    table = next(iter(example_tables.values()))
    for row in table.rows:
        cls = class_from_row(row)
        words = {op.letters() for op in cls.ops} | {"III"}
        for p, q in product(cls.ops, repeat=2):
            assert multiply(p, q).letters() in words


def test_class_from_generators():
    cls = class_from_generators(
        PauliOp.from_label("ZII"), PauliOp.from_label("IZI"), PauliOp.from_label("IIZ")
    )
    assert [op.letters() for op in cls.ops[:3]] == ["ZII", "IZI", "IIZ"]
    assert len({op.letters() for op in cls.ops}) == 7
    with pytest.raises(AnticommutingRowError):
        class_from_generators(
            PauliOp.from_label("XII"), PauliOp.from_label("ZII"), PauliOp.from_label("IIZ")
        )


def test_rows_of_valid_table_cover_63_operators(example_tables):
    for table in example_tables.values():
        labels = {
            op.letters() for row in table.rows for op in class_from_row(row).ops
        }
        assert len(labels) == 63
        assert "III" not in labels
