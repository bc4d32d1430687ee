"""Eigenbases, unbiasedness, separability labels, structure tuples."""

import random
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mub3q import mub, reference
from mub3q.mub import (
    BISEPARABLE,
    NONSEPARABLE,
    TRISEPARABLE,
    SeparabilityError,
    Basis,
    build_bases,
    class_label,
    eigenbasis,
    structure,
    structure_of,
    table_labels,
    verify_mub_set,
)
from mub3q.pauli import OperatorClass, PauliOp, class_from_row, pauli_to_point
from mub3q.phasespace import StriationTable, build_table, echelon, pack

from conftest import seed_from_tokens, symplectic_image
from oracles import (
    _single_qubit_purities,
    class_from_generators,
    orthonormality_defect,
    separability,
    unbiasedness,
)

def _class(*labels):
    return class_from_generators(*(PauliOp.from_label(s) for s in labels))


def test_z_class_gives_computational_basis():
    basis = eigenbasis(_class("ZII", "IZI", "IIZ"))
    # one standard basis vector per state, in some order, phases +1
    mags = np.abs(basis.states)
    assert np.allclose(np.sort(mags, axis=1)[:, :7], 0, atol=1e-12)
    assert np.allclose(np.max(mags, axis=1), 1, atol=1e-12)
    assert np.allclose(basis.states[np.abs(basis.states) > 0.5].imag, 0)
    assert basis.label == TRISEPARABLE


def test_x_class_gives_hadamard_product_basis():
    basis = eigenbasis(_class("XII", "IXI", "IIX"))
    assert np.allclose(np.abs(basis.states), 1 / np.sqrt(8), atol=1e-12)
    assert basis.label == TRISEPARABLE
    # oracle: explicit tensor products of (|0> + s|1>)/sqrt(2)
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    expected = []
    for s1 in (plus, minus):
        for s2 in (plus, minus):
            for s3 in (plus, minus):
                expected.append(np.kron(np.kron(s1, s2), s3))
    overlap = np.abs(np.array(expected).conj() @ basis.states.T)
    # same set of states (a permutation matrix of unit overlaps)
    assert np.allclose(np.sort(overlap, axis=1)[:, -1], 1, atol=1e-12)
    assert np.allclose(overlap.sum(), 8, atol=1e-10)


def test_eigenbasis_orthonormal_and_eigenvectors(example_tables):
    for table in example_tables.values():
        for row in table.rows:
            cls = class_from_row(row)
            basis = eigenbasis(cls)
            gram = basis.states.conj() @ basis.states.T
            assert np.max(np.abs(gram - np.eye(8))) < 1e-10
            # states are eigenvectors of all 7 class operators, not just generators
            for op in cls.ops:
                mat = op.matrix()
                for state in basis.states:
                    image = mat @ state
                    sign = np.vdot(state, image).real
                    assert abs(abs(sign) - 1) < 1e-10
                    assert np.linalg.norm(image - np.sign(sign) * state) < 1e-10


def test_eigenbasis_deterministic():
    cls = _class("XII", "IXI", "IIX")
    a = eigenbasis(cls).states
    b = eigenbasis(cls).states
    assert a.tobytes() == b.tobytes()


def _dense_eigenbasis(op_class) -> np.ndarray:
    """Oracle: the states from dense products of the rank-1 projectors
    (1 + s_j G_j)/2 over the generators, one per sign pattern in
    `mub._SIGN_PATTERNS` order: each projector's first nonzero column,
    normalised, with the first nonzero amplitude made real positive."""
    gens = [op.matrix() for op in op_class.generator_ops()]
    eye = np.eye(8, dtype=complex)
    states = np.empty((8, 8), dtype=complex)
    for row, signs in enumerate(mub._SIGN_PATTERNS):
        proj = eye
        for s, g in zip(signs, gens):
            proj = proj @ (eye + s * g) / 2
        assert abs(proj.trace().real - 1.0) < 1e-8
        norms = np.linalg.norm(proj, axis=0)
        col = int(np.argmax(norms > 1e-8))
        state = proj[:, col] / norms[col]
        first = state[np.argmax(np.abs(state) > 1e-8)]
        states[row] = state * (first.conjugate() / abs(first))
    return states


@pytest.fixture(scope="module")
def image_tables():
    """200 seeded symplectic images of the three-axes seed."""
    return [
        build_table(symplectic_image(rng.choices(range(1, 64), k=rng.randint(1, 24))))
        for rng in map(random.Random, range(200))
    ]


def _assert_same_as_dense(tables):
    for table in tables:
        bases = verify_mub_set(table).bases
        for row, basis in zip(table.rows, bases):
            assert basis.states.tobytes() == _dense_eigenbasis(class_from_row(row)).tobytes()


def test_eigenbasis_equals_dense_projectors_on_examples(example_tables):
    _assert_same_as_dense(example_tables.values())


def test_eigenbasis_equals_dense_projectors_on_symplectic_images(image_tables):
    assert {structure(t) for t in image_tables} == set(reference.KNOWN_STRUCTURES)
    _assert_same_as_dense(image_tables)


def test_one_gram_defects_equal_pairwise_defects(example_tables, image_tables):
    for table in [*example_tables.values(), *image_tables]:
        report = verify_mub_set(table)
        assert report.orthonormality_defect == max(map(orthonormality_defect, report.bases))
        assert report.unbiasedness_defect == max(
            unbiasedness(b1, b2) for b1, b2 in combinations(report.bases, 2))


def test_eigenbasis_builds_no_operator_matrix(monkeypatch):
    cls = _class("XXX", "ZZI", "IZZ")
    want = eigenbasis(cls).states.tobytes()
    monkeypatch.setattr(PauliOp, "matrix", None)
    assert eigenbasis(cls).states.tobytes() == want


@pytest.mark.parametrize("labels", [("+iZII", "IZI", "IIZ"), ("ZII", "XII", "IIZ")],
                         ids=["non-hermitian", "anticommuting"])
def test_eigenbasis_rejects_generators_without_a_common_basis(labels):
    ops = tuple(PauliOp.from_label(s) for s in labels)
    with pytest.raises(mub.EigenbasisError):
        eigenbasis(OperatorClass(ops=ops))


def test_class_from_row_generators_span_sorted_rows(example_tables):
    # sorted, a row's first three points are GF(2)-dependent
    for table in example_tables.values():
        rows = tuple(tuple(sorted(row)) for row in table.rows)
        for row in rows:
            cls = class_from_row(row)
            gens = [pack(pauli_to_point(op)) for op in cls.generator_ops()]
            assert len(echelon(gens)[0]) == 3
        report = verify_mub_set(StriationTable(rows=rows))
        assert report.passed
        assert report.structure == structure(table)


def test_eigenbasis_rejects_dependent_generators():
    cls = _class("ZII", "IZI", "IIZ")
    broken = type(cls)(ops=(cls.ops[0],) * 7, generators=(0, 1, 2))
    with pytest.raises(mub.EigenbasisError):
        eigenbasis(broken)


def test_unbiasedness_values():
    z = eigenbasis(_class("ZII", "IZI", "IIZ"))
    x = eigenbasis(_class("XII", "IXI", "IIX"))
    assert unbiasedness(z, x) < 1e-12
    assert abs(unbiasedness(z, z) - 7 / 8) < 1e-12


def test_separability_labels():
    assert eigenbasis(_class("ZII", "IZI", "IIZ")).label == TRISEPARABLE
    bi = eigenbasis(_class("ZII", "IXX", "IZZ"))
    assert bi.label == BISEPARABLE
    assert separability(bi) == BISEPARABLE
    ghz = eigenbasis(_class("XXX", "ZZI", "IZZ"))
    assert ghz.label == NONSEPARABLE


def test_separability_purity_values():
    for labels in (("ZII", "IZI", "IIZ"), ("ZII", "IXX", "IZZ"), ("XXX", "ZZI", "IZZ")):
        basis = eigenbasis(_class(*labels))
        for state in basis.states:
            for p in _single_qubit_purities(state):
                assert min(abs(p - 1.0), abs(p - 0.5)) < 1e-9


def test_separability_rejects_mixed_bases():
    z = eigenbasis(_class("ZII", "IZI", "IIZ")).states
    ghz = eigenbasis(_class("XXX", "ZZI", "IZZ")).states
    mixed = Basis(states=np.vstack([z[:4], ghz[:4]]), label="?")
    with pytest.raises(SeparabilityError):
        separability(mixed)


def test_biseparable_purities():
    basis = eigenbasis(_class("ZII", "IXX", "IZZ"))
    for state in basis.states:
        purities = _single_qubit_purities(state)
        assert abs(purities[0] - 1.0) < 1e-9
        assert abs(purities[1] - 0.5) < 1e-9
        assert abs(purities[2] - 0.5) < 1e-9


def test_verify_reference_tables(example_tables):
    for table in example_tables.values():
        report = verify_mub_set(table)
        assert report.passed
        assert report.orthonormality_defect < 1e-10
        assert report.unbiasedness_defect < 1e-10
        assert sum(report.structure) == 9
        assert report.structure in reference.KNOWN_STRUCTURES


def test_verify_all_36_pairs_unbiased(example_tables):
    table = next(iter(example_tables.values()))
    bases = build_bases(table)
    pairs = list(combinations(bases, 2))
    assert len(pairs) == 36
    for b1, b2 in pairs:
        assert unbiasedness(b1, b2) < 1e-10


def test_swapped_points_break_verification(example_tables):
    table = next(iter(example_tables.values()))
    rows = [list(r) for r in table.rows]
    rows[2][0], rows[3][0] = rows[3][0], rows[2][0]
    broken = StriationTable(rows=tuple(tuple(r) for r in rows))
    from mub3q.phasespace import validate_table
    assert not validate_table(broken).valid
    from mub3q.pauli import AnticommutingRowError
    with pytest.raises(AnticommutingRowError):
        verify_mub_set(broken)


def test_structure_tuples(example_tables):
    got = {key: structure(table) for key, table in example_tables.items()}
    assert got[("three-axes", ("m3",))] == (3, 0, 6)
    assert got[("three-axes", ("m5",))] == (3, 0, 6)
    assert got[("two-axes", ("m2", "m3"))] == (2, 3, 4)
    assert got[("one-axis", ("m2", "m6", "m4"))] == (2, 3, 4)
    assert got[("one-axis", ("m3", "m6", "m4"))] == (2, 3, 4)
    assert got[("no-axis", ("1", "m3", "m2", "m", "1"))] == (2, 3, 4)
    for tup in got.values():
        assert sum(tup) == 9
        assert tup in reference.KNOWN_STRUCTURES


def test_mub_set_bundle(example_tables):
    # the report bundles the nine bases it checked with their structure
    table = example_tables[("three-axes", ("m3",))]
    bundle = verify_mub_set(table)
    assert len(bundle.bases) == 9
    assert bundle.structure == (3, 0, 6)
    assert [b.label for b in bundle.bases] == [b.label for b in build_bases(table)]


def test_report_json_shape(example_tables):
    report = verify_mub_set(next(iter(example_tables.values())))
    obj = report.to_json()
    assert list(obj) == ["orthonormality_defect", "unbiasedness_defect", "structure", "pass"]
    assert obj["pass"] is True
    assert isinstance(obj["structure"], list) and len(obj["structure"]) == 3


def test_class_label_rejects_two_pure_qubits():
    # no class of 7 commuting operators has this shape; the rule still refuses it
    ops = tuple(PauliOp.from_label(s) for s in ("ZII", "IZI", "ZZI"))
    with pytest.raises(SeparabilityError):
        class_label(OperatorClass(ops=ops))


# The matrices of the single-qubit Paulis, for the Kronecker-product oracle.
_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _kron_matrix(op: PauliOp) -> np.ndarray:
    out = np.array([[1j ** op.phase]], dtype=complex)
    for ch in op.letters():
        out = np.kron(out, _SINGLE[ch])
    return out


def test_matrix_equals_kronecker_product():
    for x, z in product(range(8), repeat=2):
        for phase in range(4):
            op = PauliOp(x=x, z=z, phase=phase)
            assert np.array_equal(op.matrix(), _kron_matrix(op)), op.label()


def _check_exact_against_numeric(table: StriationTable) -> tuple[int, int, int]:
    """Exact labels and structure against purities computed from the states."""
    numeric = [separability(eigenbasis(class_from_row(row))) for row in table.rows]
    assert table_labels(table) == numeric
    assert verify_mub_set(table).passed
    got = structure(table)
    assert got == structure_of(numeric)
    return got


def test_exact_labels_match_purities_on_examples(example_tables):
    for table in example_tables.values():
        _check_exact_against_numeric(table)


@settings(max_examples=60, deadline=None)
@given(indices=st.lists(st.integers(1, 63), min_size=1, max_size=24))
def test_exact_labels_match_purities_on_symplectic_images(indices):
    _check_exact_against_numeric(build_table(symplectic_image(indices)))


# Symplectic images of the three-axes seed with the two structures that no
# reference table has (the seeds of the golden corpus).
@pytest.mark.parametrize("row1, row2, want", [
    ((("m4", "m6"), ("m5", "0"), ("m", "m3")), (("m2", "0"), ("m5", "1"), ("0", "m6")),
     (1, 6, 2)),
    ((("m2", "m2"), ("1", "1"), ("m4", "m")), (("m3", "m3"), ("m5", "m"), ("m6", "m5")),
     (0, 9, 0)),
], ids=["1-6-2", "0-9-0"])
def test_exact_labels_match_purities_on_rare_structures(row1, row2, want):
    assert _check_exact_against_numeric(build_table(seed_from_tokens(row1, row2))) == want
