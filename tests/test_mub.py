"""Eigenbases, unbiasedness, separability labels, structure tuples."""

from itertools import combinations

import numpy as np
import pytest

from mub3q import mub, reference
from mub3q.mub import (
    BISEPARABLE,
    NONSEPARABLE,
    TRISEPARABLE,
    SeparabilityError,
    Basis,
    build_bases,
    eigenbasis,
    separability,
    structure,
    unbiasedness,
    verify_mub_set,
)
from mub3q.pauli import PauliOp, class_from_generators, class_from_row
from mub3q.phasespace import StriationTable

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
            for p in mub._single_qubit_purities(state):
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
        purities = mub._single_qubit_purities(state)
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
