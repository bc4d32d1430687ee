"""Eigenbases of the nine commuting classes and their MUB checks.

Each class of 7 commuting Paulis has a common eigenbasis of 8 states,
one per sign pattern of the three generators.  The Paulis are signed
permutations, so each state is built exactly from the 8 group elements
as (x mask, z mask, phase) triples: no matrix is multiplied and no
projector is formed.

Two bases are mutually unbiased when every cross overlap has squared
magnitude 1/8.  For the eigenbases of two Lagrangian rows S and T that
share 2^k - 1 nonzero points, each squared overlap is 2^k/8 or 0
(Aaronson & Gottesman, PRA 70, 052328 (2004)), so the pair is unbiased
iff the rows share no point.  `verify_mub_set` decides exactly from the
rows, and builds no basis; the tests check it against a 72x72 Gram
matrix of the states.

Each basis is labeled triseparable / biseparable / nonseparable exactly,
from its row mask: qubit j of every eigenstate is pure iff the row holds
a point whose Pauli acts on qubit j alone (the stabilizers of a state
that are supported on one qubit fix that qubit's reduced state).  Three,
one and no pure qubits give the three labels.  The tests check the rule
against the purities of the single-qubit reduced states, which for these
stabilizer states are exactly 1 or 1/2.

The module needs no numpy: the states are tuples of Python complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

from .gf8 import SELF_DUAL_MASK
from .pauli import OperatorClass, class_from_row, commutes_op, pauli_to_point
from .phasespace import InvalidTableError, StriationTable, row_mask

TRISEPARABLE = "triseparable"
BISEPARABLE = "biseparable"
NONSEPARABLE = "nonseparable"

_SIGN_PATTERNS = tuple(product((1, -1), repeat=3))
# Bit j of a flip mask is set when generator j takes the sign -1.
_FLIP_MASKS = tuple(
    sum(1 << j for j, s in enumerate(signs) if s < 0) for signs in _SIGN_PATTERNS
)
# A normalised column with 8/n entries of magnitude n/8: each entry over
# the float norm of the column, the value a numeric normalisation gives.
_MAGNITUDES = {n: n / 8 / math.sqrt(8 // n * (n / 8) ** 2) for n in (1, 2, 4, 8)}
# i^k times that magnitude, k = 0..3, with no negative zeros.
_UNITS = {
    n: (complex(m, 0.0), complex(0.0, m), complex(-m, 0.0), complex(0.0, -m))
    for n, m in _MAGNITUDES.items()
}
# _QUBIT_MASKS[j] holds the 3 packed points a << 3 | b whose Pauli acts on
# the qubit of bit j alone: their X and Z masks OR to 1 << j.
_QUBIT_MASKS = tuple(
    sum(1 << x for x in range(64) if SELF_DUAL_MASK[x >> 3] | SELF_DUAL_MASK[x & 7] == 1 << j)
    for j in range(3)
)


class EigenbasisError(RuntimeError):
    """The generators have no common eigenbasis of 8 states: one is not
    Hermitian, two anticommute, or they are dependent."""


class SeparabilityError(ValueError):
    """The 8 states of a basis do not share one separability pattern."""


@dataclass(frozen=True)
class Basis:
    """8 orthonormal states of 8 amplitudes each, with a separability label."""

    states: tuple[tuple[complex, ...], ...]
    label: str


def _group(gens) -> list[tuple[int, int, int]]:
    """The 8 products of three commuting Hermitian generators as
    (x mask, z mask, e) triples, element t multiplying the generators
    whose bits are set in t.  With qubit 1 the most significant bit of a
    basis index, the operator maps basis vector e_c to
    i^(e + 2 popcount(c & z)) e_(c ^ x)."""
    elems = [(0, 0, 0)]
    for k, g in enumerate(gens):
        if g.phase % 2:
            raise EigenbasisError(f"generator {g.label()} is not Hermitian")
        if not all(commutes_op(g, h) for h in gens[:k]):
            raise EigenbasisError(f"generator {g.label()} anticommutes with another")
        x, z = g.x, g.z
        e = g.phase + (x & z).bit_count()
        elems += [
            (x1 ^ x, z1 ^ z, (e1 + e + 2 * (x & z1).bit_count()) % 4)
            for x1, z1, e1 in elems
        ]
    if len({(x, z) for x, z, _ in elems}) != 8:
        raise EigenbasisError("dependent generators: two products share their X and Z bits")
    return elems


def eigenbasis(op_class: OperatorClass) -> Basis:
    """Common eigenbasis of a commuting class, one state per sign pattern.

    For signs s in {+1,-1}^3 the projector onto the common eigenspace is
    (1/8) sum over the 8 group elements S of chi_s(S) S, where chi_s(S)
    multiplies the signs of the generators in S.  Each S is a signed
    permutation, so column c of the sum is exact: S e_c is one unit i^k
    at index c ^ x_S.  The state is the first column whose diagonal entry
    is nonzero, normalised, with the global phase fixed so the first
    nonzero amplitude is real positive.  No matrix is multiplied and no
    projector is formed.  The label is the class's exact one
    (`class_label`).
    """
    elems = _group(op_class.generator_ops())
    # The diagonal entry of column c adds the units of the n elements with
    # no X bits; it is nonzero iff each of them acts on e_c as +1.  Then
    # the n elements sharing any X bits add equal units, so the column
    # holds 8/n entries n/8 * i^k, and its normalised entries all have
    # the magnitude `_MAGNITUDES[n]`.  The diagonal entry is real positive
    # and, c being the first index of the support, the first nonzero one:
    # the column already meets the phase rule.
    n = sum(x == 0 for x, _, _ in elems)
    units = _UNITS[n]
    states = []
    for flips in _FLIP_MASKS:
        signed = [(x, z, e + 2 * (t & flips).bit_count()) for t, (x, z, e) in enumerate(elems)]
        diagonal = [(z, e) for x, z, e in signed if x == 0]
        c = next(
            c for c in range(8)
            if all((e + 2 * (c & z).bit_count()) % 4 == 0 for z, e in diagonal)
        )
        column = {c ^ x: (e + 2 * (c & z).bit_count()) % 4 for x, z, e in signed}
        states.append(tuple(units[column[r]] if r in column else 0j for r in range(8)))
    mask = row_mask([pauli_to_point(op) for op in op_class.ops])
    return Basis(states=tuple(states), label=class_label(mask))


def _label_of_pure_count(pure_count: int) -> str:
    if pure_count == 3:
        return TRISEPARABLE
    if pure_count == 1:
        return BISEPARABLE
    if pure_count == 0:
        return NONSEPARABLE
    raise SeparabilityError("exactly two pure qubits is impossible for pure states")


def class_label(mask: int) -> str:
    """Exact separability label of the eigenbasis of a row, given its mask
    (`row_mask`): qubit j is pure iff the row holds a point whose Pauli
    acts on qubit j alone."""
    return _label_of_pure_count(sum(mask & q != 0 for q in _QUBIT_MASKS))


def build_bases(table: StriationTable) -> list[Basis]:
    """The nine eigenbases of a striation table's operator classes."""
    return [eigenbasis(class_from_row(row)) for row in table.rows]


@dataclass(frozen=True)
class MubReport:
    """The checks of a table's nine bases."""

    orthonormality_defect: float
    unbiasedness_defect: float
    structure: tuple[int, int, int]
    passed: bool

    def to_json(self) -> dict:
        return {
            "orthonormality_defect": self.orthonormality_defect,
            "unbiasedness_defect": self.unbiasedness_defect,
            "structure": list(self.structure),
            "pass": self.passed,
        }


def table_labels(table: StriationTable) -> list[str]:
    """Exact labels of a table's nine bases, in row order, from row masks."""
    return [class_label(row_mask(row)) for row in table.rows]


def structure_of(labels: list[str]) -> tuple[int, int, int]:
    """Counts of (triseparable, biseparable, nonseparable) labels."""
    return (
        labels.count(TRISEPARABLE),
        labels.count(BISEPARABLE),
        labels.count(NONSEPARABLE),
    )


def verify_mub_set(table: StriationTable) -> MubReport:
    """Check a table's nine bases exactly, from its rows; no basis is built.

    The table must hold 9 rows, and every row must pass `row_mask`, so each
    basis is orthonormal by construction: its 8 states have distinct sign
    patterns, and the orthonormality defect is 0.  Two rows sharing 2^k - 1
    nonzero points give squared overlaps 2^k/8 and 0, so the unbiasedness
    defect, max over pairs of | |<psi|phi>|^2 - 1/8 |, is the largest
    number of points a pair of rows shares, over 8."""
    if len(table.rows) != 9:
        raise InvalidTableError(f"a table must hold 9 rows, not {len(table.rows)}")
    masks = [row_mask(row) for row in table.rows]
    shared = max((m & n).bit_count() for m, n in combinations(masks, 2))
    return MubReport(
        orthonormality_defect=0.0,
        unbiasedness_defect=shared / 8,
        structure=structure_of([class_label(m) for m in masks]),
        passed=shared == 0,
    )


def structure(table: StriationTable) -> tuple[int, int, int]:
    """Counts of (triseparable, biseparable, nonseparable) bases, from the
    exact labels."""
    return structure_of(table_labels(table))
