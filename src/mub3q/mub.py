"""Eigenbases of the nine commuting classes and their MUB checks.

Each class of 7 commuting Paulis has a common eigenbasis of 8 states,
one per sign pattern of the three generators.  The Paulis are signed
permutations, so each state is built exactly from the 8 group elements
as (x mask, z mask, phase) triples: no matrix is multiplied and no
projector is formed.  Two bases are mutually unbiased when every cross
overlap has squared magnitude 1/8; `verify_mub_set` reads every overlap
of a table's nine bases from one 72x72 Gram matrix of their states.

Each basis is labeled triseparable / biseparable / nonseparable exactly,
from its class: qubit j of every eigenstate is pure iff the class holds
an operator acting on qubit j alone (the stabilizers of a state that are
supported on one qubit fix that qubit's reduced state).  Three, one and
no pure qubits give the three labels.  The tests check the rule against
the purities of the single-qubit reduced states, which for these
stabilizer states are exactly 1 or 1/2.

numpy is imported by `eigenbasis` and `verify_mub_set` only, so the
exact labels and structure need no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import TYPE_CHECKING

from .pauli import OperatorClass, class_from_row, commutes_op
from .phasespace import StriationTable

if TYPE_CHECKING:
    import numpy as np

ORTHO_TOL = 1e-10
UNBIAS_TOL = 1e-10

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


class EigenbasisError(RuntimeError):
    """The generators have no common eigenbasis of 8 states: one is not
    Hermitian, two anticommute, or they are dependent."""


class SeparabilityError(ValueError):
    """The 8 states of a basis do not share one separability pattern."""


@dataclass(frozen=True)
class Basis:
    """8 orthonormal states (rows of `states`) with a separability label."""

    states: np.ndarray
    label: str


def _group(gens) -> list[tuple[int, int, int]]:
    """The 8 products of three commuting Hermitian generators as
    (x mask, z mask, e) triples, element t multiplying the generators
    whose bits are set in t.  The operator maps basis vector e_c to
    i^(e + 2 popcount(c & z)) e_(c ^ x), as in `PauliOp.matrix`."""
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
    import numpy as np

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
        states.append([units[column[r]] if r in column else 0j for r in range(8)])
    return Basis(states=np.array(states, dtype=complex), label=class_label(op_class))


def _label_of_pure_count(pure_count: int) -> str:
    if pure_count == 3:
        return TRISEPARABLE
    if pure_count == 1:
        return BISEPARABLE
    if pure_count == 0:
        return NONSEPARABLE
    raise SeparabilityError("exactly two pure qubits is impossible for pure states")


def class_label(op_class: OperatorClass) -> str:
    """Exact separability label of a class's eigenbasis: qubit j is pure
    iff the class holds an operator whose X and Z bits are nonzero at
    qubit j only."""
    pure = {op.x | op.z for op in op_class.ops if (op.x | op.z).bit_count() == 1}
    return _label_of_pure_count(len(pure))


def build_bases(table: StriationTable) -> list[Basis]:
    """The nine eigenbases of a striation table's operator classes."""
    return [eigenbasis(class_from_row(row)) for row in table.rows]


@dataclass(frozen=True)
class MubReport:
    """The checks of a table's nine bases; `bases` is not part of the JSON."""

    orthonormality_defect: float
    unbiasedness_defect: float
    structure: tuple[int, int, int]
    passed: bool
    bases: tuple[Basis, ...] = field(compare=False, repr=False)

    def to_json(self) -> dict:
        return {
            "orthonormality_defect": self.orthonormality_defect,
            "unbiasedness_defect": self.unbiasedness_defect,
            "structure": list(self.structure),
            "pass": self.passed,
        }


def table_labels(table: StriationTable) -> list[str]:
    """Exact labels of a table's nine bases, in row order; no basis is built."""
    return [class_label(class_from_row(row)) for row in table.rows]


def structure_of(labels: list[str]) -> tuple[int, int, int]:
    """Counts of (triseparable, biseparable, nonseparable) labels."""
    return (
        labels.count(TRISEPARABLE),
        labels.count(BISEPARABLE),
        labels.count(NONSEPARABLE),
    )


def verify_mub_set(table: StriationTable) -> MubReport:
    """Build all nine bases and measure orthonormality and unbiasedness
    from one Gram matrix of their 72 states: the orthonormality defect of
    its diagonal 8x8 blocks and the unbiasedness defect, max over pairs of
    | |<psi|phi>|^2 - 1/8 |, of the 36 blocks above them.  The report
    keeps the bases, so callers need not build them again."""
    import numpy as np

    bases = build_bases(table)
    k = len(bases)
    stacked = np.concatenate([b.states for b in bases])
    blocks = (stacked.conj() @ stacked.T).reshape(k, 8, k, 8).transpose(0, 2, 1, 3)
    diag = np.arange(k)
    ortho = float(np.max(np.abs(blocks[diag, diag] - np.eye(8))))
    unbias = float(np.max(np.abs(np.abs(blocks[np.triu_indices(k, 1)]) ** 2 - 0.125)))
    return MubReport(
        orthonormality_defect=ortho,
        unbiasedness_defect=unbias,
        structure=structure_of([b.label for b in bases]),
        passed=ortho < ORTHO_TOL and unbias < UNBIAS_TOL,
        bases=tuple(bases),
    )


def structure(table: StriationTable) -> tuple[int, int, int]:
    """Counts of (triseparable, biseparable, nonseparable) bases, from the
    exact labels."""
    return structure_of(table_labels(table))
