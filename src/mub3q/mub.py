"""Eigenbases of the nine commuting classes and their MUB checks.

Each class of 7 commuting Paulis has a common eigenbasis of 8 states,
built deterministically from rank-1 projector products over the three
generators (one projector per sign pattern).  Two bases are mutually
unbiased when every cross overlap has squared magnitude 1/8; each basis
is labeled triseparable / biseparable / nonseparable from the purities
of the single-qubit reduced states, which for these stabilizer states
are exactly 1 or 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from .pauli import OperatorClass, class_from_row
from .phasespace import StriationTable

ORTHO_TOL = 1e-10
UNBIAS_TOL = 1e-10
PURITY_TOL = 1e-9

TRISEPARABLE = "triseparable"
BISEPARABLE = "biseparable"
NONSEPARABLE = "nonseparable"

_SIGN_PATTERNS = tuple(product((1, -1), repeat=3))


class EigenbasisError(RuntimeError):
    """A projector product failed to have rank 1 (dependent generators?)."""


class SeparabilityError(ValueError):
    """The 8 states of a basis do not share one separability pattern."""


@dataclass(frozen=True)
class Basis:
    """8 orthonormal states (rows of `states`) with a separability label."""

    states: np.ndarray
    label: str


def eigenbasis(op_class: OperatorClass) -> Basis:
    """Common eigenbasis of a commuting class, one state per sign pattern.

    For signs s in {+1,-1}^3 the product of (1 + s_j G_j)/2 over the
    generators is a rank-1 projector; its first nonzero column, with the
    global phase fixed so the first nonzero amplitude is real positive,
    is the state.
    """
    gens = [op.matrix() for op in op_class.generator_ops()]
    eye = np.eye(8, dtype=complex)
    states = np.empty((8, 8), dtype=complex)
    for row, signs in enumerate(_SIGN_PATTERNS):
        proj = eye
        for s, g in zip(signs, gens):
            proj = proj @ (eye + s * g) / 2
        if abs(proj.trace().real - 1.0) > 1e-8:
            raise EigenbasisError(
                f"projector rank {proj.trace().real:.3f} != 1 for signs {signs}"
            )
        norms = np.linalg.norm(proj, axis=0)
        col = int(np.argmax(norms > 1e-8))
        state = proj[:, col] / norms[col]
        first = state[np.argmax(np.abs(state) > 1e-8)]
        state = state * (first.conjugate() / abs(first))
        states[row] = state
    return Basis(states=states, label=_classify_states(states))


def _single_qubit_purities(state: np.ndarray) -> tuple[float, float, float]:
    psi = state.reshape(2, 2, 2)
    out = []
    for axis in range(3):
        rho = np.tensordot(
            np.moveaxis(psi, axis, 0).reshape(2, 4),
            np.moveaxis(psi, axis, 0).reshape(2, 4).conj(),
            axes=([1], [1]),
        )
        out.append(float(np.trace(rho @ rho).real))
    return tuple(out)


def _classify_states(states: np.ndarray) -> str:
    patterns = set()
    for state in states:
        purities = _single_qubit_purities(state)
        patterns.add(tuple(abs(p - 1.0) < PURITY_TOL for p in purities))
    if len(patterns) != 1:
        raise SeparabilityError(f"states disagree on pure qubits: {sorted(patterns)}")
    pure_count = sum(patterns.pop())
    if pure_count == 3:
        return TRISEPARABLE
    if pure_count == 1:
        return BISEPARABLE
    if pure_count == 0:
        return NONSEPARABLE
    raise SeparabilityError("exactly two pure qubits is impossible for pure states")


def separability(basis: Basis) -> str:
    """Recompute the separability label from the states."""
    return _classify_states(basis.states)


def unbiasedness(b1: Basis, b2: Basis) -> float:
    """Max over the 64 cross pairs of | |<psi|phi>|^2 - 1/8 |."""
    overlaps = b1.states.conj() @ b2.states.T
    return float(np.max(np.abs(np.abs(overlaps) ** 2 - 0.125)))


def orthonormality_defect(basis: Basis) -> float:
    gram = basis.states.conj() @ basis.states.T
    return float(np.max(np.abs(gram - np.eye(8))))


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


def _structure_of(bases: list[Basis]) -> tuple[int, int, int]:
    labels = [b.label for b in bases]
    return (
        labels.count(TRISEPARABLE),
        labels.count(BISEPARABLE),
        labels.count(NONSEPARABLE),
    )


def verify_mub_set(table: StriationTable) -> MubReport:
    """Build all nine bases and measure orthonormality and unbiasedness.
    The report keeps the bases, so callers need not build them again."""
    bases = build_bases(table)
    ortho = max(orthonormality_defect(b) for b in bases)
    unbias = max(unbiasedness(b1, b2) for b1, b2 in combinations(bases, 2))
    return MubReport(
        orthonormality_defect=ortho,
        unbiasedness_defect=unbias,
        structure=_structure_of(bases),
        passed=ortho < ORTHO_TOL and unbias < UNBIAS_TOL,
        bases=tuple(bases),
    )


def structure(table: StriationTable) -> tuple[int, int, int]:
    """Counts of (triseparable, biseparable, nonseparable) bases."""
    return _structure_of(build_bases(table))
