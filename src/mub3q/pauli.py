"""Three-qubit Pauli operators in binary-symplectic form with exact phases.

An operator is stored as X bits, Z bits (one per qubit, qubit 1 is the
leftmost tensor factor) and a global phase exponent p with the operator
equal to i^p times the Hermitian word over {I, X, Y, Z} built per qubit
from (x, z): (0,0) -> I, (1,0) -> X, (0,1) -> Z, (1,1) -> Y.  With that
convention every phase-0 operator is Hermitian and squares to identity.

The phase-space map sends a point (a, b) to the operator whose X and Z
bit patterns are the self-dual-basis coordinates of a and b; under it,
operator commutation is exactly the trace condition on points.

numpy is imported by `PauliOp.matrix` only; the symplectic algebra
needs none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import gf8
from .phasespace import ORIGIN, Point, add_points, greedy_basis

if TYPE_CHECKING:
    import numpy as np

_LETTERS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_BITS_OF_LETTER = {v: k for k, v in _LETTERS.items()}
_PHASE_TOKENS = ("", "+i", "-", "-i")
_POWERS_OF_I = (1, 1j, -1, -1j)


class AnticommutingRowError(ValueError):
    """A supposed commuting class contains an anticommuting pair."""


@dataclass(frozen=True)
class PauliOp:
    x: tuple[int, int, int]
    z: tuple[int, int, int]
    phase: int = 0  # exponent of i

    def letters(self) -> str:
        return "".join(_LETTERS[(xi, zi)] for xi, zi in zip(self.x, self.z))

    def label(self) -> str:
        """Text form, e.g. "XIZ" or "-iYIX"."""
        return _PHASE_TOKENS[self.phase % 4] + self.letters()

    @classmethod
    def from_label(cls, s: str) -> "PauliOp":
        phase = 0
        body = s
        for p, tokenpfx in ((1, "+i"), (3, "-i"), (2, "-"), (0, "+")):
            if s.startswith(tokenpfx) and tokenpfx:
                phase, body = p, s[len(tokenpfx):]
                break
        if len(body) != 3 or any(ch not in _BITS_OF_LETTER for ch in body):
            raise ValueError(f"not a three-qubit Pauli label: {s!r}")
        bits = [_BITS_OF_LETTER[ch] for ch in body]
        return cls(
            x=tuple(b[0] for b in bits), z=tuple(b[1] for b in bits), phase=phase
        )

    def matrix(self) -> np.ndarray:
        """The 8x8 complex matrix (exact phase included).

        It is a signed permutation: with qubit 1 the most significant bit
        of a basis index, column c has its one nonzero entry in row c ^ x,
        equal to i^(phase + #Y) * (-1)^popcount(c & z), where #Y counts
        the qubits with both bits set.  This equals the Kronecker product
        of the single-qubit matrices."""
        import numpy as np

        x = self.x[0] << 2 | self.x[1] << 1 | self.x[2]
        z = self.z[0] << 2 | self.z[1] << 1 | self.z[2]
        base = self.phase + sum(xi & zi for xi, zi in zip(self.x, self.z))
        out = np.zeros((8, 8), dtype=complex)
        for c in range(8):
            out[c ^ x, c] = _POWERS_OF_I[(base + 2 * (c & z).bit_count()) % 4]
        return out

    def __mul__(self, other: "PauliOp") -> "PauliOp":
        return multiply(self, other)


IDENTITY = PauliOp((0, 0, 0), (0, 0, 0), 0)


def point_to_pauli(p: Point) -> PauliOp:
    """Map a phase-space point to its Pauli operator (phase 0)."""
    return PauliOp(
        x=gf8.self_dual_coords(p[0]), z=gf8.self_dual_coords(p[1]), phase=0
    )


def pauli_to_point(op: PauliOp) -> Point:
    """Inverse of point_to_pauli (the phase is dropped)."""
    return (gf8.from_coords(op.x), gf8.from_coords(op.z))


def _single_phase(x1: int, z1: int, x2: int, z2: int) -> int:
    # Y = i X Z per qubit; commuting X past Z contributes (-1)^(z1 x2).
    x3, z3 = x1 ^ x2, z1 ^ z2
    return (x1 * z1 + x2 * z2 + 2 * z1 * x2 - x3 * z3) % 4


def multiply(p: PauliOp, q: PauliOp) -> PauliOp:
    """Exact product: matrix(multiply(p, q)) == matrix(p) @ matrix(q)."""
    phase = p.phase + q.phase
    for x1, z1, x2, z2 in zip(p.x, p.z, q.x, q.z):
        phase += _single_phase(x1, z1, x2, z2)
    return PauliOp(
        x=tuple(a ^ b for a, b in zip(p.x, q.x)),
        z=tuple(a ^ b for a, b in zip(p.z, q.z)),
        phase=phase % 4,
    )


def commutes_op(p: PauliOp, q: PauliOp) -> bool:
    """Symplectic form sum(x_i z'_i + x'_i z_i) vanishes over GF(2)."""
    s = 0
    for x1, z1, x2, z2 in zip(p.x, p.z, q.x, q.z):
        s ^= (x1 & z2) ^ (x2 & z1)
    return s == 0


@dataclass(frozen=True)
class OperatorClass:
    """Seven pairwise-commuting Pauli operators; a striation row image."""

    ops: tuple[PauliOp, ...]
    generators: tuple[int, int, int] = (0, 1, 2)

    def generator_ops(self) -> tuple[PauliOp, PauliOp, PauliOp]:
        return tuple(self.ops[i] for i in self.generators)


def _check_class(ops: tuple[PauliOp, ...]) -> None:
    if len(ops) != 7:
        raise ValueError("a commuting class holds exactly 7 operators")
    for i in range(7):
        for j in range(i + 1, 7):
            if not commutes_op(ops[i], ops[j]):
                raise AnticommutingRowError(
                    f"operators {ops[i].label()} and {ops[j].label()} anticommute"
                )


def class_from_row(row: tuple[Point, ...]) -> OperatorClass:
    """Map a striation row to its commuting class.  The generators are the
    first three GF(2)-independent points in row order (`greedy_basis`),
    columns 1-3 for every row `build_table` makes.  A row of rank below
    3 keeps columns 1-3, which `mub.eigenbasis` rejects as dependent."""
    ops = tuple(point_to_pauli(p) for p in row)
    _check_class(ops)
    basis = greedy_basis(row, add_points, ORIGIN)
    generators = tuple(map(row.index, basis)) if len(basis) == 3 else (0, 1, 2)
    return OperatorClass(ops=ops, generators=generators)


def class_from_generators(g1: PauliOp, g2: PauliOp, g3: PauliOp) -> OperatorClass:
    """Commuting class generated by three independent commuting operators."""
    combos = ((g1,), (g2,), (g3,), (g1, g2), (g1, g3), (g2, g3), (g1, g2, g3))
    ops = []
    for combo in combos:
        acc = IDENTITY
        for g in combo:
            acc = multiply(acc, g)
        ops.append(acc)
    _check_class(tuple(ops))
    return OperatorClass(ops=tuple(ops), generators=(0, 1, 2))
