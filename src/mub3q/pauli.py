"""Three-qubit Pauli operators in binary-symplectic form with exact phases.

An operator is stored as a 3-bit X mask, a 3-bit Z mask (bit 2 is qubit
1, the leftmost tensor factor) and a global phase exponent p with the
operator equal to i^p times the Hermitian word over {I, X, Y, Z} built
per qubit from its bits (x, z): (0,0) -> I, (1,0) -> X, (0,1) -> Z,
(1,1) -> Y.  With that convention every phase-0 operator is Hermitian
and squares to identity.  Products and commutation are popcounts.

The phase-space map sends a point (a, b) to the operator with X mask
SELF_DUAL_MASK[a] and Z mask SELF_DUAL_MASK[b] (`gf8`); under it,
operator commutation is exactly the trace condition on points.

A `PauliOp` is needed only to build a state or print a label; labels and
MUB verdicts read row masks (`phasespace.row_mask`).  The module builds no
matrix: the tests hold the 8x8 matrix of an operator, as their oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf8 import SELF_DUAL_MASK
from .phasespace import AnticommutingRowError, Point, row_generators  # noqa: F401 (raised by class_from_row)

_LETTERS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_BITS_OF_LETTER = {v: k for k, v in _LETTERS.items()}
_PHASE_TOKENS = ("", "+i", "-", "-i")


@dataclass(frozen=True)
class PauliOp:
    x: int  # X mask, qubit 1 in bit 2
    z: int  # Z mask
    phase: int = 0  # exponent of i

    def letters(self) -> str:
        return "".join(_LETTERS[(self.x >> k & 1, self.z >> k & 1)] for k in (2, 1, 0))

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
        x = z = 0
        for ch in body:
            bx, bz = _BITS_OF_LETTER[ch]
            x, z = x << 1 | bx, z << 1 | bz
        return cls(x=x, z=z, phase=phase)

    def __mul__(self, other: "PauliOp") -> "PauliOp":
        return multiply(self, other)


def point_to_pauli(p: Point) -> PauliOp:
    """Map a phase-space point to its Pauli operator (phase 0)."""
    return PauliOp(x=SELF_DUAL_MASK[p[0]], z=SELF_DUAL_MASK[p[1]])


def pauli_to_point(op: PauliOp) -> Point:
    """Inverse of point_to_pauli (the phase is dropped)."""
    return (SELF_DUAL_MASK.index(op.x), SELF_DUAL_MASK.index(op.z))


def multiply(p: PauliOp, q: PauliOp) -> PauliOp:
    """Exact product: the matrix of multiply(p, q) is that of p times that of q.
    As Y = i X Z, the word (x, z) is i^-popcount(x & z) X^x Z^z, and Z^z_p
    passes X^x_q with the sign (-1)^popcount(z_p & x_q)."""
    x, z = p.x ^ q.x, p.z ^ q.z
    e = (p.x & p.z).bit_count() + (q.x & q.z).bit_count() - (x & z).bit_count()
    return PauliOp(x, z, (p.phase + q.phase + e + 2 * (p.z & q.x).bit_count()) % 4)


def commutes_op(p: PauliOp, q: PauliOp) -> bool:
    """Symplectic form sum(x_i z'_i + x'_i z_i) vanishes over GF(2)."""
    return ((p.x & q.z) ^ (q.x & p.z)).bit_count() % 2 == 0


@dataclass(frozen=True)
class OperatorClass:
    """Seven pairwise-commuting Pauli operators; a striation row image."""

    ops: tuple[PauliOp, ...]
    generators: tuple[int, int, int] = (0, 1, 2)

    def generator_ops(self) -> tuple[PauliOp, PauliOp, PauliOp]:
        return tuple(self.ops[i] for i in self.generators)


def class_from_row(row: tuple[Point, ...]) -> OperatorClass:
    """Map a striation row to its commuting class.  `row_generators` checks
    the row and gives the generators, columns 1-3 for every row
    `build_table` makes."""
    generators = row_generators(row)
    return OperatorClass(ops=tuple(map(point_to_pauli, row)), generators=generators)
