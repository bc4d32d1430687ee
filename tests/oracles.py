"""Reference computations that the tests compare the library against.

The library reads separability labels exactly from the operator classes
and decides a table's MUB verdict and defects exactly from its rows.
These are the independent checks of those results: the separability
label recomputed numerically from the purities of the single-qubit
reduced states (exactly 1 or 1/2 for stabilizer states), both defects of
a table measured from one 72x72 Gram matrix of its bases' states, the
unbiasedness and orthonormality defects of single bases and pairs, the
8x8 matrix of a Pauli operator, and the commuting class built by
multiplying three generators, the greedy basis found by growing the span
as a set, the striation table built by the paper's additive recursion,
the solver's GF(2) systems built and eliminated from scratch at each
sweep point, and a displayed trace system evaluated on every candidate.
No library code calls them; numpy is needed here and nowhere in the
library.
"""

from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING

from mub3q import gf8, phasespace

from mub3q.mub import Basis, SeparabilityError, _label_of_pure_count, build_bases
from mub3q.pauli import OperatorClass, PauliOp, commutes_op, multiply
from mub3q.phasespace import PARAM_NAMES, AnticommutingRowError, Point, SeedSet, StriationTable

if TYPE_CHECKING:
    import numpy as np

PURITY_TOL = 1e-9
ORTHO_TOL = 1e-10
UNBIAS_TOL = 1e-10

IDENTITY = PauliOp(0, 0, 0)


def _single_qubit_purities(state) -> tuple[float, float, float]:
    import numpy as np

    psi = np.asarray(state).reshape(2, 2, 2)
    out = []
    for axis in range(3):
        rho = np.tensordot(
            np.moveaxis(psi, axis, 0).reshape(2, 4),
            np.moveaxis(psi, axis, 0).reshape(2, 4).conj(),
            axes=([1], [1]),
        )
        out.append(float(np.trace(rho @ rho).real))
    return tuple(out)


def _classify_states(states) -> str:
    patterns = set()
    for state in states:
        purities = _single_qubit_purities(state)
        patterns.add(tuple(abs(p - 1.0) < PURITY_TOL for p in purities))
    if len(patterns) != 1:
        raise SeparabilityError(f"states disagree on pure qubits: {sorted(patterns)}")
    return _label_of_pure_count(sum(patterns.pop()))


def separability(basis: Basis) -> str:
    """Recompute the separability label numerically, from the purities of
    the states' single-qubit reduced states."""
    return _classify_states(basis.states)


def unbiasedness(b1: Basis, b2: Basis) -> float:
    """Max over the 64 cross pairs of | |<psi|phi>|^2 - 1/8 |."""
    import numpy as np

    overlaps = np.array(b1.states).conj() @ np.array(b2.states).T
    return float(np.max(np.abs(np.abs(overlaps) ** 2 - 0.125)))


def orthonormality_defect(basis: Basis) -> float:
    import numpy as np

    states = np.array(basis.states)
    gram = states.conj() @ states.T
    return float(np.max(np.abs(gram - np.eye(8))))


def gram_check(table: StriationTable) -> tuple[float, float, bool]:
    """Build all nine bases and measure orthonormality and unbiasedness
    from one Gram matrix of their 72 states: the orthonormality defect of
    its diagonal 8x8 blocks and the unbiasedness defect, max over pairs of
    | |<psi|phi>|^2 - 1/8 |, of the 36 blocks above them.  Returns both
    defects and whether each is below its tolerance."""
    import numpy as np

    bases = build_bases(table)
    k = len(bases)
    stacked = np.concatenate([np.array(b.states) for b in bases])
    blocks = (stacked.conj() @ stacked.T).reshape(k, 8, k, 8).transpose(0, 2, 1, 3)
    diag = np.arange(k)
    ortho = float(np.max(np.abs(blocks[diag, diag] - np.eye(8))))
    unbias = float(np.max(np.abs(np.abs(blocks[np.triu_indices(k, 1)]) ** 2 - 0.125)))
    return ortho, unbias, ortho < ORTHO_TOL and unbias < UNBIAS_TOL


_POWERS_OF_I = (1, 1j, -1, -1j)


def pauli_matrix(op: PauliOp) -> np.ndarray:
    """The 8x8 complex matrix of an operator (exact phase included).

    It is a signed permutation: with qubit 1 the most significant bit
    of a basis index, column c has its one nonzero entry in row c ^ x,
    equal to i^(phase + #Y) * (-1)^popcount(c & z), where #Y counts
    the qubits with both bits set.  This equals the Kronecker product
    of the single-qubit matrices."""
    import numpy as np

    base = op.phase + (op.x & op.z).bit_count()
    out = np.zeros((8, 8), dtype=complex)
    for c in range(8):
        out[c ^ op.x, c] = _POWERS_OF_I[(base + 2 * (c & op.z).bit_count()) % 4]
    return out


def brute_force_system(system, unknowns: tuple[str, ...]) -> list[tuple[int, ...]]:
    """Every equation of a displayed trace system on every candidate of
    itertools.product over gf8.ELEMENTS, first unknown slowest."""

    def trace(side, values) -> int:
        acc = 0
        for term in side:
            u, v = (values[a] if isinstance(a, str) else a for a in term)
            acc ^= gf8.MUL[u][v]
        return gf8.TRACE[acc]

    out = []
    for candidate in product(gf8.ELEMENTS, repeat=len(unknowns)):
        values = dict(zip(unknowns, candidate))
        if all(
            trace(lhs, values) == (rhs if isinstance(rhs, int) else trace(rhs, values))
            for lhs, rhs in system
        ):
            out.append(candidate)
    return out


def _check_class(ops: tuple[PauliOp, ...]) -> None:
    if len(ops) != 7:
        raise ValueError("a commuting class holds exactly 7 operators")
    for i in range(7):
        for j in range(i + 1, 7):
            if not commutes_op(ops[i], ops[j]):
                raise AnticommutingRowError(
                    f"operators {ops[i].label()} and {ops[j].label()} anticommute"
                )


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


def span_greedy_basis(vectors) -> list[int]:
    """The vectors, in order, that are not in the GF(2) span of those before
    them: a basis of their span.  The vectors are ints, e.g. field
    elements or packed points, added by XOR."""
    span = {0}
    basis = []
    for v in vectors:
        if v not in span:
            basis.append(v)
            span |= {v ^ s for s in span}
    return basis


def add_points(p: Point, q: Point) -> Point:
    return (p[0] ^ q[0], p[1] ^ q[1])


def recursive_table(seed: SeedSet) -> StriationTable:
    """The 9x7 table of any seed, valid or not, by the paper's recursion.

    Rows 1-2 continue with p_c = p_{c-2} + p_{c-3} for c = 4..7; rows
    3..9 are p^{(r)}_c = p^{(2)}_c + p^{(1)}_{c+r-3} with the row-1
    column index wrapped back into 1..7 modulo 7.
    """
    rows = []
    for base in (seed.row1, seed.row2):
        pts = list(base)
        for c in range(3, 7):
            pts.append(add_points(pts[c - 2], pts[c - 3]))
        rows.append(pts)
    row1, row2 = rows
    for shift in range(7):  # rows 3..9
        rows.append(list(map(add_points, row2, row1[shift:] + row1[:shift])))
    return StriationTable(rows=tuple(map(tuple, rows)))


def solve_gf2(system: list[tuple[int, int]], unknown: int):
    """Solve a GF(2) linear system of (row, bit) pairs, each row a bitmask
    over the columns set in `unknown`.

    Returns (particular solution, nullspace basis) as bitmasks over those
    columns, or None if the system is inconsistent: echelon of the rows
    row << 1 | bit has a pivot at bit 0.  A pivot's row holds no column
    above its own, so one pass over the pivots in increasing order sets
    each pivot column, in the particular solution (free columns 0) and in
    the nullspace vector of each free column.
    """
    pivots, _ = phasespace.echelon([r << 1 | b for r, b in system])
    if 0 in pivots:
        return None
    particular = 0
    columns = range(unknown.bit_length())
    basis = [1 << c for c in columns if unknown >> c & 1 and c + 1 not in pivots]
    for top in sorted(pivots):
        col = 1 << (top - 1)
        below = pivots[top] >> 1 ^ col
        if pivots[top] & 1 ^ (below & particular).bit_count() & 1:
            particular |= col
        basis = [v | col if (below & v).bit_count() & 1 else v for v in basis]
    return particular, basis


def pointwise_systems(fixed: dict[str, int]):
    """The solver's sweep, one GF(2) system per sweep point, each built
    by phasespace.equation_rows and solved from scratch by solve_gf2:
    elimination and back-substitution, neither of which the solver's
    walk uses.

    The free coordinates of the side with fewer of them run over GF(8);
    at each sweep point, phasespace.equation_rows gives the rows over the
    other side's coordinates o, whose fixed bits move to the right-hand
    side.

    Yields (swept side, 0 for a and 1 for b; the swept coordinates; o with
    its unknown bits zero; particular solution; nullspace basis) for each
    sweep point whose system is consistent.
    """
    a, b = ([fixed.get(PARAM_NAMES[2 * i + side]) for i in range(6)] for side in (0, 1))
    side = 0 if a.count(None) <= b.count(None) else 1
    swept, other = (a, b) if side == 0 else (b, a)
    known = sum(v << 3 * j for j, v in enumerate(other) if v is not None)
    unknown = sum(7 << 3 * j for j, v in enumerate(other) if v is None)
    slots = [i for i, v in enumerate(swept) if v is None]
    for values in product(gf8.ELEMENTS, repeat=len(slots)):
        for i, v in zip(slots, values):
            swept[i] = v
        system = [
            (row & unknown, (row & known).bit_count() & 1)
            for row in phasespace.equation_rows(swept)
        ]
        solved = solve_gf2(system, unknown)
        if solved is not None:
            yield (side, tuple(swept), known, *solved)
