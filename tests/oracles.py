"""Reference computations that the tests compare the library against.

The library reads separability labels exactly from the operator classes
and measures both defects of a table from one Gram matrix of its bases.
These are the independent checks of those results: the separability
label recomputed numerically from the purities of the single-qubit
reduced states (exactly 1 or 1/2 for stabilizer states), the
unbiasedness and orthonormality defects of single bases and pairs, and
the commuting class built by multiplying three generators, the greedy
basis found by growing the span as a set, the striation table built
by the paper's additive recursion, and the solver's GF(2) systems built
and eliminated from scratch at each sweep point.  No library code calls
them.
"""

from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING

from mub3q import gf8, phasespace

from mub3q.mub import Basis, SeparabilityError, _label_of_pure_count
from mub3q.pauli import OperatorClass, PauliOp, commutes_op, multiply
from mub3q.phasespace import PARAM_NAMES, AnticommutingRowError, Point, SeedSet, StriationTable

if TYPE_CHECKING:
    import numpy as np

PURITY_TOL = 1e-9

IDENTITY = PauliOp(0, 0, 0)


def _single_qubit_purities(state: np.ndarray) -> tuple[float, float, float]:
    import numpy as np

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
    return _label_of_pure_count(sum(patterns.pop()))


def separability(basis: Basis) -> str:
    """Recompute the separability label numerically, from the purities of
    the states' single-qubit reduced states."""
    return _classify_states(basis.states)


def unbiasedness(b1: Basis, b2: Basis) -> float:
    """Max over the 64 cross pairs of | |<psi|phi>|^2 - 1/8 |."""
    import numpy as np

    overlaps = b1.states.conj() @ b2.states.T
    return float(np.max(np.abs(np.abs(overlaps) ** 2 - 0.125)))


def orthonormality_defect(basis: Basis) -> float:
    import numpy as np

    gram = basis.states.conj() @ basis.states.T
    return float(np.max(np.abs(gram - np.eye(8))))


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
    by phasespace.equation_rows and solved from scratch.

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
