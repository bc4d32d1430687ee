"""Construction and verification of complete MUB sets for three qubits.

The pipeline: solve the commutation equations over GF(8) for six seed
points, extend them to a 9x7 table of striation-generating curves in the
8x8 discrete phase space, map each row to a class of 7 commuting Pauli
operators, build the 9 common eigenbases and check their unbiasedness
numerically.  The separability structure is read exactly from the
operator classes.
"""

from .gf8 import ELEMENTS, from_token, to_token, trace
from .phasespace import (
    CurveRelation,
    SeedSet,
    StriationTable,
    ValidationReport,
    build_table,
    check_all_striation_conditions,
    commutes,
    fit_curve,
    render_grid,
    validate_table,
)
from .solver import (
    Scenario,
    Solution,
    solve_scenario,
)
from .pauli import OperatorClass, PauliOp, class_from_row, commutes_op, point_to_pauli
from .mub import (
    MubReport,
    build_bases,
    eigenbasis,
    structure,
    verify_mub_set,
)

__version__ = "0.1.0"

__all__ = [
    "ELEMENTS",
    "CurveRelation",
    "MubReport",
    "OperatorClass",
    "PauliOp",
    "Scenario",
    "SeedSet",
    "Solution",
    "StriationTable",
    "ValidationReport",
    "build_bases",
    "build_table",
    "check_all_striation_conditions",
    "class_from_row",
    "commutes",
    "commutes_op",
    "eigenbasis",
    "fit_curve",
    "from_token",
    "point_to_pauli",
    "render_grid",
    "solve_scenario",
    "structure",
    "to_token",
    "trace",
    "validate_table",
    "verify_mub_set",
]
