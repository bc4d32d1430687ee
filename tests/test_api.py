"""The package's public surface: what `from mub3q import *` gives, the
names the library no longer holds, and the README's library example."""

from pathlib import Path

import mub3q
from mub3q import mub, pauli, phasespace, solver

# References the tests compare against; they live in tests/oracles.py.
MOVED = {
    mub: ("separability", "_classify_states", "_single_qubit_purities", "PURITY_TOL",
          "unbiasedness", "orthonormality_defect", "ORTHO_TOL", "UNBIAS_TOL"),
    pauli: ("class_from_generators", "_check_class", "IDENTITY", "_POWERS_OF_I"),
    pauli.PauliOp: ("matrix",),
}

# Superseded by failing_equations, SeedSet.rank, echelon, COEFFICIENTS and
# solve_scenario, or read by no caller.
REMOVED = {
    phasespace: ("check_twelve_equations", "greedy_basis", "add_points"),
    solver: ("solve_three_axes", "solve_two_axes", "solve_one_axis", "solve_no_axis",
             "solve_generic"),
    phasespace.SeedSet: ("well_formedness_errors", "is_well_formed"),
    phasespace.StriationTable: ("from_json",),
    phasespace.CurveRelation: ("from_json",),
    phasespace.ValidationReport: ("first_failure", "to_json"),
}


def test_star_import_gives_every_public_name():
    namespace = {}
    exec("from mub3q import *", namespace)
    for name in mub3q.__all__:
        assert namespace[name] is getattr(mub3q, name), name
    assert not {"check_twelve_equations", "separability", "unbiasedness"} & set(mub3q.__all__)


def test_library_holds_no_moved_or_removed_name():
    for owner, names in (*MOVED.items(), *REMOVED.items()):
        for name in names:
            assert not hasattr(owner, name), (owner.__name__, name)


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1]
    exec(library.split("```python\n", 1)[1].split("```", 1)[0], {})
    assert "(3, 0, 6)" in capsys.readouterr().out.splitlines()
