"""Each result is computed once: solves, basis builds and validity checks
counted per command."""

import argparse
import importlib.util
import json
from collections import Counter
from pathlib import Path

import pytest

import mub3q
from mub3q import cli, mub, pauli, phasespace, reference, solver

from test_cli import GENERIC_SIX, SEED_M3, SEED_NO_AXIS, THREE_AXES
from test_solver import PRUNED


def _counted(monkeypatch, targets) -> Counter:
    """Count calls made through each (module, name) binding."""
    counts = Counter()
    for module, name in targets:
        fn = getattr(module, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


@pytest.fixture
def calls(monkeypatch):
    """Count calls of reference.solve_example, mub.eigenbasis and
    mub.class_from_row."""
    return _counted(monkeypatch, (
        (reference, "solve_example"), (mub, "eigenbasis"), (mub, "class_from_row"),
    ))


def test_run_all_checks_solves_and_builds_once(calls):
    checks = reference.run_all_checks()
    assert len(checks) == 60
    # one solve per example; the six tables are verified from their rows,
    # so no basis is built
    assert calls == {"solve_example": 4}


def test_classify_builds_no_basis(calls, capsys):
    # the labels come from the exact rule on the row masks: no basis and
    # no operator class is built
    assert cli.main(["classify", *SEED_M3]) == 0
    capsys.readouterr()
    assert calls == {}


def test_verify_builds_nine_bases_without_purities(monkeypatch, capsys):
    # only the amplitude dump needs the bases and their operator classes;
    # the verdict and the labels come from the row masks
    counts = _counted(monkeypatch, ((mub, "eigenbasis"), (mub, "class_from_row")))
    assert cli.main(["verify", *SEED_M3]) == 0
    assert counts == {}
    assert cli.main(["verify", *SEED_M3, "--amplitudes"]) == 0
    capsys.readouterr()
    assert counts == {"eigenbasis": 9, "class_from_row": 9}


def test_generic_solve_checks_each_solution_once_without_validate_table(monkeypatch, capsys):
    counts = _counted(monkeypatch, (
        (solver, "_form_is_nonzero"),
        (phasespace.SeedSet, "rank"),
        (solver, "solution_is_valid"),
        (phasespace, "validate_table"),
        (phasespace, "failing_equations"),
    ))
    assert cli.main(GENERIC_SIX) == 0
    sols = json.loads(capsys.readouterr().out)
    assert len(sols) == 368 and sum(s["valid"] for s in sols) == 16
    # one form test of the solution key per solution; neither the rank,
    # the table nor the equations are checked again
    assert counts == {"_form_is_nonzero": 368}


def test_json_solve_writes_text_from_keys(monkeypatch, capsys):
    # one text loop over the keys; no Solution is built for JSON output
    counts = _counted(monkeypatch, ((solver, "Solution"), (solver, "json_texts")))
    assert cli.main(GENERIC_SIX) == 0
    assert len(json.loads(capsys.readouterr().out)) == 368
    assert counts == {"json_texts": 1}
    assert cli.main([*GENERIC_SIX, "--pretty"]) == 0
    capsys.readouterr()
    assert counts == {"json_texts": 1, "Solution": 368}


@pytest.mark.parametrize("argv", [
    THREE_AXES,
    ["solve", "--scenario", "two-axes", "--b11", "m4", "--b12", "m3", "--b13", "m5",
     "--a21", "1"],
    ["solve", "--scenario", "one-axis", "--b11", "m4", "--b12", "m3", "--b13", "m",
     "--a21", "1", "--b22", "m2", "--b23", "m6"],
    ["solve", "--scenario", "no-axis", "--a11", "m2", "--b11", "m5", "--b12", "m3",
     "--b13", "1", "--a21", "m3", "--b22", "m2", "--b23", "m"],
    GENERIC_SIX,
], ids=["three-axes", "two-axes", "one-axis", "no-axis", "generic"])
def test_every_scheme_solves_through_one_enumeration(monkeypatch, capsys, argv):
    counts = _counted(monkeypatch, (
        (solver, "enumerate_assignments"),
        (phasespace, "failing_equations"),
    ))
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)
    assert counts == {"enumerate_assignments": 1}


def test_generic_sweep_builds_rows_once_per_fixing(monkeypatch, capsys):
    # 7 free, three of them a coordinates: a 512-point sweep.  The rows
    # come from one call for the fixed part and three per swept coordinate.
    counts = _counted(monkeypatch, ((phasespace, "equation_rows"),))
    fixes = ("a11=m4", "a21=m", "a23=m3", "b11=m", "b12=m")
    argv = ["solve", "--scenario", "generic", "--allow-large",
            *(w for pair in fixes for w in ("--fix", pair))]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)
    assert counts["equation_rows"] <= 1 + 8 * 3


def test_pruned_sweep_eliminates_less_often_than_it_has_points(monkeypatch, capsys):
    # the walk restricts its solution sets and calls no echelon
    counts = _counted(monkeypatch, ((phasespace, "echelon"), (solver, "_restrict")))
    argv = ["solve", "--scenario", "generic",
            *(w for n, t in PRUNED.items() for w in ("--fix", f"{n}={t}"))]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)
    assert 0 < counts["_restrict"] < 8**3
    assert "echelon" not in counts


@pytest.mark.parametrize("command", ["table", "verify", "classify"])
def test_valid_seed_is_checked_by_equations_and_rank_only(monkeypatch, capsys, command):
    counts = _counted(monkeypatch, (
        (phasespace, "validate_table"),
        (phasespace, "failing_equations"),
        (phasespace.SeedSet, "rank"),
    ))
    assert cli.main([command, *SEED_M3]) == 0
    capsys.readouterr()
    assert counts == {"failing_equations": 1, "rank": 1}


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    assert cli.main(THREE_AXES) == 0  # builds the parser if no test has yet
    counts = _counted(monkeypatch, ((argparse.ArgumentParser, "add_argument"),))
    runs = [
        (THREE_AXES, 0),
        (["solve", "--scenario", "two-axes", "--b11", "m4", "--b12", "m3",
          "--b13", "m5", "--a21", "1"], 0),
        ([*GENERIC_SIX, "--pretty"], 0),
        (["table", *SEED_M3, "--render", "--curves"], 0),
        (["verify", *SEED_M3], 0),
        (["classify", *SEED_NO_AXIS, "--pretty"], 0),
        (["reproduce-paper", "--json"], 1),  # the three known misprints
        (["--help"], 0),
        (["classify", "--help"], 0),
        (["verify", "--bogus"], 2),
        (["solve", "--scenario", "three-axes"], 2),
    ]
    assert [cli.main(argv) for argv, _ in runs] == [code for _, code in runs]
    capsys.readouterr()
    assert counts == {}


def test_traced_bindings_resolve():
    # the benchmark's tracer wraps these bindings by name; read its table
    # without importing the benchmark package
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, _, _ in tracing.TARGETS:
        assert callable(getattr(getattr(mub3q, module), attr)), (module, attr)
    assert mub.class_from_row is pauli.class_from_row
