"""CLI surface: output formats, determinism, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import hypothesis
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mub3q import cli, gf8, reference, solver
from mub3q.phasespace import PARAM_NAMES, failing_equations, validate_table

from conftest import seed_from_tokens, symplectic_image
from oracles import recursive_table

THREE_AXES = ["solve", "--scenario", "three-axes", "--l1", "m2", "--l2", "m6"]
SEED_M3 = [
    "--a11", "0", "--b11", "m2", "--a12", "0", "--b12", "m6", "--a13", "0",
    "--b13", "m3", "--a21", "m2", "--b21", "0", "--a22", "m6", "--b22", "0",
    "--a23", "m3", "--b23", "0",
]
SEED_NO_AXIS = [
    "--a11", "m2", "--b11", "m5", "--a12", "1", "--b12", "m3", "--a13", "m3",
    "--b13", "1", "--a21", "m3", "--b21", "m2", "--a22", "m", "--b22", "m2",
    "--a23", "1", "--b23", "m",
]


def run_cli(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _captured(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_three_axes_json(capsys):
    code, out, _ = run_cli(THREE_AXES, capsys)
    assert code == 0
    sols = json.loads(out)
    assert [s["free"] for s in sols] == [{"l3": "m3"}, {"l3": "m5"}]
    assert all(s["valid"] for s in sols)
    assert sols[0]["seed"]["row1"] == [["0", "m2"], ["0", "m6"], ["0", "m3"]]


def test_solve_two_axes_json(capsys):
    argv = ["solve", "--scenario", "two-axes", "--b11", "m4", "--b12", "m3",
            "--b13", "m5", "--a21", "1"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    sols = json.loads(out)
    assert [s["free"] for s in sols] == [{"a22": "m2", "a23": "m3"}]


def test_solve_deterministic_output(capsys):
    _, first, _ = run_cli(THREE_AXES, capsys)
    _, second, _ = run_cli(THREE_AXES, capsys)
    assert first == second


def _parse_pretty_solutions(text):
    sols = []
    for line in text.splitlines():
        if line.startswith("solution "):
            sols.append({"valid": line.split("valid=")[1] == "yes", "free": {}, "seed": {}})
        elif line.startswith("  free: "):
            for part in line.split(": ", 1)[1].split():
                name, tok = part.split("=")
                sols[-1]["free"][name] = tok
        elif line.startswith(("  row1: ", "  row2: ")):
            key = line.strip().split(":")[0]
            pts = [p.strip("()").split(",") for p in line.split(": ", 1)[1].split()]
            sols[-1]["seed"][key] = pts
    return sols


def test_solve_pretty_encodes_same_data(capsys):
    _, jout, _ = run_cli(THREE_AXES, capsys)
    _, pout, _ = run_cli(THREE_AXES + ["--pretty"], capsys)
    assert _parse_pretty_solutions(pout) == json.loads(jout)


GENERIC_TEN = ["solve", "--scenario", "generic",
               "--fix", "a11=0", "--fix", "b11=m2", "--fix", "a12=0", "--fix", "b12=m6",
               "--fix", "a13=0", "--fix", "a21=m2", "--fix", "b21=0", "--fix", "a22=m6",
               "--fix", "b22=0", "--fix", "b23=0"]
GENERIC_SIX = ["solve", "--scenario", "generic", *(w for pair in (
    "a11=0", "a13=1", "b13=m", "a21=0", "a22=m5", "b22=m3") for w in ("--fix", pair))]


def test_solve_generic_with_fix(capsys):
    code, out, _ = run_cli(GENERIC_TEN, capsys)
    assert code == 0
    sols = json.loads(out)
    assert [s["free"] for s in sols] == [
        {"b13": "m3", "a23": "m3"}, {"b13": "m5", "a23": "m5"}
    ]


def test_generic_fixings_do_not_carry_over_between_calls(capsys):
    # the parser is shared by all calls in a process; a --fix list left over
    # from the first solve would repeat a11 in the second
    code, out, _ = run_cli(GENERIC_SIX, capsys)
    assert code == 0 and len(json.loads(out)) == 368
    code, out, err = run_cli(GENERIC_TEN, capsys)
    assert (code, err) == (0, "")
    assert [s["free"] for s in json.loads(out)] == [
        {"b13": "m3", "a23": "m3"}, {"b13": "m5", "a23": "m5"}
    ]


def test_solve_exit_codes(capsys):
    code, _, err = run_cli(["solve", "--scenario", "three-axes", "--l1", "m2", "--l2", "m2"], capsys)
    assert code == 1 and "distinct" in err
    code, _, _ = run_cli(["solve", "--scenario", "three-axes", "--l1", "zzz", "--l2", "m2"], capsys)
    assert code == 2
    code, _, err = run_cli(["solve", "--scenario", "three-axes", "--l1", "m2"], capsys)
    assert code == 2 and "--l2" in err
    code, _, err = run_cli(["solve", "--scenario", "three-axes", "--l1", "m2", "--l2", "m6", "--a11", "0"], capsys)
    assert code == 2 and "a11" in err
    code, _, _ = run_cli(["solve", "--scenario", "generic", "--fix", "nonsense"], capsys)
    assert code == 2
    code, _, err = run_cli(["solve", "--scenario", "generic", "--fix", "zz=m2"], capsys)
    assert code == 1  # unknown parameter name is a domain error
    code, _, err = run_cli(["solve", "--scenario", "generic"], capsys)
    assert code == 1 and "allow_large" in err and "--allow-large" in err  # 12 free parameters refused


def test_solve_scenario_file(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"kind": "three-axes", "fixed": {"l1": "m2", "l2": "m6"}}))
    code, out, _ = run_cli(["solve", "--scenario-file", str(path)], capsys)
    assert code == 0
    assert [s["free"]["l3"] for s in json.loads(out)] == ["m3", "m5"]


@pytest.mark.parametrize("flags", [["--l1", "m"], ["--fix", "a11=1"]], ids=["value-flag", "fix"])
def test_solve_scenario_file_refuses_fixing_flags(tmp_path, capsys, flags):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"kind": "three-axes", "fixed": {"l1": "m2", "l2": "m6"}}))
    code, out, err = run_cli(["solve", "--scenario-file", str(path), *flags], capsys)
    assert code == 2 and out == ""
    assert err == "usage error: give either --scenario-file or fixing flags, not both\n"
    # the output and cost flags still go with a scenario file
    code, out, _ = run_cli(["solve", "--scenario-file", str(path), "--allow-large", "--pretty"], capsys)
    assert code == 0 and out.startswith("solution 1  valid=yes\n")


@pytest.mark.parametrize(
    "scenario",
    [
        {"kind": "generic", "fixed": []},
        {"kind": "generic", "fixed": "b11=m2"},
        {"kind": "generic", "fixed": {"b11": ["m2"]}},
        [],
        {"kind": [], "fixed": {}},
        {"kind": {}, "fixed": {}},
    ],
    ids=["fixed-list", "fixed-string", "token-list", "scenario-list", "kind-list", "kind-object"],
)
def test_solve_scenario_file_malformed(tmp_path, capsys, scenario):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    code, out, err = run_cli(["solve", "--scenario-file", str(path)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _deeply_nested(tmp_path):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100000 + "]" * 100000)
    return str(path)


def test_solve_scenario_file_too_deeply_nested(tmp_path, capsys):
    code, out, err = run_cli(["solve", "--scenario-file", _deeply_nested(tmp_path)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: cannot read scenario file: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["table", "verify", "classify"])
def test_seed_file_too_deeply_nested(tmp_path, capsys, command):
    code, out, err = run_cli([command, "--seed-file", _deeply_nested(tmp_path)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: cannot read seed file: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, flag, what",
    [("solve", "--scenario-file", "scenario")]
    + [(command, "--seed-file", "seed") for command in ("table", "verify", "classify")],
)
@pytest.mark.parametrize("content", [b"{", b"[1,", b"\xff\xfe"], ids=["open-brace", "open-list", "not-utf8"])
def test_undecodable_file_names_the_file(tmp_path, capsys, command, flag, what, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code, out, err = run_cli([command, flag, str(path)], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot read {what} file: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, flag, what, content",
    [
        ("solve", "--scenario-file", "scenario", {"kind": "three-axes", "fixed": {"l1": "m2", "l2": "m6"}}),
        ("table", "--seed-file", "seed", {"row1": [["0", "m2"], ["0", "m6"], ["0", "m3"]],
                                          "row2": [["m2", "0"], ["m6", "0"], ["m3", "0"]]}),
    ],
    ids=["scenario", "seed"],
)
def test_file_over_the_size_cap_is_refused(tmp_path, capsys, command, flag, what, content):
    # whitespace, then a valid input: accepted at the cap, refused one byte over
    text = json.dumps(content)
    path = tmp_path / "input.json"
    path.write_text(" " * (cli.MAX_INPUT_BYTES - len(text)) + text)
    assert run_cli([command, flag, str(path)], capsys)[0] == 0
    path.write_text(" " * (cli.MAX_INPUT_BYTES + 1 - len(text)) + text)
    assert run_cli([command, flag, str(path)], capsys) == (
        1, "", f"error: cannot read {what} file: larger than {cli.MAX_INPUT_BYTES} bytes\n"
    )


def test_solve_repeated_fix_is_usage_error(capsys):
    code, out, err = run_cli(
        ["solve", "--scenario", "generic", "--fix", "b11=m", "--fix", "b11=m2"], capsys
    )
    assert code == 2 and out == ""
    assert "b11" in err and err.count("\n") == 1


def test_solve_allow_large_refuses_beyond_ceiling(capsys):
    # the unfixed space has 43,033,600 solutions, above the 8^7 ceiling
    code, out, err = run_cli(["solve", "--scenario", "generic", "--allow-large"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "8^7" in err and err.count("\n") == 1


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def test_table_render_matches_reference_grid(capsys):
    code, out, _ = run_cli(["table", *SEED_M3, "--render", "--pretty"], capsys)
    assert code == 0
    from mub3q import reference
    cells = [line.split("| ", 1)[1] for line in out.strip().splitlines()[1:]]
    assert tuple(cells) == reference.THREE_AXES.grid


def test_table_json_parts(capsys):
    code, out, _ = run_cli(["table", *SEED_M3, "--render", "--curves"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"table", "grid", "curves"}
    assert len(payload["table"]) == 9
    assert all(len(row) == 7 for row in payload["table"])
    assert payload["curves"][2] == {"l": ["1", "0", "0"], "m": ["1", "0", "0"]}
    code, out, _ = run_cli(["table", *SEED_M3], capsys)
    assert set(json.loads(out)) == {"table"}


def test_table_curves_two_axes(capsys):
    argv = ["table", "--a11", "0", "--b11", "m4", "--a12", "0", "--b12", "m3",
            "--a13", "0", "--b13", "m5", "--a21", "1", "--b21", "0",
            "--a22", "m2", "--b22", "0", "--a23", "m3", "--b23", "0", "--curves"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    curves = json.loads(out)["curves"]
    assert curves[2] == {"l": ["1", "0", "0"], "m": ["m2", "m5", "m6"]}


def test_table_rejects_bad_seed(capsys):
    bad = list(SEED_M3)
    bad[bad.index("--b13") + 1] = "m4"  # breaks the equations
    bad[bad.index("--a23") + 1] = "m4"
    code, _, err = run_cli(["table", *bad], capsys)
    assert code == 1
    assert "equation 11 of 12" in err


_AXIS_B = (("0", "m2"), ("0", "m6"), ("0", "m3"))  # row 1 of the three-axes seed
_AXIS_A = (("m2", "0"), ("m6", "0"), ("m3", "0"))  # its row 2
_DEPENDENT = (("0", "m2"), ("0", "m6"), ("0", "1"))  # m2 + m6 = 1
_DEPENDENT_A = (("m2", "0"), ("m6", "0"), ("1", "0"))


def _seed_flags(seed) -> list[str]:
    return [w for name, v in seed.params().items() for w in (f"--{name}", gf8.to_token(v))]


# A seed that satisfies the equations has rank 6 or at most 3
# (test_phasespace.py::test_forms_satisfying_the_equations_are_nondegenerate),
# so these cover every rank a seed passing the equations can have.
@pytest.mark.parametrize(
    "row1, row2, rank",
    [
        ((("0", "0"),) * 3, (("0", "0"),) * 3, 0),
        ((("0", "1"),) * 3, (("0", "0"),) * 3, 1),
        (_DEPENDENT, _DEPENDENT, 2),
        (_AXIS_B, _AXIS_B, 3),  # duplicate rows: each row independent, rows not disjoint
        ((("0", "m2"), ("0", "0"), ("0", "m6")), (("0", "m3"), ("0", "m6"), ("0", "m2")), 3),
        (_AXIS_B, _AXIS_A, 6),
    ],
    ids=["zero", "one-point", "dependent-rows", "duplicate-rows", "origin-in-row", "three-axes"],
)
def test_table_accepts_exactly_the_valid_seeds(row1, row2, rank, capsys):
    seed = seed_from_tokens(row1, row2)
    assert seed.rank() == rank and failing_equations(seed) == []
    valid = validate_table(recursive_table(seed)).valid
    code, out, err = run_cli(["table", *_seed_flags(seed)], capsys)
    assert (code == 0) == valid == (rank == 6)
    if not valid:
        assert (code, out, err) == (1, "", f"error: seed points are GF(2)-dependent: rank {rank} of 6\n")


@pytest.mark.parametrize(
    "row1, row2, rank, equation",
    [(_DEPENDENT, _AXIS_A, 5, 8), (_DEPENDENT, _DEPENDENT_A, 4, 10)],
)
def test_table_checks_the_equations_before_the_rank(row1, row2, rank, equation, capsys):
    seed = seed_from_tokens(row1, row2)
    assert seed.rank() == rank
    code, out, err = run_cli(["table", *_seed_flags(seed)], capsys)
    assert (code, out, err) == (1, "", f"error: seed fails equation {equation} of 12\n")


def test_table_seed_file(tmp_path, capsys):
    seed = {"row1": [["0", "m2"], ["0", "m6"], ["0", "m3"]],
            "row2": [["m2", "0"], ["m6", "0"], ["m3", "0"]]}
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(seed))
    code, out, _ = run_cli(["table", "--seed-file", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["table"][0][0] == ["0", "m2"]
    code, _, err = run_cli(["table", "--seed-file", str(path), "--a11", "0"], capsys)
    assert code == 2
    code, _, _ = run_cli(["table", "--seed-file", str(tmp_path / "nope.json")], capsys)
    assert code == 1
    seed["row1"][0] = [["0"], "m2"]  # a list where a token belongs
    path.write_text(json.dumps(seed))
    code, _, err = run_cli(["table", "--seed-file", str(path)], capsys)
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1


def test_table_missing_flags_usage_error(capsys):
    code, _, err = run_cli(["table", "--a11", "0"], capsys)
    assert code == 2
    assert "--b11" in err


# ---------------------------------------------------------------------------
# verify / classify
# ---------------------------------------------------------------------------

def test_verify_pass(capsys):
    code, out, _ = run_cli(["verify", *SEED_M3], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["structure"] == [3, 0, 6]
    assert report["orthonormality_defect"] < 1e-10
    assert report["unbiasedness_defect"] < 1e-10


def test_verify_no_axis_seed(capsys):
    code, out, _ = run_cli(["verify", *SEED_NO_AXIS], capsys)
    assert code == 0
    assert json.loads(out)["structure"] == [2, 3, 4]


def test_verify_pretty_same_data(capsys):
    _, jout, _ = run_cli(["verify", *SEED_M3], capsys)
    _, pout, _ = run_cli(["verify", *SEED_M3, "--pretty"], capsys)
    report = json.loads(jout)
    lines = dict(line.split(": ", 1) for line in pout.strip().splitlines())
    assert float(lines["orthonormality defect"]) == report["orthonormality_defect"]
    assert float(lines["unbiasedness defect"]) == report["unbiasedness_defect"]
    assert [int(v) for v in lines["structure"].split()] == report["structure"]
    assert (lines["pass"] == "yes") == report["pass"]


def test_verify_amplitudes(capsys):
    code, out, _ = run_cli(["verify", *SEED_M3, "--amplitudes"], capsys)
    assert code == 0
    bases = json.loads(out)["bases"]
    assert len(bases) == 9
    assert len(bases[0]) == 8 and len(bases[0][0]) == 8 and len(bases[0][0][0]) == 2


def test_verify_invalid_seed_exit_1(capsys):
    bad = list(SEED_M3)
    bad[bad.index("--b13") + 1] = "m4"
    bad[bad.index("--a23") + 1] = "m4"
    code, _, err = run_cli(["verify", *bad], capsys)
    assert code == 1


def test_classify(capsys):
    code, out, _ = run_cli(["classify", *SEED_M3], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["structure"] == [3, 0, 6]
    assert payload["labels"].count("triseparable") == 3
    assert payload["labels"].count("nonseparable") == 6
    code, pout, _ = run_cli(["classify", *SEED_M3, "--pretty"], capsys)
    assert code == 0
    assert pout.count("triseparable") == 3


# ---------------------------------------------------------------------------
# reproduce-paper
# ---------------------------------------------------------------------------

def test_reproduce_paper_reports_known_misprints(capsys):
    code, out, _ = run_cli(["reproduce-paper", "--json"], capsys)
    checks = json.loads(out)
    failed = {c["name"] for c in checks if not c["pass"]}
    # the three published curve equations that contradict their own grids
    assert failed == {"one-axis curve 2", "one-axis curve 7", "no-axis curve 7"}
    assert code == 1
    passed = [c for c in checks if c["pass"]]
    assert len(passed) == len(checks) - 3


def test_reproduce_paper_lines(capsys):
    code, out, err = run_cli(["reproduce-paper"], capsys)
    assert code == 1
    assert err == "error: 3 of 60 checks failed\n"
    lines = out.strip().splitlines()
    assert lines[-1].endswith("checks passed")
    assert sum(line.startswith("PASS ") for line in lines) == len(lines) - 4
    assert sum(line.startswith("FAIL ") for line in lines) == 3


def _dropped(sols):
    return sols[1:]


def _dependent(sols):
    # the same free values, with row 2 moved to the origin: rank 3
    return [solver.Solution(sols[0].key >> 18 << 18, sols[0].names), *sols[1:]]


@pytest.mark.parametrize(
    "fault, failed, why",
    [
        (_dropped, 17, "three-axes (m3) not produced by the solver"),
        (_dependent, 15, "three-axes (m3): seed points are GF(2)-dependent: rank 3 of 6"),
    ],
    ids=["missing", "rejected"],
)
def test_reproduce_paper_lists_every_check_without_a_published_table(
    monkeypatch, capsys, fault, failed, why
):
    # the first published three-axes solution gives no table: every check
    # that needs it fails and names it, and the other checks still run
    solve = reference.solve_example
    monkeypatch.setattr(
        reference, "solve_example",
        lambda ex: fault(solve(ex)) if ex is reference.THREE_AXES else solve(ex),
    )
    code, out, err = run_cli(["reproduce-paper", "--json"], capsys)
    checks = json.loads(out)
    assert code == 1 and len(checks) == 60
    assert err == f"error: {failed} of 60 checks failed\n"
    details = {c["name"]: c["detail"] for c in checks if not c["pass"]}
    needs_table = ["three-axes grid", *(f"three-axes curve {k}" for k in range(1, 10)),
                   "three-axes (m3) MUB verification", "three-axes (m3) structure"]
    assert all(details[name] == why for name in needs_table)
    assert "three-axes (m5) MUB verification" not in details


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()
    assert cli.main(["solve", "--help"]) == 0
    capsys.readouterr()


def test_json_and_pretty_mutually_exclusive(capsys):
    code, _, _ = run_cli(["verify", *SEED_M3, "--json", "--pretty"], capsys)
    assert code == 2


def _child_env() -> dict:
    """Environment whose PYTHONPATH lets a child import the package under test."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_module_entry_point_subprocess():
    # the child imports the same package as this test, installed or not
    result = subprocess.run(
        [sys.executable, "-m", "mub3q", *THREE_AXES],
        capture_output=True, text=True, env=_child_env(),
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)[0]["free"] == {"l3": "m3"}


def test_large_solve_runs_in_bounded_memory():
    # 68,608 solutions, 14.7 MB of JSON.  The solve runs in a grandchild,
    # so the peak RSS the child reads for its children is the solve's
    # alone, whatever else this test process has waited for.
    argv = ["solve", "--scenario", "generic", "--allow-large",
            "--fix", "a11=1", "--fix", "b11=m", "--fix", "a12=m2"]
    measure = (
        "import resource, subprocess, sys\n"
        "code = subprocess.call(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
        "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", measure, sys.executable, "-m", "mub3q", *argv],
        capture_output=True, text=True, env=_child_env(), timeout=120,
    )
    code, max_rss_kb = map(int, result.stdout.split())
    assert code == 0
    assert max_rss_kb <= 64 * 1024


# About 330 KB of JSON, more than a pipe buffer holds: the child is still
# writing when the reader closes the pipe after 100 characters.
_LARGE_SOLVE = ["solve", "--scenario", "generic", "--allow-large", *(w for pair in (
    "a11=1", "b11=m", "a12=m2", "b12=m3", "a21=m4") for w in ("--fix", pair))]


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, head", [(_LARGE_SOLVE, 100), (THREE_AXES, 0), (["--help"], 0)],
                         ids=["large", "small", "help"])
def test_closed_output_pipe_ends_in_one_error_line(argv, head, unbuffered):
    # head 0 closes the pipe before the child has written anything
    proc = subprocess.Popen(
        [sys.executable, "-m", "mub3q", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=dict(_child_env(), PYTHONUNBUFFERED=unbuffered),
    )
    if head:
        assert proc.stdout.read(head).startswith("[{")
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err and "Exception ignored" not in err


def test_exact_commands_run_without_numpy(capsys):
    # numpy is imported only by the numeric checks: with numpy made
    # unimportable, these commands give the same output as here
    argvs = [THREE_AXES, ["table", *SEED_M3, "--render", "--curves"], ["classify", *SEED_M3]]
    script = (
        "import contextlib, io, json, sys\n"
        "sys.modules['numpy'] = None\n"
        "from mub3q import cli\n"
        "out = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        out.append([cli.main(argv), buf.getvalue()])\n"
        "print(json.dumps(out))\n"
    )
    result = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                            capture_output=True, text=True, env=_child_env())
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [list(run_cli(argv, capsys)[:2]) for argv in argvs]


# Arbitrary JSON, plus well-typed and valid seeds and scenarios, as files.
_TOKENS = st.sampled_from(gf8.TOKENS)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4) | _TOKENS,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=4) | st.sampled_from(["row1", "row2", "kind", "fixed"]),
                      kids, max_size=4),
    max_leaves=12,
)
_POINT = st.lists(_TOKENS, min_size=2, max_size=2)
_SEED = st.one_of(
    st.fixed_dictionaries({"row1": st.lists(_POINT, min_size=3, max_size=3),
                           "row2": st.lists(_POINT, min_size=3, max_size=3)}),
    st.fixed_dictionaries({"row1": st.lists(_POINT | _JSON, min_size=2, max_size=4),
                           "row2": st.lists(_POINT | _JSON, min_size=2, max_size=4) | _JSON}),
    # valid seeds of structures (3,0,6) and (0,9,0)
    st.sampled_from([
        {"row1": [["0", "m2"], ["0", "m6"], ["0", "m3"]],
         "row2": [["m2", "0"], ["m6", "0"], ["m3", "0"]]},
        {"row1": [["m2", "m2"], ["1", "1"], ["m4", "m"]],
         "row2": [["m3", "m3"], ["m5", "m"], ["m6", "m5"]]},
    ]),
    _JSON,
)
_NAMES = st.sampled_from(("l1", "l2", *PARAM_NAMES))
_SCENARIO = st.one_of(
    # each kind with the names it fixes (generic: seven of the twelve)
    st.sampled_from(solver.SCENARIO_KINDS).flatmap(lambda kind: st.fixed_dictionaries({
        "kind": st.just(kind),
        "fixed": st.fixed_dictionaries(
            dict.fromkeys(solver.SCHEMES[kind].fixes or PARAM_NAMES[:7], _TOKENS)),
    })),
    st.fixed_dictionaries({"kind": st.sampled_from(solver.SCENARIO_KINDS) | _JSON,
                           "fixed": st.dictionaries(_NAMES | st.text(max_size=3),
                                                    _TOKENS | _JSON, max_size=12) | _JSON}),
    _JSON,
)
_FILE_CASES = st.one_of(
    st.tuples(st.sampled_from(["table", "verify", "classify"]), _SEED),
    st.tuples(st.just("solve"), _SCENARIO),
)


@settings(max_examples=200, deadline=None)
@given(case=_FILE_CASES, pretty=st.booleans(), raw=st.none() | st.text(max_size=20))
def test_file_inputs_end_in_one_line_or_success(tmp_path_factory, case, pretty, raw):
    command, content = case
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_text(json.dumps(content) if raw is None else raw, encoding="utf-8")
    flag = "--scenario-file" if command == "solve" else "--seed-file"
    argv = [command, flag, str(path)] + (["--pretty"] if pretty else [])
    code, _, err = _captured(argv)  # an exception escaping main fails the test
    assert code in (0, 1, 2)
    assert err.count("\n") <= 1
    assert (code == 0) == (err == "")


# Arbitrary argv over the CLI's own vocabulary.  --allow-large is left out,
# so no draw enumerates more than 8^6 candidates.
_SWITCHES = ["--json", "--pretty", "--render", "--curves", "--amplitudes", "--help"]
_VALUE_FLAGS = ["--scenario", "--scenario-file", "--seed-file", "--fix",
                *(f"--{name}" for name in cli.SOLVE_FLAGS)]
_JUNK = st.text(max_size=4)
_PAIR = st.builds("{}={}".format, _NAMES | _JUNK, _TOKENS | _JUNK)
_GROUP = st.one_of(
    st.tuples(st.sampled_from(_SWITCHES)),
    st.tuples(st.sampled_from(_VALUE_FLAGS), _TOKENS | _JUNK),
    st.tuples(st.just("--scenario"), st.sampled_from(solver.SCENARIO_KINDS)),
    st.tuples(st.just("--fix"), _PAIR),
    st.tuples(st.sampled_from(_SWITCHES + _VALUE_FLAGS) | _TOKENS | _PAIR | _JUNK),
)


@st.composite
def _complete_args(draw, command) -> list[str]:
    """Flags that get a command past the usage checks: a valid seed (a
    symplectic image of the three-axes seed) for table, verify and
    classify, so they can succeed, and for any other command a seed or a
    scenario with the flags it fixes (generic: six or seven --fix pairs)."""
    kinds = ["seed"] if command in ("table", "verify", "classify") else ["seed", *solver.SCENARIO_KINDS]
    kind = draw(st.sampled_from(kinds))
    if kind == "seed":
        return _seed_flags(symplectic_image(draw(st.lists(st.integers(1, 63), min_size=1, max_size=24))))
    names = solver.SCHEMES[kind].fixes
    if names is None:
        pairs = [f"{draw(_NAMES)}={draw(_TOKENS)}" for _ in range(draw(st.integers(6, 7)))]
        return ["--scenario", kind, *(w for pair in pairs for w in ("--fix", pair))]
    return ["--scenario", kind, *(w for name in names for w in (f"--{name}", draw(_TOKENS)))]


@st.composite
def _argvs(draw) -> list[str]:
    commands = ["solve", "table", "verify", "classify", "reproduce-paper"]
    command = draw(st.one_of(*map(st.just, commands), _JUNK))
    words = [w for group in draw(st.lists(_GROUP, max_size=4)) for w in group]
    return [command, *words, *draw(st.just([]) | _complete_args(command))]


@pytest.fixture(scope="module")
def three_axes_reference():
    return _captured(THREE_AXES)


@settings(max_examples=200, deadline=None)
@given(argv=_argvs())
def test_any_argv_ends_in_an_exit_code(three_axes_reference, argv):
    code, _, err = _captured(argv)  # an exception escaping main fails the test
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1
    # the parser is shared by all calls in a process: no drawn argv may
    # change what a later call prints
    assert _captured(THREE_AXES) == three_axes_reference


def test_argv_fuzz_reaches_successful_verify_and_classify():
    # a fixed sample of the fuzz's argvs: its success paths are exercised
    successes = Counter()

    @hypothesis.seed(0)
    @settings(max_examples=200, database=None, deadline=None)
    @given(argv=_argvs())
    def tally(argv):
        code, _, _ = _captured(argv)
        if code == 0 and "--help" not in argv:
            successes[argv[0]] += 1

    tally()
    assert successes["verify"] >= 1 and successes["classify"] >= 1, successes
