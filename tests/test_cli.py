"""CLI surface: output formats, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mub3q import cli

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


def test_solve_generic_with_fix(capsys):
    argv = ["solve", "--scenario", "generic",
            "--fix", "a11=0", "--fix", "b11=m2", "--fix", "a12=0", "--fix", "b12=m6",
            "--fix", "a13=0", "--fix", "a21=m2", "--fix", "b21=0", "--fix", "a22=m6",
            "--fix", "b22=0", "--fix", "b23=0"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    sols = json.loads(out)
    assert [s["free"] for s in sols] == [
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
    assert code == 1 and "allow_large" in err  # 12 free parameters refused


def test_solve_scenario_file(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"kind": "three-axes", "fixed": {"l1": "m2", "l2": "m6"}}))
    code, out, _ = run_cli(["solve", "--scenario-file", str(path)], capsys)
    assert code == 0
    assert [s["free"]["l3"] for s in json.loads(out)] == ["m3", "m5"]


@pytest.mark.parametrize(
    "scenario",
    [
        {"kind": "generic", "fixed": []},
        {"kind": "generic", "fixed": "b11=m2"},
        {"kind": "generic", "fixed": {"b11": ["m2"]}},
        [],
    ],
    ids=["fixed-list", "fixed-string", "token-list", "scenario-list"],
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
    code, out, _ = run_cli(["reproduce-paper"], capsys)
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[-1].endswith("checks passed")
    assert sum(line.startswith("PASS ") for line in lines) == len(lines) - 4
    assert sum(line.startswith("FAIL ") for line in lines) == 3


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


def test_module_entry_point_subprocess():
    # the child imports the same package as this test, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "mub3q", *THREE_AXES],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)[0]["free"] == {"l3": "m3"}
