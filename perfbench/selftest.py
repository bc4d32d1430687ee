"""Tests of the benchmark's oracle, generators and checks.

    python3 -m pytest -q perfbench/selftest.py

The oracle is checked against the published solution values, grids and
separability structures of the four worked examples, read as data from
mub3q.reference (its fields only, none of its functions), and against the
statement that the twelve equations hold exactly when every row of the
table commutes.  The checks are shown to reject tampered program output.
"""

import contextlib
import io
import json
import random
import sys
from itertools import combinations
from pathlib import Path

import pytest

import checks
import inputs
import oracle as O

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from mub3q import cli, reference  # noqa: E402


def test_field_tables():
    for x in range(8):
        for y in range(8):
            assert O.MUL[x][y] == O.MUL[y][x]
            for z in range(8):
                assert O.MUL[x][y ^ z] == O.MUL[x][y] ^ O.MUL[x][z]
                assert O.MUL[O.MUL[x][y]][z] == O.MUL[x][O.MUL[y][z]]
    assert sorted(O.ORDER) == list(range(8))
    assert O.MUL[O.ORDER[-1]][O.VALUE["m"]] == 1  # m^7 = 1
    assert all(any(O.MUL[x][y] == 1 for y in range(8)) for x in range(1, 8))
    assert all(O.TRACE[x ^ y] == O.TRACE[x] ^ O.TRACE[y] for x in range(8) for y in range(8))
    assert set(O.TRACE) == {0, 1}
    assert tuple(O.TOKEN[v] for v in O.SELF_DUAL) == ("m3", "m5", "m6")


def _rows_commute(params) -> bool:
    return all(O.commute(p, q) for row in O.table(params) for p, q in combinations(row, 2))


def test_twelve_equations_hold_iff_rows_commute():
    rng = random.Random(0)
    holding = 0
    for _ in range(15):
        fixed = inputs.generic_fixing(rng)
        free = [p for p in O.PARAMS if p not in fixed]
        for values in O.solutions(fixed)[:20]:
            params = dict(fixed, **dict(zip(free, values)))
            assert _rows_commute(params)
            holding += 1
        for _ in range(200):
            params = {p: rng.choice(O.ORDER) for p in O.PARAMS}
            assert (not O.failing(params)) == _rows_commute(params)
    assert holding > 100


def _example_params(example, values):
    fixed = {n: O.VALUE[t] for n, t in example.fixed.items()}
    if example.kind == "three-axes":
        return O.three_axes_params(fixed["l1"], fixed["l2"], values[0])
    params = dict(fixed, **dict.fromkeys(O.SCHEME_ZEROS[example.kind], 0))
    params.update(zip(O.SCHEME_FREE[example.kind], values))
    return params


@pytest.mark.parametrize("example", reference.EXAMPLES, ids=lambda e: e.name)
def test_oracle_reproduces_worked_example(example):
    want = [tuple(O.VALUE[t] for t in f) for f in example.expected_free]
    fixed = {n: O.VALUE[t] for n, t in example.fixed.items()}
    if example.kind == "three-axes":
        found = [(l3,) for l3 in O.ORDER
                 if not O.failing(O.three_axes_params(fixed["l1"], fixed["l2"], l3))]
    else:
        found = O.solutions(dict(fixed, **dict.fromkeys(O.SCHEME_ZEROS[example.kind], 0)))
    if example.kind == "no-axis":  # only one of its solutions is published
        assert want[0] in found
    else:
        assert found == want
    for values, published in zip(want, example.structures):
        rows = O.table(_example_params(example, values))
        assert O.table_is_valid(rows)
        assert O.structure(rows) == published
    assert O.grid_lines(O.table(_example_params(example, want[0]))) == list(example.grid)


def test_symplectic_pool_is_valid_and_reaches_every_structure():
    rng = random.Random(1)
    seen = set()
    for _ in range(200):
        rows = O.table(inputs.report_seed(rng))
        assert O.table_is_valid(rows)
        seen.add(O.structure(rows))
    assert seen == set(reference.KNOWN_STRUCTURES)
    assert inputs.report_seed(random.Random(5)) == inputs.report_seed(random.Random(5))


def test_scheme_fixings_are_admissible():
    rng = random.Random(2)
    for _ in range(200):
        f = inputs.scheme_fixings(rng)
        l1, l2 = f["three-axes"]["l1"], f["three-axes"]["l2"]
        assert 0 not in (l1, l2) and l1 != l2
        for scheme in ("two-axes", "one-axis"):
            span = {0}
            for b in (f[scheme][n] for n in ("b11", "b12", "b13")):
                span |= {b ^ s for s in span}
            assert len(span) == 8


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def test_checks_accept_program_output_and_reject_tampering():
    argv = inputs.solve_schemes_op(random.Random(3))[3]
    code, out = _run(argv)
    assert checks.check_solve(argv, code, out) == []
    sols = json.loads(out)
    assert sols, "pick a fixing with solutions"
    assert checks.check_solve(argv, code, json.dumps(sols[1:]))
    flipped = [dict(sols[0], valid=not sols[0]["valid"])] + sols[1:]
    assert checks.check_solve(argv, code, json.dumps(flipped))
    assert checks.check_solve(argv, code, json.dumps(sols[::-1])) or len(sols) == 1

    table_argv, verify_argv, classify_argv = inputs.seed_report_op(random.Random(4))
    code, out = _run(table_argv)
    assert checks.check_table(table_argv, code, out) == []
    swapped = json.loads(out)
    swapped["table"][0], swapped["table"][1] = swapped["table"][1], swapped["table"][0]
    assert checks.check_table(table_argv, code, json.dumps(swapped))

    code, out = _run(verify_argv)
    assert checks.check_verify(verify_argv, code, out) == []
    report = dict(json.loads(out), unbiasedness_defect=1e-6)
    assert checks.check_verify(verify_argv, code, json.dumps(report))

    code, out = _run(classify_argv)
    known = set(reference.KNOWN_STRUCTURES)
    assert checks.check_classify(classify_argv, code, out, known) == []
    labels = json.loads(out)
    labels["labels"] = labels["labels"][1:] + labels["labels"][:1]
    assert checks.check_classify(classify_argv, code, json.dumps(labels), known) or \
        len(set(labels["labels"])) == 1
