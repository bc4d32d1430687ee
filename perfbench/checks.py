"""Output checks, one function per command kind.

Each check takes the argv of one `mub3q` call, its exit code and its
stdout, and returns a list of problems (empty when the output is right).
Expected values come from the oracle or from properties the method must
have, never from a stored copy of earlier output.
"""

from __future__ import annotations

import json

import oracle as O

DEFECT_TOL = 1e-10


def _flags(argv: list[str]) -> dict[str, str]:
    """--name value pairs of an argv (switches without a value are skipped)."""
    out = {}
    for i, arg in enumerate(argv):
        if arg.startswith("--") and i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[arg[2:]] = argv[i + 1]
    return out


def _seed_params(seed: dict) -> dict[str, int]:
    params = {}
    for r in (1, 2):
        for c, (a, b) in enumerate(seed[f"row{r}"], start=1):
            params[f"a{r}{c}"], params[f"b{r}{c}"] = O.VALUE[a], O.VALUE[b]
    return params


def _solve_expectation(argv: list[str]):
    """(pinned parameter values, free names, oracle solutions) of a solve."""
    flags = _flags(argv)
    scheme = flags["scenario"]
    if scheme == "generic":
        fixed = {}
        for i, arg in enumerate(argv):
            if arg == "--fix":
                name, _, tok = argv[i + 1].partition("=")
                fixed[name] = O.VALUE[tok]
        free = tuple(p for p in O.PARAMS if p not in fixed)
        return fixed, free, O.solutions(fixed)
    if scheme == "three-axes":
        l1, l2 = O.VALUE[flags["l1"]], O.VALUE[flags["l2"]]
        sols = [(l3,) for l3 in O.ORDER if not O.failing(O.three_axes_params(l1, l2, l3))]
        return {"l1": l1, "l2": l2}, ("l3",), sols
    fixed = {n: O.VALUE[t] for n, t in flags.items() if n in O.PARAMS}
    fixed.update(dict.fromkeys(O.SCHEME_ZEROS[scheme], 0))
    return fixed, O.SCHEME_FREE[scheme], O.solutions(fixed)


def check_solve(argv: list[str], code, stdout: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    fixed, free, want = _solve_expectation(argv)
    sols = json.loads(stdout)
    problems = []
    got = []
    for k, sol in enumerate(sols, start=1):
        params = _seed_params(sol["seed"])
        if list(sol["free"]) != list(free):
            problems.append(f"solution {k}: free names {list(sol['free'])}")
            continue
        values = tuple(O.VALUE[t] for t in sol["free"].values())
        got.append(values)
        if free == ("l3",):
            pinned = O.three_axes_params(fixed["l1"], fixed["l2"], values[0])
        else:
            pinned = dict(fixed, **dict(zip(free, values)))
        if any(params[n] != v for n, v in pinned.items()):
            problems.append(f"solution {k}: seed does not carry the fixed and solved values")
        if O.failing(params):
            problems.append(f"solution {k}: fails equations {O.failing(params)}")
        if sol["valid"] is not O.table_is_valid(O.table(params)):
            problems.append(f"solution {k}: valid={sol['valid']} disagrees with the table check")
    ranks = [tuple(O.RANK[v] for v in vs) for vs in got]
    if any(x >= y for x, y in zip(ranks, ranks[1:])):
        problems.append("solutions are not in strict lexicographic display order")
    if got != want:
        problems.append(f"{len(got)} solutions where the oracle finds {len(want)}")
    return problems


def _argv_params(argv: list[str]) -> dict[str, int]:
    flags = _flags(argv)
    return {n: O.VALUE[flags[n]] for n in O.PARAMS}


def check_table(argv: list[str], code, stdout: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    rows = O.table(_argv_params(argv))
    out = json.loads(stdout)
    problems = []
    if out["table"] != [[O.point_json(p) for p in row] for row in rows]:
        problems.append("table differs from the recursion")
    lines = out["grid"].split("\n")
    if lines[0].split("|")[1].split() != list(O.TOKENS) or lines[-1] != "" or len(lines) != 10:
        problems.append("grid frame is malformed")
    else:
        labels = [line.split("|")[0].strip() for line in lines[1:9]]
        cells = [line.split("| ", 1)[1] for line in lines[1:9]]
        if labels != list(reversed(O.TOKENS)) or cells != O.grid_lines(rows):
            problems.append("grid disagrees with the table")
    if len(out["curves"]) != 9:
        problems.append(f"{len(out['curves'])} curves")
    for k, (curve, row) in enumerate(zip(out["curves"], rows), start=1):
        lcoef = tuple(O.VALUE[t] for t in curve["l"])
        mcoef = tuple(O.VALUE[t] for t in curve["m"])
        if not any(lcoef + mcoef):
            problems.append(f"curve {k} is the zero relation")
        elif not set(row) | {(0, 0)} <= O.curve_points(lcoef, mcoef):
            problems.append(f"curve {k} does not hold on its row and the origin")
    return problems


def check_verify(argv: list[str], code, stdout: str) -> list[str]:
    out = json.loads(stdout) if code in (0, 1) else {}
    problems = [] if code == 0 else [f"exit code {code}"]
    if out.get("pass") is not True:
        problems.append(f"pass is {out.get('pass')}")
    for key in ("orthonormality_defect", "unbiasedness_defect"):
        if not out.get(key, 1.0) < DEFECT_TOL:
            problems.append(f"{key} {out.get(key)}")
    if out and tuple(out["structure"]) != O.structure(O.table(_argv_params(argv))):
        problems.append(f"structure {out['structure']} disagrees with the exact rule")
    return problems


def check_classify(argv: list[str], code, stdout: str, known_structures) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    rows = O.table(_argv_params(argv))
    out = json.loads(stdout)
    problems = []
    if out["labels"] != O.labels(rows):
        problems.append("labels disagree with the exact rule")
    if tuple(out["structure"]) != O.structure(rows):
        problems.append(f"structure {out['structure']} disagrees with the exact rule")
    if tuple(out["structure"]) not in known_structures:
        problems.append(f"structure {out['structure']} is not a known structure")
    return problems


def check_reproduce(code, stdout: str, misprinted_names: set[str]) -> list[str]:
    checks = json.loads(stdout) if code in (0, 1) else []
    names = [c["name"] for c in checks]
    failed = {c["name"] for c in checks if not c["pass"]}
    problems = []
    if len(checks) != 60 or len(set(names)) != 60:
        problems.append(f"{len(checks)} checks, {len(set(names))} distinct")
    if not failed <= misprinted_names:
        problems.append(f"unexpected failures: {sorted(failed - misprinted_names)}")
    if code != (1 if failed else 0):
        problems.append(f"exit code {code} with {len(failed)} failed checks")
    return problems
