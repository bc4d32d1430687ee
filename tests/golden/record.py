"""Record the golden CLI corpus: stdout and exit code of fixed argv lists.

    PYTHONPATH=src python tests/golden/record.py

writes tests/golden/cli_corpus.json.  `tests/test_golden.py` replays every
entry through `cli.main` and requires the same stdout, byte for byte, and
the same exit code.  Re-record only when a change of output is intended,
and say in the change which entries moved and why.

The seeded fixings are drawn here, once; the corpus stores plain argv
lists, so replaying it draws nothing.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

from mub3q import cli, gf8, reference, solver
from mub3q.phasespace import PARAM_NAMES, echelon

CORPUS = Path(__file__).with_name("cli_corpus.json")
RNG_SEED = 20131
MAX_GENERIC_SOLUTIONS = 40  # keeps each seeded generic entry small

TOKENS = gf8.TOKENS
NONZERO = TOKENS[1:]

# Symplectic images of the three-axes seed (found by a seeded search):
# the reference tables all have structure (3,0,6) or (2,3,4), these two
# have (1,6,2) and (0,9,0).
ONE_TRISEPARABLE_SEED = {
    "a11": "m4", "b11": "m6", "a12": "m5", "b12": "0", "a13": "m", "b13": "m3",
    "a21": "m2", "b21": "0", "a22": "m5", "b22": "1", "a23": "0", "b23": "m6",
}
NO_TRISEPARABLE_SEED = {
    "a11": "m2", "b11": "m2", "a12": "1", "b12": "1", "a13": "m4", "b13": "m",
    "a21": "m3", "b21": "m3", "a22": "m5", "b22": "m", "a23": "m6", "b23": "m5",
}


def _scheme_argv(kind: str, fixed: dict[str, str]) -> list[str]:
    argv = ["solve", "--scenario", kind]
    for name, tok in fixed.items():
        argv += [f"--{name}", tok]
    return argv


def _generic_argv(fixed: dict[str, str], allow_large: bool = False) -> list[str]:
    argv = ["solve", "--scenario", "generic"] + (["--allow-large"] if allow_large else [])
    for name, tok in fixed.items():
        argv += ["--fix", f"{name}={tok}"]
    return argv


def _seed_flags(params: dict[str, int]) -> list[str]:
    flags = []
    for name in PARAM_NAMES:
        flags += [f"--{name}", gf8.to_token(params[name])]
    return flags


def _count(fixed: dict[str, str]) -> int:
    return solver.count_assignments({n: gf8.from_token(t) for n, t in fixed.items()})


def _seeded_generic(rng: random.Random, solvable: int, empty: int) -> list[list[str]]:
    """Generic fixings of 7 to 10 parameters: `solvable` of them with 1 to
    MAX_GENERIC_SOLUTIONS solutions, then `empty` with none."""
    out = []
    while len(out) < solvable + empty:
        k = rng.choice((7, 8, 9, 10))
        names = sorted(rng.sample(PARAM_NAMES, k), key=PARAM_NAMES.index)
        fixed = {n: rng.choice(TOKENS) for n in names}
        n = _count(fixed)
        if (0 < n <= MAX_GENERIC_SOLUTIONS) if len(out) < solvable else n == 0:
            out.append(_generic_argv(fixed))
    return out


def _seeded_schemes(rng: random.Random, count: int) -> list[list[str]]:
    """Axis-scheme fixings, cycling two-axes, one-axis, no-axis.  The
    two-axes and one-axis fixings have at least one solution, except the
    last three, which draw a GF(2)-dependent b triple that the axis schemes
    refuse."""
    out = []
    for i in range(count):
        kind = ("two-axes", "one-axis", "no-axis")[i % 3]
        scheme = solver.SCHEMES[kind]
        while True:
            fixed = {n: rng.choice(TOKENS) for n in scheme.fixes}
            if kind == "no-axis":
                break
            pivots, _ = echelon([gf8.from_token(fixed[n]) for n in ("b11", "b12", "b13")])
            if i >= count - 3:
                if len(pivots) < 3:
                    break
            elif len(pivots) == 3 and _count(dict(fixed, **dict.fromkeys(scheme.zeros, "0"))):
                break
        out.append(_scheme_argv(kind, fixed))
    return out


def corpus_argvs() -> list[list[str]]:
    rng = random.Random(RNG_SEED)
    argvs: list[list[str]] = []

    # the four worked schemes, JSON and plain text
    for example in reference.EXAMPLES:
        argv = _scheme_argv(example.kind, example.fixed)
        argvs += [argv, argv + ["--pretty"]]
    # every admissible three-axes pair
    for l1 in NONZERO:
        for l2 in NONZERO:
            if l1 != l2:
                argvs.append(_scheme_argv("three-axes", {"l1": l1, "l2": l2}))
    argvs += _seeded_generic(rng, solvable=12, empty=4)
    argvs.append(_seeded_generic(rng, solvable=1, empty=0)[0] + ["--pretty"])
    argvs += _seeded_schemes(rng, 12)

    # full seeds: the reference tables (three-axes, one-axis, no-axis)
    seeds = []
    for example in (reference.THREE_AXES, reference.ONE_AXIS, reference.NO_AXIS):
        seeds.append(reference.example_tables(example)[0].seed().params())
    bad_seed = dict(seeds[0], b23=gf8.from_token("m"))  # fails an equation
    origin_seed = dict.fromkeys(PARAM_NAMES, 0)  # satisfies all, not well-formed
    for params in seeds:
        flags = _seed_flags(params)
        argvs += [
            ["table", *flags, "--render", "--curves"],
            ["table", *flags, "--render", "--curves", "--pretty"],
        ]
    flags = _seed_flags(seeds[0])
    argvs += [
        ["table", *flags],
        ["table", *flags, "--pretty"],
        ["verify", *flags],
        ["verify", *flags, "--pretty"],
        ["verify", *flags, "--amplitudes"],
        ["verify", *_seed_flags(seeds[2])],
        ["verify", *_seed_flags(bad_seed)],
        ["verify", *_seed_flags(origin_seed)],
        ["classify", *flags],
        ["classify", *flags, "--pretty"],
        ["classify", *_seed_flags(seeds[2])],
        ["classify", *_seed_flags(bad_seed)],
        ["table", *_seed_flags(bad_seed)],
    ]
    # the two structures no reference table has, in both output formats;
    # their tables hold 6 rows on which neither coordinate is a function
    # of the other, so their curves are implicit relations
    for tokens in (ONE_TRISEPARABLE_SEED, NO_TRISEPARABLE_SEED):
        flags = _seed_flags({n: gf8.from_token(t) for n, t in tokens.items()})
        for command in ("classify", "verify"):
            argvs += [[command, *flags], [command, *flags, "--pretty"]]
        argvs += [
            ["table", *flags, "--render", "--curves"],
            ["table", *flags, "--render", "--curves", "--pretty"],
        ]
    argvs += [["reproduce-paper"], ["reproduce-paper", "--json"]]

    # error paths
    five = {"a11": "1", "b11": "m", "a12": "0", "b12": "m3", "a13": "m5"}
    argvs += [
        _generic_argv(five),  # cost guard: 7 free without --allow-large
        _generic_argv({}, allow_large=True),  # more than 8^7 solutions
        _generic_argv({"zz": "m2"}),  # unknown parameter name
        ["solve", "--scenario", "two-axes", "--b11", "m4"],  # missing flags
        ["solve", "--scenario", "four-axes"],  # bad --scenario choice
        ["solve", "--scenario", "three-axes", "--l1", "m2", "--l2", "m2"],
        ["solve", "--scenario", "three-axes", "--l1", "m9", "--l2", "m2"],
        ["solve", "--scenario", "three-axes", "--l1", "m2", "--l2", "m6", "--a11", "0"],
        ["solve", "--scenario", "two-axes", "--b11", "1", "--b12", "m", "--b13", "m3",
         "--a21", "1"],  # dependent b triple
        ["solve", "--scenario", "one-axis", "--fix", "a11=1"],
        ["solve", "--scenario", "generic", "--l1", "m"],
        ["solve", "--scenario", "generic", "--fix", "b11=m", "--fix", "b11=m2"],
        ["solve"],
        ["table", "--a11", "0"],
        [],
    ]
    return argvs


def run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def main() -> None:
    entries = []
    for argv in corpus_argvs():
        code, stdout = run(argv)
        entries.append({"argv": argv, "exit": code, "stdout": stdout})
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"{len(entries)} invocations -> {CORPUS}")


if __name__ == "__main__":
    main()
