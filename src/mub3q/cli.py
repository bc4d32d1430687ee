"""Command-line interface.

Subcommands: solve, table, verify, classify, reproduce-paper.  Field
elements are written as tokens 0, 1, m, m2, ..., m6 everywhere.  Output
is JSON by default (--pretty switches to plain text); all output is
deterministic: fixed key order, floats at 12 significant digits.

Exit codes: 0 success, 1 domain failure (invalid input, failed
verification, failed checks), 2 usage error (bad flags or tokens).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import gf8, mub, phasespace, reference, solver
from .phasespace import PARAM_NAMES, SeedSet

SEED_FLAGS = PARAM_NAMES
SOLVE_FLAGS = ("l1", "l2", *SEED_FLAGS)  # value flags of solve: l1, l2 and the seed


class UsageError(Exception):
    pass


class DomainError(Exception):
    pass


def _json_dumps(obj) -> str:
    """Deterministic JSON: insertion-ordered keys, floats at 12 sig. digits."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format(obj, ".12g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_json_dumps(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_json_dumps(v)}" for k, v in obj.items()) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _field(s: str) -> int:
    try:
        return gf8.from_token(s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _fix_pair(s: str) -> tuple[str, int]:
    name, sep, tok = s.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError("expected name=token, e.g. b11=m4")
    try:
        return name, gf8.from_token(tok)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_format_flags(p: argparse.ArgumentParser) -> None:
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON output (default)")
    fmt.add_argument("--pretty", action="store_true", help="plain-text output")


def _add_seed_flags(p: argparse.ArgumentParser) -> None:
    for name in SEED_FLAGS:
        p.add_argument(f"--{name}", type=_field, metavar="TOK", default=None)
    p.add_argument(
        "--seed-file", metavar="PATH", default=None,
        help="JSON seed {row1: [[a,b]x3], row2: [[a,b]x3]} instead of flags",
    )


def _point_text(p) -> str:
    return f"({gf8.to_token(p[0])},{gf8.to_token(p[1])})"


def _read_json(path: str, what: str):
    """Parse a JSON file.  A file that cannot be opened, or nests too deeply
    for the parser, is a DomainError; other parse errors stay ValueErrors."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, RecursionError) as exc:
        raise DomainError(f"cannot read {what} file: {exc}") from None


def _load_seed(args) -> SeedSet:
    given = {n: getattr(args, n) for n in SEED_FLAGS if getattr(args, n) is not None}
    if args.seed_file is not None:
        if given:
            raise UsageError("give either --seed-file or the 12 seed flags, not both")
        try:
            return SeedSet.from_json(_read_json(args.seed_file, "seed"))
        except ValueError as exc:
            raise DomainError(f"cannot read seed file: {exc}") from None
    missing = [n for n in SEED_FLAGS if n not in given]
    if missing:
        raise UsageError(f"missing seed flags: {', '.join('--' + n for n in missing)}")
    return SeedSet.from_params(given)


def _checked_table(seed: SeedSet) -> phasespace.StriationTable:
    failing = phasespace.failing_equations(seed)
    if failing:
        raise DomainError(f"seed fails equation {failing[0]} of 12")
    errors = seed.well_formedness_errors()
    if errors:
        raise DomainError(f"seed is not well-formed: {errors[0]}")
    table = phasespace.build_table(seed, check_seed=False)
    report = phasespace.validate_table(table)
    if not report.valid:
        raise DomainError(f"table validation failed: {report.first_failure()}")
    return table


def _print_solutions(sols: list[solver.Solution], pretty: bool) -> None:
    if not pretty:
        print(_json_dumps([s.to_json() for s in sols]))
        return
    if not sols:
        print("no solutions")
        return
    for i, sol in enumerate(sols, start=1):
        print(f"solution {i}  valid={'yes' if sol.valid else 'no'}")
        print("  free: " + " ".join(f"{n}={gf8.to_token(v)}" for n, v in sol.free))
        print("  row1: " + " ".join(_point_text(p) for p in sol.seed.row1))
        print("  row2: " + " ".join(_point_text(p) for p in sol.seed.row2))


def _scenario_from_flags(args) -> solver.Scenario:
    kind = args.scenario
    given = {n: getattr(args, n) for n in SOLVE_FLAGS if getattr(args, n) is not None}
    names = solver.SCHEMES[kind].fixes
    if names is None:
        if given:
            raise UsageError("generic scenarios take --fix name=token, not seed flags")
        fixed: dict[str, int] = {}
        for name, value in args.fix or []:
            if name in fixed:
                raise UsageError(f"--fix {name} given more than once")
            fixed[name] = value
        return solver.Scenario.make(kind, fixed)
    if args.fix:
        raise UsageError(f"--fix is only for --scenario generic, not {kind}")
    missing = [n for n in names if n not in given]
    extra = [n for n in given if n not in names]
    if missing:
        raise UsageError(f"scenario {kind} needs {', '.join('--' + n for n in missing)}")
    if extra:
        raise UsageError(f"scenario {kind} does not take {', '.join('--' + n for n in extra)}")
    return solver.Scenario.make(kind, {n: given[n] for n in names})


def _cmd_solve(args) -> int:
    if args.scenario_file is not None:
        if args.scenario is not None:
            raise UsageError("give either --scenario or --scenario-file, not both")
        scenario = solver.Scenario.from_json(_read_json(args.scenario_file, "scenario"))
    elif args.scenario is None:
        raise UsageError("--scenario (or --scenario-file) is required")
    else:
        scenario = _scenario_from_flags(args)
    _print_solutions(solver.solve_scenario(scenario, allow_large=args.allow_large), args.pretty)
    return 0


def _cmd_table(args) -> int:
    seed = _load_seed(args)
    table = _checked_table(seed)
    want_grid = args.render
    want_curves = args.curves
    if args.pretty:
        if want_grid:
            print(phasespace.render_grid(table), end="")
        if want_curves:
            for i, row in enumerate(table.rows, start=1):
                print(f"curve {i}: {phasespace.fit_curve(row).text()}")
        if not (want_grid or want_curves):
            for i, row in enumerate(table.rows, start=1):
                print(f"row {i}: " + " ".join(_point_text(p) for p in row))
        return 0
    payload: dict = {"table": table.to_json()}
    if want_grid:
        payload["grid"] = phasespace.render_grid(table)
    if want_curves:
        payload["curves"] = [phasespace.fit_curve(row).to_json() for row in table.rows]
    print(_json_dumps(payload))
    return 0


def _cmd_verify(args) -> int:
    seed = _load_seed(args)
    table = _checked_table(seed)
    report = mub.verify_mub_set(table)
    if args.pretty:
        print(f"orthonormality defect: {report.orthonormality_defect:.12g}")
        print(f"unbiasedness defect: {report.unbiasedness_defect:.12g}")
        print("structure: " + " ".join(str(n) for n in report.structure))
        print(f"pass: {'yes' if report.passed else 'no'}")
    else:
        payload = report.to_json()
        if args.amplitudes:
            payload["bases"] = [
                [[[float(a.real), float(a.imag)] for a in state] for state in b.states]
                for b in report.bases
            ]
        print(_json_dumps(payload))
    return 0 if report.passed else 1


def _cmd_classify(args) -> int:
    seed = _load_seed(args)
    table = _checked_table(seed)
    report = mub.verify_mub_set(table)
    if not report.passed:
        raise DomainError("MUB verification failed; not classifying")
    labels = [b.label for b in report.bases]
    if args.pretty:
        for i, label in enumerate(labels, start=1):
            print(f"basis {i}: {label}")
        print("structure: " + " ".join(str(n) for n in report.structure))
    else:
        print(_json_dumps({"labels": labels, "structure": list(report.structure)}))
    return 0


def _cmd_reproduce(args) -> int:
    checks = reference.run_all_checks()
    if args.json:
        print(_json_dumps([c.to_json() for c in checks]))
    else:
        for c in checks:
            if c.passed:
                print(f"PASS {c.name}")
            else:
                print(f"FAIL {c.name}: {c.detail}")
        passed = sum(c.passed for c in checks)
        print(f"{passed}/{len(checks)} checks passed")
    return 0 if all(c.passed for c in checks) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mub3q",
        description="Three-qubit MUB sets from GF(8) phase-space striations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a fixing scheme for seed points")
    p_solve.add_argument(
        "--scenario",
        choices=solver.SCENARIO_KINDS,
        default=None,
    )
    p_solve.add_argument("--scenario-file", metavar="PATH", default=None,
                         help='JSON {"kind": ..., "fixed": {...}}')
    for name in SOLVE_FLAGS:
        p_solve.add_argument(f"--{name}", type=_field, metavar="TOK", default=None)
    p_solve.add_argument("--fix", type=_fix_pair, action="append", metavar="NAME=TOK",
                         help="generic scenario fixing; repeatable")
    p_solve.add_argument("--allow-large", action="store_true",
                         help="permit more than 6 free parameters (8^6 assignments); "
                              "more than 8^7 solutions is refused regardless")
    _add_format_flags(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_table = sub.add_parser("table", help="build a striation table from a full seed")
    _add_seed_flags(p_table)
    p_table.add_argument("--render", action="store_true", help="include the 8x8 grid")
    p_table.add_argument("--curves", action="store_true",
                         help="include fitted curve relations per row")
    _add_format_flags(p_table)
    p_table.set_defaults(func=_cmd_table)

    p_verify = sub.add_parser("verify", help="verify the MUB set of a seed")
    _add_seed_flags(p_verify)
    p_verify.add_argument("--amplitudes", action="store_true",
                          help="include basis amplitudes in the JSON report")
    _add_format_flags(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_cls = sub.add_parser("classify", help="separability labels of the nine bases")
    _add_seed_flags(p_cls)
    _add_format_flags(p_cls)
    p_cls.set_defaults(func=_cmd_classify)

    p_rep = sub.add_parser(
        "reproduce-paper",
        help="re-run every bundled reference example and report pass/fail",
    )
    _add_format_flags(p_rep)
    p_rep.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
