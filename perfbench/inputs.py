"""Seeded input generators.

Each generator takes a random.Random and returns one op: the argv lists of
the `mub3q` commands it runs, in order.  The program sees only these argv
lists; the draws that produce them stay here.
"""

from __future__ import annotations

import random

import oracle as O

NONZERO = O.ORDER[1:]


def _tok(v: int) -> str:
    return O.TOKEN[v]


def _basis_triple(rng: random.Random) -> tuple[int, int, int]:
    """b11, b12, b13 drawn until they are GF(2)-independent."""
    while True:
        trip = tuple(rng.choice(O.ORDER) for _ in range(3))
        span = {0}
        for b in trip:
            span |= {b ^ s for s in span}
        if len(span) == 8:
            return trip


def _solve_argv(scheme: str, fixed: dict[str, int]) -> list[str]:
    argv = ["solve", "--scenario", scheme]
    for name, value in fixed.items():
        argv += [f"--{name}", _tok(value)]
    return argv


def scheme_fixings(rng: random.Random) -> dict[str, dict[str, int]]:
    """One admissible fixing per scheme, keyed by scheme."""
    l1, l2 = rng.sample(NONZERO, 2)
    two = dict(zip(("b11", "b12", "b13"), _basis_triple(rng)), a21=rng.choice(O.ORDER))
    one = dict(zip(("b11", "b12", "b13"), _basis_triple(rng)))
    one.update({n: rng.choice(O.ORDER) for n in ("a21", "b22", "b23")})
    none = {n: rng.choice(O.ORDER) for n in ("a11", "b11", "b12", "b13", "a21", "b22", "b23")}
    return {"three-axes": {"l1": l1, "l2": l2}, "two-axes": two,
            "one-axis": one, "no-axis": none}


def solve_schemes_op(rng: random.Random) -> list[list[str]]:
    return [_solve_argv(k, f) for k, f in scheme_fixings(rng).items()]


GENERIC_FIXED = 5  # 7 free parameters, 8^7 candidates


def generic_fixing(rng: random.Random) -> dict[str, int]:
    names = rng.sample(O.PARAMS, GENERIC_FIXED)
    return {n: rng.choice(O.ORDER) for n in names}


def generic_argv(fixed: dict[str, int]) -> list[str]:
    argv = ["solve", "--scenario", "generic", "--allow-large"]
    for name, value in fixed.items():
        argv += ["--fix", f"{name}={_tok(value)}"]
    return argv


def solve_generic_op(rng: random.Random) -> list[list[str]]:
    return [generic_argv(generic_fixing(rng))]


# The three-axes worked example (l1, l2, l3) = (m2, m6, m3): a valid seed that
# the pool below is drawn from without calling the solver under test.
BASE_SEED = O.three_axes_params(O.VALUE["m2"], O.VALUE["m6"], O.VALUE["m3"])


def _bits(p) -> tuple[int, ...]:
    """(X bits, Z bits) of a point: its self-dual coordinates."""
    return tuple(O.TRACE[O.MUL[v][bj]] for v in p for bj in O.SELF_DUAL)


def _point(bits) -> tuple[int, int]:
    a = b = 0
    for j, bj in enumerate(O.SELF_DUAL):
        a ^= bj if bits[j] else 0
        b ^= bj if bits[3 + j] else 0
    return (a, b)


def _symplectic_form(u, v) -> int:
    return sum(u[j] * v[3 + j] + v[j] * u[3 + j] for j in range(3)) % 2


TRANSVECTIONS = 24


def random_symplectic(rng: random.Random):
    """A product of random transvections u -> u + w(u, v) v of GF(2)^6.
    They generate Sp(6, 2), so the map keeps commutation and linearity."""
    vs = []
    while len(vs) < TRANSVECTIONS:
        v = tuple(rng.randrange(2) for _ in range(6))
        if any(v):
            vs.append(v)

    def apply(p):
        u = _bits(p)
        for v in vs:
            if _symplectic_form(u, v):
                u = tuple(x ^ y for x, y in zip(u, v))
        return _point(u)

    return apply


def report_seed(rng: random.Random) -> dict[str, int]:
    """BASE_SEED moved by a random symplectic map: it keeps the twelve
    equations and the partition, but not the separability structure."""
    apply = random_symplectic(rng)
    out = {}
    for r in (1, 2):
        for c in (1, 2, 3):
            out[f"a{r}{c}"], out[f"b{r}{c}"] = apply((BASE_SEED[f"a{r}{c}"], BASE_SEED[f"b{r}{c}"]))
    return out


def seed_flags(params: dict[str, int]) -> list[str]:
    flags = []
    for name in O.PARAMS:
        flags += [f"--{name}", _tok(params[name])]
    return flags


def seed_report_argv(params: dict[str, int]) -> list[list[str]]:
    flags = seed_flags(params)
    return [["table", *flags, "--render", "--curves"], ["verify", *flags], ["classify", *flags]]


def seed_report_op(rng: random.Random) -> list[list[str]]:
    return seed_report_argv(report_seed(rng))


def reproduce_paper_op(rng: random.Random) -> list[list[str]]:
    return [["reproduce-paper", "--json"]]
