"""Solvers for the twelve equations: reference examples, cross-checks, guards."""

import json
import random
from collections import Counter
from itertools import islice, product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mub3q import gf8, phasespace, reference, solver
from mub3q.phasespace import COEFFICIENTS, PARAM_NAMES, InvalidSeedError, SeedSet, build_table, check_all_striation_conditions, echelon, failing_equations, validate_table
from mub3q.solver import (
    CostGuardError,
    InvalidInputError,
    SCHEMES,
    Scenario,
    _SHIFT,
    _back_substitute,
    _form_is_nonzero,
    _solved_fixings,
    count_assignments,
    enumerate_assignments,
    solve_scenario,
    solution_is_valid,
)

from conftest import PRINTED_EQUATIONS, decode_key, solve, tk
from oracles import brute_force_system, pointwise_systems, recursive_table, span_greedy_basis

NONZERO = gf8.ELEMENTS[1:]

NO_AXIS = {"a11": "m2", "b11": "m5", "b12": "m3", "b13": "1", "a21": "m3", "b22": "m2", "b23": "m"}
TWO_AXES = {"b11": "m4", "b12": "m3", "b13": "m5", "a21": "1"}
ONE_AXIS = {"b11": "m4", "b12": "m3", "b13": "m", "a21": "1", "b22": "m2", "b23": "m6"}


# ---------------------------------------------------------------------------
# reference examples
# ---------------------------------------------------------------------------

def test_three_axes_reference():
    sols = solve("three-axes", l1="m2", l2="m6")
    assert [dict(s.free)["l3"] for s in sols] == [tk("m3"), tk("m5")]
    assert all(s.valid for s in sols)
    # _reduced_three_axes_system instantiates to tr(l3)=1, tr(m2*l3)=1, tr(m6*l3)=0
    assert gf8.trace(gf8.add(tk("m6"), gf8.mul(tk("m2"), tk("m6")))) == 1
    assert gf8.trace(tk("m6")) == 1
    assert gf8.trace(gf8.add(tk("m2"), gf8.mul(tk("m2"), tk("m6")))) == 0


def test_three_axes_rejects_bad_lambdas():
    with pytest.raises(InvalidInputError):
        solve("three-axes", l1="m2", l2="m2")
    with pytest.raises(InvalidInputError):
        solve("three-axes", l1="0", l2="m2")


def test_two_axes_reference():
    sols = solve("two-axes", **TWO_AXES)
    assert [s.free_values() for s in sols] == [(tk("m2"), tk("m3"))]
    assert sols[0].valid
    # a displayed constraint of the instantiated system: tr[a22 * m4] = 1
    assert gf8.trace(gf8.mul(tk("m2"), tk("m4"))) == 1


def test_two_axes_rejects_dependent_triple():
    # m3 + m5 = m2, so (m3, m5, m2) is dependent
    assert gf8.add(tk("m3"), tk("m5")) == tk("m2")
    with pytest.raises(InvalidInputError):
        solve("two-axes", b11="m3", b12="m5", b13="m2", a21="1")


def test_one_axis_reference():
    sols = solve("one-axis", **ONE_AXIS)
    assert [s.free_values() for s in sols] == [
        (tk("m2"), tk("m6"), tk("m4")),
        (tk("m3"), tk("m6"), tk("m4")),
    ]
    assert all(s.valid for s in sols)
    assert gf8.trace(gf8.mul(tk("m6"), tk("m4"))) == 1  # tr[a22 * m4] = 1


def test_one_axis_infeasible_returns_empty():
    sols = solve("one-axis", b11="1", b12="m", b13="m2", a21="1", b22="0", b23="m2")
    assert sols == []


def test_no_axis_reference():
    sols = solve("no-axis", **NO_AXIS)
    want = tuple(tk(t) for t in ("1", "m3", "m2", "m", "1"))
    match = [s for s in sols if s.free_values() == want]
    assert match and match[0].valid
    # tr[a12 * m5] = 1 holds for a12 = 1
    assert gf8.trace(gf8.mul(tk("1"), tk("m5"))) == 1
    # computed regression values: the full solution set of this fixing
    assert len(sols) == 22
    assert sum(s.valid for s in sols) == 16


def test_no_axis_invalid_solutions_are_degenerate_seeds():
    for sol in solve("no-axis", **NO_AXIS):
        if sol.valid:
            assert validate_table(build_table(sol.seed)).valid
        else:
            # degenerate solutions still satisfy the equations but give no table
            assert not validate_table(recursive_table(sol.seed)).valid


# ---------------------------------------------------------------------------
# displayed instantiated systems agree with the solver
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("example", reference.EXAMPLES, ids=lambda e: e.name)
def test_displayed_system_matches_solver(example):
    unknowns = {
        "three-axes": ("l3",),
        "two-axes": ("a22", "a23"),
        "one-axis": ("b21", "a22", "a23"),
        "no-axis": ("a12", "a13", "b21", "a22", "a23"),
    }[example.kind]
    from_system = reference.system_solutions(example.system, unknowns)
    from_solver = [s.free_values() for s in reference.solve_example(example)]
    assert from_system == from_solver


def _random_system(rng: random.Random):
    """A system in the displayed form over 1 to 3 unknowns: each side a
    sum of 1 to 3 products of unknowns and constants, each right-hand
    side a bit or another such sum."""
    unknowns = tuple(rng.sample(("x", "y", "z", "w"), rng.randint(1, 3)))

    def atom():
        return rng.choice(unknowns) if rng.random() < 0.6 else rng.choice(gf8.ELEMENTS)

    def side():
        return tuple((atom(), atom()) for _ in range(rng.randint(1, 3)))

    system = tuple(
        (side(), rng.randrange(2) if rng.random() < 0.5 else side())
        for _ in range(rng.randint(1, 4))
    )
    return system, unknowns


def test_displayed_system_brute_force_is_independent_of_the_solver(monkeypatch):
    cases = [(e.system, reference._scenario(e).free_names()) for e in reference.EXAMPLES]
    rng = random.Random(1312)
    cases += [_random_system(rng) for _ in range(300)]

    def refuse(*args, **kwargs):
        raise AssertionError("the brute force must not reach the solver's algebra")

    for module, name in ((phasespace, "equation_rows"), (phasespace, "echelon"),
                         (solver, "solve_scenario")):
        monkeypatch.setattr(module, name, refuse)
    found = 0
    for system, unknowns in cases:
        got = reference.system_solutions(system, unknowns)
        assert got == brute_force_system(system, unknowns)
        found += bool(got)
    assert 0 < found < len(cases)


# ---------------------------------------------------------------------------
# post-hoc invariants on every returned solution
# ---------------------------------------------------------------------------

def _all_reference_solutions():
    out = []
    out += solve("three-axes", l1="m2", l2="m6")
    out += solve("two-axes", **TWO_AXES)
    out += solve("one-axis", **ONE_AXIS)
    out += solve("no-axis", **NO_AXIS)
    return out


def test_solutions_satisfy_equations_post_hoc():
    for sol in _all_reference_solutions():
        assert not failing_equations(sol.seed)


def test_valid_solutions_give_valid_tables():
    for sol in _all_reference_solutions():
        if sol.valid:
            table = build_table(sol.seed)
            assert validate_table(table).valid
            assert check_all_striation_conditions(table)


def test_solutions_sorted_and_deterministic():
    first = solve("no-axis", **NO_AXIS)
    second = solve("no-axis", **NO_AXIS)
    assert first == second
    keys = [tuple(gf8.order_key(v) for v in s.free_values()) for s in first]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# three-axes solver vs the hand-reduced system and the twelve equations
# ---------------------------------------------------------------------------

def _axes_seed(l1, l2, l3) -> SeedSet:
    return SeedSet(
        row1=((0, l1), (0, l2), (0, l3)),
        row2=((l1, 0), (l2, 0), (l3, 0)),
    )


def _reduced_three_axes_system(l1, l2, l3) -> bool:
    """The hand-reduced form of the twelve equations on the three-axes shape."""
    t = gf8.trace
    l1l2 = gf8.mul(l1, l2)
    return (
        t(l3) == t(gf8.add(l2, l1l2))
        and t(gf8.mul(l1, l3)) == t(l2)
        and t(gf8.mul(l2, l3)) == t(gf8.add(l1, l1l2))
    )


def test_three_axes_reduction_equivalent_to_twelve_equations():
    for l1 in NONZERO:
        for l2 in NONZERO:
            if l1 == l2:
                continue
            scenario = Scenario.make("three-axes", {"l1": l1, "l2": l2})
            solved = [dict(s.free)["l3"] for s in solve_scenario(scenario)]
            reduced = [l3 for l3 in gf8.ELEMENTS if _reduced_three_axes_system(l1, l2, l3)]
            assert solved == reduced
            for l3 in gf8.ELEMENTS:
                assert (l3 in solved) == (not failing_equations(_axes_seed(l1, l2, l3)))


# ---------------------------------------------------------------------------
# generic solver: cross-checks, guards, sequential oracle
# ---------------------------------------------------------------------------

def test_generic_agrees_with_three_axes_shape():
    fixed = {
        "a11": 0, "b11": tk("m2"), "a12": 0, "b12": tk("m6"), "a13": 0,
        "a21": tk("m2"), "b21": 0, "a22": tk("m6"), "b22": 0, "b23": 0,
    }
    generic = solve_scenario(Scenario.make("generic", fixed))  # free: b13 and a23
    assert [s.free_values() for s in generic] == [(tk("m3"), tk("m3")), (tk("m5"), tk("m5"))]
    assert {s.seed for s in generic} == {
        s.seed for s in solve("three-axes", l1="m2", l2="m6")
    }


def test_generic_agrees_with_scheme_solvers():
    cases = [
        (
            solve("two-axes", **TWO_AXES),
            {
                "a11": 0, "b11": tk("m4"), "a12": 0, "b12": tk("m3"), "a13": 0,
                "b13": tk("m5"), "a21": tk("1"), "b21": 0, "b22": 0, "b23": 0,
            },
        ),
        (
            solve("one-axis", **ONE_AXIS),
            {
                "a11": 0, "b11": tk("m4"), "a12": 0, "b12": tk("m3"), "a13": 0,
                "b13": tk("m"), "a21": tk("1"), "b22": tk("m2"), "b23": tk("m6"),
            },
        ),
        (
            solve("no-axis", **NO_AXIS),
            {
                "a11": tk("m2"), "b11": tk("m5"), "b12": tk("m3"), "b13": tk("1"),
                "a21": tk("m3"), "b22": tk("m2"), "b23": tk("m"),
            },
        ),
    ]
    for scheme_sols, fixed in cases:
        generic = solve_scenario(Scenario.make("generic", fixed))
        assert [s.seed for s in generic] == [s.seed for s in scheme_sols]
        assert [s.valid for s in generic] == [s.valid for s in scheme_sols]


def test_generic_with_complete_fixing():
    params = {  # the completed two-axes reference seed
        "a11": 0, "b11": tk("m4"), "a12": 0, "b12": tk("m3"), "a13": 0,
        "b13": tk("m5"), "a21": tk("1"), "b21": 0, "a22": tk("m2"), "b22": 0,
        "a23": tk("m3"), "b23": 0,
    }
    sols = solve_scenario(Scenario.make("generic", params))
    assert len(sols) == 1
    assert sols[0].valid
    assert sols[0].free == ()
    # perturbing one parameter empties the solution set
    params["a23"] = tk("m4")
    assert solve_scenario(Scenario.make("generic", params)) == []


def test_generic_matches_sequential_enumeration():
    # independent oracle: plain nested loops with scalar evaluation
    fixed = {
        "a11": 0, "b11": tk("m4"), "a12": 0, "b12": tk("m3"), "a13": 0,
        "b13": tk("m5"), "a21": tk("1"), "b21": 0, "b22": 0, "b23": 0,
    }
    expected = []
    for a22 in gf8.ELEMENTS:
        for a23 in gf8.ELEMENTS:
            params = dict(fixed, a22=a22, a23=a23)
            if not failing_equations(SeedSet.from_params(params)):
                expected.append((a22, a23))
    got = [(a["a22"], a["a23"]) for a in map(decode_key, enumerate_assignments(fixed))]
    assert got == expected


def test_cost_guard():
    fixed5 = {
        "a11": tk("m2"), "b11": tk("m5"), "b12": tk("m3"), "b13": tk("1"),
        "a21": tk("m3"),
    }
    with pytest.raises(CostGuardError):
        enumerate_assignments(fixed5)  # 7 free parameters
    with pytest.raises(CostGuardError):
        solve("generic")  # 12 free parameters
    # with the override the 8^7 sweep runs and agrees with split sub-sweeps
    assignments = enumerate_assignments(fixed5, allow_large=True)
    assert len(assignments) == 848
    total = 0
    for b22 in gf8.ELEMENTS:
        for b23 in gf8.ELEMENTS:
            total += len(enumerate_assignments({**fixed5, "b22": b22, "b23": b23}))
    assert total == len(assignments)


def test_unknown_parameter_name_rejected():
    with pytest.raises(InvalidInputError):
        enumerate_assignments({"a99": 0})
    with pytest.raises(InvalidInputError):
        solve("generic", zz="1")


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def test_scenario_round_trip_and_dispatch():
    sc = Scenario.make("two-axes", {"b11": tk("m4"), "b12": tk("m3"), "b13": tk("m5"), "a21": tk("1")})
    assert Scenario.from_json(sc.to_json()) == sc
    sols = solve_scenario(sc)
    assert [s.free_values() for s in sols] == [(tk("m2"), tk("m3"))]


def test_scenario_validation():
    with pytest.raises(InvalidInputError):
        Scenario.make("bogus", {})
    with pytest.raises(InvalidInputError):
        Scenario.make("three-axes", {"l1": tk("m2")})
    with pytest.raises(InvalidInputError):
        Scenario.make("three-axes", {"l1": tk("m2"), "l2": tk("m2")})
    with pytest.raises(InvalidInputError):
        Scenario.make("two-axes", {"b11": tk("m3"), "b12": tk("m5"), "b13": tk("m2"), "a21": tk("1")})
    with pytest.raises(InvalidInputError):
        Scenario.make("generic", {"nope": 0})


def test_three_axes_takes_exactly_the_distinct_nonzero_pairs():
    # l1 and l2 span two dimensions over GF(2) iff they are distinct and nonzero
    for l1, l2 in product(gf8.ELEMENTS, repeat=2):
        if l1 and l2 and l1 != l2:
            assert Scenario.make("three-axes", {"l1": l1, "l2": l2}).fixed == (("l1", l1), ("l2", l2))
        else:
            with pytest.raises(InvalidInputError, match="distinct and nonzero"):
                Scenario.make("three-axes", {"l1": l1, "l2": l2})


# ---------------------------------------------------------------------------
# bilinear solver vs a numpy brute force over every candidate
# ---------------------------------------------------------------------------

_MUL = np.array(gf8.MUL, dtype=np.uint8)
_TR = np.array(gf8.TRACE, dtype=np.uint8)
_ELEMS = np.array(gf8.ELEMENTS, dtype=np.uint8)


def _eval_equations_mask(env):
    """Boolean mask of assignments satisfying all twelve equations, read
    from their printed form."""
    mask = None
    for lhs, rhs in PRINTED_EQUATIONS:
        sides = []
        for side in (lhs, rhs):
            acc = None
            for p, q in side:
                term = _MUL[env[p], env[q]]
                acc = term if acc is None else acc ^ term
            sides.append(_TR[acc])
        eq = sides[0] == sides[1]
        mask = eq if mask is None else mask & eq
    return mask


def _brute_force(fixed):
    """Every 8^free candidate evaluated at once; hits in enumeration order."""
    free = [n for n in PARAM_NAMES if n not in fixed]
    n = len(free)
    idx = np.arange(8**n, dtype=np.int64)
    env = dict(fixed)
    for k, name in enumerate(free):
        env[name] = _ELEMS[(idx // 8 ** (n - 1 - k)) % 8]
    out = []
    for h in np.flatnonzero(_eval_equations_mask(env)):
        assignment = dict(fixed)
        for k, name in enumerate(free):
            assignment[name] = int(gf8.ELEMENTS[(h // 8 ** (n - 1 - k)) % 8])
        out.append(assignment)
    return out


@st.composite
def _partial_fixings(draw):
    n_free = draw(st.integers(min_value=1, max_value=5))
    free = set(draw(st.permutations(PARAM_NAMES))[:n_free])
    values = st.sampled_from(gf8.ELEMENTS)
    return {n: draw(values) for n in PARAM_NAMES if n not in free}


@settings(max_examples=60, deadline=None)
@given(_partial_fixings())
def test_enumerate_matches_brute_force(fixed):
    keys = enumerate_assignments(fixed)
    assert list(map(decode_key, keys)) == _brute_force(fixed)
    assert all(x < y for x, y in zip(keys, keys[1:]))


def _swap_sides(assignment: dict) -> dict:
    """Rename every aRC to bRC and every bRC to aRC."""
    return {"ab"[n[0] == "a"] + n[1:]: v for n, v in assignment.items()}


def _lex_key(assignment: dict) -> tuple:
    return tuple(gf8.order_key(assignment[n]) for n in PARAM_NAMES)


@st.composite
def _fixings_of_six_or_more(draw):
    names = draw(st.permutations(PARAM_NAMES))[:draw(st.integers(min_value=6, max_value=12))]
    return {n: draw(st.sampled_from(gf8.ELEMENTS)) for n in names}


@settings(max_examples=200, deadline=None)
@given(_fixings_of_six_or_more())
def test_swapping_a_and_b_swaps_the_solutions(fixed):
    # omega is unchanged when every point's a and b are swapped, so the
    # solver may sweep either side
    keys = enumerate_assignments(fixed)
    swapped_keys = enumerate_assignments(_swap_sides(fixed))
    solutions = list(map(decode_key, keys))
    swapped = list(map(decode_key, swapped_keys))
    assert swapped == sorted(map(_swap_sides, solutions), key=_lex_key)
    for k in (keys, swapped_keys):
        assert all(x < y for x, y in zip(k, k[1:]))


_TWO_AXES_SEED = {
    "a11": 0, "b11": tk("m4"), "a12": 0, "b12": tk("m3"), "a13": 0,
    "b13": tk("m5"), "a21": tk("1"), "b21": 0, "a22": tk("m2"), "b22": 0,
    "a23": tk("m3"), "b23": 0,
}


@pytest.mark.parametrize(
    "free, overrides, count",
    [
        (("b13", "a22", "a23"), {}, 4),  # the b side has fewer free names: b is swept
        (("b12", "a22", "b22", "a23"), {}, 8),  # a tie: a is swept
        ((), {}, 1),  # a fully fixed seed that satisfies the equations
        ((), {"a23": tk("m4")}, 0),  # a fully fixed seed that fails them
    ],
    ids=["b-swept", "tie", "full-valid", "full-failing"],
)
def test_enumerate_matches_brute_force_on_sides_and_full_seeds(free, overrides, count):
    fixed = {n: v for n, v in {**_TWO_AXES_SEED, **overrides}.items() if n not in free}
    keys = enumerate_assignments(fixed)
    assert list(map(decode_key, keys)) == _brute_force(fixed)
    assert all(x < y for x, y in zip(keys, keys[1:]))
    assert len(keys) == count


def test_count_matches_enumeration_on_eight_free():
    fixed = {"a11": tk("m2"), "b11": tk("m5"), "b12": tk("m3"), "b13": tk("1")}
    assert count_assignments(fixed) == 7680
    assert len(enumerate_assignments(fixed, allow_large=True)) == 7680


def test_solution_ceiling_refuses_empty_fixing():
    # 43,033,600 solutions: refused even with allow_large, before listing any
    with pytest.raises(CostGuardError, match="8\\^7"):
        enumerate_assignments({}, allow_large=True)


def _span(start: int, vectors) -> set[int]:
    out = {start}
    for v in vectors:
        out |= {x ^ v for x in out}
    return out


@st.composite
def _gf2_systems(draw):
    # unknown columns: up to 3 of the 6 packed coordinates; rows from a
    # small pool holding 0, so that 0 = 1 rows and repeats are common
    slots = draw(st.lists(st.integers(0, 5), max_size=3, unique=True))
    unknown = sum(7 << 3 * j for j in slots)
    rows = st.integers(0, (1 << 18) - 1).map(unknown.__and__)
    pool = [0] + draw(st.lists(rows, min_size=1, max_size=5))
    system = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(0, 1)), max_size=12))
    return system, unknown


@settings(max_examples=300, deadline=None)
@given(_gf2_systems())
def test_solve_gf2_matches_brute_force(args):
    system, unknown = args
    columns = [1 << c for c in range(18) if unknown >> c & 1]
    satisfying = {
        x for x in _span(0, columns)
        if all((row & x).bit_count() % 2 == bit for row, bit in system)
    }
    # inconsistent iff echelon has a pivot at bit 0; else back-substitute
    pivots, _ = echelon([r << 1 | b for r, b in system])
    if not satisfying:
        assert 0 in pivots
        return
    assert 0 not in pivots
    particular, basis = _back_substitute(pivots, unknown)
    span = _span(particular, basis)
    assert span == satisfying
    assert len(span) == 1 << len(basis)  # the basis is independent


# Three a coordinates swept, a12, a13 and a22: 512 sweep points, of which
# 48 are consistent.  Six of the eight values of a12 give an inconsistent
# system before a13 and a22 are set, so the walk drops their subtrees.
PRUNED = {"a11": "m4", "a21": "m", "a23": "m3", "b11": "m", "b12": "m", "b13": "m3"}


def _assert_walk_matches_pointwise(fixed: dict[str, int], limit: int | None = None):
    """The walk and the pointwise oracle list the same consistent sweep
    points in the same order (the first `limit` of them), each with the
    same known | particular and the same span of the basis; with no
    limit, count_assignments agrees too."""
    walk = list(islice(_solved_fixings(fixed), limit))
    pointwise = list(islice(pointwise_systems(fixed), limit))
    assert len(walk) == len(pointwise)
    for (side, digits, known, particular, basis), (o_side, swept, o_known, o_particular, o_basis) in zip(walk, pointwise):
        assert side == o_side
        assert digits == sum(
            gf8.ORDER_KEY[v] << _SHIFT[PARAM_NAMES[2 * j + side]] for j, v in enumerate(swept)
        )
        assert known | particular == o_known | o_particular
        rank = len(echelon(basis)[0])
        assert rank == len(basis) == len(o_basis) == len(echelon(basis + o_basis)[0])
    if limit is None:
        assert count_assignments(fixed) == sum(1 << len(basis) for *_, basis in pointwise)
    return pointwise


@st.composite
def _sweep_fixings(draw):
    """A generic fixing whose sweep runs over k coordinates, k in 0..6:
    k free coordinates on one side and k or more on the other."""
    k = draw(st.integers(0, 6))
    free = (k, draw(st.integers(k, 6)))
    if draw(st.booleans()):
        free = free[::-1]
    fixed = {}
    for side, count in enumerate(free):
        for j in draw(st.permutations(range(6)))[count:]:
            fixed[PARAM_NAMES[2 * j + side]] = draw(st.sampled_from(gf8.ELEMENTS))
    return fixed, k


@settings(max_examples=40, deadline=None)
@given(_sweep_fixings())
def test_walk_matches_pointwise_sweep(args):
    # every sweep point up to 8^4 of them, and the count; beyond that the
    # first 300 consistent points (CI counts the 8^6-point sweep of {})
    fixed, k = args
    _assert_walk_matches_pointwise(fixed, limit=None if k <= 4 else 300)


@pytest.mark.parametrize("kind, fixed", [
    ("three-axes", {"l1": "m2", "l2": "m6"}),
    ("two-axes", TWO_AXES),
    ("one-axis", ONE_AXIS),
    ("no-axis", NO_AXIS),
], ids=["three-axes", "two-axes", "one-axis", "no-axis"])
def test_walk_matches_pointwise_sweep_on_schemes(kind, fixed):
    pinned = Scenario.make(kind, {n: tk(t) for n, t in fixed.items()}).pinned()
    assert _assert_walk_matches_pointwise(pinned)


def test_walk_matches_pointwise_sweep_with_pruned_prefixes():
    fixed = {n: tk(t) for n, t in PRUNED.items()}
    pointwise = _assert_walk_matches_pointwise(fixed)
    assert len(pointwise) == 48
    assert {swept[1] for _, swept, *_ in pointwise} == {tk("m2"), tk("m4")}


def _commute(p: int, q: int) -> bool:
    return gf8.TRACE[gf8.MUL[p >> 3][q & 7]] == gf8.TRACE[gf8.MUL[q >> 3][p & 7]]


@st.composite
def _lagrangian_bases(draw):
    """An ordered basis of a Lagrangian: 3 independent, pairwise-commuting
    packed points, each drawn among the points that commute with those
    before it and lie outside their span."""
    basis = []
    for _ in range(3):
        span = _span(0, basis)
        choices = [x for x in range(64) if x not in span and all(_commute(x, p) for p in basis)]
        basis.append(draw(st.sampled_from(choices)))
    return basis


@settings(max_examples=30, deadline=None)
@given(_lagrangian_bases())
def test_lagrangian_row_one_has_the_closed_form_counts(basis):
    # 448 = 7*|Sp(6,2)| valid seeds / 22,680 ordered Lagrangian bases; the
    # other 512 solutions put row 2 inside row 1's span
    fixed = {}
    for c, x in enumerate(basis, start=1):
        fixed[f"a1{c}"], fixed[f"b1{c}"] = x >> 3, x & 7
    sols = solve_scenario(Scenario.make("generic", fixed))
    ranks = [len(span_greedy_basis([a << 3 | b for a, b in s.seed.points()])) for s in sols]
    assert Counter(ranks) == {3: 512, 6: 448}
    assert [s.valid for s in sols] == [r == 6 for r in ranks]
    assert count_assignments(fixed) == 960


# ---------------------------------------------------------------------------
# exact validity rule vs validate_table
# ---------------------------------------------------------------------------

def _validity_oracle(seed: SeedSet) -> bool:
    return validate_table(recursive_table(seed)).valid


_points = st.tuples(st.sampled_from(gf8.ELEMENTS), st.sampled_from(gf8.ELEMENTS))
_triples = st.tuples(_points, _points, _points)


@settings(max_examples=300, deadline=None)
@given(_triples, _triples)
def test_validity_rule_matches_oracle_on_random_seeds(row1, row2):
    seed = SeedSet(row1=row1, row2=row2)
    assert solution_is_valid(seed) == _validity_oracle(seed)


@st.composite
def _generic_fixings(draw):
    fixed = draw(st.permutations(PARAM_NAMES))[:7]
    return {n: draw(st.sampled_from(gf8.ELEMENTS)) for n in fixed}


@settings(max_examples=30, deadline=None)
@given(_generic_fixings())
def test_validity_rule_matches_oracle_on_solutions(fixed):
    for key in enumerate_assignments(fixed):
        seed = SeedSet.from_params(decode_key(key))
        assert solution_is_valid(seed) == _validity_oracle(seed)


def test_validity_rule_matches_oracle_on_mixed_solution_set():
    fixed = {"a11": tk("m2"), "b11": tk("m5"), "b12": tk("m3"), "b13": tk("1"), "a21": tk("m3")}
    keys = enumerate_assignments(fixed, allow_large=True)
    seeds = [SeedSet.from_params(decode_key(key)) for key in keys]
    verdicts = [(solution_is_valid(seed), _validity_oracle(seed)) for seed in seeds]
    assert all(fast == slow for fast, slow in verdicts)
    assert 0 < sum(fast for fast, _ in verdicts) < len(verdicts) == 848


_M3_ROW1 = ((0, tk("m2")), (0, tk("m6")), (0, tk("m3")))
_M3_ROW2 = ((tk("m2"), 0), (tk("m6"), 0), (tk("m3"), 0))


@pytest.mark.parametrize(
    "row1, row2",
    [
        (_M3_ROW1, ((0, 0),) + _M3_ROW2[1:]),
        (_M3_ROW1[:2] + ((0, tk("m2") ^ tk("m6")),), _M3_ROW2),
    ],
    ids=["origin", "dependent-row1"],
)
def test_validity_rule_rejects_ill_formed_seeds(row1, row2):
    seed = SeedSet(row1=row1, row2=row2)
    assert not validate_table(recursive_table(seed)).rows_are_subgroups
    assert not solution_is_valid(seed)


def test_validity_rule_rejects_point_shared_by_two_rows():
    seed = SeedSet(row1=_M3_ROW1, row2=((0, tk("m2")),) + _M3_ROW2[1:])
    assert not validate_table(recursive_table(seed)).rows_disjoint
    assert not solution_is_valid(seed)
    with pytest.raises(InvalidSeedError):
        build_table(seed)


@pytest.mark.parametrize(
    "row1, row2",
    [
        (((7, 6), (6, 6), (7, 2)), ((5, 1), (0, 2), (7, 3))),
        # of the three pairs of each row's first three points, only the
        # first and second fail to commute, in some row
        (((5, 4), (3, 2), (5, 3)), ((0, 4), (6, 3), (1, 4))),
        # ... only the first and third
        (((2, 7), (6, 3), (3, 3)), ((6, 7), (6, 6), (3, 4))),
        # ... only the second and third
        (((6, 2), (3, 0), (4, 5)), ((7, 7), (3, 6), (0, 3))),
    ],
    ids=["several-pairs", "first-second", "first-third", "second-third"],
)
def test_validity_rule_rejects_non_commuting_partition(row1, row2):
    seed = SeedSet(row1=row1, row2=row2)
    report = validate_table(recursive_table(seed))
    # rows are disjoint subgroups covering the 63 points, but do not commute
    assert report.rows_are_subgroups and report.rows_disjoint and report.covers_all_points
    assert not report.rows_commute
    assert not solution_is_valid(seed)
    with pytest.raises(InvalidSeedError, match="seed fails equation"):
        build_table(seed)


# ---------------------------------------------------------------------------
# the rank rule of solve_scenario and the JSON text of a solution
# ---------------------------------------------------------------------------

def test_table_positions_carry_each_nonzero_vector_once():
    vectors = [v for row in COEFFICIENTS for v in row]
    assert sorted(vectors) == list(range(1, 64))


@settings(max_examples=100, deadline=None)
@given(_triples, _triples)
def test_table_point_is_sum_of_selected_seed_points(row1, row2):
    seed = SeedSet(row1=row1, row2=row2)
    table = recursive_table(seed)
    for row, vectors in zip(table.rows, COEFFICIENTS):
        for point, v in zip(row, vectors):
            a = b = 0
            for i, (sa, sb) in enumerate(seed.points()):
                if v >> i & 1:
                    a, b = a ^ sa, b ^ sb
            assert point == (a, b)


def _check_solutions(sols) -> None:
    for sol in sols:
        assert sol.valid == _validity_oracle(sol.seed)
        assert sol.json_text() == json.dumps(sol.to_json(), separators=(",", ":"))
        # The twelve equations leave the symplectic form, pulled back to the
        # coefficient vectors, zero or nondegenerate: the seed points span
        # at most 3 dimensions, or all 6.
        span = {p for row in recursive_table(sol.seed).rows for p in row}
        assert len(span | {(0, 0)}) in (1, 2, 4, 8, 64)


_elements = st.sampled_from(gf8.ELEMENTS)
_BASIS_TRIPLES = [
    (x, y, z) for x, y, z in product(NONZERO, repeat=3)
    if x != y and z not in (0, x, y, x ^ y)
]


@st.composite
def _scheme_scenarios(draw):
    kind = draw(st.sampled_from([k for k in SCHEMES if k != "generic"]))
    if kind == "three-axes":
        l1, l2 = draw(st.lists(st.sampled_from(NONZERO), min_size=2, max_size=2, unique=True))
        return Scenario.make(kind, {"l1": l1, "l2": l2})
    fixed = {n: draw(_elements) for n in SCHEMES[kind].fixes}
    if kind != "no-axis":  # b11, b12, b13 must be a basis
        fixed.update(zip(("b11", "b12", "b13"), draw(st.sampled_from(_BASIS_TRIPLES))))
    return Scenario.make(kind, fixed)


@settings(max_examples=100, deadline=None)
@given(_scheme_scenarios())
def test_scheme_solutions_valid_and_json_match_oracles(scenario):
    _check_solutions(solve_scenario(scenario))


_solved_scenarios = st.one_of(_scheme_scenarios(), _generic_fixings().map(
    lambda fixed: Scenario.make("generic", fixed)))
# 12 solutions, 6 of them invalid
_MIXED_SCENARIO = Scenario.make("generic", {
    "a11": tk("m2"), "b11": tk("m5"), "b12": tk("m3"), "b13": tk("1"), "a21": tk("m3"),
    "b22": tk("m2"), "b23": tk("m6"),
})


@settings(max_examples=150, deadline=None)
@given(_solved_scenarios)
@example(Scenario.make("three-axes", {"l1": tk("m2"), "l2": tk("m6")}))
@example(_MIXED_SCENARIO)
def test_form_rule_matches_rank_on_solutions(scenario):
    # the key's form test against the elimination and the span oracle
    for sol in solve_scenario(scenario):
        rank = len(span_greedy_basis([a << 3 | b for a, b in sol.seed.points()]))
        assert _form_is_nonzero(sol.key) == (sol.seed.rank() == 6) == (rank == 6)
        assert sol.valid == (rank == 6)


@settings(max_examples=100, deadline=None)
@given(_solved_scenarios)
@example(_MIXED_SCENARIO)
def test_build_table_matches_recursion_on_solutions(scenario):
    # a valid seed's table is the paper's recursion; an invalid solution
    # satisfies the equations, so build_table rejects it by its rank
    for sol in solve_scenario(scenario):
        if sol.valid:
            assert build_table(sol.seed) == recursive_table(sol.seed)
        else:
            rank = len(span_greedy_basis([a << 3 | b for a, b in sol.seed.points()]))
            with pytest.raises(InvalidSeedError) as err:
                build_table(sol.seed)
            assert str(err.value) == f"seed points are GF(2)-dependent: rank {rank} of 6"


@st.composite
def _generic_scenarios(draw):
    names = draw(st.permutations(PARAM_NAMES))[:draw(st.integers(min_value=5, max_value=7))]
    fixed = {n: draw(_elements) for n in names}
    # the oracle rebuilds and validates each table: keep each example small
    assume(count_assignments(fixed) <= 3000)
    return Scenario.make("generic", fixed)


@settings(max_examples=25, deadline=None)
@given(_generic_scenarios())
def test_generic_solutions_valid_and_json_match_oracles(scenario):
    _check_solutions(solve_scenario(scenario, allow_large=True))


def test_mixed_solution_set_valid_and_json_match_oracles():
    fixed = {"a11": tk("m2"), "b11": tk("m5"), "b12": tk("m3"), "b13": tk("1"), "a21": tk("m3")}
    sols = solve_scenario(Scenario.make("generic", fixed), allow_large=True)
    assert 0 < sum(s.valid for s in sols) < len(sols) == 848
    _check_solutions(sols)
