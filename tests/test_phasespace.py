"""Phase-space points, table construction, validation, curve fitting."""

import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mub3q import gf8, phasespace, reference
from mub3q.phasespace import (
    COEFFICIENTS,
    ORIGIN,
    CurveRelation,
    InvalidSeedError,
    InvalidTableError,
    TWELVE_EQUATIONS,
    SeedSet,
    StriationTable,
    build_table,
    check_all_striation_conditions,
    commutes,
    echelon,
    failing_equations,
    fit_curve,
    linearized_eval,
    render_grid,
    row_generators,
    validate_table,
)

from conftest import PRINTED_EQUATIONS, decode_key, seed_from_tokens, symplectic_image, tk
from oracles import add_points, recursive_table, span_greedy_basis

ALL_POINTS = [(a, b) for a in range(8) for b in range(8)]

THREE_AXES_SEED = seed_from_tokens(
    [("0", "m2"), ("0", "m6"), ("0", "m3")],
    [("m2", "0"), ("m6", "0"), ("m3", "0")],
)
TWO_AXES_SEED = seed_from_tokens(
    [("0", "m4"), ("0", "m3"), ("0", "m5")],
    [("1", "0"), ("m2", "0"), ("m3", "0")],
)
ONE_AXIS_SEED = seed_from_tokens(
    [("0", "m4"), ("0", "m3"), ("0", "m")],
    [("1", "m2"), ("m6", "m2"), ("m4", "m6")],
)
NO_AXIS_SEED = seed_from_tokens(
    [("m2", "m5"), ("1", "m3"), ("m3", "1")],
    [("m3", "m2"), ("m", "m2"), ("1", "m")],
)


# ---------------------------------------------------------------------------
# commutes
# ---------------------------------------------------------------------------

def test_commutes_examples():
    assert commutes((tk("m3"), 0), (tk("m5"), 0))
    # X1 vs Z1 anticommute: tr(m3*m3) = tr(m6) = 1 but tr(0) = 0
    assert not commutes((tk("m3"), 0), (0, tk("m3")))
    # tr(m3*m5) = tr(m) = 0
    assert commutes((tk("m3"), 0), (0, tk("m5")))


def test_commutes_symmetric_reflexive_origin():
    for p in ALL_POINTS:
        assert commutes(p, p)
        assert commutes(p, ORIGIN)
    for p, q in product(ALL_POINTS, repeat=2):
        assert commutes(p, q) == commutes(q, p)


# ---------------------------------------------------------------------------
# seed well-formedness
# ---------------------------------------------------------------------------

def test_seed_params_round_trip():
    params = THREE_AXES_SEED.params()
    assert list(params) == list(phasespace.PARAM_NAMES)
    assert SeedSet.from_params(params) == THREE_AXES_SEED


def test_seed_json_round_trip():
    obj = NO_AXIS_SEED.to_json()
    assert SeedSet.from_json(obj) == NO_AXIS_SEED


def test_build_table_rejects_ill_formed_seeds():
    with_origin = seed_from_tokens(
        [("0", "0"), ("0", "m6"), ("0", "m3")],
        [("m2", "0"), ("m6", "0"), ("m3", "0")],
    )
    # m2 + m6 = 1, so the first row is dependent
    dependent = seed_from_tokens(
        [("0", "m2"), ("0", "m6"), ("0", "1")],
        [("m2", "0"), ("m6", "0"), ("m3", "0")],
    )
    for seed in (with_origin, dependent):
        with pytest.raises(InvalidSeedError):
            build_table(seed)


# ---------------------------------------------------------------------------
# build_table
# ---------------------------------------------------------------------------

def test_build_table_seed_round_trip():
    table = build_table(NO_AXIS_SEED)
    assert table.seed() == NO_AXIS_SEED
    assert len(table.rows) == 9
    assert all(len(row) == 7 for row in table.rows)


def test_coefficient_rows_are_the_gf8_lines_through_the_origin():
    # read as the point (v & 7, v >> 3), column c is mu^c times the first
    # entry; the entries are 1..63 once each
    # (test_solver.py::test_table_positions_carry_each_nonzero_vector_once)
    for row in COEFFICIENTS:
        x, y = row[0] & 7, row[0] >> 3
        assert [(v & 7, v >> 3) for v in row] == [(gf8.mul(m, x), gf8.mul(m, y)) for m in gf8.EXP]
    assert [row[0] for row in COEFFICIENTS] == [1, 8] + [8 | m for m in gf8.EXP]


def test_build_table_recursion_on_first_rows():
    table = build_table(THREE_AXES_SEED)
    # column 4 of row 1 is the sum of columns 2 and 1: m6 + m2 = 1
    assert table.rows[0][3] == (0, tk("1"))
    # generic recursion on both stem rows
    for row in table.rows[:2]:
        for c in range(3, 7):
            assert row[c] == add_points(row[c - 2], row[c - 3])


def test_build_table_wraparound():
    table = build_table(NO_AXIS_SEED)
    row1, row2 = table.rows[0], table.rows[1]
    # row 9, column 7 uses row-1 column (7 + 9 - 4) mod 7 + 1 = 6
    assert table.rows[8][6] == add_points(row2[6], row1[5])
    for r in range(3, 10):
        for c in range(1, 8):
            idx = (c + r - 4) % 7  # 0-based row-1 column
            assert table.rows[r - 1][c - 1] == add_points(
                row2[c - 1], row1[idx]
            )


# ---------------------------------------------------------------------------
# the twelve equations
# ---------------------------------------------------------------------------

def test_twelve_equations_on_reference_seeds():
    for seed in (THREE_AXES_SEED, TWO_AXES_SEED, ONE_AXIS_SEED, NO_AXIS_SEED):
        assert failing_equations(seed) == []


def test_twelve_equations_duplicate_rows_pass_but_table_invalid():
    seed = seed_from_tokens(
        [("0", "m3"), ("0", "m5"), ("0", "m6")],
        [("0", "m3"), ("0", "m5"), ("0", "m6")],
    )
    assert failing_equations(seed) == []
    report = validate_table(recursive_table(seed))
    assert not report.rows_disjoint
    assert not report.valid
    # build_table checks the solver's rule: equations, then rank
    with pytest.raises(InvalidSeedError, match="rank 3 of 6"):
        build_table(seed)


def test_twelve_equations_perturbed_seed_fails():
    params = TWO_AXES_SEED.params()
    params["a22"] = tk("m")  # solved value is m2; any other a22 must fail
    bad = SeedSet.from_params(params)
    failing = failing_equations(bad)
    assert failing


def _printed_side(terms, params) -> int:
    acc = 0
    for p, q in terms:
        acc ^= gf8.MUL[params[p]][params[q]]
    return gf8.TRACE[acc]


_ARBITRARY_SEEDS = st.lists(st.integers(0, 7), min_size=12, max_size=12).map(
    lambda v: SeedSet(tuple(zip(v[0:6:2], v[1:6:2])), tuple(zip(v[6::2], v[7::2])))
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_ARBITRARY_SEEDS, st.lists(st.integers(1, 63), max_size=4).map(symplectic_image)))
def test_failing_equations_are_the_printed_equations_that_fail(seed):
    # arbitrary seeds fail some equations; transvected valid seeds fail none
    params = seed.params()
    expected = [
        k for k, (lhs, rhs) in enumerate(PRINTED_EQUATIONS, start=1)
        if _printed_side(lhs, params) != _printed_side(rhs, params)
    ]
    assert failing_equations(seed) == expected


# The fifteen symplectic products omega(p_i, p_j), i < j, of the seed points.
PAIRS = list(combinations(range(1, 7), 2))


def _param(var: str, i: int) -> str:
    """Name of coordinate `var` of seed point p_i: p1-p3 are row 1, p4-p6 row 2."""
    return f"{var}{1 + (i - 1) // 3}{1 + (i - 1) % 3}"


def _pair_mask(u: int, v: int) -> int:
    """omega(u, v) for coefficient vectors u, v in GF(2)^6 (bit i - 1 selects
    p_i), as a mask over PAIRS.  omega is bilinear with omega(p, p) = 0, so
    omega(p_i, p_j) enters with coefficient u_i*v_j + u_j*v_i."""
    mask = 0
    for bit, (i, j) in enumerate(PAIRS):
        if ((u >> (i - 1) & v >> (j - 1)) ^ (u >> (j - 1) & v >> (i - 1))) & 1:
            mask |= 1 << bit
    return mask


def _equation_masks() -> list[int]:
    masks = []
    for pairs in TWELVE_EQUATIONS:
        mask = 0
        for pair in pairs:
            mask ^= 1 << PAIRS.index(pair)
        masks.append(mask)
    return masks


@pytest.mark.parametrize("k", range(1, 13))
def test_pair_encoding_expands_to_the_printed_terms(k):
    # omega(p_i, p_j) = tr(a_i*b_j) + tr(a_j*b_i): two terms per pair
    terms = [
        (_param("a", u), _param("b", v))
        for i, j in TWELVE_EQUATIONS[k - 1] for u, v in ((i, j), (j, i))
    ]
    lhs, rhs = PRINTED_EQUATIONS[k - 1]
    assert sorted(terms) == sorted(lhs + rhs)


def test_equations_span_the_row_commutation_conditions():
    # the coefficient vector of every table position in the six seed points
    rows = COEFFICIENTS
    assert sorted(u for row in rows for u in row) == list(range(1, 64))
    first_three = [_pair_mask(u, v) for row in rows for u, v in combinations(row[:3], 2)]
    in_row = [_pair_mask(u, v) for row in rows for u, v in combinations(row, 2)]
    equations = _equation_masks()
    assert (len(first_three), len(in_row)) == (27, 189)
    # the 12 equations are independent and span every in-row condition
    ranks = [len(echelon(m)[0]) for m in (equations, first_three, in_row, equations + in_row)]
    assert ranks == [12, 12, 12, 12]


def test_forms_satisfying_the_equations_are_nondegenerate():
    # An alternating form on GF(2)^6 is a mask over PAIRS; it satisfies an
    # equation when it is 1 on an even number of the equation's pairs.
    # The 2^(15-12) solutions are 0 and 7 nondegenerate forms.  A seed's
    # form omega(p_i, p_j) has the kernel of the seed map in its radical,
    # so a seed satisfying the equations has rank 6 or spans a commuting
    # subspace, of rank at most 3.
    equations = _equation_masks()
    forms = [f for f in range(1 << 15) if not any(bin(f & e).count("1") % 2 for e in equations)]
    assert len(forms) == 8 and forms[0] == 0
    for f in forms[1:]:
        gram = [0] * 6
        for bit, (i, j) in enumerate(PAIRS):
            if f >> bit & 1:
                gram[i - 1] |= 1 << (j - 1)
                gram[j - 1] |= 1 << (i - 1)
        assert len(echelon(gram)[0]) == 6


@st.composite
def _vector_lists(draw):
    # packed points or 18-bit rows, drawn from a small pool with 0 in it so
    # that zeros, repeats and dependent vectors are common
    width = draw(st.sampled_from([6, 18]))
    pool = [0] + draw(st.lists(st.integers(1, (1 << width) - 1), min_size=1, max_size=6))
    return draw(st.lists(st.sampled_from(pool), max_size=12))


@settings(max_examples=300, deadline=None)
@given(_vector_lists())
def test_greedy_basis_matches_span_oracle(vectors):
    pivots, kept = echelon(vectors)
    assert [vectors[i] for i in kept] == span_greedy_basis(vectors)
    assert len(pivots) == len(kept) and all(v.bit_length() == top + 1 for top, v in pivots.items())


# ---------------------------------------------------------------------------
# striation conditions and validation
# ---------------------------------------------------------------------------

def test_striation_conditions_on_reference_tables(example_tables):
    for table in example_tables.values():
        assert check_all_striation_conditions(table)


def test_striation_conditions_fail_on_perturbed_table():
    params = TWO_AXES_SEED.params()
    params["a22"] = tk("m")
    bad = SeedSet.from_params(params)
    assert not check_all_striation_conditions(recursive_table(bad))


def test_validate_reference_tables(example_tables):
    for table in example_tables.values():
        report = validate_table(table)
        assert report.valid
        assert report.rows_are_subgroups and report.rows_disjoint
        assert report.covers_all_points and report.rows_commute


def test_validate_degenerate_seed_table():
    dependent = seed_from_tokens(
        [("0", "m2"), ("0", "m6"), ("0", "1")],
        [("m2", "0"), ("m6", "0"), ("m3", "0")],
    )
    table = recursive_table(dependent)
    report = validate_table(table)
    assert not report.rows_are_subgroups
    assert not report.valid


def test_partition_of_phase_space(example_tables):
    nonzero = {p for p in ALL_POINTS if p != ORIGIN}
    for table in example_tables.values():
        seen = [p for row in table.rows for p in row]
        assert len(seen) == 63
        assert set(seen) == nonzero
        for row in table.rows:
            members = set(row) | {ORIGIN}
            assert len(members) == 8
            for p, q in combinations(row, 2):
                assert add_points(p, q) in members


# ---------------------------------------------------------------------------
# curve fitting
# ---------------------------------------------------------------------------

def test_fit_axes_rows(three_axes_m3_table):
    vertical = fit_curve(three_axes_m3_table.rows[0])
    assert (vertical.lcoef, vertical.mcoef) == ((0, 0, 0), (1, 0, 0))  # 0 = a
    horizontal = fit_curve(three_axes_m3_table.rows[1])
    assert (horizontal.lcoef, horizontal.mcoef) == ((1, 0, 0), (0, 0, 0))  # b = 0


def test_fit_three_axes_lines(three_axes_m3_table):
    # construction rows 3..9 are the lines b = m^(4(r-3)) a; in particular
    # the published grid puts the line b = m*a in row 5, not row 4
    diagonal = fit_curve(three_axes_m3_table.rows[2])
    assert (diagonal.lcoef, diagonal.mcoef) == ((1, 0, 0), (1, 0, 0))
    row4 = fit_curve(three_axes_m3_table.rows[3])
    assert (row4.lcoef, row4.mcoef) == ((1, 0, 0), (tk("m4"), 0, 0))
    row5 = fit_curve(three_axes_m3_table.rows[4])
    assert (row5.lcoef, row5.mcoef) == ((1, 0, 0), (tk("m"), 0, 0))


def test_fit_two_axes_row3():
    table = build_table(TWO_AXES_SEED)
    rel = fit_curve(table.rows[2])
    assert rel.lcoef == (1, 0, 0)
    assert rel.mcoef == (tk("m2"), tk("m5"), tk("m6"))


def test_fit_no_axis_row8_is_beta_explicit():
    table = build_table(NO_AXIS_SEED)
    rel = fit_curve(table.rows[7])
    # a = m5*b + m4*b^2 + m2*b^4 (the a-projection of this row repeats values)
    assert rel.mcoef == (1, 0, 0)
    assert rel.lcoef == (tk("m5"), tk("m4"), tk("m2"))


def test_fitted_relations_hold_everywhere(example_tables):
    for table in example_tables.values():
        for row in table.rows:
            rel = fit_curve(row)
            assert rel.lcoef != (0, 0, 0) or rel.mcoef != (0, 0, 0)
            for p in row + (ORIGIN,):
                assert rel.holds_at(p)


def test_fitted_relation_characterizes_function_rows(three_axes_m3_table):
    # for an explicit b = M(a) fit, exactly the 8 row points satisfy it
    rel = fit_curve(three_axes_m3_table.rows[4])
    solutions = {p for p in ALL_POINTS if rel.holds_at(p)}
    assert solutions == set(three_axes_m3_table.rows[4]) | {ORIGIN}


def test_fit_handles_rows_with_both_projections_degenerate():
    # subgroup {0,1} x {0,1,m,m3}: neither coordinate is a function of the
    # other, but (1,0) and (0,1) do not commute, so no linearized relation
    # has exactly this zero set
    span = sorted(
        {(a, b) for a in (0, 1) for b in (0, 1, tk("m"), tk("m3"))} - {ORIGIN}
    )
    with pytest.raises(InvalidTableError):
        fit_curve(tuple(span))
    # no-axis row 2 is a commuting subgroup with both projections degenerate
    row = build_table(NO_AXIS_SEED).rows[1]
    assert len({a for a, _ in row}) < 7 and len({b for _, b in row}) < 7
    rel = fit_curve(row)
    assert rel.lcoef == (tk("m3"), tk("m"), tk("m2"))
    assert rel.mcoef == (tk("m2"), tk("m5"), tk("m3"))
    assert {p for p in ALL_POINTS if rel.holds_at(p)} == set(row) | {ORIGIN}


@pytest.fixture(scope="module")
def lagrangian_rows():
    """The 135 maximal commuting subgroups of GF(8)^2, each as the set of
    its 7 nonzero points, from the commuting triples that span 3 dimensions."""
    nonzero = [p for p in ALL_POINTS if p != ORIGIN]
    rows = set()
    for triple in combinations(nonzero, 3):
        if all(commutes(p, q) for p, q in combinations(triple, 2)):
            span = {ORIGIN}
            for v in triple:
                span |= {add_points(v, s) for s in span}
            if len(span) == 8:
                rows.add(frozenset(span - {ORIGIN}))
    assert len(rows) == 135
    return sorted(rows, key=sorted)


@pytest.mark.parametrize("order", range(4))
def test_fit_is_exact_on_every_lagrangian_row(lagrangian_rows, order):
    # each row in a shuffled order: the zero set of the relation is
    # exactly the row plus the origin
    rng = random.Random(order)
    for span in lagrangian_rows:
        row = sorted(span)
        rng.shuffle(row)
        rel = fit_curve(tuple(row))
        assert {p for p in ALL_POINTS if rel.holds_at(p)} == span | {ORIGIN}


def _explicit_fits(row, x: int) -> list[tuple[int, int, int]]:
    """Brute force: every coefficient triple c with p[1 - x] = sum c_k*p[x]^(2^k)
    at every point p of the row."""
    return [
        c for c in product(gf8.ELEMENTS, repeat=3)
        if all(linearized_eval(c, p[x]) == p[1 - x] for p in row)
    ]


def test_fit_equals_the_unique_explicit_relation(lagrangian_rows):
    identity = (1, 0, 0)
    explicit = 0
    for span in lagrangian_rows:
        row = tuple(sorted(span))
        if len({a for a, _ in row}) == 7:
            (m,) = _explicit_fits(row, 0)
            want = (identity, m)
        elif len({b for _, b in row}) == 7:
            (l,) = _explicit_fits(row, 1)
            want = (l, identity)
        else:
            continue
        explicit += 1
        for ordered in (row, row[::-1]):
            rel = fit_curve(ordered)
            assert (rel.lcoef, rel.mcoef) == want
    assert explicit == 100


def test_fit_rejects_non_spanning_row():
    flat = tuple((0, b) for b in range(1, 8))[:7]
    line = tuple((0, b) for b in (1, 2, 3, 1, 2, 3, 1))
    assert len(line) == 7
    with pytest.raises(InvalidTableError):
        fit_curve(line)
    # a legitimate axis row still fits
    rel = fit_curve(flat)
    assert (rel.lcoef, rel.mcoef) == ((0, 0, 0), (1, 0, 0))


def test_fit_rejects_a_repeated_point_and_the_origin():
    # the a = 0 axis row with its last point replaced by its first still
    # commutes and has rank 3, but its span holds a point it lacks
    axis = tuple((0, b) for b in range(1, 8))
    for row in (axis[:6] + axis[:1], axis[:6] + (ORIGIN,)):
        with pytest.raises(InvalidTableError, match="7 distinct nonzero points"):
            row_generators(row)
        with pytest.raises(InvalidTableError, match="7 distinct nonzero points"):
            fit_curve(row)
    assert row_generators(axis) == (0, 1, 3)


def test_curve_relation_json_and_text():
    rel = CurveRelation(lcoef=(tk("m"), 1, 0), mcoef=(tk("m2"), tk("m2"), 0))
    assert rel.to_json() == {"l": ["m", "1", "0"], "m": ["m2", "m2", "0"]}
    assert rel.text() == "m*b + b^2 = m2*a + m2*a^2"


# ---------------------------------------------------------------------------
# grid rendering
# ---------------------------------------------------------------------------

def test_render_grid_matches_published_three_axes(three_axes_m3_table):
    rendered = render_grid(three_axes_m3_table)
    lines = rendered.strip().splitlines()
    assert lines[0] == "b\\a | 0 1 m m2 m3 m4 m5 m6"
    cells = [line.split("| ", 1)[1] for line in lines[1:]]
    assert tuple(cells) == reference.THREE_AXES.grid
    labels = [line.split(" | ")[0].strip() for line in lines[1:]]
    assert labels == ["m6", "m5", "m4", "m3", "m2", "m", "1", "0"]


def test_render_grid_axis_columns(three_axes_m3_table):
    rendered = render_grid(three_axes_m3_table).strip().splitlines()[1:]
    first_column = [line.split("| ", 1)[1].split()[0] for line in rendered]
    assert first_column == ["1"] * 7 + ["o"]  # the a=0 axis is row 1
    bottom = rendered[-1].split("| ", 1)[1].split()
    assert bottom == ["o"] + ["2"] * 7  # the b=0 axis is row 2


def test_render_grid_rejects_broken_table(three_axes_m3_table):
    rows = [list(r) for r in three_axes_m3_table.rows]
    rows[3][0] = rows[4][0]  # duplicate a point across rows
    broken = StriationTable(rows=tuple(tuple(r) for r in rows))
    with pytest.raises(InvalidTableError):
        render_grid(broken)


# ---------------------------------------------------------------------------
# redundancy of the full pairwise conditions (moderate sweep; the large
# sweep lives in the acceptance suite)
# ---------------------------------------------------------------------------

def test_equations_imply_striation_conditions_two_axes_sweep():
    from mub3q.solver import enumerate_assignments

    nonzero = gf8.ELEMENTS[1:]
    triples = [
        (b1, b2, b3)
        for b1 in nonzero for b2 in nonzero for b3 in nonzero
        if len({0, b1, b2, b1 ^ b2, b3, b1 ^ b3, b2 ^ b3, b1 ^ b2 ^ b3}) == 8
    ]
    assert len(triples) == 168
    checked = 0
    for b1, b2, b3 in triples:
        fixed = {
            "a11": 0, "b11": b1, "a12": 0, "b12": b2, "a13": 0, "b13": b3,
            "a21": 1, "b21": 0, "b22": 0, "b23": 0,
        }
        for key in enumerate_assignments(fixed):
            seed = SeedSet.from_params(decode_key(key))
            assert check_all_striation_conditions(recursive_table(seed))
            checked += 1
    assert checked > 100
