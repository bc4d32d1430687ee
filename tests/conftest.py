import pytest

from mub3q import gf8, phasespace, reference, solver
from mub3q.pauli import PauliOp, commutes_op, pauli_to_point, point_to_pauli


# The twelve seed equations as printed in the paper, each
# tr(sum of products) = tr(sum of products); a term (p, q) stands for the
# product of parameters p and q.  This transcription is the tests' oracle
# for the pair encoding in phasespace.TWELVE_EQUATIONS.
PRINTED_EQUATIONS = (
    ((("a11", "b12"),), (("a12", "b11"),)),
    ((("a11", "b13"),), (("a13", "b11"),)),
    ((("a12", "b13"),), (("a13", "b12"),)),
    ((("a21", "b22"),), (("a22", "b21"),)),
    ((("a21", "b23"),), (("a23", "b21"),)),
    ((("a22", "b23"),), (("a23", "b22"),)),
    ((("a21", "b12"), ("a11", "b22")), (("a22", "b11"), ("a12", "b21"))),
    ((("a21", "b13"), ("a11", "b23")), (("a23", "b11"), ("a13", "b21"))),
    ((("a22", "b13"), ("a12", "b23")), (("a23", "b12"), ("a13", "b22"))),
    ((("a21", "b13"), ("a12", "b22")), (("a22", "b12"), ("a13", "b21"))),
    (
        (("a21", "b11"), ("a21", "b12"), ("a12", "b23")),
        (("a23", "b12"), ("a11", "b21"), ("a12", "b21")),
    ),
    (
        (("a22", "b11"), ("a22", "b12"), ("a13", "b23")),
        (("a23", "b13"), ("a11", "b22"), ("a12", "b22")),
    ),
)


def tk(token: str) -> int:
    return gf8.from_token(token)


def solve(kind: str, **fixed: str) -> list[solver.Solution]:
    """solver.solve_scenario on the scheme `kind`, each fixed parameter
    named and given as a token."""
    return solver.solve_scenario(solver.Scenario.make(kind, {n: tk(t) for n, t in fixed.items()}))


def decode_key(key: int) -> dict[str, int]:
    """The assignment a solution key of solver.enumerate_assignments holds:
    the display-order index of each value, 3 bits each, in PARAM_NAMES
    order with a11 most significant."""
    names = phasespace.PARAM_NAMES
    return {n: gf8.ELEMENTS[key >> 3 * (11 - i) & 7] for i, n in enumerate(names)}


def seed_from_tokens(row1, row2) -> phasespace.SeedSet:
    return phasespace.SeedSet(
        row1=tuple((tk(a), tk(b)) for a, b in row1),
        row2=tuple((tk(a), tk(b)) for a, b in row2),
    )


# The three-axes seed of the README (`--l1 m2 --l2 m6`, solution l3 = m3).
THREE_AXES_SEED = seed_from_tokens(
    (("0", "m2"), ("0", "m6"), ("0", "m3")), (("m2", "0"), ("m6", "0"), ("m3", "0"))
)


def _transvect(p, vs):
    """Image of point p under the transvections u -> u + <u, v> v, in order."""
    op = point_to_pauli(p)
    for v in vs:
        if not commutes_op(op, v):
            op = op * v
    return pauli_to_point(op)


def symplectic_image(indices) -> phasespace.SeedSet:
    """The three-axes seed moved by the transvections of the Paulis whose six X and Z
    bits are those of the indices in 1..63.  Transvections generate
    Sp(6, 2): they keep commutation and the partition, so the image is
    again a valid seed, but not the separability structure."""
    vs = [PauliOp(x=n >> 3, z=n & 7) for n in indices]
    return phasespace.SeedSet(*(tuple(_transvect(p, vs) for p in row) for row in (THREE_AXES_SEED.row1, THREE_AXES_SEED.row2)))


@pytest.fixture(scope="session")
def example_tables():
    """The six reference tables keyed by example name and solution tokens."""
    out = {}
    for example in reference.EXAMPLES:
        for tokens, table in zip(example.expected_free, reference.example_tables(example)):
            out[(example.name, tokens)] = table
    return out


@pytest.fixture(scope="session")
def three_axes_m3_table(example_tables):
    return example_tables[("three-axes", ("m3",))]
