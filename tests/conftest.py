import pytest

from mub3q import gf8, phasespace, reference
from mub3q.pauli import PauliOp, commutes_op, pauli_to_point, point_to_pauli


def tk(token: str) -> int:
    return gf8.from_token(token)


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
    vs = [PauliOp(x=((n >> 5) & 1, (n >> 4) & 1, (n >> 3) & 1), z=((n >> 2) & 1, (n >> 1) & 1, n & 1))
          for n in indices]
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
