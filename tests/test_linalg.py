import random
from fractions import Fraction

import pytest

from ssp import linalg
from ssp.errors import ValidationError
from ssp.ftables import field_table
from ssp.gf import field_ctx
from ssp.witt import witt_ring


class FracWrap:
    """Minimal element wrapper so Fractions satisfy the linalg protocol."""

    def __init__(self, v):
        self.v = Fraction(v)

    def __add__(self, o):
        return FracWrap(self.v + o.v)

    def __sub__(self, o):
        return FracWrap(self.v - o.v)

    def __mul__(self, o):
        return FracWrap(self.v * o.v)

    def __neg__(self):
        return FracWrap(-self.v)

    def __eq__(self, o):
        return self.v == o.v

    def __hash__(self):
        return hash(self.v)

    def is_zero(self):
        return self.v == 0

    def inv(self):
        return FracWrap(1 / self.v)

    def __repr__(self):
        return f"FracWrap({self.v})"


def wrap(rows):
    return linalg.freeze([[FracWrap(x) for x in row] for row in rows])


ONE, ZERO = FracWrap(1), FracWrap(0)


def test_charpoly_matches_leibniz_expansion():
    # det(T I - A) for a 3x3 integer matrix, expanded by hand:
    # A = [[1,2,0],[0,1,3],[4,0,1]] -> T^3 - 3T^2 + 3T - 25
    A = wrap([[1, 2, 0], [0, 1, 3], [4, 0, 1]])
    coeffs = linalg.charpoly(A, ONE, ZERO)
    assert [c.v for c in coeffs] == [1, -3, 3, -25]


def test_charpoly_randomized_against_permanent_expansion():
    rng = random.Random(3)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            A = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
            coeffs = linalg.charpoly(wrap(A), ONE, ZERO)
            # Leibniz det of (T I - A) evaluated at several points
            import itertools

            for t in range(-3, 4):
                M = [[Fraction(t if i == j else 0) - A[i][j] for j in range(n)] for i in range(n)]
                det = Fraction(0)
                for perm in itertools.permutations(range(n)):
                    term = Fraction(1)
                    for i in range(n):
                        term *= M[i][perm[i]]
                    inv = sum(
                        1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
                    )
                    det += -term if inv % 2 else term
                value = sum(c.v * Fraction(t) ** (n - k) for k, c in enumerate(coeffs))
                assert value == det


def test_det_and_inverse_over_field():
    ctx = field_ctx(5, 2)
    rng = random.Random(9)
    for _ in range(10):
        A = linalg.freeze(
            [[ctx.el((rng.randrange(5), rng.randrange(5))) for _ in range(3)] for _ in range(3)]
        )
        if not linalg.is_invertible(A):
            with pytest.raises(ValidationError):
                linalg.inverse(A, ctx.one(), ctx.zero())
            continue
        Ainv = linalg.inverse(A, ctx.one(), ctx.zero())
        assert linalg.mat_mul(A, Ainv) == linalg.identity_matrix(3, ctx.one(), ctx.zero())


def test_nullspace_dimension_rank_theorem():
    ctx = field_ctx(3, 2)
    rng = random.Random(17)
    for _ in range(10):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        A = [[ctx.el((rng.randrange(3), rng.randrange(3))) for _ in range(cols)] for _ in range(rows)]
        r = linalg.rank(A)
        basis = linalg.nullspace(A, ctx.one(), ctx.zero())
        assert r + len(basis) == cols
        for v in basis:
            assert all(x.is_zero() for x in linalg.mat_vec(A, v))


def test_inverse_witt():
    ring = witt_ring(3, 2, 5)
    rng = random.Random(23)
    for _ in range(5):
        while True:
            A = linalg.freeze(
                [
                    [ring.el((rng.randrange(ring.pn), rng.randrange(ring.pn))) for _ in range(3)]
                    for _ in range(3)
                ]
            )
            if linalg.det(A, ring.one(), ring.zero()).val() == 0:
                break
        Ainv = linalg.inverse_witt(A, ring)
        assert linalg.mat_mul(A, Ainv) == linalg.identity_matrix(3, ring.one(), ring.zero())


def test_column_echelon_quotient():
    ctx = field_ctx(3, 1)
    cols = [
        (ctx.el(1), ctx.el(0), ctx.el(2)),
        (ctx.el(2), ctx.el(0), ctx.el(1)),  # dependent on the first
    ]
    ech = linalg.column_echelon(cols)
    assert set(ech) == {0}
    reduced = linalg.reduce_mod_columns((ctx.el(1), ctx.el(1), ctx.el(0)), ech)
    assert reduced[0].is_zero()


def test_field_table_consistency():
    table = field_table(3)
    ctx = table.ctx
    for a in ctx.elements():
        for b in ctx.elements():
            ca, cb = table.encode(a), table.encode(b)
            assert table.elements[table.mul[ca][cb]] == a * b
            assert table.elements[table.add[ca][cb]] == a + b
        assert table.elements[table.conj[table.encode(a)]] == a.frobenius()


def test_field_table_det_matches_generic():
    table = field_table(3)
    ctx = table.ctx
    rng = random.Random(31)
    for _ in range(20):
        A = linalg.freeze(
            [[ctx.el((rng.randrange(3), rng.randrange(3))) for _ in range(2)] for _ in range(2)]
        )
        assert table.elements[table.det(table.mat_encode(A))] == linalg.det(
            A, ctx.one(), ctx.zero()
        )
