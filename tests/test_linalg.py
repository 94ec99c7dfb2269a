import itertools
import random

import pytest

from ssp import linalg
from ssp.errors import ValidationError
from ssp.ftables import field_table
from ssp.witt import WittElem, WittRing, witt_ring


# a prime larger than twice any coefficient below, so the integer
# references are determined by their residues
BIG = witt_ring(1000003, 1, 1)


def test_charpoly_matches_leibniz_expansion():
    # det(T I - A) for a 3x3 integer matrix, expanded by hand:
    # A = [[1,2,0],[0,1,3],[4,0,1]] -> T^3 - 3T^2 + 3T - 25
    A = linalg.mat_map(BIG.el, [[1, 2, 0], [0, 1, 3], [4, 0, 1]])
    coeffs = linalg.charpoly(A, BIG.one())
    assert coeffs == [BIG.el(c) for c in (1, -3, 3, -25)]


def test_charpoly_randomized_against_permanent_expansion():
    rng = random.Random(3)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            A = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
            coeffs = linalg.charpoly(linalg.mat_map(BIG.el, A), BIG.one())
            # Leibniz det of (T I - A) over the integers at several points
            for t in range(-3, 4):
                M = [[(t if i == j else 0) - A[i][j] for j in range(n)] for i in range(n)]
                det = 0
                for perm in itertools.permutations(range(n)):
                    term = 1
                    for i in range(n):
                        term *= M[i][perm[i]]
                    inv = sum(
                        1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
                    )
                    det += -term if inv % 2 else term
                value = linalg.dot(coeffs, [BIG.el(t) ** (n - k) for k in range(n + 1)])
                assert value == BIG.el(det)


def test_det_and_inverse_over_field():
    ctx = witt_ring(5, 2, 1)
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
    ctx = witt_ring(3, 2, 1)
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
            if linalg.det(A, ring.one()).val() == 0:
                break
        Ainv = linalg.inverse(A, ring.one(), ring.zero())
        assert linalg.mat_mul(A, Ainv) == linalg.identity_matrix(3, ring.one(), ring.zero())
    # det = 3 is non-zero but not a unit: no unit pivot in the first column
    with pytest.raises(ValidationError, match="singular"):
        linalg.inverse(((ring.el(3), ring.el(1)), (ring.zero(), ring.one())), ring.one(), ring.zero())


def test_field_table_consistency():
    table = field_table(3)
    ctx = table.ctx
    for a in ctx.elements():
        for b in ctx.elements():
            ca, cb = table.encode(a), table.encode(b)
            assert table.elements[table.mul[ca][cb]] == a * b
            assert table.elements[table.add[ca][cb]] == a + b
        assert table.elements[table.conj[table.encode(a)]] == a**3


def test_field_table_det_matches_generic():
    table = field_table(3)
    ctx = table.ctx
    rng = random.Random(31)
    for _ in range(20):
        A = linalg.freeze(
            [[ctx.el((rng.randrange(3), rng.randrange(3))) for _ in range(2)] for _ in range(2)]
        )
        assert table.elements[table.det(table.mat_encode(A))] == linalg.det(A, ctx.one())


# ---------------------------------------------------------------------------
# the fused Witt kernel of linalg.dot against an element-by-element fold


def _slow_mul(x, y):
    """The product reduced mod p^n after every coefficient product, then
    by the modulus one degree at a time."""
    ring = x.ring
    s, pn, mod = ring.s, ring.pn, ring.modulus
    out = [0] * (2 * s - 1)
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            out[i + j] = (out[i + j] + a * b) % pn
    for i in range(2 * s - 2, s - 1, -1):
        top = out[i]
        for j in range(s + 1):
            out[i - s + j] = (out[i - s + j] - top * mod[j]) % pn
    return WittElem(ring, tuple(out[:s]))


def _slow_dot(xs, ys):
    acc = _slow_mul(xs[0], ys[0])
    for x, y in zip(xs[1:], ys[1:]):
        acc = acc + _slow_mul(x, y)
    return acc


def _slow_charpoly(A, one, zero):
    """Berkowitz, as linalg.charpoly, with every sum of products folded."""
    n = len(A)
    coeffs = [one]
    for k in range(1, n + 1):
        ts = [one, -A[k - 1][k - 1]]
        if k >= 2:
            R = A[k - 1][: k - 1]
            w = [A[i][k - 1] for i in range(k - 1)]
            M = [row[: k - 1] for row in A[: k - 1]]
            for m in range(2, k + 1):
                if m > 2:
                    w = [_slow_dot(row, w) for row in M]
                ts.append(-_slow_dot(R, w))
        new = []
        for i in range(k + 1):
            acc = zero
            for j in range(max(0, i - k), min(i, k - 1) + 1):
                acc = acc + _slow_mul(ts[i - j], coeffs[j])
            new.append(acc)
        coeffs = new
    return coeffs


def _slow_sigma(ring, x):
    """sum c_i r^i, where r is the root of the modulus congruent to t^p
    mod p; a separable modulus has exactly one such root."""
    if ring.s == 1:
        return x
    r = ring.sigma(ring.gen())
    value = ring.zero()
    for c in reversed(ring.modulus):
        value = _slow_mul(value, r) + ring.el(c)
    assert value.is_zero()
    assert ring.reduce(r) == ring.reduce(ring.gen()) ** ring.p
    acc, power = ring.zero(), ring.one()
    for c in x.coeffs:
        acc = acc + _slow_mul(ring.el(c), power)
        power = _slow_mul(power, r)
    return acc


def _random_witt_matrix(ring, rng, rows, cols):
    def entry():
        if rng.randrange(3) == 0:
            return ring.zero()
        return ring.el(tuple(rng.randrange(ring.pn) for _ in range(ring.s)))

    return linalg.freeze([[entry() for _ in range(cols)] for _ in range(rows)])


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 3, 34])
def test_witt_kernel_matches_elementwise_fold(s, n):
    rng = random.Random(1000 * s + n)
    for p in (3, 5):
        ring = witt_ring(p, s, n)
        one, zero = ring.one(), ring.zero()
        for size in range(1, 7):
            A = _random_witt_matrix(ring, rng, size, size)
            B = _random_witt_matrix(ring, rng, size, rng.randrange(1, 7))
            v = _random_witt_matrix(ring, rng, 1, size)[0]
            cols = list(zip(*B))
            assert linalg.mat_mul(A, B) == tuple(
                tuple(_slow_dot(row, col) for col in cols) for row in A
            )
            assert linalg.mat_vec(A, v) == tuple(_slow_dot(row, v) for row in A)
            assert linalg.charpoly(A, one) == _slow_charpoly(A, one, zero)
            for row in A:
                for x in row:
                    assert ring.sigma(x) == _slow_sigma(ring, x)


def test_witt_dot_over_two_rings_raises():
    a, b = witt_ring(3, 2, 3), witt_ring(5, 2, 3)
    for xs, ys in (
        ([a.one()], [b.one()]),
        ([a.zero()], [b.one()]),  # a zero factor does not skip the check
        ([a.one(), a.one()], [a.one(), b.zero()]),
        ([a.one()], [witt_ring(3, 2, 1).one()]),
    ):
        with pytest.raises(ValidationError):
            linalg.dot(xs, ys)


def test_witt_dot_accepts_ints_and_equal_rings():
    ring = witt_ring(3, 2, 4)
    twin = WittRing(3, 2, 4)  # equal to ring but not the cached object
    x = ring.el((2, 5))
    assert linalg.dot([x, twin.el((1, 1))], [3, twin.one()]) == _slow_mul(x, ring.el(3)) + ring.el((1, 1))
