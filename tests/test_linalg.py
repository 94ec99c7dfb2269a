import itertools
import random

import pytest

from ssp import linalg
from ssp.errors import ValidationError
from ssp.ftables import field_table
from ssp.witt import WittElem, WittRing, witt_ring

from helpers import inverse


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
                inverse(A, ctx.one(), ctx.zero())
            continue
        Ainv = inverse(A, ctx.one(), ctx.zero())
        assert linalg.mat_mul(A, Ainv) == linalg.scalar_matrix(3, ctx.one(), ctx.zero())


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
        Ainv = inverse(A, ring.one(), ring.zero())
        assert linalg.mat_mul(A, Ainv) == linalg.scalar_matrix(3, ring.one(), ring.zero())
    # det = 3 is non-zero but not a unit: no unit pivot in the first column
    with pytest.raises(ValidationError, match="singular"):
        inverse(((ring.el(3), ring.el(1)), (ring.zero(), ring.one())), ring.one(), ring.zero())


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


def _random_witt_matrix(ring, rng, rows, cols, zeros=1 / 3):
    """Entries zero with probability `zeros`, else random (zero at times)."""

    def entry():
        if rng.random() < zeros:
            # a zero that is not the ring's shared zero() object
            return ring.el(0) if rng.randrange(2) else ring.zero()
        return ring.el(tuple(rng.randrange(ring.pn) for _ in range(ring.s)))

    return linalg.freeze([[entry() for _ in range(cols)] for _ in range(rows)])


def _monomial(ring, rng, size):
    """A random permutation matrix with random non-zero entries."""
    perm = rng.sample(range(size), size)
    unit = _random_witt_matrix(ring, rng, 1, size, zeros=0)[0]
    return linalg.freeze(
        [[(unit[i] if not unit[i].is_zero() else ring.one()) if j == perm[i] else ring.zero() for j in range(size)]
         for i in range(size)]
    )


def _block_diagonal(ring, rng, size):
    """Random dense diagonal blocks of sizes 1 and 2."""
    out = [[ring.zero()] * size for _ in range(size)]
    i = 0
    while i < size:
        k = min(size - i, rng.choice((1, 2)))
        block = _random_witt_matrix(ring, rng, k, k, zeros=0)
        for a in range(k):
            out[i + a][i : i + k] = block[a]
        i += k
    return linalg.freeze(out)


def _with_zero_lines(ring, rng, A):
    """A with one row and one column set to zero."""
    i, j = rng.randrange(len(A)), rng.randrange(len(A[0]))
    return linalg.freeze(
        [[ring.zero() if a == i or b == j else x for b, x in enumerate(row)] for a, row in enumerate(A)]
    )


def _kernel_cases(ring, rng, size):
    """(A, B) pairs with A square of the given size: random, monomial,
    block-diagonal, with zero lines, all-zero, and the 1 x k and k x 1
    shapes of an inner and an outer product."""
    cols = rng.randrange(1, 7)
    zero = ((ring.zero(),) * size,) * size
    yield _random_witt_matrix(ring, rng, size, size), _random_witt_matrix(ring, rng, size, cols)
    yield _monomial(ring, rng, size), _monomial(ring, rng, size)
    yield _monomial(ring, rng, size), _random_witt_matrix(ring, rng, size, cols, zeros=0)
    yield _block_diagonal(ring, rng, size), _block_diagonal(ring, rng, size)
    yield _with_zero_lines(ring, rng, _random_witt_matrix(ring, rng, size, size)), _block_diagonal(ring, rng, size)
    yield zero, _random_witt_matrix(ring, rng, size, cols)
    yield _random_witt_matrix(ring, rng, size, size), zero
    yield _random_witt_matrix(ring, rng, 1, size), _random_witt_matrix(ring, rng, size, 1)
    yield _random_witt_matrix(ring, rng, size, 1), _random_witt_matrix(ring, rng, 1, cols)


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 3, 34])
def test_witt_kernel_matches_elementwise_fold(s, n):
    rng = random.Random(1000 * s + n)
    for p in (3, 5):
        ring = witt_ring(p, s, n)
        one, zero = ring.one(), ring.zero()
        for size in range(1, 7):
            for A, B in _kernel_cases(ring, rng, size):
                cols = list(zip(*B))
                assert linalg.mat_mul(A, B) == tuple(
                    tuple(_slow_dot(row, col) for col in cols) for row in A
                )
                if len(A) == len(A[0]):
                    assert linalg.charpoly(A, one) == _slow_charpoly(A, one, zero)
                for row in A:
                    for x in row:
                        assert ring.sigma(x) == _slow_sigma(ring, x)


def _permuted_blocks(ring, rng, size):
    """A block-diagonal matrix of dense blocks (sizes 1 to 3) conjugated by
    a random permutation, so each block's indices are scattered: its
    support components are not contiguous ranges."""
    B = [[ring.zero()] * size for _ in range(size)]
    i = 0
    while i < size:
        k = min(size - i, rng.choice((1, 2, 3)))
        block = _random_witt_matrix(ring, rng, k, k, zeros=0)
        for a in range(k):
            B[i + a][i : i + k] = block[a]
        i += k
    perm = rng.sample(range(size), size)
    return linalg.freeze([[B[perm[a]][perm[b]] for b in range(size)] for a in range(size)])


def _slow_det(A, one, zero):
    c0 = _slow_charpoly(A, one, zero)[-1]
    return c0 if len(A) % 2 == 0 else -c0


@pytest.mark.parametrize("n", [1, 3, 34])
def test_charpoly_splits_by_support_components(n):
    # charpoly multiplies the Berkowitz polynomials of the support
    # components; on scattered, single, empty and 1 x 1 components it
    # agrees with one Berkowitz run over the whole matrix
    rng = random.Random(7 * n)
    for p, s in ((3, 2), (5, 1), (3, 3)):
        ring = witt_ring(p, s, n)
        one, zero = ring.one(), ring.zero()
        cases = [(), ((ring.el(2),),), ((zero,),)]
        for size in range(2, 9):
            cases.append(_permuted_blocks(ring, rng, size))
            # a dense matrix is one component; a diagonal one has one per index
            cases.append(_random_witt_matrix(ring, rng, size, size, zeros=0))
            diagonal = _random_witt_matrix(ring, rng, 1, size)[0]
            cases.append(tuple(tuple(diagonal[i] if i == j else zero for j in range(size)) for i in range(size)))
            # two scattered blocks joined by one entry off both of them
            A = [list(row) for row in _permuted_blocks(ring, rng, size)]
            A[rng.randrange(size)][rng.randrange(size)] = ring.el(1 + rng.randrange(p - 1))
            cases.append(linalg.freeze(A))
        for A in cases:
            assert linalg.charpoly(A, one) == _slow_charpoly(A, one, zero)
            assert linalg.det(A, one) == (one if not A else _slow_det(A, one, zero))


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


def test_witt_products_over_two_rings_raise_also_on_zeros():
    # the non-zero positions are found with each entry's ring checked, so a
    # zero from another ring raises as it does in dot, even where the
    # other factor is zero too
    a, b = witt_ring(3, 2, 3), witt_ring(5, 2, 3)
    one, zero = a.one(), a.zero()
    for foreign in (b.zero(), witt_ring(3, 2, 1).zero()):
        for A, B in (
            (((one, one),), ((one,), (foreign,))),
            (((one, zero),), ((one,), (foreign,))),
            (((one, foreign),), ((one,), (one,))),
            (((zero, foreign),), ((zero,), (zero,))),
        ):
            with pytest.raises(ValidationError):
                linalg.mat_mul(A, B)
        with pytest.raises(ValidationError):
            linalg.charpoly(((one, foreign), (zero, one)), one)


def test_mat_map_applies_f_once_per_distinct_value():
    calls = []

    def f(x):
        calls.append(x)
        return x + x

    assert linalg.mat_map(f, [[1, 0, 1], [0, 3, 1]]) == ((2, 0, 2), (0, 6, 2))
    assert sorted(calls) == [0, 1, 3]
    ring, twin = witt_ring(3, 2, 2), WittRing(3, 2, 2)
    calls.clear()
    M = ((ring.el((1, 2)), ring.zero()), (ring.el(0), twin.el((1, 2))))
    assert linalg.mat_map(ring.sigma, M) == tuple(tuple(_slow_sigma(ring, x) for x in row) for row in M)
    assert linalg.mat_map(f, M) == tuple(tuple(x + x for x in row) for row in M)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# rref, which leaves an entry alone where the pivot row is zero, against an
# elimination that updates every entry


def _dense_rref(rows):
    """Gauss elimination as linalg.rref, scaling and updating every entry
    of every row, zero or not, with one product and one difference each."""
    rows = [list(r) for r in rows]
    pivots, r = [], 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c].val() == 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inv()
        rows[r] = [_slow_mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r:
                f = rows[i][c]
                rows[i] = [x - _slow_mul(f, y) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _sparse_square(ring, rng, size):
    """Monomial, block-diagonal or random sparse square matrices."""
    return rng.choice((_monomial, _block_diagonal, lambda *a: _random_witt_matrix(*a, size, zeros=0.7)))(
        ring, rng, size
    )


@pytest.mark.parametrize("p, s, n", [(3, 2, 1), (5, 1, 1), (3, 2, 3), (5, 1, 2), (7, 2, 2)])
def test_elimination_matches_dense_fold_on_sparse_matrices(p, s, n):
    ring = witt_ring(p, s, n)
    one, zero = ring.one(), ring.zero()
    rng = random.Random(100 * p + 10 * s + n)
    for _ in range(40):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 8)
        A = _random_witt_matrix(ring, rng, rows, cols, zeros=rng.choice((0.5, 0.7, 0.9)))
        want_rows, want_pivots = _dense_rref(A)
        assert linalg.rref(A) == (want_rows, want_pivots)
        assert linalg.rank(A) == len(want_pivots)
    for size in range(1, 7):
        for _ in range(4):
            A = _sparse_square(ring, rng, size)
            aug = [list(row) + [one if j == i else zero for j in range(size)] for i, row in enumerate(A)]
            want_rows, want_pivots = _dense_rref(aug)
            if want_pivots[:size] != list(range(size)):
                with pytest.raises(ValidationError, match="singular"):
                    inverse(A, one, zero)
                continue
            inv = inverse(A, one, zero)
            assert inv == tuple(tuple(row[size:]) for row in want_rows[:size])
            assert tuple(tuple(_slow_dot(row, col) for col in zip(*inv)) for row in A) == linalg.scalar_matrix(
                size, one, zero
            )


def test_witt_dot_accepts_equal_rings_and_refuses_ints():
    ring = witt_ring(3, 2, 4)
    twin = WittRing(3, 2, 4)  # equal to ring but not the cached object
    x = ring.el((2, 5))
    three = ring.el(3)
    assert linalg.dot([x, twin.el((1, 1))], [three, twin.one()]) == _slow_mul(x, three) + ring.el((1, 1))
    # an int is not an operand: ring.el(3) is the constant 3
    for ys in ([3], [ring.one(), 3]):
        with pytest.raises(ValidationError, match="mixed-ring arithmetic"):
            linalg.dot([x] * len(ys), ys)
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(ValidationError, match="mixed-ring arithmetic"):
            op(x, 3)
        with pytest.raises(TypeError):
            op(3, x)
    assert three != 3


# ---------------------------------------------------------------------------
# right_mul: X -> mat_mul(X, M), each distinct row multiplied once per map


@pytest.mark.parametrize("s, n", [(1, 1), (2, 1), (2, 3)])
def test_right_mul_matches_mat_mul(s, n):
    # right_mul and mat_mul share row_times, so both are checked against
    # the elementwise fold
    ring = witt_ring(3, s, n)
    rng = random.Random(10 * s + n)
    zero_row = (ring.zero(), ring.el(0), ring.zero())
    for inner, cols in ((3, 3), (3, 1), (3, 5)):
        M = _random_witt_matrix(ring, rng, inner, cols)
        times_m = linalg.right_mul(M)
        assert times_m(()) == linalg.mat_mul((), M) == ()
        for X in [
            # rows repeat within and across the arguments of one map
            tuple(rng.choice(rows) for _ in range(rng.randrange(1, 6)))
            for rows in [list(_random_witt_matrix(ring, rng, 2, inner)) + [zero_row] for _ in range(4)]
        ] + [(zero_row, zero_row)]:
            want = tuple(tuple(_slow_dot(row, col) for col in zip(*M)) for row in X)
            assert times_m(X) == linalg.mat_mul(X, M) == want


def test_right_mul_dots_each_distinct_row_once_per_map(monkeypatch):
    ring = witt_ring(5, 2, 2)
    rng = random.Random(4)
    M = _random_witt_matrix(ring, rng, 2, 3, zeros=0)
    r, t = _random_witt_matrix(ring, rng, 2, 2, zeros=0)
    t_copy = tuple(ring.el(x.coeffs) for x in t)  # equal to t, not the same objects
    want = [linalg.mat_mul(X, M) for X in ((r, t, r), (t_copy, t), (r,))]
    calls = []
    real = linalg.dot
    monkeypatch.setattr(linalg, "dot", lambda xs, ys: calls.append(xs) or real(xs, ys))
    times_m = linalg.right_mul(M)
    assert [times_m((r, t, r)), times_m((t_copy, t)), times_m((r,))] == want
    assert len(calls) == 2 * len(M[0])  # two distinct rows, one dot per column of M
    # a second map keeps its own products
    calls.clear()
    assert linalg.right_mul(M)((t,)) == want[1][1:]
    assert len(calls) == len(M[0])


def test_right_mul_refuses_entries_of_another_ring():
    a, b = witt_ring(3, 2, 3), witt_ring(5, 2, 3)
    one, zero = a.one(), a.zero()
    for foreign in (b.zero(), b.one(), witt_ring(3, 2, 1).zero()):
        for X, M in (
            (((one, foreign),), ((one,), (one,))),
            (((zero, foreign),), ((zero,), (zero,))),
            (((one, one),), ((one,), (foreign,))),
        ):
            with pytest.raises(ValidationError):
                linalg.mat_mul(X, M)
            with pytest.raises(ValidationError):
                linalg.right_mul(M)(X)
