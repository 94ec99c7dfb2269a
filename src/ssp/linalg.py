"""Small exact linear algebra over one truncated Witt ring W_n(F_{p^s}).

Matrices are tuples of tuples (rows) of `witt.WittElem`s of one ring;
the field F_{p^s} is W_1(F_{p^s}).  Every sum of products is the ring's
inner-product kernel `WittRing.dot`, and `rref` is the one Gauss
elimination, with unit pivots (val() == 0), behind `rank` and the
echelon basis of M/VM in `dieudonne`.  The identity is
`scalar_matrix(n, one, zero)`.  The characteristic polynomial uses the
division-free Berkowitz algorithm, so it is valid over W_n, where
dividing by integers sharing a factor with p is not allowed.

The models built in `dieudonne` are block diagonal, so most of their
entries are zero.  The one row product, `row_times`, and the
elimination find each row's non-zero positions (`WittRing.support`,
which checks every entry's ring as `dot` does) and work on those alone;
`mat_mul` maps `row_times` over the rows, and a `right_mul` map caches
it, so it multiplies each distinct row once.  `charpoly` splits the
indices into the components of the support graph and runs plain
Berkowitz inside each, and `mat_map` maps each distinct value once; the
values are those of the dense formulas.  Every entry is an element of
the matrix's ring: an int is not an operand (`WittRing.el` makes
constants).
"""

from __future__ import annotations

import operator
from functools import cache

Matrix = tuple


def freeze(rows) -> Matrix:
    return tuple(tuple(r) for r in rows)


def dot(xs, ys):
    """sum_t xs[t] * ys[t] over equal-length, non-empty sequences: the one
    sum of products in the package, WittRing.dot of xs[0]'s ring, which
    reduces once per sum instead of once per product."""
    return xs[0].ring.dot(xs, ys)


# Hot paths build tuples from list comprehensions: tuple(generator) does
# not know its length, so it allocates a guessed size and resizes, which
# shifts tuples between CPython's per-size free lists and raises the
# peak memory of long runs.


def row_times(M):
    """The map r -> r M, the one row product behind mat_mul and right_mul.
    Entry j of r M is a `dot` over the k with r[k] and M[k][j] both
    non-zero, and the ring's zero when there is no such k: each k in the
    support of r sends its products to the support of M's row k, so only
    those pairs are visited.  The supports of M's rows are found once per
    map."""
    if not M or not M[0]:
        return lambda r: ()
    ring = M[0][0].ring
    zero = ring.zero()
    supports = [ring.support(row) for row in M]
    width = len(M[0])

    def times_m(r):
        terms = [None] * width  # per column j, the factors of its dot
        for k in ring.support(r):
            a, Mk = r[k], M[k]
            for j in supports[k]:
                t = terms[j]
                if t is None:
                    terms[j] = ([a], [Mk[j]])
                else:
                    t[0].append(a)
                    t[1].append(Mk[j])
        return tuple([zero if t is None else dot(*t) for t in terms])

    return times_m


def mat_mul(A, B) -> Matrix:
    """A B, row by row through row_times(B)."""
    return tuple(map(row_times(B), A))


def right_mul(M):
    """The map X -> mat_mul(X, M), with the contract of
    `FieldTable.right_mul`: each distinct row r of its arguments is
    multiplied by M once; the products r M are kept only as long as the
    map, so a walk that applies one M to many matrices with shared rows
    pays a cache lookup per row."""
    times_m = cache(row_times(M))
    return lambda X: tuple(map(times_m, X))


def mat_sub(A, B) -> Matrix:
    return tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_neg(A) -> Matrix:
    """-A, each distinct value negated once, as in mat_map."""
    return mat_map(operator.neg, A)


def transpose(A) -> Matrix:
    return tuple(zip(*A))


def mat_map(f, A) -> Matrix:
    """f applied entrywise, once per distinct entry value."""
    # a plain dict: a functools.cache per call costs more than it saves on small matrices
    memo = {}
    out = []
    for row in A:
        new = []
        for a in row:
            b = memo.get(a, memo)
            if b is memo:
                b = memo[a] = f(a)
            new.append(b)
        out.append(tuple(new))
    return tuple(out)


def scalar_matrix(n: int, c, zero) -> Matrix:
    return tuple(tuple(c if i == j else zero for j in range(n)) for i in range(n))


def charpoly(A, one) -> list:
    """Coefficients of det(T*I - A), highest degree first (Berkowitz).

    `one` is the ring's one, needed for the 0 x 0 matrix; every sum of
    products here is a non-empty `dot`, which skips zero factors.  The
    indices split into the components of the relation i ~ j where
    A[i][j] != 0; a simultaneous permutation of rows and columns makes A
    block diagonal with one block per component, so the characteristic
    polynomial is, exactly, the product of the blocks' polynomials, each
    computed by plain Berkowitz."""
    ring = one.ring
    supports = [ring.support(row) for row in A]
    # union-find on the support graph; each root is its component's least index
    root = list(range(len(A)))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for i, ks in enumerate(supports):
        for j in ks:
            a, b = find(i), find(j)
            if a != b:
                root[max(a, b)] = min(a, b)
    components = {}
    for i in range(len(A)):
        components.setdefault(find(i), []).append(i)

    total = [one]
    for idx in components.values():
        B = [[A[i][j] for j in idx] for i in idx]
        coeffs = [one]
        for k in range(1, len(B) + 1):
            ts = [one, -B[k - 1][k - 1]]
            if k >= 2:
                # R and the column w border the leading block M = B[: k - 1]
                # on the left of and above B[k - 1][k - 1]; w steps to M w
                R = B[k - 1][: k - 1]
                w = [B[i][k - 1] for i in range(k - 1)]
                for m in range(2, k + 1):
                    ts.append(-dot(R, w))
                    if m < k:
                        w = [dot(row[: k - 1], w) for row in B[: k - 1]]
            # the Berkowitz step keeps the first k + 1 coefficients of ts * coeffs
            coeffs = _poly_mul(ts, coeffs, k + 1)
        total = _poly_mul(total, coeffs, len(total) + len(coeffs) - 1)
    return total


def _poly_mul(xs, ys, length) -> list:
    """The first `length` coefficients, highest degree first, of the
    product of the polynomials xs and ys (also highest degree first):
    coefficient i is the `dot` of xs[i - j] and ys[j] over the j where
    both exist."""
    rxs = xs[::-1]
    last = len(xs) - 1
    out = []
    for i in range(length):
        lo, hi = max(0, i - last), min(i, len(ys) - 1) + 1
        out.append(dot(rxs[last - i + lo : last - i + hi], ys[lo:hi]))
    return out


def det(A, one):
    """Determinant via the Berkowitz characteristic polynomial."""
    n = len(A)
    if n == 0:
        return one
    c0 = charpoly(A, one)[-1]
    return c0 if n % 2 == 0 else -c0


# ---------------------------------------------------------------------------
# Gauss elimination


def rref(rows):
    """Reduced row echelon form: returns (rows, pivot_columns), where the
    row i < len(pivot_columns) has a 1 at pivot_columns[i] and 0 at every
    other pivot column, and the rows past them are zero mod p.

    Pivots are units (val() == 0): over W_1 the non-zero entries, over
    W_n the entries that are non-zero mod p."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c].val() == 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        # the row operations leave an entry alone where the pivot row is zero
        ks = top[c].ring.support(top)
        inv = top[c].inv()
        for k in ks:
            top[k] = inv * top[k]
        for i in range(len(rows)):
            row = rows[i]
            if i != r and not row[c].is_zero():
                f = -row[c]
                for k in ks:
                    row[k] = row[k] + f * top[k]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(A) -> int:
    return len(rref(list(A))[1])


def is_invertible(A) -> bool:
    return rank(A) == len(A)
