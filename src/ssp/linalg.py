"""Small exact linear algebra over one truncated Witt ring W_n(F_{p^s}).

Matrices are tuples of tuples (rows) of `witt.WittElem`s of one ring;
the field F_{p^s} is W_1(F_{p^s}).  Every sum of products is the ring's
inner-product kernel `WittRing.dot`, and `rref` is the one Gauss
elimination, with unit pivots (val() == 0).  The characteristic
polynomial uses the division-free Berkowitz algorithm, so it is valid
over W_n, where dividing by integers sharing a factor with p is not
allowed.
"""

from __future__ import annotations

from .errors import ValidationError

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


def mat_mul(A, B) -> Matrix:
    cols = tuple(zip(*B))
    return tuple([tuple([dot(row, col) for col in cols]) for row in A])


def mat_vec(A, v) -> tuple:
    return tuple([dot(row, v) for row in A])


def mat_add(A, B) -> Matrix:
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_sub(A, B) -> Matrix:
    return tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_neg(A) -> Matrix:
    return tuple(tuple(-a for a in row) for row in A)


def mat_scale(c, A) -> Matrix:
    return tuple(tuple(c * a for a in row) for row in A)


def transpose(A) -> Matrix:
    return tuple(zip(*A))


def mat_map(f, A) -> Matrix:
    return tuple([tuple([f(a) for a in row]) for row in A])


def identity_matrix(n: int, one, zero) -> Matrix:
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def scalar_matrix(n: int, c, zero) -> Matrix:
    return tuple(tuple(c if i == j else zero for j in range(n)) for i in range(n))


def charpoly(A, one) -> list:
    """Coefficients of det(T*I - A), highest degree first (Berkowitz).

    `one` is the ring's one, needed for the 0 x 0 matrix; every sum of
    products here is a non-empty `dot`."""
    n = len(A)
    coeffs = [one]
    for k in range(1, n + 1):
        a = A[k - 1][k - 1]
        ts = [one, -a]
        if k >= 2:
            R = A[k - 1][: k - 1]
            w = [A[i][k - 1] for i in range(k - 1)]
            M = [row[: k - 1] for row in A[: k - 1]]
            for m in range(2, k + 1):
                if m > 2:
                    w = mat_vec(M, w)
                ts.append(-dot(R, w))
        # coefficient i of the product with the previous polynomial is
        # sum_j ts[i - j] * coeffs[j]
        rts = ts[::-1]
        new = []
        for i in range(k + 1):
            head = coeffs[: i + 1]
            new.append(dot(rts[k - i : k - i + len(head)], head))
        coeffs = new
    return coeffs


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
        inv = rows[r][c].inv()
        rows[r] = [inv * x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(A) -> int:
    return len(rref(list(A))[1])


def nullspace(A, one, zero) -> list[tuple]:
    """Basis of the right kernel, one vector per free column, in column order."""
    if not A:
        return []
    ncols = len(A[0])
    rows, pivots = rref(list(A))
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [zero] * ncols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(tuple(v))
    return basis


def inverse(A, one, zero) -> Matrix:
    """Inverse over W_n; raises ValidationError when singular."""
    n = len(A)
    aug = [list(A[i]) + [one if j == i else zero for j in range(n)] for i in range(n)]
    rows, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValidationError("matrix is singular")
    return tuple(tuple(rows[i][n:]) for i in range(n))


def is_invertible(A) -> bool:
    return rank(A) == len(A)
