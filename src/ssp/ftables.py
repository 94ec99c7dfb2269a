"""Table-backed arithmetic for small fields.

Exhaustive matrix-group enumerations spend almost all their time on
ring multiplications, so the oracles run on integer-coded elements
with dense lookup tables.  A field element with coefficients
(c0, .., c_{s-1}) is the code sum(c_i p^i), and its tables are derived
from the element arithmetic of W_1(F_{p^s}) in witt, never written by
hand.  Coded matrices are tuples of tuples of codes, with 0 the zero
and 1 the one.

`similitude_frames` is the one enumerator of {X : X* G X = c G} behind
every unitary-group and automorphism-group oracle, and `packed_fp_rank`
the one rank mod p of F_p matrices packed into ints, behind the fibres
of the level-p lemma.
"""

from __future__ import annotations

import itertools
import math
from functools import cache, lru_cache
from operator import getitem

from .errors import EnumBudget, FormulaInconsistencyError, ValidationError
from .witt import WittElem, WittRing, witt_ring


class FieldTable:
    """Dense op tables for F_{p^s} = W_1(F_{p^s}) (`ctx`); element codes
    are 0 .. q-1."""

    def __init__(self, ctx: WittRing):
        self.ctx = ctx
        p, s, q = ctx.p, ctx.s, ctx.q
        self.p, self.s, self.q = p, s, q
        # code of coefficient tuple (c0, c1, ...) is c0 + c1 p + ...
        self.elements = sorted(ctx.elements(), key=self.encode)
        self.add = [[self.encode(a + b) for b in self.elements] for a in self.elements]
        self.mul = [[self.encode(a * b) for b in self.elements] for a in self.elements]
        self.neg = [self.encode(-a) for a in self.elements]
        self.conj = [self.encode(ctx.sigma(a)) for a in self.elements]
        self.fp_codes = [self.encode(ctx.el(c)) for c in range(p)]
        self.fp_units = self.fp_codes[1:]

    def row_times(self, M):
        """The map r -> r M on coded rows, with the columns of M formed
        once: the one coded row product, behind mat_mul, right_mul and the
        covectors of similitude_frames."""
        mul, add = self.mul, self.add
        cols = tuple(zip(*M))

        def times_m(r):
            out = []
            for col in cols:
                acc = 0
                for a, b in zip(r, col):
                    acc = add[acc][mul[a][b]]
                out.append(acc)
            return tuple(out)

        return times_m

    def mat_mul(self, A, B):
        return tuple(map(self.row_times(B), A))

    def right_mul(self, M):
        """The map X -> mat_mul(X, M).  Each distinct row r of its
        arguments is multiplied by M once; the products r.M are kept only
        as long as the map, so a walk that applies one M to many matrices
        with shared rows pays a cache lookup per row."""
        times_m = cache(self.row_times(M))
        return lambda X: tuple(map(times_m, X))

    def conj_transpose(self, A):
        conj = self.conj
        return tuple(tuple(conj[A[i][j]] for i in range(len(A))) for j in range(len(A[0]) if A else 0))

    def identity(self, n):
        return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))

    def encode(self, x: WittElem) -> int:
        code = 0
        for c in reversed(x.coeffs):
            code = code * self.p + c
        return code

    def mat_encode(self, M):
        return tuple(tuple(self.encode(x) for x in row) for row in M)

    def mat_decode(self, M):
        # elements[code] is the decoded value; sharing these immutable
        # objects keeps large decoded element lists small
        els = self.elements
        return tuple(tuple(els[x] for x in row) for row in M)

    def mats_decode(self, Ms) -> list:
        """[mat_decode(M) for M in Ms], with each distinct row decoded once:
        matrices that share a row share its decoded tuple."""
        els = self.elements
        row = cache(lambda r: tuple(map(els.__getitem__, r)))
        return [tuple(map(row, M)) for M in Ms]

    def scale(self, c, A):
        mul = self.mul
        return tuple(tuple(mul[c][x] for x in row) for row in A)

    def det(self, A):
        n = len(A)
        if n == 0:
            return 1
        mul, add, neg = self.mul, self.add, self.neg
        total = 0
        for perm in itertools.permutations(range(n)):
            prod = 1
            for i in range(n):
                prod = mul[prod][A[i][perm[i]]]
                if prod == 0:
                    break
            # permutation sign by inversion count
            inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
            total = add[total][neg[prod] if inv % 2 else prod]
        return total


def field_table(p: int, s: int = 2) -> FieldTable:
    """The one table of F_{p^s}: field_table(p) is field_table(p, 2)."""
    return _field_table(p, s)


@lru_cache(maxsize=None)
def _field_table(p: int, s: int) -> FieldTable:
    return FieldTable(witt_ring(p, s, 1))


def metered_table(p: int, s: int, meter: EnumBudget) -> FieldTable:
    """field_table(p, s), once the q^2 entries of each of its dense tables
    fit the budget, so an oversized p stops before they are built."""
    meter.ensure(witt_ring(p, s, 1).q ** 2)
    return field_table(p, s)


def _code_sums(add, streams, n: int):
    """The entry-wise sums of equally long streams of n codes, as one
    lazy map pipeline over the add table; no streams sum to n zeros."""
    total = None
    for stream in streams:
        total = stream if total is None else map(getitem, map(add.__getitem__, total), stream)
    return itertools.repeat(0, n) if total is None else total


def _check_similitude(table: FieldTable, gram, c, frames) -> None:
    """Raise FormulaInconsistencyError on the first X of `frames`, in list
    order, with X* G X != c G.  All frames are checked at once, one entry
    (i, j) of the product at a time, each entry a stream over the list.
    The list is never empty: a scalar frame with norm c always exists."""
    t, n = len(gram), len(frames)
    add, mul = table.add, table.mul
    conj_mul = [mul[x] for x in table.conj]  # conj_mul[a][b] = conj(a) b
    # entries[k][j] is the stream of X[k][j] over the frames
    entries = [tuple(zip(*rows)) for rows in zip(*frames)]
    # G X, entry by entry; zero entries of G add nothing
    gx = [
        [
            list(_code_sums(add, (map(mul[g].__getitem__, col[j]) for g, col in zip(row, entries) if g), n))
            for j in range(t)
        ]
        for row in gram
    ]
    first_bad = n
    for i, want_row in enumerate(table.scale(c, gram)):
        for j, w in enumerate(want_row):
            terms = (map(getitem, map(conj_mul.__getitem__, entries[k][i]), gx[k][j]) for k in range(t))
            got = list(_code_sums(add, terms, n))
            if got.count(w) != n:
                first_bad = min(first_bad, next(itertools.compress(itertools.count(), map(w.__ne__, got))))
    if first_bad < n:
        raise FormulaInconsistencyError(f"frame {frames[first_bad]} fails X* G X = c G for c = {c}")


def similitude_frames(table: FieldTable, gram, similitudes, budget: EnumBudget) -> dict:
    """{c: sorted list of the t x t coded X with X* G X = c G} for c in
    `similitudes`, where G = `gram` is a coded Hermitian matrix.

    X is built one column at a time.  With <u, v> = u* G v, column j has
    norm <x_j, x_j> = c G_jj and <x_i, x_j> = c G_ij for every earlier
    column i (the transposed conditions follow, as G is Hermitian and c
    lies in F_p).  The q^t vectors are scanned once and grouped by norm;
    fixing a column filters the candidate lists of the later columns, a
    whole list at a time: <x, v> for every v of a list is one map
    pipeline over the list's coordinate columns.  `budget` is charged one
    candidate per vector scanned or filtered; it stops the enumeration as
    soon as the count is sure to pass the limit.  The finished frames of
    each c are checked again in full, all at once, and sorting puts each
    bucket in row-major enumeration order.
    """
    t = len(gram)
    if table.conj_transpose(gram) != gram:
        raise ValidationError("similitude_frames needs a Hermitian Gram matrix")
    if t == 0:
        return {c: [()] for c in similitudes}
    mul, add, conj = table.mul, table.add, table.conj

    def dot(a, v):
        acc = 0
        for ak, vk in zip(a, v):
            acc = add[acc][mul[ak][vk]]
        return acc

    # charged before anything is stored, so an oversized t or q fails at once
    budget.spend(table.q**t)
    wants = [table.scale(c, gram) for c in similitudes]
    times_gram = table.row_times(gram)
    covector: dict[tuple, tuple] = {}  # u -> u* G, so that <u, v> = dot(u* G, v)
    by_norm: dict[int, list] = {}

    def first_level_cost():
        # what extend() charges at the first column, from the current bucket sizes
        sizes = [[len(by_norm.get(w[k][k], ())) for k in range(t)] for w in wants]
        return sum(n[0] * sum(n[1:]) for n in sizes)

    for i, v in enumerate(itertools.product(range(table.q), repeat=t)):
        a = covector[v] = times_gram([conj[x] for x in v])
        by_norm.setdefault(dot(a, v), []).append(v)
        if i % 1024 == 0:
            # bucket sizes only grow, so a cost that will certainly pass
            # the limit stops the scan before the buckets outgrow memory
            budget.ensure(first_level_cost())
    budget.ensure(first_level_cost())

    def extend(cols, pools, want, found):
        j = len(cols)
        if j == t - 1:
            found.extend(tuple(zip(*cols, x)) for x in pools[0])
            return
        # the coordinate columns of each later list, formed once per node
        later_cols = [tuple(zip(*pool)) for pool in pools[1:]]
        for x in pools[0]:
            a = covector[x]
            later = []
            for k, (pool, pool_cols) in enumerate(zip(pools[1:], later_cols), j + 1):
                budget.spend(len(pool))
                terms = (map(mul[ak].__getitem__, col) for ak, col in zip(a, pool_cols) if ak)
                dots = _code_sums(add, terms, len(pool))
                later.append(list(itertools.compress(pool, map(want[j][k].__eq__, dots))))
            extend(cols + [x], later, want, found)

    frames = {}
    for c, want in zip(similitudes, wants):
        found: list = []
        extend([], [by_norm.get(want[j][j], []) for j in range(t)], want, found)
        _check_similitude(table, gram, c, found)
        frames[c] = sorted(found)
    return frames


def block_similitudes(table: FieldTable, grams, budget: EnumBudget) -> list:
    """All block-diagonal coded diag(X_1, .., X_k) with X_i* G_i X_i = c G_i
    for one c in F_p^x, ordered by c and then block by block.

    Each frame X_i is padded to its full rows once per c, so an element
    is the concatenation of one padded frame per block and shares its
    row tuples with every other element that uses the same frame."""
    sizes = [len(G) for G in grams]
    n = sum(sizes)
    frames = [similitude_frames(table, G, table.fp_units, budget) for G in grams]
    out = []
    for c in table.fp_units:
        elements, offset = [()], 0
        for f, size in zip(frames, sizes):
            left, right = (0,) * offset, (0,) * (n - offset - size)
            padded = [tuple(left + row + right for row in X) for X in f[c]]
            elements = [E + X for E in elements for X in padded]
            offset += size
        out += elements
    return out


def packed_fp_rank(p: int, images: list):
    """(packed, rank) for K = len(images) equally shaped n-row matrices over
    F_p, given as lists of rows of ints 0 .. p-1: packed[k] is images[k]
    as one int, and rank(M) is the rank over F_p of a combination
    M = sum d_k packed[k] with digits d_k in 0 .. p-1, each k used at
    most once.  The caller forms M in plain integer arithmetic, so a
    combination costs K products of ints, or fewer where it reuses
    partial sums.

    An int holds the matrix row after row, with one field of `width`
    bits for each of the m columns that some image uses.  rank reduces
    M mod p, then takes steps: a step takes the first non-zero field a
    as the pivot and drops its row, and the rows before it, which are
    zero.  Every later row, with v in the pivot's column, then gains
    (p - v) a^-1 times the pivot's row, all in one product of the row
    with a packed column, and the matrix is reduced again.  The rank is
    the number of steps.  A field of M sums at most K terms of at most
    (p - 1)^2, and after a step it holds at most p - 1 + p (p - 1)^2,
    so `width` holds max(K, p + 1) (p - 1)^2.  8-bit fields, enough at
    p = 3 for K <= 63, are reduced by one bytes.translate, wider ones
    field by field."""
    n = len(images[0]) if images else 0
    live = [j for j, col in enumerate(zip(*itertools.chain.from_iterable(images))) if any(col)]
    m = len(live)
    width = 8 * -(-(max(len(images), p + 1) * (p - 1) ** 2).bit_length() // 8)
    mask = (1 << width) - 1
    row_bits = m * width
    row_mask = (1 << row_bits) - 1
    fields = n * m
    packed = [
        sum(row[j] << (width * (b * m + f)) for b, row in enumerate(matrix) for f, j in enumerate(live))
        for matrix in images
    ]
    ones = sum(1 << (b * row_bits) for b in range(n))  # a 1 in the first field of each row
    firsts, ps = ones * mask, ones * p
    inverse = [0] + [pow(a, -1, p) for a in range(1, p)]
    if width == 8:
        residues = bytes(v % p for v in range(256))

        def reduced(x) -> int:
            return int.from_bytes(x.to_bytes(fields, "little").translate(residues), "little")

    else:

        def reduced(x) -> int:
            return sum((x >> s & mask) % p << s for s in range(0, fields * width, width))

    def rank(matrix) -> int:
        matrix = reduced(matrix)
        found = 0
        while matrix:
            low = (matrix & -matrix).bit_length() - 1
            start = low - low % row_bits
            shift = low - start
            shift -= shift % width  # the pivot's field, within its row
            row = matrix >> start & row_mask
            matrix >>= start + row_bits
            found += 1
            column = matrix >> shift & firsts
            if column:
                # rows past the end gain p times the row, which reduces to 0
                matrix = reduced(matrix + row * inverse[row >> shift & mask] * (ps - column))
        return found

    return packed, rank


def block_similitude_order(table: FieldTable, grams, budget: EnumBudget) -> int:
    """len(block_similitudes(table, grams, budget)), with the same budget
    charges: the sum over c of the product of the blocks' frame counts,
    with no element listed."""
    frames = [similitude_frames(table, G, table.fp_units, budget) for G in grams]
    return sum(math.prod(len(f[c]) for f in frames) for c in table.fp_units)

