"""Orders and p-regular class counts of the finite groups in the
counting pipeline, with exhaustive-enumeration oracles.

Formulas (all exact integers):
  #SU_t(F_{p^2})  = p^{t(t-1)/2} prod_{i=2}^{t} (p^i - (-1)^i),  SU_0 = SU_1 = 1
  #U_t(F_{p^2})   = #SU_t (p+1) for t >= 1
  #G(U_r x U_s)   = #U_r #U_s (p-1)
  #GSp_{2g}(F_l)  = l^{g^2} (l-1) prod_{i=1}^{g} (l^{2i} - 1),
                    lifted to l^k by l^{(k-1)(2g^2+g+1)}, multiplicative in N
  k^p(G(U_r x U_s)) = p^{g-2} (p-1)(p+1)^2 if rs != 0, else p^{g-1} (p-1)(p+1)

Enumeration oracles run over table-coded fields (ftables) and are kept
independent of the closed forms so each route checks the other.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from math import gcd
from typing import Callable, NamedTuple

from .errors import EnumBudget, FormulaInconsistencyError, ValidationError
from .ftables import (
    block_similitude_order,
    block_similitudes,
    field_table,
    metered_table,
    packed_fp_rank,
    similitude_frames,
)
from .gf import is_prime
from .witt import MAX_TRUNCATION, canonical_lie_action, hensel_sqrt

# ---------------------------------------------------------------------------
# integer utilities


# trial divisors below _BLOCK go without a meter or a primality test;
# past it they are charged to the budget _BLOCK at a time
_BLOCK = 1 << 12


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division.

    Once the divisors below _BLOCK are spent, trial division goes on
    only while the cofactor is composite (gf.is_prime, which raises past
    its certified range), and those divisors are charged to an
    EnumBudget: a composite with no small factor stops with
    BudgetExceededError instead of running without end."""
    if n < 1:
        raise ValidationError("can only factor positive integers")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n and d < _BLOCK:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if d * d <= n:
        meter = EnumBudget("factorize")
        # a composite cofactor has a prime factor no larger than its square root
        while n > 1 and not is_prime(n):
            meter.spend(_BLOCK)
            for d in range(d, d + 2 * _BLOCK, 2):
                if n % d == 0:
                    break
            while n % d == 0:
                out[d] = out.get(d, 0) + 1
                n //= d
            d += 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def sylow_p_order(order: int, p: int) -> int:
    out = 1
    while order % p == 0:
        order //= p
        out *= p
    return out


# ---------------------------------------------------------------------------
# closed-form orders


def order_su(t: int, p: int) -> int:
    if t < 0:
        raise ValidationError("t must be >= 0")
    if t <= 1:
        return 1
    out = p ** (t * (t - 1) // 2)
    for i in range(2, t + 1):
        out *= p**i - (-1) ** i
    return out


def order_u(t: int, p: int) -> int:
    if t < 0:
        raise ValidationError("t must be >= 0")
    if t == 0:
        return 1
    return order_su(t, p) * (p + 1)


def order_gusplit(r: int, s: int, p: int) -> int:
    if r < 0 or s < 0:
        raise ValidationError("r, s must be >= 0")
    return order_u(r, p) * order_u(s, p) * (p - 1)


def order_gsp_fp(g: int, ell: int) -> int:
    out = ell ** (g * g) * (ell - 1)
    for i in range(1, g + 1):
        out *= ell ** (2 * i) - 1
    return out


def order_gsp_mod(g: int, N: int) -> int:
    """#GSp_{2g}(Z/N): prime-power lifting and CRT multiplicativity."""
    if g < 1 or N < 1:
        raise ValidationError("need g >= 1 and N >= 1")
    out = 1
    dim = 2 * g * g + g + 1  # dim GSp_{2g} as a group scheme
    for ell, k in factorize(N).items() if N > 1 else []:
        out *= order_gsp_fp(g, ell) * ell ** ((k - 1) * dim)
    return out


def p_regular_classes(r: int, s: int, p: int) -> int:
    """Number of p-regular conjugacy classes of G(U_r x U_s)(F_{p^2})."""
    g = r + s
    if g < 2:
        raise ValidationError("r + s must be >= 2")
    if r * s != 0:
        return p ** (g - 2) * (p - 1) * (p + 1) ** 2
    return p ** (g - 1) * (p - 1) * (p + 1)


def irrep_dim_bound(r: int, s: int, p: int) -> int:
    """Every irreducible mod-p representation has dimension at most the
    p-Sylow order p^{(r(r-1)+s(s-1))/2} (split (B,N)-pair bound)."""
    return p ** ((r * (r - 1) + s * (s - 1)) // 2)


def irrep_sum_bound(r: int, s: int, p: int) -> int:
    return p_regular_classes(r, s, p) * irrep_dim_bound(r, s, p)


# ---------------------------------------------------------------------------
# exhaustive enumeration oracles (coded matrices over F_{p^2})


def unitary_group_elements(t: int, p: int) -> list:
    """All X over F_{p^2} with X* X = I (identity Hermitian form), built
    column by column as orthonormal frames (ftables.similitude_frames)."""
    meter = EnumBudget("unitary_group_elements")
    table = metered_table(p, 2, meter)
    return similitude_frames(table, table.identity(t), (1,), meter)[1]


def su_group_elements(t: int, p: int) -> list:
    elements = unitary_group_elements(t, p)
    det = field_table(p).det
    return [X for X in elements if det(X) == 1]


def _gusplit_blocks(r: int, s: int, p: int, meter: EnumBudget):
    """(table, grams) of the two identity blocks of G(U_r x U_s), the
    table's entries charged to the caller's `meter`."""
    table = metered_table(p, 2, meter)
    return table, (table.identity(r), table.identity(s))


def gusplit_group_elements(r: int, s: int, p: int) -> list:
    """All block-diagonal (X, Y) with X*X = cI_r, Y*Y = cI_s, c in F_p^x.

    The frames of each block are enumerated once for every similitude c
    and paired up by c, so the work is that of the two blocks, not of
    their product.
    """
    meter = EnumBudget("gusplit_group_elements")
    return block_similitudes(*_gusplit_blocks(r, s, p, meter), meter)


def gusplit_order_enumerated(r: int, s: int, p: int) -> int:
    """len(gusplit_group_elements(r, s, p)), counted from the frames of
    each block with the same charges, on a meter of its own."""
    meter = EnumBudget("gusplit_order_enumerated")
    return block_similitude_order(*_gusplit_blocks(r, s, p, meter), meter)


def gl2_order_enumerated(N: int) -> int:
    """#GL_2(Z/N) = #GSp_2(Z/N) by direct enumeration; the N^4 quadruples
    are charged to the budget before the first is tried.  No family uses
    it: it stays only for the benchmark's `orders` workload, and the
    tests use it as the quartic cross-check of the g = 1 pair count."""
    EnumBudget("gl2_order_enumerated").spend(N**4)
    count = 0
    for a, b, c, d in itertools.product(range(N), repeat=4):
        if gcd((a * d - b * c) % N, N) == 1:
            count += 1
    return count


def _pair_count_steps(g: int, N: int) -> int:
    """The steps hyperbolic_pair_count(g, N) takes: one for each of the
    N^{2g} pairs of half-vectors and a sum over Z/N."""
    return N ** (2 * g) + N


def hyperbolic_pair_count(g: int, N: int, meter: EnumBudget) -> int:
    """#{(u, v) in ((Z/N)^{2g})^2 : <u, v> = 1} by enumeration of the
    pairs of half-vectors.

    With u = (a, b) and v = (x, y) split into halves, <u, v> = a.y - b.x,
    and (a, y) and (b, x) range independently over the same pairs.  So
    with C[t] = #{(a, y) : a.y = t mod N}, the count is
    sum_t C[t] C[t - 1].  C is filled in one pass that lists a.y for
    every y, one coordinate of y at a time, for each a.  The
    _pair_count_steps(g, N) steps are charged to `meter` before the
    first is taken."""
    meter.spend(_pair_count_steps(g, N))
    one = 1 % N  # 1 = 0 in Z/1
    counts = [0] * N
    for a in itertools.product(range(N), repeat=g):
        dots = [0]  # a.y over the y listed so far, in itertools.product order
        for a_i in a:
            dots = [d + a_i * y_i for d in dots for y_i in range(N)]
        for d in dots:
            counts[d % N] += 1
    return sum(counts[t] * counts[(t - one) % N] for t in range(N))


def gsp_order_enumerated(g: int, N: int) -> int:
    """#GSp_{2g}(Z/N) via enumerated hyperbolic-pair counts:
    #Sp_{2g} = #pairs(g) * #Sp_{2g-2}, and #GSp = #Sp * #(Z/N)^x, with
    the units counted by enumeration too.  The whole count,
    N + sum_k (N^{2k} + N) for k = 1..g, is charged to the budget before
    any enumeration starts."""
    meter = EnumBudget("gsp_order_enumerated")
    meter.ensure(N + sum(_pair_count_steps(k, N) for k in range(1, g + 1)))
    sp = 1
    for k in range(1, g + 1):
        sp *= hyperbolic_pair_count(k, N, meter)
    meter.spend(N)
    return sp * sum(1 for a in range(N) if gcd(a, N) == 1)


# ---------------------------------------------------------------------------
# the group families


class Family(NamedTuple):
    """A group family: its number of parameters, its closed form and its
    oracle.  A unitary family (`prime_p`) takes the prime p last."""

    arity: int
    order: Callable[..., int]
    oracle: Callable[..., int]
    prime_p: bool = True


# each closed form and oracle looks up its module function when it is
# called, so the table follows a function that is patched or replaced
FAMILIES = {
    "su": Family(2, lambda t, p: order_su(t, p), lambda t, p: len(su_group_elements(t, p))),
    "u": Family(2, lambda t, p: order_u(t, p), lambda t, p: len(unitary_group_elements(t, p))),
    # GU_t is G(U_t x U_0); the similitude character is onto F_p^x
    "gu": Family(2, lambda t, p: order_gusplit(t, 0, p), lambda t, p: gusplit_order_enumerated(t, 0, p)),
    "gusplit": Family(3, lambda r, s, p: order_gusplit(r, s, p), lambda r, s, p: gusplit_order_enumerated(r, s, p)),
    "gsp": Family(2, lambda g, N: order_gsp_mod(g, N), lambda g, N: gsp_order_enumerated(g, N), prime_p=False),
}


def group_family(name: str) -> Family:
    if name not in FAMILIES:
        raise ValidationError(f"unknown family {name!r} ({'|'.join(FAMILIES)})")
    return FAMILIES[name]


@dataclass(frozen=True)
class GroupSpec:
    """A group of one of the FAMILIES, checked once when it is made: a
    known family, as many parameters as its arity, every parameter but
    the last (the sizes t, r, s or g) at most MAX_TRUNCATION, as the
    digits of an order grow with their squares, and, in a unitary
    family, an odd prime p.  order() is its closed form and
    enumerated_order() its oracle."""

    family: str
    params: tuple[int, ...]

    def __post_init__(self):
        family, n = group_family(self.family), len(self.params)
        if n != family.arity:
            raise ValidationError(f"family {self.family} takes {family.arity} parameters, got {n}")
        size = max(self.params[:-1])
        if size > MAX_TRUNCATION:
            raise ValidationError(
                f"family {self.family} takes sizes (all but the last parameter) <= {MAX_TRUNCATION}, got {size}"
            )
        if family.prime_p:
            p = self.params[-1]
            if not is_prime(p):
                raise ValidationError(f"p = {p} is not prime")
            if p == 2:
                raise ValidationError(f"p = {p} must be an odd prime")

    def order(self) -> int:
        return FAMILIES[self.family].order(*self.params)

    def enumerated_order(self) -> int:
        return FAMILIES[self.family].oracle(*self.params)


# ---------------------------------------------------------------------------
# conjugacy classes of enumerated groups


def _powers(x, times_x, ident, bound: int) -> list:
    """[x, x^2, ..., x^k = ident], with times_x the map y -> y x; an
    element of a group of order `bound` has order at most `bound`, so a
    longer run is an inconsistency."""
    out = [x]
    while out[-1] != ident:
        if len(out) >= bound:
            raise FormulaInconsistencyError("element order exceeds the group order")
        out.append(times_x(out[-1]))
    return out


def _power(x, m: int, mat_mul, ident):
    """x^m by square-and-multiply: at most 2 m.bit_length() products."""
    out = ident
    while m:
        if m & 1:
            out = mat_mul(out, x)
        m >>= 1
        if m:
            x = mat_mul(x, x)
    return out


def _generating_set(elements: list, elems: set, right_mul, ident) -> list:
    """Greedy generators of `elements`, as (g, right_mul(g)) pairs, with
    the closure grown by right multiplication as a union of right cosets
    (Dimino's algorithm).  `right_mul(M)` is the map X -> X M; every
    product of the closure is a product by a generator through its one
    map, so a product costs a lookup per row once its rows have been
    seen, and the orbit walk reuses the same maps.

    Every product must lie in `elems` and the closure must end up equal
    to it; that proves the generators generate the enumerated set."""
    gens: list = []
    closure = [ident]
    reached = {ident}
    # candidates are taken at a stride near n / golden ratio, coprime to n:
    # consecutive enumerated elements tend to generate small subgroups,
    # spread-out ones reach G(U_r x U_s) with 2-4 generators
    n = len(elements)
    step = n * 618 // 1000 or 1
    while gcd(step, n) != 1:
        step += 1
    for i in range(n):
        if len(reached) == len(elems):
            break
        x = elements[i * step % n]
        if x in reached:
            continue
        gens.append((x, right_mul(x)))
        # H = <previous generators> is listed from the identity, and each
        # block of len(H) is a right coset H y listed as h y for h in H; its
        # image under a generator g is the coset H (y g), listed as h y g.
        # Block 0 is H: the earlier generators map the identity into H, and
        # x adds H x.
        size = len(closure)
        pos = 0
        while pos < len(closure):
            block = closure[pos : pos + size]
            for _, times_g in gens:
                if times_g(block[0]) in reached:
                    continue
                for y in map(times_g, block):
                    if y not in elems:
                        raise FormulaInconsistencyError("a product left the enumerated group")
                    closure.append(y)
                    reached.add(y)
            pos += size
    if reached != elems:
        raise FormulaInconsistencyError(
            f"the generators reach {len(reached)} of {len(elems)} enumerated elements"
        )
    return gens


def conjugacy_class_data(elements: list, p: int):
    """(class representatives, p-regular class count) for a coded group.

    The classes are explored as orbits of x -> g^-1 x g over a small
    generating set, not over the whole group.  The generators are picked
    greedily and their closure is built Dimino-style; it must equal the
    enumerated set, which proves that they generate it, so each orbit is
    a full conjugacy class.  The cost is about |G| * #generators
    conjugations plus |G| products for the closure, and each of these
    products is a lookup per row (FieldTable.right_mul): two maps per
    generator g, X -> X g, which the closure and the orbit walk share,
    and X -> X (g^-1)^T, as a conjugation is ((y g)^T (g^-1)^T)^T.
    Representatives are the first element of each class in the order
    of `elements`, so no element is sorted.

    Once the closure and the generator inverses prove that the list is a
    group, the order of x divides |G|, so x is p-regular iff x^m = I for
    m = |G| with every factor p removed: one power per class, and none
    at all when p does not divide |G|.  The q^2 entries of each dense
    F_{p^2} table are checked against the budget before the table is
    built.
    """
    if not elements:
        raise ValidationError("conjugacy_class_data needs a non-empty element list")
    table = metered_table(p, 2, EnumBudget("conjugacy_class_data"))
    right_mul = table.right_mul
    ident = table.identity(len(elements[0]))
    elems = set(elements)
    # no generator is the identity, so its inverse is the power before it
    conjugations = []
    for g, times_g in _generating_set(elements, elems, right_mul, ident):
        g_inv = _powers(g, times_g, ident, len(elems))[-2]
        conjugations.append((times_g, right_mul(tuple(zip(*g_inv)))))
    # the elements no orbit has reached yet: a conjugate is looked up,
    # dropped from this set and walked on, so the walk holds no copy of
    # the group
    unvisited = set(elems)
    reps = []
    for x in elements:
        if x not in unvisited:
            continue
        unvisited.remove(x)
        todo = [x]
        while todo:
            y = todo.pop()
            for times_g, times_g_inv_t in conjugations:
                z = tuple(zip(*times_g_inv_t(tuple(zip(*times_g(y))))))
                if z in unvisited:
                    unvisited.remove(z)
                    todo.append(z)
                elif z not in elems:
                    raise FormulaInconsistencyError("conjugation left the enumerated group")
        reps.append(x)
    m = len(elems) // sylow_p_order(len(elems), p)
    if m == len(elems):
        return reps, len(reps)
    return reps, sum(1 for x in reps if _power(x, m, table.mat_mul, ident) == ident)


# ---------------------------------------------------------------------------
# the level-p exact sequence


@dataclass(frozen=True)
class LemmaGpReport:
    """Level-p verification of 1 -> U_p -> J(Z_p) -> G(p) -> 1.

    Everything is computed in the finite truncation: the unitary
    similitudes of g x g matrices over the quaternion order mod p that
    commute with Phi = diag(-u I_r, u I_s); the infinite p-adic group is
    out of reach and out of scope."""

    p: int
    alpha: int
    r: int
    s: int
    group_order: int
    gp_order: int
    image_size: int
    surjective: bool
    kernel_size: int
    kernel_is_identity_mod_pi: bool
    offdiag_probes_rejected: int
    offdiag_probes_total: int

    @property
    def ok(self) -> bool:
        return (
            self.surjective
            and self.kernel_is_identity_mod_pi
            and self.group_order == self.kernel_size * self.gp_order
            and self.kernel_size == self.p ** (2 * self.r * self.s)
            and self.offdiag_probes_rejected == self.offdiag_probes_total
        )


def _units(p: int, g: int, r: int, in_blocks: bool) -> list:
    """The F_p-basis of the coded g x g matrices supported on the diagonal
    (r, s)-blocks (`in_blocks`) or off them: w at one such position, in
    row-major order, for w in the F_p-basis 1, t of F_{p^2} (codes 1, p)."""
    return [
        tuple(tuple(w if (i, j) == pos else 0 for j in range(g)) for i in range(g))
        for pos in itertools.product(range(g), repeat=2)
        if ((pos[0] < r) == (pos[1] < r)) == in_blocks
        for w in (1, p)
    ]


def _fibre_sizes(table, gp_elements: list, r: int, basis: list) -> dict:
    """{D: #{N in the F_p-span of `basis` : D*N = N^T sigma(D)}} for the
    block-diagonal D of `gp_elements`, each as p^(dim - rank).

    The image D*N - N^T sigma(D) = D*N - sigma(N* D) is F_p-linear in D,
    so it is computed on the F_{p^2} codes of `table` once per call: for
    each F_p-basis matrix E_k of the diagonal blocks and each N of
    `basis`, written in F_p coordinates (a code x < q is c0 + c1 p over
    its two F_p digits, on which the field's addition acts digit by
    digit).  D = sum d_k E_k over the F_p digits d_k of its block
    entries, read row by row, so its images are sum d_k images_k, and
    ftables.packed_fp_rank takes their rank mod p.  Each row of D adds
    its own terms to that sum, and a row is shared by many D, so the
    packed share of each distinct row is formed once."""
    p, g = table.p, len(gp_elements[0])
    add, neg, conj = table.add, table.neg, table.conj
    mul, conj_transpose = table.mat_mul, table.conj_transpose

    def image(E, N):
        return [
            c
            for left, right in zip(mul(conj_transpose(E), N), mul(conj_transpose(N), E))
            for x, y in zip(left, right)
            for c in divmod(add[x][neg[conj[y]]], p)
        ]

    packed, rank_of = packed_fp_rank(p, [[image(E, N) for N in basis] for E in _units(p, g, r, True)])
    digits = [divmod(x, p)[::-1] for x in range(table.q)]  # (c0, c1) of the code c0 + c1 p
    chain = itertools.chain.from_iterable
    shares, start = [], 0
    for i in range(g):
        block = slice(0, r) if i < r else slice(r, g)  # the block entries of row i
        terms = packed[start : start + 2 * (block.stop - block.start)]
        start += len(terms)
        rows = {D[i] for D in gp_elements}
        shares.append({row: sum(map(operator.mul, chain(map(digits.__getitem__, row[block])), terms)) for row in rows})
    return {D: p ** (len(basis) - rank_of(sum(map(operator.getitem, shares, D)))) for D in gp_elements}


def lemma_gp_check(p: int, alpha: int, r: int, s: int) -> LemmaGpReport:
    """Count the unitary similitudes X (X* X = cI, c in F_p^x) among the
    g x g matrices over the quaternion order mod p that commute with
    Phi = diag(-u I_r, u I_s), fibre by fibre over their reduction mod
    Pi, and verify that the reduction is a surjection onto
    block-diagonal G(p) whose fibres all have the size of its kernel.

    The quaternion order mod p is the reduction mod p of the maximal
    order of the quaternion algebra ramified at p and infinity: the ring
    F_{p^2} + F_{p^2} Pi with Pi^2 = 0 and Pi w = sigma(w) Pi, where
    F_{p^2} = F_p(u), u^2 = alpha.  Its product and main involution are

        (a0 + a1 Pi)(b0 + b1 Pi) = a0 b0 + (a0 b1 + a1 sigma(b0)) Pi,
        conj(a0 + a1 Pi) = sigma(a0) - a1 Pi,

    so everything below runs on the F_{p^2} field table.

    Commutation with Phi forces diagonal (r, s)-blocks into F_{p^2} and
    off-diagonal blocks into F_{p^2} Pi (the probes below check this),
    so a member is X = D + N Pi with D block-diagonal and N off-diagonal
    over F_{p^2}.  By the rule above X* = D* - N^T Pi and
    X* X = D* D + (D* N - N^T sigma(D)) Pi.  So X* X = cI splits into
    D* D = cI, so D lies in G(U_r x U_s)(F_p), and D* N = N^T sigma(D),
    an F_p-linear condition on the 4rs coordinates of N.  So the fibre
    over D has p^(4rs - rank) members, and the group is counted without
    being listed.  The condition is also F_p-linear in D: the images of
    the 4rs basis N under each of the 2(r^2 + s^2) F_p-basis matrices of
    the diagonal blocks are built once, and each D's images are their
    linear combination over D's F_p digits, with one rank mod p per D
    (_fibre_sizes).  One meter counts the q^2 field-table entries before
    the table is built, the frames of G(p) as they are found, and
    |G(p)| x 4rs basis images before the first fibre, as when each D
    built its own images.

    `kernel_is_identity_mod_pi` reports that every fibre of the
    reduction has exactly `kernel_size` members, as the fibres of a
    homomorphism are cosets of its kernel; then
    group_order = kernel_size x |image|.  It needs r, s >= 0 and r + s >= 1.
    """
    if r < 0 or s < 0 or r + s == 0:
        raise ValidationError("r, s must be >= 0 with r + s >= 1")
    g = r + s
    meter = EnumBudget("lemma_gp_check")
    table, grams = _gusplit_blocks(r, s, p, meter)
    phi = table.mat_encode(canonical_lie_action(table.ctx, alpha, r, s))
    u_code = table.encode(hensel_sqrt(table.ctx, alpha))

    gp_elements = block_similitudes(table, grams, meter)
    basis = _units(p, g, r, False)  # N: w at one off-diagonal entry
    meter.spend(len(gp_elements) * len(basis))
    fibres = _fibre_sizes(table, gp_elements, r, basis)
    image_size = sum(1 for size in fibres.values() if size)
    kernel_size = fibres.get(table.identity(g), 0)
    fibres_uniform = all(size == kernel_size for size in fibres.values())

    # probes: a unit (not Pi-divisible) off-diagonal entry must break X Phi = Phi X
    probes = 0
    rejected = 0
    if r > 0 and s > 0:
        for w in (1, u_code):  # 1 and u
            X = [list(row) for row in table.identity(g)]
            X[0][r] = w
            X = tuple(tuple(row) for row in X)
            probes += 1
            if table.mat_mul(X, phi) != table.mat_mul(phi, X):
                rejected += 1

    return LemmaGpReport(
        p=p,
        alpha=alpha,
        r=r,
        s=s,
        group_order=sum(fibres.values()),
        gp_order=len(fibres),
        image_size=image_size,
        surjective=image_size == len(fibres),
        kernel_size=kernel_size,
        kernel_is_identity_mod_pi=fibres_uniform,
        offdiag_probes_rejected=rejected,
        offdiag_probes_total=probes,
    )
