"""Polynomials over F_p, the deterministic modulus of F_{p^s}, and
integer primality.

F_{p^s} itself is the Witt ring W_1(F_{p^s}) = witt.witt_ring(p, s, 1),
whose elements are coefficient vectors modulo the polynomial chosen
here.  The modulus for given (p, s) is always the lexicographically
smallest monic irreducible of degree s, comparing coefficient vectors
low-degree first, so fixtures are reproducible.  Neither that search
nor a square root mod p walks or builds anything of size p, so a prime
near 10^8 meets the enumeration budget, not a search.

`power` is the package's one square-and-multiply, for any product: it
raises polynomials mod f here (Ben-Or's test and Cipolla's square
root), Witt elements (WittElem.__pow__) and coded matrices (the
p-regularity test of groups.conjugacy_class_data).
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import Iterator

from .errors import EnumBudget, ValidationError

# ---------------------------------------------------------------------------
# dense polynomial arithmetic over F_p (coefficients low-degree first)


def _trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _pmulmod(a, b, mod, p):
    return _poly_divmod(_pmul(a, b, p), mod, p)[1]


def power(x, m: int, mul, one):
    """x^m by square-and-multiply, for m >= 0: at most 2 m.bit_length()
    products mul(a, b), with no squaring after the last bit."""
    out = one
    while m:
        if m & 1:
            out = mul(out, x)
        m >>= 1
        if m:
            x = mul(x, x)
    return out


def _ppowmod(a, e, mod, p):
    return power(_poly_divmod(a, mod, p)[1], e, lambda x, y: _pmulmod(x, y, mod, p), (1,))


def _psub(a, b, p):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _trim(out)


def _poly_divmod(a, b, p):
    a = list(a)
    inv = pow(b[-1], p - 2, p)
    db = len(b) - 1
    q = [0] * max(1, len(a) - db)
    while a and len(a) - 1 >= db:
        c = (a[-1] * inv) % p
        shift = len(a) - 1 - db
        q[shift] = c
        for j in range(db + 1):
            a[shift + j] = (a[shift + j] - c * b[j]) % p
        a = list(_trim(a))
    return _trim(q), tuple(a)


def _euclid(a, b, p):
    """(g, x) with g a gcd of a and b (not made monic) and x a = g mod b:
    the extended Euclid in F_p[t]."""
    x0, x1 = (1,), ()
    while b:
        q, r = _poly_divmod(a, b, p)
        a, b = b, r
        x0, x1 = x1, _psub(x0, _pmul(q, x1, p), p)
    return a, x0


def poly_inverse(a, mod, p) -> tuple[int, ...]:
    """The inverse of a non-zero a in F_p[t]/(mod), mod irreducible, by
    the extended Euclid in F_p[t]; low-degree-first coefficients."""
    g, x = _euclid(_trim(list(a)), mod, p)
    # g is a non-zero constant, made 1
    inv_lead = pow(g[0], p - 2, p)
    return tuple((c * inv_lead) % p for c in x)


def is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Ben-Or's test (Ben-Or 1981) for a monic polynomial f over F_p:
    f of degree d >= 1 is irreducible iff gcd(x^(p^i) - x, f) = 1 for
    i = 1..floor(d/2), as x^(p^i) - x is the product of the monic
    irreducibles of degree dividing i.  A factor of degree i is found
    at step i, so most candidates are rejected early."""
    d = len(poly) - 1
    if d < 1 or poly[-1] != 1:
        return False
    x = xq = (0, 1)
    for _ in range(d // 2):
        xq = _ppowmod(xq, p, poly, p)
        if len(_euclid(_psub(xq, x, p), poly, p)[0]) != 1:
            return False
    return True


def minimal_irreducible(p: int, s: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree s, low-degree-first lexicographic.

    The constant term varies slowest; for s > 1 every candidate with
    constant term 0 is divisible by t, so the search starts at 1.  The
    other coefficients are the base-p digits of 0, 1, 2, ..., most
    significant first: the order of itertools.product(range(p),
    repeat=s - 1), one candidate at a time, where product would first
    build a pool of all p values.
    """
    for c0 in range(0 if s == 1 else 1, p):
        for n in range(p ** (s - 1)):
            poly = (c0, *(n // p**k % p for k in range(s - 2, -1, -1)), 1)
            if is_irreducible(poly, p):
                return poly
    raise ValidationError(f"no irreducible polynomial of degree {s} over F_{p}")


# ---------------------------------------------------------------------------


# the first 13 primes; strong probable primes to all of them are prime
# below PRIME_CERT_LIMIT (Sorenson and Webster, Math. Comp. 86 (2017)).
# The first 12 are not enough: 318665857834031151167461 < PRIME_CERT_LIMIT
# is composite and a strong probable prime to every base up to 37.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BASES_PRODUCT = math.prod(_MR_BASES)
PRIME_CERT_LIMIT = 3317044064679887385961981

# _PSI[k - 1] is psi_k, the least odd composite that is a strong probable
# prime to each of the first k bases (Jaeschke, Math. Comp. 61 (1993);
# OEIS A014233), so the first k bases prove every n < psi_k.  Equal
# entries are equal psi: psi_7 = psi_8 and psi_9 = psi_10 = psi_11.
_PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    PRIME_CERT_LIMIT,
)


def is_prime(n: int) -> bool:
    """Trial division by the 13 bases 2..41, as one gcd with their
    product, then deterministic Miller-Rabin to the first k of them, k
    the least with n < psi_k.  Raises ValidationError for an
    n >= PRIME_CERT_LIMIT with no factor among the bases."""
    if n < 2:
        return False
    if math.gcd(n, _MR_BASES_PRODUCT) != 1:
        return n in _MR_BASES
    if n < 43 * 43:
        return True
    if n >= PRIME_CERT_LIMIT:
        raise ValidationError(
            f"n = {n} has no prime factor <= 41 and primality is certified only below {PRIME_CERT_LIMIT}"
        )
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for b in _MR_BASES[: bisect.bisect_right(_PSI, n) + 1]:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_SEGMENT = 1 << 15


def primes_between(lo: int, hi: int, budget: EnumBudget) -> Iterator[int]:
    """The primes p with lo <= p <= hi, in increasing order, by a segmented
    sieve: base primes up to isqrt(hi), then the range in segments of
    _SEGMENT integers, so memory is O(sqrt(hi) + _SEGMENT).

    `budget` is charged isqrt(hi) before the base sieve is allocated;
    the charge is made here, not when the iterator is first advanced."""
    root = math.isqrt(max(hi, 0))
    budget.ensure(root)
    return _sieve_segments(max(lo, 2), hi, root)


def _sieve_segments(lo: int, hi: int, root: int) -> Iterator[int]:
    base = bytearray([0, 0]) + bytearray([1]) * (root - 1)
    for d in range(2, math.isqrt(root) + 1):
        if base[d]:
            base[d * d :: d] = bytes(len(range(d * d, root + 1, d)))
    small = list(itertools.compress(range(root + 1), base))
    for start in range(lo, hi + 1, _SEGMENT):
        stop = min(start + _SEGMENT, hi + 1)
        seg = bytearray([1]) * (stop - start)
        for q in small:
            if q * q >= stop:
                break
            first = max(q * q, -(-start // q) * q)
            seg[first - start :: q] = bytes(len(range(first - start, stop - start, q)))
        yield from itertools.compress(range(start, stop), seg)


def is_nonresidue(alpha: int, p: int) -> bool:
    a = alpha % p
    return a != 0 and pow(a, (p - 1) // 2, p) == p - 1


def sqrt_mod_p(v: int, p: int) -> int:
    """The smaller square root of a quadratic residue v mod a prime p, by
    Cipolla's algorithm: with a the least integer for which a^2 - v is a
    non-residue, (a + x)^((p+1)/2) mod x^2 - (a^2 - v) is a constant whose
    square is v.  O(log p) products, where a search would take O(p)."""
    v %= p
    if v < 2:
        return v
    if is_nonresidue(v, p):
        raise ValidationError(f"{v} is not a square mod {p}")
    a = next(a for a in range(p) if is_nonresidue(a * a - v, p))
    (y,) = _ppowmod((a, 1), (p + 1) // 2, ((v - a * a) % p, 0, 1), p)
    return min(y, p - y)
