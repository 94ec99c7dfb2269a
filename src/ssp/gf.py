"""Finite fields F_p and F_{p^s} with a deterministic modulus choice.

Elements are dense coefficient vectors over F_p modulo a fixed monic
irreducible polynomial.  The modulus for given (p, s) is always the
lexicographically smallest monic irreducible of degree s, comparing
coefficient vectors low-degree first, so fixtures are reproducible.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterator

from .errors import EnumBudget, FormulaInconsistencyError, ValidationError

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


def _pmod(a, mod, p):
    # mod is monic
    a = list(a)
    d = len(mod) - 1
    for i in range(len(a) - 1, d - 1, -1):
        c = a[i]
        if c:
            for j in range(d + 1):
                a[i - d + j] = (a[i - d + j] - c * mod[j]) % p
    return _trim(a)


def _pmulmod(a, b, mod, p):
    return _pmod(_pmul(a, b, p), mod, p)


def _ppowmod(a, e, mod, p):
    result = (1,)
    base = _pmod(a, mod, p)
    while e:
        if e & 1:
            result = _pmulmod(result, base, mod, p)
        base = _pmulmod(base, base, mod, p)
        e >>= 1
    return result


def _pgcd(a, b, p):
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    if a:
        # normalize monic
        inv = pow(a[-1], p - 2, p)
        a = _trim([(c * inv) % p for c in a])
    return a


def is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Rabin test for a monic polynomial over F_p (degree >= 1)."""
    d = len(poly) - 1
    if d < 1 or poly[-1] != 1:
        return False
    x = _pmod((0, 1), poly, p)
    # x^{p^d} == x (mod poly)
    xq = x
    for _ in range(d):
        xq = _ppowmod(xq, p, poly, p)
    minus_x = _trim([(c - xc) % p for c, xc in itertools.zip_longest(xq, x, fillvalue=0)])
    if minus_x:
        return False
    # gcd(x^{p^{d/q}} - x, poly) == 1 for every prime q | d
    q = 2
    dd = d
    primes = set()
    while q * q <= dd:
        if dd % q == 0:
            primes.add(q)
            while dd % q == 0:
                dd //= q
        q += 1
    if dd > 1:
        primes.add(dd)
    for q in primes:
        xq = x
        for _ in range(d // q):
            xq = _ppowmod(xq, p, poly, p)
        diff = _trim([(c - xc) % p for c, xc in itertools.zip_longest(xq, x, fillvalue=0)])
        if len(_pgcd(diff, poly, p)) != 1:
            return False
    return True


def minimal_irreducible(p: int, s: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree s, low-degree-first lexicographic.

    The constant term varies slowest; for s > 1 every candidate with
    constant term 0 is divisible by t, so the search starts at 1.
    """
    for c0 in range(0 if s == 1 else 1, p):
        for upper in itertools.product(range(p), repeat=s - 1):
            poly = (c0,) + upper + (1,)
            if is_irreducible(poly, p):
                return poly
    raise ValidationError(f"no irreducible polynomial of degree {s} over F_{p}")


# ---------------------------------------------------------------------------


# the first 13 primes; strong probable primes to all of them are prime
# below PRIME_CERT_LIMIT (Sorenson and Webster, Math. Comp. 86 (2017)).
# The first 12 are not enough: 318665857834031151167461 < PRIME_CERT_LIMIT
# is composite and a strong probable prime to every base up to 37.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_CERT_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Trial division by the 13 bases 2..41, then deterministic
    Miller-Rabin to those bases.  Raises ValidationError for an n
    >= PRIME_CERT_LIMIT with no factor among the bases."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n < 43 * 43:
        return True
    if n >= PRIME_CERT_LIMIT:
        raise ValidationError(
            f"n = {n} has no prime factor <= 41 and primality is certified only below {PRIME_CERT_LIMIT}"
        )
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for b in _MR_BASES:
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


class FieldCtx:
    """The field F_{p^s} = F_p[t]/(modulus), p an odd prime."""

    def __init__(self, p: int, s: int = 1):
        if not is_prime(p) or p == 2:
            raise ValidationError(f"p = {p} must be an odd prime")
        if s < 1:
            raise ValidationError("s must be >= 1")
        self.p = p
        self.s = s
        self.q = p**s
        self.modulus = minimal_irreducible(p, s)
        # powers of t^p, for the Frobenius as an F_p-linear map
        tp = _ppowmod((0, 1), p, self.modulus, p)
        pows = [(1,)]
        for _ in range(1, s):
            pows.append(_pmulmod(pows[-1], tp, self.modulus, p))
        self._frob_pows = pows

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and (self.p, self.s) == (other.p, other.s)

    def __hash__(self):
        return hash((self.p, self.s))

    def __repr__(self):
        return f"FieldCtx(p={self.p}, s={self.s})"

    def el(self, coeffs) -> "FqElem":
        if isinstance(coeffs, FqElem):
            if coeffs.ctx != self:
                raise ValidationError("element from a different field")
            return coeffs
        if isinstance(coeffs, int):
            coeffs = (coeffs,)
        c = [x % self.p for x in coeffs]
        if len(c) > self.s:
            c = list(_pmod(tuple(c), self.modulus, self.p))
        c += [0] * (self.s - len(c))
        return FqElem(self, tuple(c[: self.s]))

    def zero(self) -> "FqElem":
        return self.el(0)

    def one(self) -> "FqElem":
        return self.el(1)

    def gen(self) -> "FqElem":
        return self.el((0, 1)) if self.s > 1 else self.el(1)

    def elements(self):
        """All q elements, in lexicographic (low-degree-first) order."""
        for coeffs in itertools.product(range(self.p), repeat=self.s):
            yield FqElem(self, coeffs)


@lru_cache(maxsize=None)
def field_ctx(p: int, s: int = 1) -> FieldCtx:
    return FieldCtx(p, s)


class FqElem:
    """An element of F_{p^s}; immutable coefficient vector."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs: tuple[int, ...]):
        self.ctx = ctx
        self.coeffs = coeffs

    def __repr__(self):
        return f"Fq({list(self.coeffs)} over p={self.ctx.p},s={self.ctx.s})"

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ctx.el(other)
        return isinstance(other, FqElem) and self.ctx == other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.s, self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _coerce(self, other) -> "FqElem":
        if isinstance(other, int):
            return self.ctx.el(other)
        if not isinstance(other, FqElem) or other.ctx != self.ctx:
            raise ValidationError("mixed-field arithmetic")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        p = self.ctx.p
        return FqElem(self.ctx, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        p = self.ctx.p
        return FqElem(self.ctx, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        other = self._coerce(other)
        prod = _pmulmod(self.coeffs, other.coeffs, self.ctx.modulus, self.ctx.p)
        return self.ctx.el(prod)

    __rmul__ = __mul__

    def inv(self) -> "FqElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        # extended Euclid in F_p[t]
        p, mod = self.ctx.p, self.ctx.modulus
        a, b = _trim(list(self.coeffs)), mod
        x0, x1 = (1,), ()
        while b:
            q, r = _poly_divmod(a, b, p)
            a, b = b, r
            x0, x1 = x1, _psub(x0, _pmul(q, x1, p), p)
        # a is the gcd (a unit); normalize
        inv_lead = pow(a[0], p - 2, p)
        return self.ctx.el(tuple((c * inv_lead) % p for c in x0))

    def __truediv__(self, other):
        return self * self._coerce(other).inv()

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        return self.ctx.el(_ppowmod(self.coeffs, e, self.ctx.modulus, self.ctx.p))

    def frobenius(self) -> "FqElem":
        """x -> x^p, computed as an F_p-linear map on coefficients."""
        ctx = self.ctx
        acc = [0] * ctx.s
        for i, c in enumerate(self.coeffs):
            if c:
                for j, f in enumerate(ctx._frob_pows[i]):
                    acc[j] = (acc[j] + c * f) % ctx.p
        return FqElem(ctx, tuple(acc))

    def norm(self) -> "FqElem":
        """Product of all s Frobenius conjugates; lands in the prime subfield."""
        out = self
        x = self
        for _ in range(self.ctx.s - 1):
            x = x.frobenius()
            out = out * x
        return out

    def in_prime_subfield(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])


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


def frobenius(x: FqElem) -> FqElem:
    return x.frobenius()


def norm(x: FqElem) -> FqElem:
    return x.norm()


def is_nonresidue(alpha: int, p: int) -> bool:
    a = alpha % p
    return a != 0 and pow(a, (p - 1) // 2, p) == p - 1


def sqrt_mod_p(v: int, p: int) -> int:
    """Smallest square root of a quadratic residue mod p (desk-scale search)."""
    v %= p
    for y in range(p):
        if (y * y) % p == v:
            return y
    raise ValidationError(f"{v} is not a square mod {p}")


def sqrt_nonresidue(ctx: FieldCtx, alpha: int) -> FqElem:
    """The square root of a non-residue alpha in F_{p^2}.

    The two roots differ by sign; we return the one with the
    lexicographically smaller coefficient vector.  Its Frobenius image
    is the other root, so frobenius(u) == -u.
    """
    if ctx.s != 2:
        raise ValidationError("sqrt_nonresidue requires an F_{p^2} context")
    p = ctx.p
    a = alpha % p
    if a == 0:
        raise ValidationError(f"alpha = {alpha} is divisible by p = {p}")
    if not is_nonresidue(alpha, p):
        raise ValidationError(
            f"alpha = {alpha} is a square mod {p}: p is not inert in Q(sqrt(alpha))"
        )
    # write u = x + y t over F_p[t]/(t^2 + b t + c); solving u^2 = a gives
    # y^2 = 4a / (b^2 - 4c) and x = b y / 2
    c0, b = ctx.modulus[0], ctx.modulus[1]
    disc = (b * b - 4 * c0) % p
    y = sqrt_mod_p(4 * a * pow(disc, p - 2, p) % p, p)
    x = b * y * pow(2, p - 2, p) % p
    u = ctx.el((x, y))
    cands = sorted([u, -u], key=lambda e: e.coeffs)
    u = cands[0]
    if u * u != ctx.el(a) or u.frobenius() != -u:
        raise FormulaInconsistencyError(f"square root of {alpha} in F_{p}^2 failed its check")
    return u
