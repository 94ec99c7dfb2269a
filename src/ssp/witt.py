"""Truncated Witt rings W_n(F_{p^s}) = Z_{p^s} / p^n, and with them the
finite fields: F_{p^s} is W_1(F_{p^s}) = witt_ring(p, s, 1).

Realized as (Z/p^n)[x]/(M) for a lift M of the F_{p^s} modulus, so
arithmetic is polynomial arithmetic rather than Witt-coordinate
polynomials (the rings are identical for unramified extensions).  The
Frobenius lift sigma sends the generator to the Hensel lift of its p-th
power and fixes Z/p^n; at n = 1 it is the Frobenius x -> x^p.

WittElem is the one element type of the package.  Its products and
linalg's sums of products are the ring's inner-product kernel
`WittRing.dot`, which works on the raw coefficient tuples and reduces
once per sum.  Every operand is an element of the ring or of an equal
ring; an int is not one, and `WittRing.el(c)` makes the constant c.

Valuations on a truncated ring are censored: an element that is zero at
level n has valuation >= n, and val() returns math.inf to signal this.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .errors import FormulaInconsistencyError, ValidationError
from .gf import is_nonresidue, is_prime, minimal_irreducible, poly_inverse, power, sqrt_mod_p

INF = math.inf
MAX_TRUNCATION = 64  # the cap on n and on s, which a ring's cost grows with, and on a group's sizes


class WittRing:
    """W_n(F_{p^s}) with Frobenius lift sigma, sigma^s = id; n and s lie
    in 1..MAX_TRUNCATION."""

    def __init__(self, p: int, s: int, n: int):
        if n < 1:
            raise ValidationError("truncation level n must be >= 1")
        if n > MAX_TRUNCATION:
            raise ValidationError(f"truncation level n must be <= {MAX_TRUNCATION}, got {n}")
        if not is_prime(p) or p == 2:
            raise ValidationError(f"p = {p} must be an odd prime")
        if s < 1:
            raise ValidationError("s must be >= 1")
        if s > MAX_TRUNCATION:
            raise ValidationError(f"s must be <= {MAX_TRUNCATION}, got {s}")
        self.p = p
        self.s = s
        self.n = n
        self.q = p**s
        self.pn = p**n
        self.modulus = minimal_irreducible(p, s)
        # the residue field W_1(F_{p^s}), where reduce() lands
        self.residue = self if n == 1 else witt_ring(p, s, 1)
        self._zero_coeffs = (0,) * s
        self._zero = WittElem(self, self._zero_coeffs)
        # column j holds coefficient j of sigma(x)^0, ..., sigma(x)^(s-1)
        self._sigma_cols = tuple(zip(*(w.coeffs for w in self._build_sigma())))
        gen = self.gen()
        x = gen
        for _ in range(s):
            x = self.sigma(x)
        if x != gen:
            raise FormulaInconsistencyError("sigma^s must fix the generator")

    # -- construction helpers ------------------------------------------------

    def _build_sigma(self):
        """Powers of sigma(x), where sigma(x) is the root of the modulus
        congruent to x^p mod p, lifted by `_lift_root`."""
        if self.s == 1:
            return [self.el(1)]
        r = self._lift_root(self.modulus, self.gen() ** self.p)
        pows = [self.one()]
        for _ in range(1, self.s):
            pows.append(pows[-1] * r)
        return pows

    def _horner(self, coeffs, x: "WittElem") -> "WittElem":
        """The polynomial with integer `coeffs`, low degree first, at x."""
        acc = self.zero()
        for c in reversed(coeffs):
            acc = acc * x + self.el(c)
        return acc

    def _lift_root(self, coeffs, x: "WittElem") -> "WittElem":
        """The root of the polynomial with integer `coeffs`, low degree
        first, that is congruent to x mod p, for x a simple root mod p:
        Newton's iteration doubles the precision at each step, so it
        reaches the root within n.bit_length() + 2 evaluations, or raises."""
        derivative = [i * c for i, c in enumerate(coeffs)][1:]
        for _ in range(self.n.bit_length() + 2):
            fx = self._horner(coeffs, x)
            if fx.is_zero():
                return x
            x = x - fx * self._horner(derivative, x).inv()
        raise FormulaInconsistencyError(f"Newton's iteration found no root of {tuple(coeffs)} in {self}")

    # -- identity / comparison ----------------------------------------------

    def __eq__(self, other):
        return isinstance(other, WittRing) and (self.p, self.s, self.n) == (
            other.p,
            other.s,
            other.n,
        )

    def __hash__(self):
        return hash((self.p, self.s, self.n))

    def __repr__(self):
        return f"WittRing(p={self.p}, s={self.s}, n={self.n})"

    # -- element constructors -------------------------------------------------

    def el(self, coeffs) -> "WittElem":
        if isinstance(coeffs, WittElem):
            if coeffs.ring != self:
                raise ValidationError("element from a different ring")
            return coeffs
        if isinstance(coeffs, int):
            coeffs = (coeffs,)
        if len(coeffs) > self.s:
            raise ValidationError(f"an element of {self} has at most {self.s} coefficients, got {len(coeffs)}")
        c = [x % self.pn for x in coeffs]
        c += [0] * (self.s - len(c))
        return WittElem(self, tuple(c))

    def zero(self) -> "WittElem":
        return self._zero

    def one(self) -> "WittElem":
        return self.el(1)

    def gen(self) -> "WittElem":
        return self.el((0, 1)) if self.s > 1 else self.el(1)

    def elements(self):
        """All p^(ns) elements, in lexicographic (low-degree-first) order."""
        for coeffs in itertools.product(range(self.pn), repeat=self.s):
            yield WittElem(self, coeffs)

    # -- structure maps --------------------------------------------------------

    def sigma(self, x: "WittElem") -> "WittElem":
        """sigma(sum c_i x^i) = sum c_i sigma(x)^i for the generator x: one
        integer matrix-vector product over the coefficients of sigma(x)^i."""
        c = x.coeffs if type(x) is WittElem and x.ring is self else self.el(x).coeffs
        pn = self.pn
        return WittElem(
            self, tuple([sum([a * b for a, b in zip(c, col)]) % pn for col in self._sigma_cols])
        )

    def sigma_inv(self, x: "WittElem") -> "WittElem":
        out = self.el(x)
        for _ in range(self.s - 1):
            out = self.sigma(out)
        return out

    # -- the inner-product kernel ---------------------------------------------

    def _raw(self, x) -> tuple[int, ...]:
        """Coefficients of an operand, which must be an element of this
        ring or of an equal one; an int is not an operand, `el` makes the
        constant."""
        if not isinstance(x, WittElem) or x.ring != self:
            raise ValidationError("mixed-ring arithmetic")
        return x.coeffs

    def dot(self, xs, ys) -> "WittElem":
        """sum_t xs[t] * ys[t], computed on the raw coefficient tuples.

        Zero factors are skipped, the 2s - 1 coefficients of the product
        polynomials are summed as plain (unbounded) ints, and the sum is
        reduced by the modulus and mod p^n once, so the residues are those
        of a fold that reduces after every product.
        """
        s, zero = self.s, self._zero_coeffs
        acc = [0] * (2 * s - 1)
        for x, y in zip(xs, ys):
            a = x.coeffs if type(x) is WittElem and x.ring is self else self._raw(x)
            b = y.coeffs if type(y) is WittElem and y.ring is self else self._raw(y)
            if a == zero or b == zero:
                continue
            for i, ai in enumerate(a):
                if ai:
                    for k, bj in enumerate(b, i):
                        acc[k] += ai * bj
        mod = self.modulus
        for i in range(2 * s - 2, s - 1, -1):
            top = acc[i]
            if top:
                for j in range(s):
                    acc[i - s + j] -= top * mod[j]
        pn = self.pn
        return WittElem(self, tuple([c % pn for c in acc[:s]]))

    def support(self, xs) -> list[int]:
        """The positions of the non-zero entries of xs, each entry checked
        as `dot` checks a factor: an element of this ring.  The shared
        zero() is recognised by identity alone."""
        z, zero = self._zero, self._zero_coeffs
        return [
            k
            for k, x in enumerate(xs)
            if x is not z and (x.coeffs if type(x) is WittElem and x.ring is self else self._raw(x)) != zero
        ]

    def reduce(self, x: "WittElem") -> "WittElem":
        """Reduction W_n -> W_1 = F_{p^s}."""
        p = self.p
        return WittElem(self.residue, tuple([c % p for c in x.coeffs]))


@lru_cache(maxsize=None)
def witt_ring(p: int, s: int, n: int) -> WittRing:
    return WittRing(p, s, n)


class WittElem:
    """Element of a truncated Witt ring; immutable coefficient vector."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: WittRing, coeffs: tuple[int, ...]):
        self.ring = ring
        self.coeffs = coeffs

    def __repr__(self):
        return f"W({list(self.coeffs)} mod {self.ring.p}^{self.ring.n})"

    def __eq__(self, other):
        return (
            isinstance(other, WittElem)
            and (other.ring is self.ring or self.ring == other.ring)
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        # equal elements have equal rings, so the coefficients suffice
        return hash(self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _coerce(self, other) -> "WittElem":
        if type(other) is WittElem and other.ring is self.ring:
            return other
        return WittElem(self.ring, self.ring._raw(other))

    def __add__(self, other):
        other = self._coerce(other)
        pn = self.ring.pn
        return WittElem(self.ring, tuple((a + b) % pn for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        pn = self.ring.pn
        return WittElem(self.ring, tuple((-a) % pn for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        return self.ring.dot((self,), (other,))

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        return power(self, e, WittElem.__mul__, self.ring.one())

    def inv(self) -> "WittElem":
        """Inverse of a unit: the extended Euclid on the coefficients mod p,
        which is the inverse at n = 1, then Newton's iteration."""
        if self.val() != 0:
            raise ValidationError("not a unit in the truncated Witt ring")
        ring = self.ring
        p = ring.p
        z = ring.el(poly_inverse([c % p for c in self.coeffs], ring.modulus, p))
        if ring.n == 1:
            return z
        for _ in range(ring.n.bit_length() + 1):
            err = self * z
            if err == ring.one():
                return z
            z = z * (ring.el(2) - err)
        if self * z != ring.one():
            raise FormulaInconsistencyError("Newton inversion did not converge")
        return z

    def val(self):
        """Largest k <= n with x in p^k * ring; math.inf when censored (x = 0)."""
        best = INF
        p, n = self.ring.p, self.ring.n
        for c in self.coeffs:
            if c == 0:
                continue
            k = 0
            while c % p == 0:
                c //= p
                k += 1
            best = min(best, k)
            if best == 0:
                return 0
        return best if best < n else INF


@lru_cache(maxsize=None)
def hensel_sqrt(ring: WittRing, alpha: int) -> WittElem:
    """sqrt(alpha) in W_n(F_{p^2}) for a non-residue alpha mod p, with
    sigma(u) = -u.  Cached per (ring, alpha), as the rings are; an error
    is not cached, so a bad alpha raises on every call.

    Mod p, u = x + y t over F_p[t]/(t^2 + b t + c) solves u^2 = alpha
    when y^2 = 4 alpha / (b^2 - 4c) and x = b y / 2; of the two roots
    u and -u = sigma(u), the one with the lexicographically smaller
    coefficient vector is taken, and `WittRing._lift_root` lifts it, a
    simple root of t^2 - alpha, to W_n.
    """
    if ring.s != 2:
        raise ValidationError("hensel_sqrt requires a W_n(F_{p^2}) ring")
    p = ring.p
    a = alpha % p
    if a == 0:
        raise ValidationError(f"alpha = {alpha} is divisible by p = {p}")
    if not is_nonresidue(alpha, p):
        raise ValidationError(f"alpha = {alpha} is a square mod {p}: p is not inert in Q(sqrt(alpha))")
    c0, b = ring.modulus[0], ring.modulus[1]
    y = sqrt_mod_p(4 * a * pow((b * b - 4 * c0) % p, p - 2, p) % p, p)
    x = b * y * pow(2, p - 2, p) % p
    u0 = min((x, y), ((-x) % p, (-y) % p))
    u = ring._lift_root((-alpha, 0, 1), ring.el(u0))
    if ring.sigma(u) != -u:
        raise FormulaInconsistencyError("Hensel square root is not negated by sigma")
    if ring.reduce(u).coeffs != u0:
        raise FormulaInconsistencyError("Hensel square root does not lift the residue root")
    return u


def canonical_lie_action(ring: WittRing, alpha: int, r: int, s: int) -> tuple:
    """diag(-sqrt(alpha) I_r, sqrt(alpha) I_s) over `ring` = W_1(F_{p^2}),
    as a tuple of rows."""
    u = hensel_sqrt(ring, alpha)
    g = r + s
    return tuple(tuple((-u if i < r else u) if i == j else ring.zero() for j in range(g)) for i in range(g))
