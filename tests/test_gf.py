import ast
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssp.errors import BudgetExceededError, EnumBudget, ValidationError
from ssp import groups
from ssp.ftables import field_table
from ssp.gf import (
    _SEGMENT,
    PRIME_CERT_LIMIT,
    _pmulmod,
    _ppowmod,
    is_irreducible,
    is_prime,
    primes_between,
    minimal_irreducible,
    sqrt_mod_p,
)
from ssp import witt
from ssp.witt import hensel_sqrt, witt_ring


def field(p, s=2):
    """F_{p^s} as the Witt ring W_1(F_{p^s})."""
    return witt_ring(p, s, 1)


def _sieve(n):
    """is-prime flags for 0..n, by the plain sieve of Eratosthenes."""
    flags = [False, False] + [True] * (n - 1)
    for d in range(2, math.isqrt(n) + 1):
        if flags[d]:
            flags[d * d :: d] = [False] * len(flags[d * d :: d])
    return flags


def test_is_prime_matches_sieve():
    n = 2 * 10**5
    assert [is_prime(k) for k in range(n + 1)] == _sieve(n)
    assert not is_prime(-7)
    assert groups.is_prime is is_prime


@pytest.mark.parametrize(
    "n",
    [
        3215031751,  # strong pseudoprime to the bases 2, 3, 5, 7
        3825123056546413051,  # ... to every base up to 23
        318665857834031151167461,  # ... to every base up to 37, below PRIME_CERT_LIMIT
        561,  # Carmichael numbers
        41041,
        825265,
        (2**19 - 1) * (2**61 - 1),  # two large prime factors, below the limit
        2**89,  # at or above the limit, a factor up to 41 still decides
        3 * (2**89 - 1),
    ],
)
def test_is_prime_rejects_composites(n):
    assert not is_prime(n)


# psi_k for k = 1..12, each distinct value once, with the largest k it is
# psi_k for: the least odd composite that is a strong probable prime to
# each of the first k primes (Jaeschke 1993; OEIS A014233)
PSI = {
    2047: 1,
    1373653: 2,
    25326001: 3,
    3215031751: 4,
    2152302898747: 5,
    3474749660383: 6,
    341550071728321: 8,  # = psi_7
    3825123056546413051: 11,  # = psi_9 = psi_10
    318665857834031151167461: 12,
}
BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _strong_probable_prime(n, b):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(b, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _full_miller_rabin(n):
    """Trial division by the 13 bases 2..41, then Miller-Rabin to all of them."""
    if n < 2:
        return False
    for b in BASES:
        if n % b == 0:
            return n == b
    return all(_strong_probable_prime(n, b) for b in BASES)


@pytest.mark.parametrize("psi, k", sorted(PSI.items()))
def test_is_prime_rejects_every_psi(psi, k):
    # psi passes the first k bases, so only base k + 1 can reject it
    assert all(_strong_probable_prime(psi, b) for b in BASES[:k])
    assert not _strong_probable_prime(psi, BASES[k])
    assert not is_prime(psi)


_ODD_BELOW_LIMIT = st.integers(1, (PRIME_CERT_LIMIT - 3) // 2).map(lambda k: 2 * k + 1)
_NEAR_PSI = st.builds(lambda psi, d: (psi + d) | 1, st.sampled_from(sorted(PSI)), st.integers(-1000, 1000))


@settings(max_examples=600, derandomize=True, database=None)
@given(_ODD_BELOW_LIMIT | _NEAR_PSI | st.integers(1, 10**7).map(lambda k: 2 * k + 1))
def test_is_prime_matches_full_base_reference(n):
    assert is_prime(n) == _full_miller_rabin(n)


def test_is_prime_certified_range():
    assert is_prime(2**61 - 1)
    # 2^89 - 1 is prime, but above the Sorenson-Webster limit for 13 bases
    assert 2**89 - 1 >= PRIME_CERT_LIMIT
    with pytest.raises(ValidationError, match=str(PRIME_CERT_LIMIT)):
        is_prime(2**89 - 1)


@pytest.mark.parametrize(
    "lo, hi",
    [(-5, 100), (0, 1), (2, 2), (4, 4), (_SEGMENT - 50, _SEGMENT + 50), (1, 3 * _SEGMENT + 7), (0, 41 * 41)],
)
def test_primes_between_matches_is_prime(lo, hi):
    assert list(primes_between(lo, hi, EnumBudget("sieve"))) == [k for k in range(lo, hi + 1) if is_prime(k)]


def test_primes_between_charges_budget_before_sieving(monkeypatch):
    # isqrt(121) = 11 base candidates: over a budget of 10 at the call, not at the first prime
    monkeypatch.setenv("SSP_MAX_ENUM", "10")
    with pytest.raises(BudgetExceededError, match="sweep would reach 11"):
        primes_between(3, 121, EnumBudget("sweep"))
    monkeypatch.setenv("SSP_MAX_ENUM", "11")
    assert list(primes_between(3, 121, EnumBudget("sweep")))[-1] == 113


def test_modulus_is_deterministic_and_minimal():
    ctx = field(3)
    assert ctx.modulus == (1, 0, 1)  # t^2 + 1
    assert field(3).modulus == ctx.modulus
    # for p = 5 the first irreducible in low-degree-first order is t^2 + t + 1
    assert field(5).modulus == (1, 1, 1)
    assert field(7).modulus == (1, 0, 1)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_minimal_irreducible_matches_plain_search(p):
    # the plain search tries every monic polynomial, constant term slowest
    for s in range(1, 5):
        plain = next(
            lower + (1,)
            for lower in itertools.product(range(p), repeat=s)
            if is_irreducible(lower + (1,), p)
        )
        assert minimal_irreducible(p, s) == plain


def _monic(p, d):
    """Every monic polynomial of degree d over F_p, low-degree first."""
    return [lower + (1,) for lower in itertools.product(range(p), repeat=d)]


def _product(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return tuple(out)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_is_irreducible_matches_product_sieve(p):
    # a monic polynomial of degree <= 4 is reducible iff it is a product
    # of two monic polynomials of degree >= 1
    reducible = {
        _product(f, g, p)
        for df in range(1, 4)
        for dg in range(1, 5 - df)
        for f in _monic(p, df)
        for g in _monic(p, dg)
    }
    for d in range(1, 5):
        for poly in _monic(p, d):
            assert is_irreducible(poly, p) == (poly not in reducible), poly


def _sqrt_mod_p_desk(v, p):
    """The smallest square root of v mod p, by trying 0, 1, ..., p - 1."""
    v %= p
    for y in range(p):
        if y * y % p == v:
            return y
    raise ValidationError(f"{v} is not a square mod {p}")


_PRIMES_BELOW_200 = [p for p in range(200) if is_prime(p)]


def test_sqrt_mod_p_matches_the_desk_search():
    for p in _PRIMES_BELOW_200:
        for v in range(p):
            if pow(v, (p - 1) // 2, p) in (0, 1):
                assert sqrt_mod_p(v, p) == _sqrt_mod_p_desk(v, p), (v, p)
            else:
                with pytest.raises(ValidationError, match=f"{v} is not a square mod {p}"):
                    sqrt_mod_p(v, p)


def test_hensel_sqrt_is_the_same_with_the_desk_search(monkeypatch):
    # hensel_sqrt takes the smaller of the roots u, -u, whichever root mod
    # p it is given; each phase starts and ends with an empty cache
    cases = [
        (witt_ring(p, 2, 2), alpha)
        for p in _PRIMES_BELOW_200[1:]
        for alpha in range(-49, 50)
        if pow(alpha % p, (p - 1) // 2, p) == p - 1
    ]
    hensel_sqrt.cache_clear()
    now = [hensel_sqrt(ring, alpha) for ring, alpha in cases]
    hensel_sqrt.cache_clear()
    monkeypatch.setattr(witt, "sqrt_mod_p", _sqrt_mod_p_desk)
    try:
        assert [hensel_sqrt(ring, alpha) for ring, alpha in cases] == now
    finally:
        hensel_sqrt.cache_clear()
    assert len(cases) > 2000


def test_sqrt_mod_p_at_large_primes():
    # Cipolla's algorithm takes O(log p) steps, where the search took O(p)
    for p in (100000007, 1000000007, 3317044064679887385961813):
        for v in (2, 3, 5, 7, 10, 11, 13, 17, 19, 23):
            if pow(v, (p - 1) // 2, p) == 1:
                y = sqrt_mod_p(v, p)
                assert y * y % p == v and y <= p - y


MODULI = {
    3: [(0, 1), (1, 0, 1), (1, 0, 2, 1), (1, 0, 1, 1, 1)],
    5: [(0, 1), (1, 1, 1), (1, 0, 1, 1), (1, 0, 1, 1, 1)],
    7: [(0, 1), (1, 0, 1), (1, 0, 1, 1), (1, 0, 0, 1, 1)],
    11: [(0, 1), (1, 0, 1), (1, 0, 4, 1), (1, 0, 0, 4, 1)],
    13: [(0, 1), (1, 3, 1), (1, 0, 4, 1), (1, 0, 0, 1, 1)],
    31: [(0, 1), (1, 0, 1), (1, 0, 3, 1), (1, 0, 0, 1, 1)],
}


@pytest.mark.parametrize("p", sorted(MODULI))
def test_minimal_irreducible_pinned(p):
    assert [minimal_irreducible(p, s) for s in range(1, 5)] == MODULI[p]
    if p == 3:
        # t^30 + 2 t^29 + t^27 + 1
        assert minimal_irreducible(3, 30) == (1,) + (0,) * 26 + (1, 0, 2, 1)


def test_large_degree_modulus_is_found_quickly(run_snippet):
    # the plain search would first test all 3^29 multiples of t
    run = run_snippet("from ssp.witt import witt_ring; print(witt_ring(3, 30, 1).modulus)", timeout=20)
    assert run.returncode == 0
    modulus = ast.literal_eval(run.stdout)
    assert len(modulus) == 31 and modulus[0] != 0 and is_irreducible(modulus, 3)


@pytest.mark.parametrize("p, s", [(3, 1), (3, 2), (5, 2), (7, 2), (3, 3), (3, 4)])
def test_modulus_irreducible(p, s):
    ctx = field(p, s)
    assert is_irreducible(ctx.modulus, p)


def test_frobenius_examples():
    ctx = field(3)
    t = ctx.gen()
    assert ctx.sigma(ctx.one()) == ctx.one()
    assert ctx.sigma(t) == -t  # t^3 = -t over F_3[t]/(t^2+1)
    for c in range(3):
        assert ctx.sigma(ctx.el(c)) == ctx.el(c)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_frobenius_order_s(p):
    ctx = field(p)
    for x in ctx.elements():
        assert ctx.sigma(ctx.sigma(x)) == x
        assert ctx.sigma(x) == x**p


ctxs = st.sampled_from([field(3), field(5), field(7)])


@st.composite
def pair_same_ctx(draw):
    ctx = draw(ctxs)
    a = ctx.el(tuple(draw(st.integers(0, ctx.p - 1)) for _ in range(ctx.s)))
    b = ctx.el(tuple(draw(st.integers(0, ctx.p - 1)) for _ in range(ctx.s)))
    return a, b


@settings(max_examples=200)
@given(pair_same_ctx())
def test_frobenius_is_ring_automorphism(pair):
    a, b = pair
    sigma = a.ring.sigma
    assert sigma(a + b) == sigma(a) + sigma(b)
    assert sigma(a * b) == sigma(a) * sigma(b)


def norm(x):
    """N(x) = x sigma(x), the norm from F_{p^2} to F_p."""
    return x * x.ring.sigma(x)


@settings(max_examples=100)
@given(pair_same_ctx())
def test_norm_lands_in_prime_subfield(pair):
    a, _ = pair
    # in F_p: no coefficient on the powers of the generator
    assert not any(norm(a).coeffs[1:])


@pytest.mark.parametrize("p", [3, 5, 7])
def test_norm_one_count_is_p_plus_one(p):
    ctx = field(p)
    count = sum(1 for x in ctx.elements() if norm(x) == ctx.one())
    assert count == p + 1


def test_sqrt_nonresidue_p3():
    ctx = field(3)
    u = hensel_sqrt(ctx, -1)
    assert u == ctx.gen()  # t itself, the lexicographically smaller root
    assert u * u == ctx.el(-1)


def test_sqrt_nonresidue_rejects_squares():
    ctx = field(3)
    with pytest.raises(ValidationError):
        hensel_sqrt(ctx, 1)
    with pytest.raises(ValidationError):
        hensel_sqrt(ctx, -3)  # divisible by p


def test_sqrt_nonresidue_p7_exhaustive_oracle():
    ctx = field(7)
    u = hensel_sqrt(ctx, -1)
    roots = [x for x in ctx.elements() if x * x == ctx.el(-1)]
    assert u in roots and len(roots) == 2
    assert u.coeffs == min(x.coeffs for x in roots)
    assert ctx.sigma(u) == -u


def test_inverse_and_division():
    ctx = field(5)
    for x in ctx.elements():
        if not x.is_zero():
            assert x * x.inv() == ctx.one()
    with pytest.raises(ValidationError):
        ctx.zero().inv()


def test_one_table_per_field():
    # the default s and an explicit s = 2 are one cache entry, not two tables
    assert field_table(3) is field_table(3, 2) is field_table(p=3, s=2)
    assert field_table(3, 1) is not field_table(3)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_field_table_matches_polynomial_arithmetic(p):
    # the tables of F_{p^2} straight from the polynomial helpers, with
    # code c = c0 + c1 p standing for c0 + c1 t mod the minimal modulus
    mod = minimal_irreducible(p, 2)

    def poly(code):
        return (code % p, code // p)

    def code(c):
        c = tuple(c) + (0, 0)
        return c[0] + p * c[1]

    q = p * p
    table = field_table(p)
    assert table.add == [[code([(x + y) % p for x, y in zip(poly(a), poly(b))]) for b in range(q)] for a in range(q)]
    assert table.mul == [[code(_pmulmod(poly(a), poly(b), mod, p)) for b in range(q)] for a in range(q)]
    assert table.conj == [code(_ppowmod(poly(a), p, mod, p)) for a in range(q)]
