import ast
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssp.errors import ValidationError
from ssp import groups
from ssp.gf import (
    field_ctx,
    frobenius,
    is_irreducible,
    is_prime,
    minimal_irreducible,
    norm,
    sqrt_nonresidue,
)


def test_is_prime_matches_sieve():
    n = 10**4
    sieve = [False, False] + [True] * (n - 1)
    for d in range(2, 101):
        if sieve[d]:
            sieve[d * d :: d] = [False] * len(sieve[d * d :: d])
    assert [is_prime(k) for k in range(n + 1)] == sieve
    assert not is_prime(-7)
    assert groups.is_prime is is_prime


def test_modulus_is_deterministic_and_minimal():
    ctx = field_ctx(3, 2)
    assert ctx.modulus == (1, 0, 1)  # t^2 + 1
    assert field_ctx(3, 2).modulus == ctx.modulus
    # for p = 5 the first irreducible in low-degree-first order is t^2 + t + 1
    assert field_ctx(5, 2).modulus == (1, 1, 1)
    assert field_ctx(7, 2).modulus == (1, 0, 1)


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


def test_large_degree_modulus_is_found_quickly(run_snippet):
    # the plain search would first test all 3^29 multiples of t
    run = run_snippet("from ssp.gf import field_ctx; print(field_ctx(3, 30).modulus)", timeout=20)
    assert run.returncode == 0
    modulus = ast.literal_eval(run.stdout)
    assert len(modulus) == 31 and modulus[0] != 0 and is_irreducible(modulus, 3)


@pytest.mark.parametrize("p, s", [(3, 1), (3, 2), (5, 2), (7, 2), (3, 3), (3, 4)])
def test_modulus_irreducible(p, s):
    ctx = field_ctx(p, s)
    assert is_irreducible(ctx.modulus, p)


def test_frobenius_examples():
    ctx = field_ctx(3, 2)
    t = ctx.gen()
    assert frobenius(ctx.one()) == ctx.one()
    assert frobenius(t) == -t  # t^3 = -t over F_3[t]/(t^2+1)
    for c in range(3):
        assert frobenius(ctx.el(c)) == ctx.el(c)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_frobenius_order_s(p):
    ctx = field_ctx(p, 2)
    for x in ctx.elements():
        assert frobenius(frobenius(x)) == x


ctxs = st.sampled_from([field_ctx(3, 2), field_ctx(5, 2), field_ctx(7, 2)])


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
    assert frobenius(a + b) == frobenius(a) + frobenius(b)
    assert frobenius(a * b) == frobenius(a) * frobenius(b)


@settings(max_examples=100)
@given(pair_same_ctx())
def test_norm_lands_in_prime_subfield(pair):
    a, _ = pair
    assert norm(a).in_prime_subfield()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_norm_one_count_is_p_plus_one(p):
    ctx = field_ctx(p, 2)
    count = sum(1 for x in ctx.elements() if norm(x) == ctx.one())
    assert count == p + 1


def test_sqrt_nonresidue_p3():
    ctx = field_ctx(3, 2)
    u = sqrt_nonresidue(ctx, -1)
    assert u == ctx.gen()  # t itself, the lexicographically smaller root
    assert u * u == ctx.el(-1)


def test_sqrt_nonresidue_rejects_squares():
    ctx = field_ctx(3, 2)
    with pytest.raises(ValidationError):
        sqrt_nonresidue(ctx, 1)
    with pytest.raises(ValidationError):
        sqrt_nonresidue(ctx, -3)  # divisible by p


def test_sqrt_nonresidue_p7_exhaustive_oracle():
    ctx = field_ctx(7, 2)
    u = sqrt_nonresidue(ctx, -1)
    roots = [x for x in ctx.elements() if x * x == ctx.el(-1)]
    assert u in roots and len(roots) == 2
    assert frobenius(u) == -u


def test_inverse_and_division():
    ctx = field_ctx(5, 2)
    for x in ctx.elements():
        if not x.is_zero():
            assert x * x.inv() == ctx.one()
