import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssp.errors import ValidationError
from ssp.witt import hensel_sqrt, witt_ring


def test_ring_construction_and_sigma_involution():
    ring = witt_ring(3, 2, 4)
    x = ring.gen()
    assert ring.sigma(ring.sigma(x)) == x
    # sigma reduces to Frobenius mod p
    assert ring.reduce(ring.sigma(x)) == ring.reduce(x) ** 3


def test_prime_part_fixed_by_sigma():
    ring = witt_ring(3, 2, 3)
    for c in range(27):
        assert ring.sigma(ring.el(c)) == ring.el(c)


def test_hensel_sqrt_level1_matches_gf():
    # the lift reduces to the root at n = 1, which is t for t^2 + 1
    ring = witt_ring(3, 2, 1)
    u = hensel_sqrt(ring, -1)
    assert ring.reduce(u) == u == ring.gen()
    for n in range(2, 6):
        assert witt_ring(3, 2, n).reduce(hensel_sqrt(witt_ring(3, 2, n), -1)) == u


@pytest.mark.parametrize("p, alpha", [(3, -1), (5, -2), (7, -1)])
@pytest.mark.parametrize("n", range(1, 7))
def test_hensel_sqrt_squares_to_alpha_at_every_level(p, n, alpha):
    ring = witt_ring(p, 2, n)
    u = hensel_sqrt(ring, alpha)
    assert u * u == ring.el(alpha)
    assert ring.sigma(u) == -u


def test_hensel_sqrt_rejects_residues():
    ring = witt_ring(3, 2, 2)
    with pytest.raises(ValidationError):
        hensel_sqrt(ring, 1)


def test_cached_hensel_sqrt_raises_on_every_call():
    # hensel_sqrt is cached per (ring, alpha), but an error is not cached
    ring = witt_ring(3, 2, 2)
    for _ in range(3):
        with pytest.raises(ValidationError, match="square mod 3"):
            hensel_sqrt(ring, 1)
        with pytest.raises(ValidationError, match="divisible"):
            hensel_sqrt(ring, 6)
    assert hensel_sqrt(ring, -1) is hensel_sqrt(ring, -1)


def test_val_p_examples():
    ring = witt_ring(3, 2, 3)
    assert ring.el(3).val() == 1
    assert ring.el(2).val() == 0
    assert ring.zero().val() == math.inf
    assert ring.el(9).val() == 2


rings = st.sampled_from([witt_ring(3, 2, 1), witt_ring(3, 2, 3), witt_ring(5, 2, 2), witt_ring(3, 2, 6)])


@st.composite
def triple_same_ring(draw):
    ring = draw(rings)
    els = []
    for _ in range(3):
        els.append(ring.el(tuple(draw(st.integers(0, ring.pn - 1)) for _ in range(ring.s))))
    return ring, els


@settings(max_examples=150)
@given(triple_same_ring())
def test_ring_axioms(data):
    ring, (a, b, c) = data
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * (b * c) == (a * b) * c
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + ring.zero() == a
    assert a * ring.one() == a


@settings(max_examples=100)
@given(triple_same_ring())
def test_reduction_is_sigma_equivariant_homomorphism(data):
    ring, (a, b, _) = data
    red = ring.reduce
    assert red(a + b) == red(a) + red(b)
    assert red(a * b) == red(a) * red(b)
    assert red(ring.sigma(a)) == red(a) ** ring.p


@settings(max_examples=100)
@given(triple_same_ring())
def test_fv_equals_p_on_scalars(data):
    ring, (a, _, _) = data
    # on W itself, F = sigma and V = p * sigma^{-1}
    f = ring.sigma
    v = lambda x: ring.el(ring.p) * ring.sigma_inv(x)
    assert f(v(a)) == ring.el(ring.p) * a
    assert v(f(a)) == ring.el(ring.p) * a


def test_unit_inverse():
    ring = witt_ring(3, 2, 5)
    x = ring.el((2, 1))
    assert x * x.inv() == ring.one()
    with pytest.raises(ValidationError):
        ring.el(3).inv()


def test_el_refuses_more_than_s_coefficients():
    # the one reduction by the modulus is WittRing.dot's: el only pads
    ring = witt_ring(3, 2, 2)
    assert ring.el((4,)).coeffs == (4, 0) and ring.el((1, 10)).coeffs == (1, 1)
    with pytest.raises(ValidationError, match="at most 2 coefficients"):
        ring.el((1, 2, 3))
    with pytest.raises(ValidationError, match="at most 1 coefficients"):
        witt_ring(5, 1, 1).el((0, 1))


@pytest.mark.parametrize(
    "s, n, error",
    [(65, 1, "s must be <= 64, got 65"), (10**9, 1, "s must be <= 64"), (2, 65, "truncation level n must be <= 64, got 65")],
)
def test_level_and_degree_are_capped_at_64(s, n, error):
    # a ring's cost grows with n and s, so both caps are the ring's own
    with pytest.raises(ValidationError, match=error):
        witt_ring(3, s, n)
    assert witt_ring(3, 2, 64).n == 64
