from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ssp.errors import ValidationError
from ssp.exact import bernoulli, mass_constant, mass_constant_bernoulli_abs, zeta_negative_odd

# expected values frozen from the defining recurrence
# sum_{j=0}^{m} C(m+1, j) B_j = 0, run by hand for small m
BERNOULLI = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    3: Fraction(0),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    12: Fraction(-691, 2730),
}


@pytest.mark.parametrize("m, want", sorted(BERNOULLI.items()))
def test_bernoulli_small_values(m, want):
    assert bernoulli(m) == want


@pytest.mark.parametrize("m", range(1, 41))
def test_bernoulli_defining_recurrence(m):
    assert sum(comb(m + 1, j) * bernoulli(j) for j in range(m + 1)) == 0


def test_odd_bernoulli_vanish():
    assert all(bernoulli(m) == 0 for m in range(3, 60, 2))


@pytest.mark.parametrize(
    "i, want",
    [(1, Fraction(-1, 12)), (2, Fraction(1, 120)), (3, Fraction(-1, 252))],
)
def test_zeta_negative_odd(i, want):
    assert zeta_negative_odd(i) == want


@pytest.mark.parametrize(
    "g, want",
    [
        (1, Fraction(1, 24)),
        (2, Fraction(1, 5760)),
        # derived by hand: (1/8) * (1/12) * (1/120) * (1/252) reassembled with signs
        (3, Fraction(1, 2903040)),
    ],
)
def test_mass_constant_values(g, want):
    assert mass_constant(g) == want


@pytest.mark.parametrize("g", range(1, 13))
def test_mass_constant_positive_and_matches_bernoulli_form(g):
    c = mass_constant(g)
    assert c > 0
    assert c == mass_constant_bernoulli_abs(g)


@given(st.fractions(), st.fractions())
def test_rational_arithmetic_is_exact(a, b):
    assert (a + b) - b == a


@pytest.mark.parametrize(
    "fn, arg",
    [(bernoulli, -1), (zeta_negative_odd, 0), (mass_constant, 0), (mass_constant_bernoulli_abs, 0)],
    ids=["bernoulli(-1)", "zeta_negative_odd(0)", "mass_constant(0)", "mass_constant_bernoulli_abs(0)"],
)
def test_out_of_range_arguments_are_validation_errors(fn, arg):
    # a refusal of `exact` maps to exit code 2, as every other refusal does
    with pytest.raises(ValidationError) as info:
        fn(arg)
    assert info.value.code == 2
