"""Exact rational constants: Bernoulli numbers, zeta special values, C_g.

Everything here is a fractions.Fraction; no floating point.  Bernoulli
numbers use the convention B_1 = -1/2 (so B_m = 0 for odd m >= 3).
Only they are cached: the bound forms C_g once per record of
`count._level_part`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .errors import FormulaInconsistencyError, ValidationError


@lru_cache(maxsize=None)
def bernoulli(m: int) -> Fraction:
    """B_m via the defining recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0."""
    if m < 0:
        raise ValidationError("m must be >= 0")
    if m == 0:
        return Fraction(1)
    if m >= 3 and m % 2 == 1:
        return Fraction(0)
    acc = Fraction(0)
    for j in range(m):
        acc += comb(m + 1, j) * bernoulli(j)
    return -acc / (m + 1)


def zeta_negative_odd(i: int) -> Fraction:
    """zeta(1 - 2i) = -B_{2i} / (2i) for i >= 1."""
    if i < 1:
        raise ValidationError("i must be >= 1")
    return -bernoulli(2 * i) / (2 * i)


def mass_constant(g: int) -> Fraction:
    """C_g = (-1)^{g(g+1)/2} 2^{-g} prod_{i=1}^{g} zeta(1-2i); always > 0.

    The zeta-product form is normative; it is provably positive, which
    a mass constant must be.
    """
    if g < 1:
        raise ValidationError("g must be >= 1")
    prod = Fraction(1)
    for i in range(1, g + 1):
        prod *= zeta_negative_odd(i)
    value = Fraction((-1) ** (g * (g + 1) // 2), 2**g) * prod
    if value <= 0:
        raise FormulaInconsistencyError(f"mass constant C_{g} = {value} is not positive")
    return value


def mass_constant_bernoulli_abs(g: int) -> Fraction:
    """|prod_{i=1}^{g} B_{2i}| / (2^{2g} g!), the Bernoulli form of |C_g|."""
    if g < 1:
        raise ValidationError("g must be >= 1")
    prod = Fraction(1)
    for i in range(1, g + 1):
        prod *= bernoulli(2 * i)
    return abs(prod) / (2 ** (2 * g) * factorial(g))
