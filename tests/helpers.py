"""Helpers that only the tests use."""

from ssp import linalg
from ssp.errors import ValidationError


def inverse(A, one, zero) -> linalg.Matrix:
    """Inverse over W_n; raises ValidationError when singular."""
    n = len(A)
    aug = [list(A[i]) + [one if j == i else zero for j in range(n)] for i in range(n)]
    rows, pivots = linalg.rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValidationError("matrix is singular")
    return tuple(tuple(rows[i][n:]) for i in range(n))
