"""Shared exception types and the enumeration budget.

Exit-code mapping used by the CLI: ValidationError -> 2,
InsufficientPrecisionError -> 3, BudgetExceededError -> 4.
"""

from __future__ import annotations

import os
from typing import Optional

DEFAULT_ENUM_BUDGET = 10**8


class SspError(Exception):
    """Base class for all library errors."""


class ValidationError(SspError):
    """Input violates a documented precondition or invariant."""


class InsufficientPrecisionError(SspError):
    """A truncated-ring computation hit a censored (infinite) valuation.

    Callers holding exact integer data should rebuild at a higher
    truncation level and retry.
    """


class BudgetExceededError(SspError):
    """An exhaustive enumeration would exceed the configured budget."""


class FormulaInconsistencyError(SspError):
    """Two formulas that must agree did not (internal double-entry check)."""


def enum_budget(budget: Optional[int] = None) -> int:
    """The candidate limit: `budget` if given, else SSP_MAX_ENUM, else 10^8."""
    if budget is not None:
        return budget
    env = os.environ.get("SSP_MAX_ENUM")
    if not env:
        return DEFAULT_ENUM_BUDGET
    if not env.isdecimal():
        raise ValidationError(f"SSP_MAX_ENUM must be a non-negative integer, got {env!r}")
    return int(env)


class EnumBudget:
    """Counts the candidates one enumeration examines and stops it once
    the count passes the limit.  The count depends only on the inputs."""

    def __init__(self, routine: str, budget: Optional[int] = None):
        self.routine = routine
        self.limit = enum_budget(budget)
        self.count = 0

    def spend(self, candidates: int):
        self.count += candidates
        if self.count > self.limit:
            self._exceeded("reached", self.count)

    def ensure(self, candidates: int):
        """Stop now if `candidates` more, still to be spent, would pass the limit."""
        if self.count + candidates > self.limit:
            self._exceeded("would reach", self.count + candidates)

    def _exceeded(self, verb: str, count: int):
        raise BudgetExceededError(
            f"{self.routine} {verb} {count} candidates; budget is {self.limit} (set SSP_MAX_ENUM)"
        )
