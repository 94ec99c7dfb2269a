"""Shared exception types, each with its CLI exit code, the parse
helpers for JSON specs, and `EnumBudget`, the one meter of each
enumeration check, whose limit the SSP_MAX_ENUM environment variable
alone sets.

Each exception class carries its exit code as `code`, which `cli.main`
returns; the README's CLI section lists the codes and what SSP_MAX_ENUM
charges.
"""

from __future__ import annotations

import os


class SspError(Exception):
    """Base class for all library errors."""

    code = 1


class ValidationError(SspError):
    """Input violates a documented precondition or invariant."""

    code = 2


class InsufficientPrecisionError(SspError):
    """A truncated-ring computation hit a censored (infinite) valuation.

    Callers holding exact integer data should rebuild at a higher
    truncation level and retry.
    """

    code = 3


class BudgetExceededError(SspError):
    """An exhaustive enumeration would exceed the configured budget."""

    code = 4


class FormulaInconsistencyError(SspError):
    """Two different computations of one value, or a value and its stored
    copy, did not agree (internal double-entry check)."""


# ---------------------------------------------------------------------------
# JSON specs: every malformed field is a ValidationError that names it


def _path(at: str, key: str) -> str:
    return f"{at}.{key}" if at else key


def spec_value(data, key: str, spec: str = "module spec", at: str = ""):
    """data[key], where `data` is the JSON object at the path `at` of a spec."""
    if not isinstance(data, dict):
        what = f"{spec} field {at!r}" if at else spec
        raise ValidationError(f"{what} must be a JSON object, got {type(data).__name__}")
    if key not in data:
        raise ValidationError(f"{spec} missing field {_path(at, key)!r}")
    return data[key]


def spec_int(x, field: str, spec: str = "module spec") -> int:
    """An integer in a JSON spec: a JSON integer or a decimal string."""
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        try:
            return int(x)
        except ValueError:
            pass
    raise ValidationError(f"{spec} field {field!r} must be an integer, got {x!r}")


def spec_entry(x, field: str, length: int, spec: str = "module spec"):
    """A matrix entry in a JSON spec: an integer, or a list of exactly
    `length` integers (a coefficient vector, low degree first)."""
    if not isinstance(x, list):
        return spec_int(x, field, spec)
    if len(x) != length:
        raise ValidationError(f"{spec} field {field!r} must have {length} coefficients, got {len(x)}")
    return tuple(spec_int(c, field, spec) for c in x)


def spec_field(data, key: str, spec: str = "module spec", at: str = "") -> int:
    return spec_int(spec_value(data, key, spec, at), _path(at, key), spec)


def spec_list(x, field: str, spec: str) -> list:
    if not isinstance(x, list):
        raise ValidationError(f"{spec} field {field!r} must be a list, got {type(x).__name__}")
    return x


def spec_matrix(x, field: str, length: int, spec: str = "module spec") -> tuple:
    """A matrix in a JSON spec: a list of rows, each a list of
    `spec_entry`s.  Its shape is left to the object it builds."""
    rows = [spec_list(row, f"{field}[{i}]", spec) for i, row in enumerate(spec_list(x, field, spec))]
    return tuple(
        tuple(spec_entry(e, f"{field}[{i}][{j}]", length, spec) for j, e in enumerate(row))
        for i, row in enumerate(rows)
    )


class EnumBudget:
    """Counts the candidates one enumeration examines and stops it once
    the count passes the limit, SSP_MAX_ENUM (10^8 if unset or empty).
    The count depends only on the inputs."""

    def __init__(self, routine: str):
        env = os.environ.get("SSP_MAX_ENUM")
        if env and not env.isdecimal():
            raise ValidationError(f"SSP_MAX_ENUM must be a non-negative integer, got {env!r}")
        self.routine = routine
        self.limit = int(env) if env else 10**8
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
