"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes (parse 1, validation 2, resource cap 3),
so library code should raise the most specific class that applies.
"""

from __future__ import annotations


class HKDError(Exception):
    """Base class for all package errors."""


class InputError(HKDError):
    """Malformed input: unparseable JSON, bad rational literals, missing keys."""


class ValidationError(HKDError):
    """Structurally well-formed data that violates a mathematical contract."""


class DomainError(ValidationError):
    """Argument outside the domain of an operation (negative x, c <= 0, ...)."""


class CapacityError(HKDError):
    """The configured enumeration point cap was exceeded."""


class BettiIdentityError(ValidationError):
    """The alternating-sum vanishing identity failed; carries the residual."""

    def __init__(self, message: str, residual=None):
        super().__init__(message)
        self.residual = residual


class InternalError(HKDError):
    """Two independent internal computations of the same quantity disagreed."""
