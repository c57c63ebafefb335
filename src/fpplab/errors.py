"""Semantic exception hierarchy.

Every error raised on purpose by this package derives from FppLabError, so
callers (and the CLI) can distinguish usage problems from genuine bugs.
Every index, count and size the package takes is read by `_is_int`, the
one integer rule, most of them through `_check_int`.
"""

from numbers import Integral


class FppLabError(Exception):
    """Base class for all errors raised by fpplab."""


class DomainError(FppLabError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SingularityError(FppLabError, ArithmeticError):
    """A quantity hit a guarded singularity (e.g. a density below the floor)."""


class UnsupportedKindError(FppLabError, TypeError):
    """The distribution kind cannot support the requested operation."""


class UnsupportedParameterError(FppLabError, ValueError):
    """Parameters are syntactically valid but outside the supported range."""


class ResourceGuardError(FppLabError, ValueError):
    """An exhaustive computation was refused because it would be too large."""


class ConfigError(FppLabError, ValueError):
    """An experiment or CLI configuration is inconsistent or incomplete."""


class NumericError(FppLabError, ArithmeticError):
    """A numerical routine (quadrature, root finding) failed to converge."""


def _is_int(value) -> bool:
    """The package's one integer rule: an integer other than a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _check_int(value, name: str, size: int | None = None) -> int:
    """value as an int when it is an integer other than a bool and, when a
    size is given, in 0..size-1; otherwise a DomainError naming it."""
    if not _is_int(value):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if size is not None and not 0 <= value < size:
        raise DomainError(f"{name} out of range: {value} not in 0..{size - 1}")
    return int(value)
