"""Exceptions shared across the package.

The exact engines refuse to return silently degraded answers: any request
that falls outside the window where rational-truncation arithmetic is
faithful raises ``PrecisionError`` instead of returning a number.

The checks below are the one rule for each exact input: an integer (a
count, a seed, a plan position) is read by ``_integers`` and ``_at_least``,
a rational by ``_rational`` and a point of the circle by ``_point``, a
rational reduced mod 1.  A float or a string never stands in for an exact
number: an int() or a Fraction() of it would silently truncate it, or read
its binary expansion, where an exact engine needs the number written.
"""

import numbers
import operator
from fractions import Fraction


class RotsumError(Exception):
    """Base class for package errors."""


class SpecExhaustedError(RotsumError):
    """A partial-quotient spec was asked for an index beyond ``max_index``."""


class PrecisionError(RotsumError):
    """A computation left the validity window of a rational truncation.

    Carries ``required_level`` when the caller can fix the problem by
    rebuilding the truncation at a deeper level.
    """

    def __init__(self, message: str, required_level: int | None = None):
        super().__init__(message)
        self.required_level = required_level


class ConfigError(RotsumError, ValueError):
    """Invalid configuration (bad guard, malformed rule, unknown name...)."""


class CertificateError(RotsumError):
    """An exact check the package certifies (a bound, an identity, a
    reconstruction) came out false."""


class BoundaryError(RotsumError):
    """A billiard section coordinate landed exactly on a displacement breakpoint."""


class SingularOrbitError(RotsumError):
    """A billiard ray hit an obstacle corner exactly (measure-zero orbit)."""


class InsufficientPartialQuotientsError(RotsumError):
    """The spec cannot realize the growth condition for the requested plan length."""


class ParityPatternError(RotsumError):
    """No admissible parity configuration exists along the spec.

    ``diagnostic`` holds the stream of (p, q) mod-2 pairs that was scanned.
    """

    def __init__(self, message: str, diagnostic=None):
        super().__init__(message)
        self.diagnostic = diagnostic


def _integers(what: str, *values) -> list[int]:
    """``values`` as Python ints, accepting Python and numpy integers; int()
    would silently truncate a float or a Fraction, so anything else raises."""
    try:
        return list(map(operator.index, values))
    except TypeError:
        raise ConfigError(f"{what} must be integers, got {values!r}") from None


def _at_least(what: str, value, low: int) -> int:
    """``value`` as a Python int, read as ``_integers`` reads it; below
    ``low`` it raises ConfigError."""
    (value,) = _integers(what, value)
    if value < low:
        raise ConfigError(f"{what} must be >= {low}, got {value}")
    return value


def _rational(what: str, x) -> Fraction:
    """``x`` as a Fraction, accepting an int, a Fraction or any
    numbers.Rational; a float would stand for its binary expansion, not for
    the number written, so anything else raises."""
    # the concrete types first: the Rational ABC check alone is slower
    if isinstance(x, Fraction):
        return x
    if not isinstance(x, (int, numbers.Rational)):
        raise ConfigError(f"{what} must be an exact rational (int or "
                          f"Fraction), got {type(x).__name__} {x!r}")
    return Fraction(int(x.numerator), int(x.denominator))


def _point(what: str, x) -> tuple[int, int]:
    """(u, v) with {x} = u/v in lowest terms: the point ``x`` of the circle,
    read by ``_rational`` and reduced mod 1 in integers."""
    x = _rational(what, x)
    v = x.denominator
    return x.numerator % v, v
