"""Exceptions shared across the package.

The exact engines refuse to return silently degraded answers: any request
that falls outside the window where rational-truncation arithmetic is
faithful raises ``PrecisionError`` instead of returning a number.
"""


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
