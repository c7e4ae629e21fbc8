"""Exact continued-fraction engine.

An irrational rotation number alpha is specified by its partial quotients
a_1, a_2, ... (``PartialQuotientSpec``).  All downstream arithmetic uses the
"truncate and exactify" scheme: pick a level M beyond every index an
experiment will touch, treat alpha as exactly p_M/q_M, and compute in exact
rationals (``RationalTruncation``).  For k < q_{M-1} the rotation by p_M/q_M
is combinatorially indistinguishable from the rotation by alpha, so counting
arguments are exact; outside that window the API raises ``PrecisionError``
rather than silently degrading.

The convergents p_0/q_0 .. p_M/q_M are kept in ``RationalTruncation.ps``
and ``qs``; they satisfy

    q_{n+1} = a_{n+1} q_n + q_{n-1},   p_{n+1} = a_{n+1} p_n + p_{n-1},
    p_{n-1} q_n - p_n q_{n-1} = (-1)^n,

with p_{-1}=1, p_0=0, q_{-1}=0, q_0=1.  Everything is big-integer exact:
designed rotation numbers used by the subsequence experiments have
denominators with hundreds of digits.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .errors import (CertificateError, ConfigError, PrecisionError,
                     SpecExhaustedError, _at_least, _integers, _point)

__all__ = [
    "PartialQuotientSpec",
    "RationalTruncation",
    "OstrowskiDigits",
    "ostrowski_digits",
    "GUARD",
    "design_alpha",
    "beta_from_ostrowski",
    "golden",
    "sqrt2m1",
    "from_list",
    "clt_design_rule",
    "parity_design_rule",
]


def _next_odd(n: int) -> int:
    return n if n % 2 == 1 else n + 1


# ---------------------------------------------------------------------------
# Named rule registry.  A rule maps a 1-based index k to the partial quotient
# a_k; registering by name keeps specs JSON-serializable and reproducible.
# ---------------------------------------------------------------------------

def _rule_golden(k: int, params: dict) -> int:
    return 1


def _rule_sqrt2m1(k: int, params: dict) -> int:
    # sqrt(2) - 1 = [0; 2, 2, 2, ...]
    return 2


def _design_params(params: dict) -> tuple:
    # the builders record both keys; a spec built without them would
    # otherwise be built from a second, hidden copy of their defaults
    try:
        c, beta = params["c"], params["beta"]
    except KeyError as exc:
        raise ConfigError(f"design rule needs params c and beta, missing "
                          f"{exc.args[0]!r}") from None
    return _at_least("boost factor c", c, 1), _at_least("exponent beta", beta, 1)


def _rule_clt_design(k: int, params: dict) -> int:
    # a_1 = 1; a_m = ceil(c * (m-1)^beta) for m >= 2.  Every index m >= 2 is a
    # usable growth slot: a_{t+1} >= c * t^beta >= t^beta for c >= 1, so a
    # greedy plan certifies the growth exponent beta with t_k = k.
    c, beta = _design_params(params)
    if k == 1:
        return 1
    v = c * (k - 1) ** beta
    iv = int(v)
    return iv if iv == v else iv + 1


def _rule_parity_design(k: int, params: dict) -> int:
    # All quotients odd, so the (p_n, q_n) parities cycle with period 3:
    #   n = 0 mod 3 -> (even, odd),  n = 1 mod 3 -> (odd, odd),
    #   n = 2 mod 3 -> (odd, even).
    # Plan slots alternate t = 3j+1 (p odd) and t = 3j+3 (p even); the boosted
    # quotients sit at slot indices t+1, i.e. at k = 3j+2 and 3j+4.
    c, beta = _design_params(params)
    if k == 1 or k % 3 == 0:
        return 1
    if k % 3 == 2:
        pos = 2 * (k // 3) + 1  # plan position using this boost (odd)
    else:  # k % 3 == 1, k >= 4
        pos = 2 * ((k - 1) // 3)  # plan position (even)
    v = c * pos ** beta
    iv = int(v)
    if iv != v:
        iv += 1
    return _next_odd(max(iv, 1))


_RULES: dict[str, Callable[[int, dict], int]] = {
    "golden": _rule_golden,
    "sqrt2m1": _rule_sqrt2m1,
    "clt_design": _rule_clt_design,
    "parity_design": _rule_parity_design,
}


@dataclass(frozen=True)
class PartialQuotientSpec:
    """Defines alpha = [0; a_1, a_2, ...] by an explicit list or a named rule.

    ``max_index`` is the largest k for which a_k is realizable; asking beyond
    it raises ``SpecExhaustedError``.  Every a_k must be >= 1.
    """

    name: str
    max_index: int
    quotients: tuple[int, ...] | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "max_index",
                           _at_least("max_index", self.max_index, 1))
        if self.quotients is None:
            if self.name not in _RULES:
                raise ConfigError(f"unknown rule name {self.name!r}")
            _RULES[self.name](1, self.params)   # checks the rule's params
        else:
            object.__setattr__(self, "quotients", tuple(
                _integers("partial quotients", *self.quotients)))
            if len(self.quotients) < self.max_index:
                raise ConfigError("explicit quotient list shorter than max_index")
            if any(a < 1 for a in self.quotients):
                raise ConfigError("all partial quotients must be >= 1")

    def a(self, k: int) -> int:
        """Partial quotient a_k (1-based)."""
        if k < 1:
            raise ConfigError(f"partial-quotient index must be >= 1, got {k}")
        if k > self.max_index:
            raise SpecExhaustedError(
                f"spec exhausted: a_{k} requested but max_index={self.max_index}"
            )
        return self._read(k)

    def _read(self, k: int) -> int | None:
        """a_k for k >= 1 without the max_index check: a named rule at any
        k, an explicit list up to its end and None beyond."""
        if self.quotients is not None:
            return self.quotients[k - 1] if k <= len(self.quotients) else None
        v = _RULES[self.name](k, self.params)
        if v < 1:
            raise ConfigError(f"rule produced a_{k}={v} < 1")
        return v

    def prefix(self, n: int) -> list[int]:
        return [self.a(k) for k in range(1, n + 1)]

    def to_json(self) -> str:
        if self.quotients is not None:
            doc = {"kind": "list", "quotients": list(self.quotients),
                   "max_index": self.max_index}
        else:
            doc = {"kind": "rule", "name": self.name, "params": self.params,
                   "max_index": self.max_index}
        return json.dumps(doc, sort_keys=True)


def golden(max_index: int = 64) -> PartialQuotientSpec:
    """alpha = (sqrt(5)-1)/2, all partial quotients 1, Fibonacci denominators."""
    return PartialQuotientSpec(name="golden", max_index=max_index)


def sqrt2m1(max_index: int = 48) -> PartialQuotientSpec:
    """alpha = sqrt(2)-1 = [0; 2, 2, 2, ...]."""
    return PartialQuotientSpec(name="sqrt2m1", max_index=max_index)


def from_list(quotients: Sequence[int]) -> PartialQuotientSpec:
    qs = tuple(quotients)
    return PartialQuotientSpec(name="list", max_index=len(qs), quotients=qs)


def clt_design_rule(c: int = 30, beta: int = 2, max_index: int = 64) -> PartialQuotientSpec:
    """Rotation number with a_{k} ~ c*(k-1)^beta: every slot is a growth slot."""
    c, beta = _design_params({"c": c, "beta": beta})   # stored as Python ints
    return PartialQuotientSpec(name="clt_design", max_index=max_index,
                               params={"c": c, "beta": beta})


def parity_design_rule(c: int = 30, beta: int = 2, max_index: int = 160) -> PartialQuotientSpec:
    """All-odd quotients with boosted slots arranged so that q_{t_k} is odd,
    p_{t_k} alternates even/odd along the plan positions, and the growth
    condition a_{t_k+1} >= k^beta holds."""
    c, beta = _design_params({"c": c, "beta": beta})   # stored as Python ints
    return PartialQuotientSpec(name="parity_design", max_index=max_index,
                               params={"c": c, "beta": beta})


# ---------------------------------------------------------------------------
# Rational truncation: alpha frozen as p_M/q_M
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalTruncation:
    """alpha treated as exactly p_M/q_M.

    Valid requests keep every integer multiple below q_{M-1}; inside that
    window distances ||k alpha|| computed on the truncation coincide with the
    combinatorics of the irrational rotation.
    """

    spec: PartialQuotientSpec
    level: int
    ps: tuple[int, ...]  # p_0 .. p_M
    qs: tuple[int, ...]  # q_0 .. q_M

    @property
    def p(self) -> int:
        return self.ps[-1]

    @property
    def q(self) -> int:
        return self.qs[-1]

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, self.q)

    @property
    def validity_bound(self) -> int:
        """Largest N such that all k < N are inside the exact window."""
        return self.qs[self.level - 1]

    def a(self, k: int) -> int:
        return self.spec.a(k)

    def _index_above(self, k: int) -> int:
        """The smallest j with q_j > k.  Past the level the recurrence
        q_(j+1) = a_(j+1) q_j + q_(j-1) continues through the spec, a named
        rule read past max_index (the CLI sets max_index to the level); an
        explicit list that ends first gives the index just past its end,
        which no truncation of it reaches.  The walk stops at _LEVEL_CAP:
        past it the index is _LEVEL_CAP + 1, a level no truncation builds."""
        j = bisect.bisect_right(self.qs, k)
        if j <= self.level:
            return j
        j, (prev, q) = self.level, self.qs[-2:]
        while q <= k:
            a = None if _past_cap(j + 1) else self.spec._read(j + 1)
            if a is None:
                return j + 1
            prev, q, j = q, a * q + prev, j + 1
        return j

    def _raise(self, message: str, level: int | None) -> None:
        # the level is reported only where truncation can freeze the spec
        if level is not None and _past_cap(level):
            message += (f"; the request lies beyond level {_LEVEL_CAP}, the "
                        "deepest the cap allows")
            level = None
        known = level is not None and self.spec._read(level) is not None
        raise PrecisionError(f"precision exhausted: {message}",
                             required_level=level if known else None)

    def require_window(self, k: int, what: str = "multiple") -> None:
        """Raise PrecisionError unless 1 <= k < q_(M-1), with the smallest
        level whose window holds k."""
        if not 1 <= k < self.validity_bound:
            self._raise(f"{what} {_decimal(k)} outside window [1, q_(M-1)) = "
                        f"[1, {_decimal(self.validity_bound)}); rebuild with a "
                        "deeper level",
                        self._index_above(k) + 1 if k >= 1 else None)

    def require_level(self, m: int, what: str, *numbers: int) -> None:
        """Raise PrecisionError unless the truncation reaches convergent m,
        for the requests that name a convergent index.  ``what`` is a
        format string for ``numbers``, filled in only on the raising path."""
        if self.level < m:
            what = what.format(*map(_decimal, numbers))
            self._raise(f"{what} needs convergent {m}, truncation at level "
                        f"{self.level}", m)

    def distance(self, k: int) -> Fraction:
        """||k * p_M/q_M|| as an exact rational, for 1 <= k < q_{M-1}."""
        (k,) = _integers("k", k)
        self.require_window(k)
        r = (k * self.p) % self.q
        return Fraction(min(r, self.q - r), self.q)

    def denominator_distance(self, n: int) -> Fraction:
        """||q_n alpha|| exactly; defined for 0 <= n <= M-1."""
        n = _at_least("n", n, 0)
        self.require_level(n + 1, f"||q_{n} alpha||")
        # |q_n p_M - p_n q_M| / q_M, exact by the continuant identity
        return Fraction(abs(self.qs[n] * self.p - self.ps[n] * self.q), self.q)


# Deepest level truncation freezes (billiard-clt's default is 133): `rotsum
# cf` at 1000 takes 0.8 s on a 2-core Xeon, a cost quadratic in the level.
_LEVEL_CAP = 1000


def _decimal(k: int) -> str:
    """k in decimal where Python will print it, else by its bit length: past
    sys.get_int_max_str_digits() digits, str(k) raises ValueError."""
    try:
        return str(k)
    except ValueError:
        return f"a {k.bit_length()}-bit integer"


def _past_cap(level: int) -> bool:
    """Whether truncation refuses ``level`` as deeper than _LEVEL_CAP."""
    return level > _LEVEL_CAP


def truncation(spec: PartialQuotientSpec, level: int) -> RationalTruncation:
    """Freeze the spec at p_level/q_level.  The validity window
    [1, q_(level-1)) must hold a multiple: level 2 does only when a_1 >= 2
    (q_1 = a_1), and every level from 3 on does (q_2 = a_1 a_2 + 1)."""
    (level,) = _integers("truncation level", level)
    if level > spec.max_index:
        raise SpecExhaustedError(f"spec exhausted: convergent {level} needs "
                                 f"a_{level}, max_index={spec.max_index}")
    if _past_cap(level):
        raise ConfigError(f"truncation level {level} exceeds the cap "
                          f"{_LEVEL_CAP}")
    ps, qs = [1, 0], [0, 1]
    for k in range(1, level + 1):
        a = spec.a(k)
        ps.append(a * ps[-1] + ps[-2])
        qs.append(a * qs[-1] + qs[-2])
    if level < 2 or qs[level] < 2:      # qs[level] is q_(level-1)
        least = 2 if spec.a(1) >= 2 else 3
        raise ConfigError(f"truncation level {level} leaves the validity "
                          "window [1, q_(level-1)) empty; the smallest level "
                          f"with a nonempty window is {least}")
    return RationalTruncation(spec=spec, level=level, ps=tuple(ps[1:]),
                              qs=tuple(qs[1:]))


# Levels a designed truncation reaches beyond the deepest index an experiment
# queries; with levels >= 1, GUARD >= 2 freezes at level 3 or deeper, whose
# validity window [1, q_(M-1)) is nonempty whatever a_1 is.
GUARD = 5


def design_alpha(spec: PartialQuotientSpec, levels: int) -> RationalTruncation:
    """Freeze ``spec`` ``GUARD`` levels beyond every index the experiment
    will query (1..levels)."""
    levels = _at_least("levels", levels, 1)
    level = levels + GUARD
    if level > spec.max_index:
        raise SpecExhaustedError(
            f"design needs level {level} but spec max_index={spec.max_index}")
    return truncation(spec, level)


# ---------------------------------------------------------------------------
# Ostrowski numeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OstrowskiDigits:
    """Greedy expansion N = sum_k b_k q_k with the digit constraints
    0 <= b_0 <= a_1 - 1,  0 <= b_k <= a_{k+1} (k < m),  1 <= b_m <= a_{m+1}."""

    digits: tuple[int, ...]        # b_0 .. b_m
    partial_sums: tuple[int, ...]  # N_0 .. N_m, N_l = sum_{k<=l} b_k q_k

    @property
    def m(self) -> int:
        return len(self.digits) - 1

    @property
    def value(self) -> int:
        return self.partial_sums[-1]

    def digit_sum(self) -> int:
        return sum(self.digits)


def ostrowski_digits(N: int, trunc: RationalTruncation) -> OstrowskiDigits:
    """Most-significant-first greedy expansion of N >= 1 in the basis (q_k)."""
    N = _at_least("N", N, 1)
    qs = trunc.qs
    # the digits run up to the m with q_m <= N < q_(m+1), so level m + 1
    trunc.require_level(trunc._index_above(N),
                        "the Ostrowski expansion of N={}", N)
    m = trunc.level - 1
    while m > 0 and qs[m] > N:
        m -= 1
    digits = [0] * (m + 1)
    rem = N
    for k in range(m, -1, -1):
        digits[k], rem = divmod(rem, qs[k])
    if rem:
        raise CertificateError(f"Ostrowski digits of N={N} leave {rem}")
    sums, acc = [], 0
    for k in range(m + 1):
        acc += digits[k] * qs[k]
        sums.append(acc)
    return OstrowskiDigits(digits=tuple(digits), partial_sums=tuple(sums))


def beta_from_ostrowski(b: Sequence[int] | dict[int, int],
                        trunc: RationalTruncation) -> Fraction:
    """beta = sum_n b_n q_n alpha mod 1, exactly, all indices inside the window."""
    pairs = b.items() if isinstance(b, dict) else enumerate(b)
    items = [(n, coeff) for n, coeff in
             (_integers("Ostrowski indices and digits", *pair) for pair in pairs)
             if coeff]
    if items:
        top = max(_at_least("Ostrowski index", n, 0) for n, _ in items)
        # every q_n must lie inside the window [1, q_(M-1))
        trunc.require_level(top + 2, f"Ostrowski index {top}")
    total = Fraction(0)
    for n, coeff in items:
        total += coeff * trunc.qs[n] * trunc.value
    return Fraction(*_point("beta", total))
