"""Zero-mean bounded-variation observables on the circle.

One concrete kind, ``StepFunction``: exact rational breakpoints, the value
at each (closed-left / open-right pieces; the value at a breakpoint
follows the piece to its right) and one integer ``slope`` by which every
piece rises.  The exact engines read its one exact form: ``jumps()``, the
jump phi(t) - phi(t-) at each point t where phi jumps (the wrap at 0
included), plus the slope.  The variation is the cyclic sum of absolute
jumps plus |slope|.  The slope adds nothing to the Fourier coefficients at
r != 0, which have the closed form

    c_r = gamma_r / r,   gamma_r = (1 / 2 pi i) * sum_jumps J * e^{-2 pi i r t},

so sup_r |gamma_r| <= sum |J| / (2 pi) =: K.  gamma_r has the period D in
r, the lcm of the jump denominators; every table of it is at most _RMAX long.

The paper's examples are the step functions of the catalog (slope 0) and
the centered fractional part {x} - 1/2, built by ``Sawtooth``: slope 1 and
one jump -1 at 0, so its gamma_r is the constant i/(2 pi).  It is the
normalizing observable for the variance machinery and is exactly
invariant under the periodization transfer.

The periodization transfer ("hat") of an observable at modulus l is

    hat_phi_l(x) = sum_{r != 0} (gamma_{r l} / r) e^{2 pi i r x},
    hat_phi_l(l x) = sum_{j < l} phi(x + j/l),

which is again such an observable: each jump J at t becomes a jump J at
{l t}, the slope stays and the mean is multiplied by l.  Observables are
built, shifted and transferred from their jumps and slope alone, so the
transfer costs O(#jumps) at any l.
"""

from __future__ import annotations

import bisect
import cmath
import inspect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError, _at_least, _integers, _point, _rational

__all__ = [
    "StepFunction",
    "Sawtooth",
    "Observable",
    "VectorObservable",
    "catalog",
    "hat_observable",
    "reduce_phases",
    "gamma_array",
    "gamma_sq_array",
    "series_weights",
    "hat_norm_sq",
    "PHI0_HAT_NORM_SQ",
]

TWO_PI = 2.0 * math.pi

# Per-term hat norm of the centered fractional part: sum_{r!=0} (1/4pi^2)/r^2
# = (1/4pi^2) * (pi^2/3) = 1/12, independent of the modulus.
PHI0_HAT_NORM_SQ = 1.0 / 12.0


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-linear observable with one integer ``slope``: ``values[i]``
    is the value at breakpoints[i], and on [breakpoints[i], breakpoints[i+1])
    it rises by ``slope`` per unit, the last piece wrapping to 1.

    Breakpoints and values are exact (int or Fraction); breakpoints lie in
    [0,1) with breakpoints[0] == 0.
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    label: str = "step"
    slope: int = 0

    def __post_init__(self):
        object.__setattr__(self, "slope", *_integers("slope", self.slope))
        if any(not isinstance(v, (int, Fraction))
               for v in self.breakpoints + self.values):
            raise ConfigError("breakpoints and values must be int or Fraction")
        if not self.breakpoints or self.breakpoints[0] != 0:
            raise ConfigError("breakpoints must start at 0")
        if any(not 0 <= b < 1 for b in self.breakpoints):
            raise ConfigError("breakpoints must lie in [0,1)")
        if any(b2 <= b1 for b1, b2 in zip(self.breakpoints, self.breakpoints[1:])):
            raise ConfigError("breakpoints must be strictly increasing")
        if len(self.values) != len(self.breakpoints):
            raise ConfigError("need one value per piece")

    # -- basic structure ----------------------------------------------------

    def piece_index(self, x: Fraction) -> int:
        return bisect.bisect_right(self.breakpoints, Fraction(*_point("x", x))) - 1

    def evaluate(self, x: Fraction):
        i = self.piece_index(x)
        if not self.slope:
            return self.values[i]
        x = Fraction(*_point("x", x))
        return self.values[i] + self.slope * (x - self.breakpoints[i])

    def lengths(self) -> tuple[Fraction, ...]:
        bs = self.breakpoints
        out = [bs[i + 1] - bs[i] for i in range(len(bs) - 1)]
        out.append(1 - bs[-1])
        return tuple(out)

    def mean(self):
        half = Fraction(self.slope, 2)
        return sum((v + half * l) * l
                   for v, l in zip(self.values, self.lengths()))

    def jumps(self) -> dict[Fraction, object]:
        """Jump phi(t) - phi(t-) at each breakpoint t, wrap at 0 included:
        the value at t less the end value of the piece before it."""
        s, bs, vs = self.slope, self.breakpoints, self.values
        out = {}
        for i, b in enumerate(bs):
            j = vs[i] - vs[i - 1]
            if s:   # the piece before rises over b - bs[i-1], or 1 - bs[-1]
                j -= s * ((b or 1) - bs[i - 1])
            if j != 0:
                out[b] = j
        return out

    def variation(self):
        """Cyclic total variation: sum of |jumps| (the wrap at 0 included)
        plus |slope|, the rise over the circle."""
        return sum(abs(j) for j in self.jumps().values()) + abs(self.slope)

    def kbound(self) -> float:
        """K with |r c_r| <= K for all r != 0: the slope adds nothing to
        gamma_r, so K = sum |jumps| / (2 pi)."""
        return float(self.variation() - abs(self.slope)) / TWO_PI

    def norm_sq(self):
        """Exact squared L2 norm: a piece of length l starting at v adds
        l (v^2 + s v l + s^2 l^2 / 3) for the slope s."""
        s = self.slope
        return sum(l * (v * v + s * v * l + Fraction(s * s, 3) * l * l)
                   for v, l in zip(self.values, self.lengths()))

    def sup_abs(self):
        """sup |phi|: the largest |value| at either end of a piece."""
        return max(abs(e) for v, l in zip(self.values, self.lengths())
                   for e in (v, v + self.slope * l))

    # -- Fourier ------------------------------------------------------------

    def fourier_gamma(self, r: int) -> complex:
        """gamma_r = r c_r via the jump closed form; |gamma_r| <= K."""
        (r,) = _integers("r", r)
        if r == 0:
            raise ConfigError("gamma_r is defined for r != 0")
        acc = 0j
        for t, j in self.jumps().items():
            # exact reduction of r*t mod 1 keeps the phase accurate for huge r
            u, v = _point("phase", r * t)
            acc += float(j) * cmath.exp(-2j * math.pi * (u / v))
        return acc / (2j * math.pi)

    def shifted(self, delta: Fraction) -> "StepFunction":
        """The observable x -> phi(x + delta): each jump moves to t - delta."""
        delta = _rational("shift", delta)
        return _step_from_jumps(
            ((t - delta, j) for t, j in self.jumps().items()), self.mean(),
            f"{self.label}+shift", self.slope)


class Sawtooth(StepFunction):
    """The centered fractional part {x} - 1/2: -1/2 at 0, slope 1 and one
    jump -1 at 0."""

    def __init__(self, label: str = "phi0"):
        super().__init__((Fraction(0),), (Fraction(-1, 2),), label, 1)


Observable = StepFunction


def _scalar(phi) -> Observable:
    """``phi`` itself; ConfigError unless it is a scalar observable, one with
    jumps.  Every reader of an observable's jumps calls it first."""
    if not hasattr(phi, "jumps"):
        raise ConfigError(
            f"{type(phi).__name__} {getattr(phi, 'label', '')!r} is not a "
            "scalar observable; use its components one at a time")
    return phi


@dataclass(frozen=True)
class VectorObservable:
    """Pair of scalar observables sharing the same rotation."""

    phi1: Observable
    phi2: Observable
    label: str = "vector"

    def __post_init__(self):
        _scalar(self.phi1)
        _scalar(self.phi2)

    @property
    def components(self) -> tuple[Observable, Observable]:
        return (self.phi1, self.phi2)


# ---------------------------------------------------------------------------
# Module-level conveniences
# ---------------------------------------------------------------------------

def _step_from_jumps(pairs, mean, label: str, slope: int = 0) -> StepFunction:
    """The observable with a jump J at each (t, J) of ``pairs``, the given
    ``mean`` and ``slope``; the jumps of a periodic function sum to -slope.

    Each point is read mod 1, jumps at one point are summed and zero jumps
    dropped.  Breakpoint 0 stays even without a jump; the value at each
    breakpoint b is the running sum of the jumps plus slope * b, plus the
    constant that fixes the mean.
    """
    jumps = {}
    for t, j in pairs:
        t = Fraction(*_point("jump point", t))
        jumps[t] = jumps.get(t, 0) + j
    bs = tuple(sorted({Fraction(0)} | {t for t, j in jumps.items() if j}))
    vals = [v + slope * b for v, b in
            zip(itertools.accumulate(jumps.get(b, 0) for b in bs), bs)]
    c = mean - StepFunction(bs, tuple(vals), label, slope).mean()
    return StepFunction(bs, tuple(v + c for v in vals), label, slope)


def _step_from_intervals(intervals, label: str) -> StepFunction:
    """Centered sum of v * 1_{[u,w)}; intervals are (u, w, v), each read mod
    1, so that w > 1 wraps: a jump +v at u and -v at w."""
    return _step_from_jumps(
        (pair for u, w, v in intervals for pair in ((u, v), (w, -v))), 0, label)


def indicator(beta: Fraction) -> StepFunction:
    """1_{[0,beta)} - beta."""
    beta = _rational("beta", beta)
    if not 0 < beta < 1:
        raise ConfigError("beta must be in (0,1)")
    return _step_from_intervals([(Fraction(0), beta, 1)], f"indicator(beta={beta})")


def half() -> StepFunction:
    """1_{[0,1/2)} - 1_{[1/2,1)}."""
    return _step_from_intervals(
        [(Fraction(0), Fraction(1, 2), 1), (Fraction(1, 2), Fraction(1), -1)],
        "half",
    )


def double_interval(beta: Fraction, gamma: Fraction) -> StepFunction:
    """1_{[0,beta)} - 1_{[gamma, gamma+beta)} (second interval mod 1)."""
    beta, gamma = _rational("beta", beta), _rational("gamma", gamma)
    if not (0 < beta < 1 and 0 < gamma < 1):
        raise ConfigError("beta, gamma must be in (0,1)")
    return _step_from_intervals([(Fraction(0), beta, 1),
                                 (gamma, gamma + beta, -1)],
                                f"double(beta={beta},gamma={gamma})")


def half_shifted(beta: Fraction) -> StepFunction:
    """1_{[0,beta)} - 1_{[1/2, 1/2+beta)}: only odd frequencies survive."""
    beta = _rational("beta", beta)
    if not 0 < beta < Fraction(1, 2):
        raise ConfigError("beta must be in (0,1/2)")
    return double_interval(beta, Fraction(1, 2))


def billiard_pair(alpha: Fraction) -> VectorObservable:
    """The odd-frequency pair with widths alpha/2 and 1/2 - alpha/2."""
    alpha = _rational("alpha", alpha)
    if not 0 < alpha < 1:
        raise ConfigError("alpha must be in (0,1)")
    phi1 = half_shifted(alpha / 2)
    phi2 = half_shifted(Fraction(1, 2) - alpha / 2)
    return VectorObservable(phi1, phi2, label=f"billiard_pair(alpha={alpha})")


def billiard_displacement(alpha: Fraction) -> VectorObservable:
    """Cell-displacement components of the diagonal billiard:
    psi1 = 1_{[1/2-a/2, 1/2)} - 1_{[1-a/2, 1)},
    psi2 = 1_{[0, 1/2-a/2)} - 1_{[1/2, 1-a/2)}   (a = alpha)."""
    alpha = _rational("alpha", alpha)
    if not 0 < alpha < 1:
        raise ConfigError("alpha must be in (0,1)")
    h = alpha / 2
    psi1 = _step_from_intervals(
        [(Fraction(1, 2) - h, Fraction(1, 2), 1), (1 - h, Fraction(1), -1)],
        f"psi1(alpha={alpha})",
    )
    psi2 = _step_from_intervals(
        [(Fraction(0), Fraction(1, 2) - h, 1), (Fraction(1, 2), 1 - h, -1)],
        f"psi2(alpha={alpha})",
    )
    return VectorObservable(psi1, psi2, label=f"billiard_displacement(alpha={alpha})")


_CATALOG = {
    "phi0": lambda: Sawtooth(),
    "indicator": indicator,
    "half": half,
    "double_interval": double_interval,
    "half_shifted": half_shifted,
    "billiard_pair": billiard_pair,
    "billiard_displacement": billiard_displacement,
}


def catalog(name: str, **params):
    """Named observables; interval parameters are exact rationals.  Each name
    takes exactly its builder's parameters."""
    try:
        builder = _CATALOG[name]
    except KeyError:
        raise ConfigError(
            f"unknown observable {name!r}; known: {sorted(_CATALOG)}") from None
    try:
        inspect.signature(builder).bind(**params)
    except TypeError as exc:
        raise ConfigError(f"observable {name!r}: {exc}") from None
    return builder(**params)


# ---------------------------------------------------------------------------
# Periodization transfer
# ---------------------------------------------------------------------------

def hat_observable(phi: Observable, ell: int) -> Observable:
    """hat_phi_ell with hat_phi_ell(ell x) = sum_{j<ell} phi(x + j/ell).

    Each jump J at t becomes a jump J at {ell t}, the slope stays (ell
    terms of slope s read at y / ell) and the mean is ell * mean(phi):
    O(#jumps) exact work at any ell.  The sawtooth is its own transfer.
    """
    ell = _at_least("ell", ell, 1)
    if ell == 1:
        return _scalar(phi)
    return _step_from_jumps(
        ((ell * t, j) for t, j in _scalar(phi).jumps().items()),
        ell * phi.mean(), f"hat({phi.label},{ell})", phi.slope)


# Largest bound on r * den for which residue tables stay in int64.
_INT64_SAFE = 2 ** 62
# r values per vectorized pass, so that temporaries stay small.
_PHASE_CHUNK = 4096
# Largest Fourier table (r = 1..rmax) any computation builds, below the
# 2**26 that _certified_phases needs: the scan of diagnostic_inequalities,
# and norm_sq up to n = 1000.
_RMAX = 100_000


def _table_length(rmax) -> int:
    """``rmax`` as a Fourier table's length, 1 to _RMAX; every table entry
    point reads its length here before it allocates."""
    rmax = _at_least("rmax", rmax, 1)
    if rmax > _RMAX:
        raise ConfigError(f"a Fourier table of {rmax} frequencies exceeds "
                          f"the cap {_RMAX}")
    return rmax


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and a + b = s + e exactly (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _certified_phases(num: int, den: int, rmax: int):
    """{r * num/den} for r = 1..rmax in double-double arithmetic, each entry
    equal to ((r * num) % den) / den: those the error bound cannot round are
    recomputed from the exact residue."""
    fracs = np.empty(rmax, dtype=np.float64)
    theta_hi = num / den
    theta_lo = float(Fraction(num, den) - Fraction(theta_hi))
    # exact split theta_hi = a1 + a2 into its top 26 and low 27 mantissa bits
    m, ex = math.frexp(theta_hi)
    mant = int(m * 2 ** 53)
    a1 = math.ldexp(mant >> 27, ex - 26)
    a2 = math.ldexp(mant & (2 ** 27 - 1), ex - 53)
    # Error bound.  For r < 2**26, r a1 and p2 = r a2 are exact (at most 53
    # bits, none below theta_hi's last), p1 = {r a1} is exact, s_hi + s_lo =
    # p1 + p2 exactly and u = {s_hi} >= 0 exactly.  Three roundings remain:
    # theta_lo = theta - theta_hi - delta with |delta| <= 2**-53 |theta_lo|
    # + 2**-1075, t = fl(r theta_lo) and w = fl(s_lo + t), each off by at
    # most 2**-53 of its result plus 2**-1075 (the subnormal half-spacing).
    # With u + w = f + e exactly (TwoSum),
    #     {r theta} = f + e + d (mod 1),  |d| <= 2**-51 (|t| + |w|) + 2**-1040,
    # and E = 2**-50 (|t| + |s_lo| + |w|) + 2**-1000 is at least twice that,
    # which absorbs the rounding of E and of the tests below.  Unless f is a
    # power of two its rounding interval is f +- ulp(f)/2, and TwoSum gives
    # |e| <= ulp(f)/2; so when ulp(f)/2 - |e| > E and 4E < f < 1 - 4E, the
    # value f + e + d lies strictly inside that interval and inside (0, 1),
    # and f is the correctly rounded {r theta}.  Every other entry is
    # recomputed from the exact residue.
    mantissa = np.int64(2 ** 52 - 1)
    for start in range(0, rmax, _PHASE_CHUNK):
        stop = min(start + _PHASE_CHUNK, rmax)
        r = np.arange(start + 1, stop + 1, dtype=np.float64)
        p1 = r * a1
        p1 -= np.floor(p1)
        s_hi, s_lo = _two_sum(p1, r * a2)
        u = s_hi - np.floor(s_hi)
        t = r * theta_lo
        w = s_lo + t
        f, e = _two_sum(u, w)
        bound = (2.0 ** -50 * (np.abs(t) + np.abs(s_lo) + np.abs(w))
                 + 2.0 ** -1000)
        half_ulp = np.spacing(f) / 2
        undecided = ((np.abs(np.abs(e) - half_ulp) <= bound)
                     | (f <= 4 * bound) | (f >= 1 - 4 * bound)
                     | (half_ulp <= 4 * bound)
                     | ((f.view(np.int64) & mantissa) == 0))
        fracs[start:stop] = f
        for k in (start + 1 + np.flatnonzero(undecided)).tolist():
            fracs[k - 1] = (k * num % den) / den
    return fracs


def reduce_phases(num: int, den: int, rmax: int):
    """{r * num/den} for r = 1..rmax, reduced exactly: (residues, fracs).

    Every Fourier table reduces its phases here, in one of two regimes:

    * while every product fits (den < 2**62 // rmax), ``residues`` are the
      int64 numerators (r * num) mod den and ``fracs`` their float64
      quotients by den (from the double-double path below once den >= 2**53,
      where a residue would round to float64 before the division);
    * beyond that ``residues`` is None and ``fracs`` are computed in
      vectorized double-double arithmetic (theta = num/den split exactly
      into a correctly rounded head and a rounded tail, the head's mantissa
      into its top 26 and low 27 bits) with a certified error bound.  Every
      entry the bound cannot round correctly is recomputed from its exact
      Python-int residue, so each value equals ``((r * num) % den) / den``
      bit for bit at any width of den.
    """
    rmax = _table_length(rmax)
    num %= den
    if den < _INT64_SAFE // rmax:
        r = np.arange(1, rmax + 1, dtype=np.int64)
        res = (r * np.int64(num)) % np.int64(den)
        if den >= 2 ** 53:
            return res, _certified_phases(num, den, rmax)
        return res, res.astype(np.float64) / den
    return None, _certified_phases(num, den, rmax)


def gamma_array(phi: Observable, stride, rmax: int):
    """gamma_{stride * r} for r = 1..rmax as a complex vector.

    ``stride`` may be an arbitrarily large integer: each jump phase is
    reduced exactly once to theta = {stride * t}.  gamma_{stride * r}
    depends only on r mod D, D the lcm of the theta denominators, so the
    table is built on one period of min(D, rmax) entries and tiled to rmax,
    bit for bit equal to the full-length table.
    """
    rmax = _table_length(rmax)
    (stride,) = _integers("stride", stride)
    thetas = [(*_point("theta", stride * t), float(j))
              for t, j in _scalar(phi).jumps().items()]
    period = min(math.lcm(*(v for _, v, _ in thetas)), rmax)
    acc = np.zeros(period, dtype=complex)
    for u, v, jump in thetas:
        acc += jump * np.exp(-2j * math.pi * reduce_phases(u, v, period)[1])
    acc /= 2j * math.pi
    return acc if period == rmax else np.tile(acc, -(-rmax // period))[:rmax]


def gamma_sq_array(phi: Observable, stride, rmax: int):
    """|gamma_{stride * r}|^2 for r = 1..rmax; the sawtooth's is 1/(4 pi^2)."""
    rmax = _table_length(rmax)
    _integers("stride", stride)
    if isinstance(phi, Sawtooth):
        return np.full(rmax, 1.0 / (4.0 * math.pi ** 2))
    g = gamma_array(phi, stride, rmax)
    return (g * g.conjugate()).real


def series_weights(gam_sq):
    """2 |gamma_r|^2 / r^2 for r = 1..len(gam_sq), from |gamma_r|^2.

    Every Fourier norm in the package is sum_r weights[r-1] * kernel(r):
    the periodized norm (kernel 1), ||S_n phi||^2 (G_n), its Cesaro mean
    and the billiard drift.
    """
    r = np.arange(1, len(gam_sq) + 1, dtype=np.float64)
    return 2.0 * gam_sq / (r * r)


# Series length of hat_norm_sq.
_HAT_RMAX = 4000


def hat_norm_sq(phi: Observable, ell: int) -> tuple[float, float]:
    """(value, tail_bound) for ||hat_phi_ell||_2^2 = sum_{r != 0} |gamma_{r ell}|^2 / r^2.

    The sawtooth is exact (1/12, tail 0).  Otherwise the series is truncated
    at |r| <= _HAT_RMAX with tail <= 2 K^2 / _HAT_RMAX.  Phases of
    gamma_{r ell} are reduced exactly even when ell has hundreds of digits.
    """
    ell = _at_least("ell", ell, 1)
    if isinstance(_scalar(phi), Sawtooth):
        return PHI0_HAT_NORM_SQ, 0.0
    k = phi.kbound()
    total = float(np.sum(series_weights(gamma_sq_array(phi, ell, _HAT_RMAX))))
    return total, 2.0 * k * k / _HAT_RMAX
