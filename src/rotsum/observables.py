"""Zero-mean bounded-variation observables on the circle.

Two concrete kinds, with one exact form that the exact engines read:
``jumps()``, the jump phi(t) - phi(t-) at each point t where phi jumps
(the wrap at 0 included), plus a constant ``slope`` between the jumps.

* ``StepFunction`` -- piecewise constant with exact rational breakpoints
  (closed-left / open-right pieces; the value at a breakpoint follows the
  piece to its right), so its slope is 0.  The variation is the cyclic sum
  of absolute jumps, wrap at 0 included, and the Fourier coefficients have
  the closed form

      c_r = gamma_r / r,   gamma_r = (1 / 2 pi i) * sum_jumps J * e^{-2 pi i r t},

  so sup_r |gamma_r| <= V/(2 pi) =: K.

* ``Sawtooth`` -- the centered fractional part {x} - 1/2: slope 1 and one
  jump -1 at 0.  Its gamma_r is the constant i/(2 pi).  It is the
  normalizing observable for the variance machinery and is exactly
  invariant under the periodization transfer.

The periodization transfer ("hat") of an observable at modulus l is

    hat_phi_l(x) = sum_{r != 0} (gamma_{r l} / r) e^{2 pi i r x},
    hat_phi_l(l x) = sum_{j < l} phi(x + j/l),

which for a step function is again a step function: each jump J at t
becomes a jump J at {l t}, and the mean is multiplied by l.  Step functions
are built, shifted and transferred from their jumps alone, so the transfer
costs O(#jumps) at any l.
"""

from __future__ import annotations

import bisect
import cmath
import inspect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ConfigError, _integers, _rational

__all__ = [
    "StepFunction",
    "Sawtooth",
    "Observable",
    "VectorObservable",
    "SmoothnessBudget",
    "catalog",
    "hat_observable",
    "reduce_phases",
    "phase_fracs",
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


def _frac(x) -> Fraction:
    x = Fraction(x)
    return x - (x.numerator // x.denominator)


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant observable; ``values[i]`` holds on
    [breakpoints[i], breakpoints[i+1]) with the last piece wrapping to 1.

    Breakpoints and values are exact (int or Fraction); breakpoints lie in
    [0,1) with breakpoints[0] == 0.
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    label: str = "step"
    slope = 0       # constant between breakpoints (not a dataclass field)

    def __post_init__(self):
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

    def piece_index(self, x) -> int:
        return bisect.bisect_right(self.breakpoints, _frac(x)) - 1

    def evaluate(self, x):
        return self.values[self.piece_index(x)]

    def lengths(self) -> tuple[Fraction, ...]:
        bs = self.breakpoints
        out = [bs[i + 1] - bs[i] for i in range(len(bs) - 1)]
        out.append(1 - bs[-1])
        return tuple(out)

    def mean(self):
        return sum(v * l for v, l in zip(self.values, self.lengths()))

    def jumps(self) -> dict[Fraction, object]:
        """Jump (value_right - value_left) at each breakpoint, wrap included."""
        out = {}
        k = len(self.values)
        for i, b in enumerate(self.breakpoints):
            j = self.values[i] - self.values[(i - 1) % k]
            if j != 0:
                out[b] = j
        return out

    def variation(self):
        """Cyclic total variation: sum of |jumps| including the wrap at 0."""
        return sum(abs(j) for j in self.jumps().values())

    def kbound(self) -> float:
        """K with |r c_r| <= K for all r != 0; from jumps, K = V/(2 pi)."""
        return float(self.variation()) / TWO_PI

    def norm_sq(self):
        """Exact squared L2 norm."""
        return sum(v * v * l for v, l in zip(self.values, self.lengths()))

    def sup_abs(self):
        return max(abs(v) for v in self.values)

    # -- Fourier ------------------------------------------------------------

    def fourier_gamma(self, r: int) -> complex:
        """gamma_r = r c_r via the jump closed form; |gamma_r| <= K."""
        if r == 0:
            raise ConfigError("gamma_r is defined for r != 0")
        acc = 0j
        for t, j in self.jumps().items():
            # exact reduction of r*t mod 1 keeps the phase accurate for huge r
            acc += float(j) * cmath.exp(-2j * math.pi * float(_frac(r * t)))
        return acc / (2j * math.pi)

    def shifted(self, delta: Fraction) -> "StepFunction":
        """The observable x -> phi(x + delta): each jump moves to t - delta."""
        delta = _rational("shift", delta)
        return _step_from_jumps(
            ((t - delta, j) for t, j in self.jumps().items()), self.mean(),
            f"{self.label}+shift")


@dataclass(frozen=True)
class Sawtooth:
    """The centered fractional part {x} - 1/2: slope 1 and one jump -1 at 0."""

    label: str = "phi0"
    slope = 1       # not a dataclass field

    def evaluate(self, x):
        return _frac(x) - Fraction(1, 2)

    def jumps(self) -> dict[Fraction, Fraction]:
        """The wrap jump at 0, the only one; the slope carries the rest."""
        return {Fraction(0): Fraction(-1)}

    def mean(self):
        return Fraction(0)

    def variation(self):
        # cyclic convention: continuous rise 1 plus the wrap jump of 1
        return Fraction(2)

    def kbound(self) -> float:
        return 1.0 / TWO_PI

    def norm_sq(self):
        return Fraction(1, 12)

    def sup_abs(self):
        return Fraction(1, 2)

    def fourier_gamma(self, r: int) -> complex:
        if r == 0:
            raise ConfigError("gamma_r is defined for r != 0")
        return 1j / TWO_PI  # -1/(2 pi i)


Observable = Union[StepFunction, Sawtooth]


@dataclass(frozen=True)
class VectorObservable:
    """Pair of scalar observables sharing the same rotation."""

    phi1: Observable
    phi2: Observable
    label: str = "vector"

    @property
    def components(self) -> tuple[Observable, Observable]:
        return (self.phi1, self.phi2)


@dataclass(frozen=True)
class SmoothnessBudget:
    """Uniform regularity data: sup-norm and L2-norm bounds plus the Fourier
    tail envelope R(f, t) <= C_R t^{-gamma} (gamma = 1/2, C_R = 2K for BV)."""

    m_inf: float
    phi2: float
    c_r: float
    gamma: float = 0.5

    def __post_init__(self):
        if not (self.m_inf > 0 and self.phi2 > 0 and self.c_r > 0 and self.gamma > 0):
            raise ConfigError("all budget entries must be finite and positive")

    @staticmethod
    def from_observable(phi: Observable) -> "SmoothnessBudget":
        return SmoothnessBudget(
            m_inf=float(phi.sup_abs()),
            phi2=math.sqrt(float(phi.norm_sq())),
            c_r=2.0 * phi.kbound(),
        )

    def tail_envelope(self, t: float) -> float:
        return self.c_r * t ** (-self.gamma)


# ---------------------------------------------------------------------------
# Module-level conveniences
# ---------------------------------------------------------------------------

def _step_from_jumps(pairs, mean, label: str) -> StepFunction:
    """The step function with a jump J at each (t, J) of ``pairs`` and the
    given ``mean``; the jumps of a periodic function sum to 0.

    Each point is read mod 1, jumps at one point are summed and zero jumps
    dropped.  Breakpoint 0 stays even without a jump; the values are the
    running sums of the jumps plus the constant that fixes the mean.
    """
    jumps = {}
    for t, j in pairs:
        t = Fraction(t) % 1
        jumps[t] = jumps.get(t, 0) + j
    bs = sorted({Fraction(0)} | {t for t, j in jumps.items() if j})
    vals = list(itertools.accumulate(jumps.get(b, 0) for b in bs))
    lengths = [e - b for b, e in zip(bs, bs[1:] + [1])]
    c = mean - sum(v * l for v, l in zip(vals, lengths))
    return StepFunction(tuple(bs), tuple(v + c for v in vals), label=label)


def _step_from_intervals(intervals, label: str) -> StepFunction:
    """Centered sum of v * 1_{[u,w)}; intervals are (u, w, v), each read mod
    1, so that w > 1 wraps: a jump +v at u and -v at w."""
    return _step_from_jumps(
        (pair for u, w, v in intervals for pair in ((u, v), (w, -v))), 0, label)


def indicator(beta: Fraction) -> StepFunction:
    """1_{[0,beta)} - beta."""
    beta = Fraction(beta)
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
    beta, gamma = Fraction(beta), Fraction(gamma)
    if not (0 < beta < 1 and 0 < gamma < 1):
        raise ConfigError("beta, gamma must be in (0,1)")
    return _step_from_intervals([(Fraction(0), beta, 1),
                                 (gamma, gamma + beta, -1)],
                                f"double(beta={beta},gamma={gamma})")


def half_shifted(beta: Fraction) -> StepFunction:
    """1_{[0,beta)} - 1_{[1/2, 1/2+beta)}: only odd frequencies survive."""
    beta = Fraction(beta)
    if not 0 < beta < Fraction(1, 2):
        raise ConfigError("beta must be in (0,1/2)")
    return double_interval(beta, Fraction(1, 2))


def billiard_pair(alpha: Fraction) -> VectorObservable:
    """The odd-frequency pair with widths alpha/2 and 1/2 - alpha/2."""
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ConfigError("alpha must be in (0,1)")
    phi1 = half_shifted(alpha / 2)
    phi2 = half_shifted(Fraction(1, 2) - alpha / 2)
    return VectorObservable(phi1, phi2, label=f"billiard_pair(alpha={alpha})")


def billiard_displacement(alpha: Fraction) -> VectorObservable:
    """Cell-displacement components of the diagonal billiard:
    psi1 = 1_{[1/2-a/2, 1/2)} - 1_{[1-a/2, 1)},
    psi2 = 1_{[0, 1/2-a/2)} - 1_{[1/2, 1-a/2)}   (a = alpha)."""
    alpha = Fraction(alpha)
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

def _require_ell(ell) -> int:
    (ell,) = _integers("ell", ell)
    if ell < 1:
        raise ConfigError(f"ell must be >= 1, got {ell}")
    return ell


def hat_observable(phi: Observable, ell: int) -> Observable:
    """hat_phi_ell with hat_phi_ell(ell x) = sum_{j<ell} phi(x + j/ell).

    For a step function each jump J at t becomes a jump J at {ell t}, and
    the mean is ell * mean(phi): O(#jumps) exact work at any ell.
    """
    ell = _require_ell(ell)
    if isinstance(phi, Sawtooth):
        return phi  # gamma_{r ell} = gamma_r: the transfer fixes the sawtooth
    if ell == 1:
        return phi
    return _step_from_jumps(((ell * t, j) for t, j in phi.jumps().items()),
                            ell * phi.mean(), f"hat({phi.label},{ell})")


# Largest bound on r * den for which residue tables stay in int64.
_INT64_SAFE = 2 ** 62
# r below this times a 27-bit part of theta is exact in float64.
_SPLIT_RMAX = 2 ** 26
# r values per vectorized pass, so that temporaries stay small.
_PHASE_CHUNK = 4096


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and a + b = s + e exactly (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _exact_phases(fracs, num: int, den: int, rs) -> None:
    """fracs[r - 1] = ((r * num) % den) / den, one rounding from the residue."""
    for r in rs:
        fracs[r - 1] = (r * num % den) / den


def _certified_phases(num: int, den: int, rmax: int):
    """{r * num/den} for r = 1..rmax in double-double arithmetic, each entry
    equal to ((r * num) % den) / den: those the error bound cannot round are
    recomputed from the exact residue."""
    import numpy as np

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
    nvec = min(rmax, _SPLIT_RMAX - 1)
    for start in range(0, nvec, _PHASE_CHUNK):
        stop = min(start + _PHASE_CHUNK, nvec)
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
        _exact_phases(fracs, num, den,
                      (start + 1 + int(i) for i in np.flatnonzero(undecided)))
    _exact_phases(fracs, num, den, range(nvec + 1, rmax + 1))
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
      entry the bound cannot round correctly, and every r >= 2**26, is
      recomputed from its exact Python-int residue, so each value equals
      ``((r * num) % den) / den`` bit for bit at any width of den.
    """
    import numpy as np

    num %= den
    if den < _INT64_SAFE // max(rmax, 1):
        r = np.arange(1, rmax + 1, dtype=np.int64)
        res = (r * np.int64(num)) % np.int64(den)
        if den >= 2 ** 53:
            return res, _certified_phases(num, den, rmax)
        return res, res.astype(np.float64) / den
    return None, _certified_phases(num, den, rmax)


def phase_fracs(theta: Fraction, rmax: int):
    """{r * theta} for r = 1..rmax as float64, exactly reduced."""
    return reduce_phases(theta.numerator, theta.denominator, rmax)[1]


def _require_rmax(rmax: int) -> None:
    (rmax,) = _integers("rmax", rmax)
    if rmax < 1:
        raise ConfigError(f"rmax must be >= 1, got {rmax}")


def _phase_table(theta: Fraction, rmax: int, fn):
    """fn(phase_fracs(theta, rmax)) for an elementwise ``fn``, built on one
    period and tiled along the last axis.

    {r theta} depends only on r mod den(theta), so fn is evaluated on the
    first min(den, rmax) phases only.  The tiled table equals the
    full-length one bit for bit: with den > rmax the two calls coincide,
    and with den <= rmax both phase tables are small int64 ones whose
    entries are the same exact quotients residue / den.
    """
    import numpy as np

    period = min(theta.denominator, rmax)
    table = fn(phase_fracs(theta, period))
    if period == rmax:
        return table
    return np.tile(table, -(-rmax // period))[..., :rmax]


def gamma_array(phi: Observable, stride, rmax: int):
    """gamma_{stride * r} for r = 1..rmax as a complex vector.

    ``stride`` may be an arbitrarily large integer (or Fraction-compatible):
    each jump phase is reduced exactly once to theta = {stride * t}, and its
    term J e^{-2 pi i r theta} is built on one period of r (den(theta)
    entries at most) and tiled to rmax.
    """
    import numpy as np

    _require_rmax(rmax)
    acc = np.zeros(rmax, dtype=complex)
    for t, j in phi.jumps().items():
        jump = float(j)
        acc += _phase_table(_frac(stride * t), rmax,
                            lambda f: jump * np.exp(-2j * math.pi * f))
    return acc / (2j * math.pi)


def gamma_sq_array(phi: Observable, stride, rmax: int):
    """|gamma_{stride * r}|^2 for r = 1..rmax; the sawtooth's is 1/(4 pi^2)."""
    import numpy as np

    _require_rmax(rmax)
    if isinstance(phi, Sawtooth):
        return np.full(rmax, 1.0 / (4.0 * math.pi ** 2))
    g = gamma_array(phi, stride, rmax)
    return (g * g.conjugate()).real


def series_weights(gam_sq):
    """2 |gamma_r|^2 / r^2 for r = 1..len(gam_sq), from |gamma_r|^2.

    Every Fourier norm in the package is sum_r weights[r-1] * kernel(r):
    the periodized norm (kernel 1), ||S_n phi||^2 (G_n), its Cesaro mean,
    the billiard drift and the periodic-approximation error.
    """
    import numpy as np

    r = np.arange(1, len(gam_sq) + 1, dtype=np.float64)
    return 2.0 * gam_sq / (r * r)


def hat_norm_sq(phi: Observable, ell: int, rmax: int = 4000) -> tuple[float, float]:
    """(value, tail_bound) for ||hat_phi_ell||_2^2 = sum_{r != 0} |gamma_{r ell}|^2 / r^2.

    The sawtooth is exact (1/12, tail 0).  Otherwise the series is truncated
    at |r| <= rmax with tail <= 2 K^2 / rmax.  Phases of gamma_{r ell} are
    reduced exactly even when ell has hundreds of digits.
    """
    import numpy as np

    ell = _require_ell(ell)
    _require_rmax(rmax)
    if isinstance(phi, Sawtooth):
        return PHI0_HAT_NORM_SQ, 0.0
    k = phi.kbound()
    total = float(np.sum(series_weights(gamma_sq_array(phi, ell, rmax))))
    return total, 2.0 * k * k / rmax
