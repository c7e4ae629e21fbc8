"""Fourier-side variance machinery for ergodic sums over a rotation.

The squared L2 norm of the sum S_n phi expands over frequencies as

    ||S_n phi||_2^2 = sum_{r != 0} |gamma_r|^2 / r^2 * G_n(r alpha),
    G_n(t) = sin^2(n pi t) / sin^2(pi t),

and the Cesaro mean over n has the closed form

    <G_n>(t) = (1/n) sum_{k<n} G_k(t)
             = (1/sin^2 pi t) * [ 1/2 - (1/4n) (1 + sin((2n-1) pi t)/sin(pi t)) ].

Every Fourier norm here is the one series sum_r w_r K(r) with the weights
w_r = 2 |gamma_r|^2 / r^2 of ``observables.series_weights``, formed once per
observable and table; only the kernel K changes (G_n, <G_n>).

Angles are reduced exactly: with alpha = p/q frozen rational, n * r * alpha
mod 2 is integer arithmetic, so G_n is evaluated without float drift even
when n * r is large.  The exact piecewise profile (``ergosum``) is the
oracle of record; the Fourier backend is the scalable route with a reported
tail bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .contfrac import RationalTruncation
from .errors import CertificateError, ConfigError, _integers
from .observables import (_INT64_SAFE, Observable, _require_rmax,
                          gamma_sq_array, reduce_phases, series_weights)
from .ergosum import _PROFILE_CAP, orbit_sum_profile

__all__ = [
    "gn_kernel",
    "gn_mean",
    "AlphaFourierTable",
    "norm_sq",
    "mean_variance",
    "bound_series",
    "diagnostic_inequalities",
    "VarianceProfile",
    "variance_profile",
]


def _finite(t) -> float:
    t = float(t)
    if not math.isfinite(t):
        raise ConfigError(f"t must be finite, got {t}")
    return t


def gn_kernel(n: int, t: float) -> float:
    """G_n(t) = sin^2(n pi t)/sin^2(pi t); G_n(integer) = n^2 (removable)."""
    if n < 0:
        raise ConfigError("n must be >= 0")
    tf = _finite(t) % 1.0
    s = math.sin(math.pi * tf)
    if abs(s) < 1e-14:
        return float(n * n)
    return (math.sin(math.pi * ((n * tf) % 2.0)) / s) ** 2


def _gn_mean_direct(n: int, t: float) -> float:
    """sum(gn_kernel(k, t) for k < n) / n, bit for bit, with the reduction
    of t and its sine done once."""
    tf = float(t) % 1.0
    s = math.sin(math.pi * tf)
    if abs(s) < 1e-14:
        return sum(float(k * k) for k in range(n)) / n
    return sum((math.sin(math.pi * ((k * tf) % 2.0)) / s) ** 2
               for k in range(n)) / n


def gn_mean(n: int, t: float) -> float:
    """<G_n>(t), Cesaro mean of G_0..G_{n-1}, via the closed form.

    Near t = 0 the closed form cancels catastrophically; below n*t ~ 1e-2
    the O(n) direct sum is used instead (exact limit (n-1)(2n-1)/6 at 0).
    """
    if n < 1:
        raise ConfigError("n must be >= 1")
    tf = _finite(t) % 1.0
    tf = min(tf, 1.0 - tf)
    if tf == 0.0:
        return (n - 1) * (2 * n - 1) / 6.0
    if n * tf < 1e-2:
        return _gn_mean_direct(n, tf)
    s = math.sin(math.pi * tf)
    ratio = math.sin(math.pi * (((2 * n - 1) * tf) % 2.0)) / s
    return (0.5 - (1.0 + ratio) / (4.0 * n)) / (s * s)


# ---------------------------------------------------------------------------
# Frequency tables
# ---------------------------------------------------------------------------

class AlphaFourierTable:
    """Distances ||r alpha|| and exactly-reduced kernel angles, r = 1..rmax."""

    def __init__(self, trunc: RationalTruncation, rmax: int):
        trunc.require_window(rmax, "Fourier frequency")
        self.trunc = trunc
        self.rmax = rmax
        q = trunc.q
        # int64 residues r p mod q (None beyond int64) and {r alpha}
        self.num, frac = reduce_phases(trunc.p, q, rmax)
        if self.num is not None:
            # exact integer min keeps tiny distances at full relative accuracy
            self.dist = np.minimum(self.num, np.int64(q) - self.num).astype(
                np.float64) / q
        else:
            self.dist = np.minimum(frac, 1.0 - frac)
        self.sin_dist = np.sin(np.pi * self.dist)

    def _angle_frac(self, mult: int) -> np.ndarray:
        """{mult * r * alpha} reduced mod 2, as float in [0,2)."""
        q = self.trunc.q
        if self.num is not None and mult < _INT64_SAFE // q:
            return ((np.int64(mult) * self.num) % np.int64(2 * q)).astype(
                np.float64) / q
        # {r mult p / 2q} doubled is (r mult p mod 2q) / q, still one rounding
        return 2.0 * reduce_phases(mult * self.trunc.p, 2 * q, self.rmax)[1]

    def gn(self, n: int) -> np.ndarray:
        """G_n(||r alpha||) for r = 1..rmax, exact angle reduction."""
        s_num = np.sin(np.pi * self._angle_frac(n))
        return (s_num / self.sin_dist) ** 2

    def gn_mean(self, n: int) -> np.ndarray:
        # G_k(t) = G_k(1-t), so the closed form may be evaluated at {r alpha}
        # or at the distance interchangeably; the exactly-reduced angle feeds
        # the oscillatory numerator.
        t = self.dist
        s = self.sin_dist
        ratio = np.sin(np.pi * self._angle_frac(2 * n - 1))
        vals = (0.5 - (1.0 + ratio / s) / (4.0 * n)) / (s * s)
        small = n * t < 1e-2
        if np.any(small):
            idx = np.nonzero(small)[0]
            for i in idx:
                vals[i] = _gn_mean_direct(n, float(t[i]))
        return vals


def _series(phi: Observable, trunc: RationalTruncation, n: int,
            rmax: int | None):
    """The kernel table and series weights of the Fourier norms at horizon
    n, truncated at rmax (default max(20000, 100 n))."""
    if rmax is None:
        rmax = max(20_000, 100 * n)
    _require_rmax(rmax)
    table = AlphaFourierTable(trunc, rmax)
    return table, series_weights(gamma_sq_array(phi, 1, rmax))


def norm_sq(phi: Observable, n: int, trunc: RationalTruncation,
            mode: str = "fourier", rmax: int | None = None):
    """||S_n phi||_2^2.

    fourier mode returns (value, tail_bound) with the series truncated at
    rmax (default max(20000, 100 n)); tail <= 2 K^2 n^2 / rmax.
    exact mode returns (Fraction, 0) by piecewise integration (needs
    n * #jumps under the enumeration cap).
    """
    (n,) = _integers("n", n)
    if n < 0:
        raise ConfigError("n must be >= 0")
    if n == 0:
        return (Fraction(0), 0) if mode == "exact" else (0.0, 0.0)
    if mode == "exact":
        if n * len(phi.jumps()) > _PROFILE_CAP:
            raise ConfigError(f"profile cap exceeded (n={n}); use fourier mode")
        prof = orbit_sum_profile(phi, n, trunc.value)
        return prof.integral_sq(), 0
    if mode != "fourier":
        raise ConfigError(f"unknown mode {mode!r}")
    table, w = _series(phi, trunc, n, rmax)
    value = float(np.sum(w * table.gn(n)))
    k = phi.kbound()
    tail = 2.0 * k * k * float(n) ** 2 / table.rmax
    return value, tail


def mean_variance(phi: Observable, n: int, trunc: RationalTruncation,
                  rmax: int | None = None) -> float:
    """<D phi>_n = (1/n) sum_{k<n} ||S_k phi||_2^2 via the closed-form kernel
    mean (avoids the O(n) sum of kernels per frequency)."""
    if n < 1:
        raise ConfigError("n must be >= 1")
    table, w = _series(phi, trunc, n, rmax)
    return float(np.sum(w * table.gn_mean(n)))


def bound_series(phi: Observable, ell: int, trunc: RationalTruncation):
    """(lower, upper) variance scales at level ell:

        lower = sum_{j<ell} |gamma_{q_j}|^2 a_{j+1}^2
        upper = K^2 * sum_{j<=ell} a_{j+1}^2
    """
    if not 0 <= ell < trunc.level:
        raise ConfigError(f"ell must be in [0, {trunc.level}), got {ell}")
    lower = 0.0
    for j in range(ell):
        g = phi.fourier_gamma(trunc.qs[j])
        lower += (g.real * g.real + g.imag * g.imag) * trunc.a(j + 1) ** 2
    k = phi.kbound()
    upper = k * k * sum(trunc.a(j + 1) ** 2 for j in range(ell + 1))
    return lower, upper


def level_of(n: int, trunc: RationalTruncation) -> int:
    """ell with q_ell <= n < q_{ell+1}."""
    ell = 0
    while ell + 1 < len(trunc.qs) and trunc.qs[ell + 1] <= n:
        ell += 1
    return ell


# ---------------------------------------------------------------------------
# Lemma-level inequality diagnostics
# ---------------------------------------------------------------------------

# Frequency scan length of diagnostic_inequalities (ii) and (iii).
_DIAG_KMAX = 100_000


def diagnostic_inequalities(trunc: RationalTruncation, n: int, m: int) -> dict:
    """Checks three repartition inequalities for the orbit of 0.

    (i)   sum_{k=1}^{q_n - 1} 1/(k^2 ||k a||^2) <= 6 sum_{j<n} (q_{j+1}/q_j)^2
          (exact rational arithmetic on both sides);
    (ii)  sum_{k >= q_n, ||k a|| <= 1/m} 1/k^2 <= 4 (1/(m q_n) + 1/q_n^2);
    (iii) sum_{k >= q_n, ||k a|| >= 1/m} 1/(k^2 ||k a||^2)
              <= 4 m/q_n + 8 m^2/q_n^2.

    The constants in (ii)/(iii) come from the Denjoy-Koksma block argument
    applied to the window indicator and to x^-2 on [1/m, 1/2].  The infinite
    sums are truncated at kscan = min(_DIAG_KMAX, q_(M-1) - 1) and the
    truncation tails (1/kscan and m^2/kscan) are added to the left-hand sides
    before checking; a violated inequality raises CertificateError.
    """
    if m < 3:
        raise ConfigError("m must be >= 3")
    if not 0 <= n < trunc.level:
        raise ConfigError(f"n must be in [0, {trunc.level}), got {n}")
    qn = trunc.qs[n]
    # the scan cannot leave the exact window; a shorter scan only enlarges
    # the (still valid) truncation tails added below
    kscan = min(_DIAG_KMAX, trunc.validity_bound - 1)
    if qn > kscan:
        raise ConfigError("q_n beyond the scan range")
    # (i) exact: 1/(k^2 ||k a||^2) = q^2 / (k m_k)^2 with m_k = ||k a|| q,
    # summed over a running common denominator; every k < q_n <= kscan lies
    # inside the exact window
    p, q = trunc.p, trunc.q
    num, den = 0, 1
    for k in range(1, qn):
        res = k * p % q
        x = k * min(res, q - res)
        x *= x
        g = math.gcd(den, x)
        scale = x // g
        num = num * scale + den // g
        den *= scale
    lhs1 = Fraction(num * q * q, den)
    rhs1 = 6 * sum(Fraction(trunc.qs[j + 1], trunc.qs[j]) ** 2 for j in range(n))
    ok1 = lhs1 <= rhs1
    # (ii)/(iii) vectorized floats with exact residues
    table = AlphaFourierTable(trunc, kscan)
    dist = table.dist
    k = np.arange(1, kscan + 1, dtype=np.float64)
    sel = slice(qn - 1, kscan)
    close = dist[sel] <= 1.0 / m
    inv_k2 = 1.0 / k[sel] ** 2
    lhs2 = float(np.sum(inv_k2[close])) + 1.0 / kscan
    rhs2 = 4.0 * (1.0 / (m * qn) + 1.0 / qn ** 2)
    ok2 = lhs2 <= rhs2
    far = ~close
    lhs3 = float(np.sum(inv_k2[far] / dist[sel][far] ** 2)) + m * m / kscan
    rhs3 = 4.0 * m / qn + 8.0 * m * m / qn ** 2
    ok3 = lhs3 <= rhs3
    report = {
        "orbit_sum": (float(lhs1), float(rhs1), ok1),
        "close_frequencies": (lhs2, rhs2, ok2),
        "far_frequencies": (lhs3, rhs3, ok3),
    }
    if not (ok1 and ok2 and ok3):
        raise CertificateError(f"repartition inequality violated: {report}")
    return report


# ---------------------------------------------------------------------------
# Profiles over n-ranges
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarianceProfile:
    ns: tuple[int, ...]
    norm_sq: tuple[float, ...]
    mean_variance: tuple[float, ...]
    lower_series: tuple[float, ...]
    upper_series: tuple[float, ...]
    levels: tuple[int, ...]


def variance_profile(phi: Observable, trunc: RationalTruncation,
                     ns, rmax: int | None = None) -> VarianceProfile:
    ns = tuple(int(v) for v in ns)
    if not ns or min(ns) < 1:
        raise ConfigError("a profile needs indices, each >= 1")
    table, w = _series(phi, trunc, max(ns), rmax)
    norms, means, lows, ups, lvls = [], [], [], [], []
    for n in ns:
        norms.append(float(np.sum(w * table.gn(n))))
        means.append(float(np.sum(w * table.gn_mean(n))))
        ell = level_of(n, trunc)
        lo, up = bound_series(phi, ell, trunc) if ell >= 1 else (0.0, 0.0)
        lows.append(lo)
        ups.append(up)
        lvls.append(ell)
    return VarianceProfile(ns, tuple(norms), tuple(means), tuple(lows),
                           tuple(ups), tuple(lvls))
