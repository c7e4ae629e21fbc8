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

``variance_profile`` forms the table, the weights and the lower and upper
variance scales of every level once, the scales from one running sum over
the convergents, and then splits its rows across the cores through
``parallel._split_rows``, by their frequencies; its rows are the same bit
for bit at any number of processes.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .contfrac import RationalTruncation
from .errors import CertificateError, ConfigError, _at_least, _integers
from .observables import (_INT64_SAFE, _RMAX, Observable, _scalar,
                          gamma_sq_array, reduce_phases, series_weights)
from .ergosum import orbit_sum_profile
from .parallel import _split_rows

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
    n = _at_least("n", n, 0)
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
    n = _at_least("n", n, 1)
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
        rmax = _at_least("rmax", rmax, 1)
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


def _series(phi: Observable, trunc: RationalTruncation, n: int):
    """The kernel table and series weights of the Fourier norms up to
    horizon n, truncated at rmax = max(20000, 100 n).  The observable, the
    window and the table size are checked before any table is built."""
    _scalar(phi)
    table = AlphaFourierTable(trunc, max(20_000, 100 * n))
    return table, series_weights(gamma_sq_array(phi, 1, table.rmax))


def norm_sq(phi: Observable, n: int, trunc: RationalTruncation,
            mode: str = "fourier"):
    """||S_n phi||_2^2.

    fourier mode returns (value, tail_bound) with the series truncated at
    rmax = max(20000, 100 n); tail <= 2 K^2 n^2 / rmax.
    exact mode returns (Fraction, 0) by piecewise integration (needs
    n * #jumps under the exact profile's cap).
    """
    _scalar(phi)
    n = _at_least("n", n, 0)
    if n == 0:
        return (Fraction(0), 0) if mode == "exact" else (0.0, 0.0)
    if mode == "exact":
        if n > 1:
            trunc.require_window(n - 1, "orbit length")
        prof = orbit_sum_profile(phi, n, trunc.value)
        return prof.integral_sq(), 0
    if mode != "fourier":
        raise ConfigError(f"unknown mode {mode!r}")
    table, w = _series(phi, trunc, n)
    value = float(np.sum(w * table.gn(n)))
    k = phi.kbound()
    tail = 2.0 * k * k * float(n) ** 2 / table.rmax
    return value, tail


def mean_variance(phi: Observable, n: int, trunc: RationalTruncation) -> float:
    """<D phi>_n = (1/n) sum_{k<n} ||S_k phi||_2^2 via the closed-form kernel
    mean (avoids the O(n) sum of kernels per frequency); the series is
    truncated as in ``norm_sq``."""
    n = _at_least("n", n, 1)
    table, w = _series(phi, trunc, n)
    return float(np.sum(w * table.gn_mean(n)))


def bound_series(phi: Observable, ell: int, trunc: RationalTruncation):
    """(lower, upper) variance scales at level ell:

        lower = sum_{j<ell} |gamma_{q_j}|^2 a_{j+1}^2
        upper = K^2 * sum_{j<=ell} a_{j+1}^2
    """
    _scalar(phi)
    ell = _at_least("ell", ell, 0)
    lows, ups = _scales(phi, ell, trunc)
    return lows[ell], ups[ell]


def _scales(phi: Observable, top: int, trunc: RationalTruncation):
    """``bound_series``' lower and upper scales at every level 0..top, as
    two lists, from one running sum over j in increasing order, so each
    entry has the bits of the sum up to its own level."""
    trunc.require_level(top + 1, f"the variance series at ell = {top}")
    a_sq = [trunc.a(j + 1) ** 2 for j in range(top + 1)]
    lows = [0.0]
    for j in range(top):
        g = phi.fourier_gamma(trunc.qs[j])
        lows.append(lows[-1] + (g.real * g.real + g.imag * g.imag) * a_sq[j])
    k = phi.kbound()
    return lows, [k * k * total for total in itertools.accumulate(a_sq)]


def level_of(n: int, trunc: RationalTruncation) -> int:
    """ell with q_ell <= n < q_{ell+1} for 1 <= n < q_M, and M above."""
    return bisect.bisect_right(trunc.qs, _at_least("n", n, 1)) - 1


# ---------------------------------------------------------------------------
# Lemma-level inequality diagnostics
# ---------------------------------------------------------------------------

def _fraction_sum(terms: list[tuple[int, int]]) -> tuple[int, int]:
    """The sum of the fractions u / v, v > 0, of ``terms`` as one unreduced
    pair (numerator, denominator), added pairwise in a balanced tree, so
    that each product joins numbers of about the same size and no gcd is
    taken."""
    if not terms:
        return 0, 1
    while len(terms) > 1:
        pairs = [(u * y + x * v, v * y)
                 for (u, v), (x, y) in zip(terms[::2], terms[1::2])]
        terms = pairs + terms[len(pairs) * 2:]
    return terms[0]


def diagnostic_inequalities(trunc: RationalTruncation, n: int, m: int) -> dict:
    """Checks three repartition inequalities for the orbit of 0.

    (i)   sum_{k=1}^{q_n - 1} 1/(k^2 ||k a||^2) <= 6 sum_{j<n} (q_{j+1}/q_j)^2
          (exact rational arithmetic on both sides);
    (ii)  sum_{k >= q_n, ||k a|| <= 1/m} 1/k^2 <= 4 (1/(m q_n) + 1/q_n^2);
    (iii) sum_{k >= q_n, ||k a|| >= 1/m} 1/(k^2 ||k a||^2)
              <= 4 m/q_n + 8 m^2/q_n^2.

    The constants in (ii)/(iii) come from the Denjoy-Koksma block argument
    applied to the window indicator and to x^-2 on [1/m, 1/2].  The infinite
    sums are truncated at kscan = min(_RMAX, q_(M-1) - 1) and the
    truncation tails (1/kscan and m^2/kscan) are added to the left-hand sides
    before checking.  A partial sum that alone reaches its right-hand side
    violates the inequality and raises CertificateError.  When only a tail
    allowance tips a check, the scan was too short to decide it.  Where the
    window cut the scan, PrecisionError names the smallest level whose window
    holds a scan with allowances that fit; that scan adds terms, so it may be
    short again.  Where the cap cut it, ConfigError says so.
    """
    m = _at_least("m", m, 3)
    n = _at_least("n", n, 0)
    # the scan from q_n needs q_n inside the window [1, q_(M-1))
    trunc.require_level(n + 2, f"the frequency scan from q_{n}")
    qn = trunc.qs[n]
    # the scan cannot leave the exact window; a shorter scan only enlarges
    # the (still valid) truncation tails added below
    kscan = min(_RMAX, trunc.validity_bound - 1)
    if qn > kscan:
        raise ConfigError("q_n beyond the scan range")
    # (i) exact: 1/(k^2 ||k a||^2) = q^2 / (k m_k)^2 with m_k = ||k a|| q;
    # every k < q_n <= kscan lies inside the exact window.  The sum stays
    # one unreduced fraction, compared by cross-multiplication and rounded
    # once with int / int
    p, q = trunc.p, trunc.q
    terms = []
    for k in range(1, qn):
        res = k * p % q
        terms.append((1, (k * min(res, q - res)) ** 2))
    num, den = _fraction_sum(terms)
    num *= q * q
    rhs1 = 6 * sum(Fraction(trunc.qs[j + 1], trunc.qs[j]) ** 2 for j in range(n))
    ok1 = num * rhs1.denominator <= rhs1.numerator * den
    # (ii)/(iii) vectorized floats with exact residues
    table = AlphaFourierTable(trunc, kscan)
    dist = table.dist
    k = np.arange(1, kscan + 1, dtype=np.float64)
    sel = slice(qn - 1, kscan)
    close = dist[sel] <= 1.0 / m
    inv_k2 = 1.0 / k[sel] ** 2
    part2 = float(np.sum(inv_k2[close]))
    lhs2 = part2 + 1.0 / kscan
    rhs2 = 4.0 * (1.0 / (m * qn) + 1.0 / qn ** 2)
    ok2 = lhs2 <= rhs2
    far = ~close
    part3 = float(np.sum(inv_k2[far] / dist[sel][far] ** 2))
    lhs3 = part3 + m * m / kscan
    rhs3 = 4.0 * m / qn + 8.0 * m * m / qn ** 2
    ok3 = lhs3 <= rhs3
    report = {
        "orbit_sum": (num / den, float(rhs1), ok1),
        "close_frequencies": (lhs2, rhs2, ok2),
        "far_frequencies": (lhs3, rhs3, ok3),
    }
    # the terms past the scan are positive, so a partial sum that reaches
    # its right side is a violation whatever the scan length
    if not (ok1 and part2 < rhs2 and part3 < rhs3):
        raise CertificateError(f"repartition inequality violated: {report}")
    if not (ok2 and ok3):
        need = max(kscan + 1, math.ceil(1.0 / (rhs2 - part2)),
                   math.ceil(m * m / (rhs3 - part3)))
        if kscan < trunc.validity_bound - 1:
            raise ConfigError(f"a frequency scan of {need} terms, the length "
                              "that fits the tail allowances, exceeds the cap "
                              f"{_RMAX}")
        # the window cut the scan, so need >= q_(M-1) and this raises
        trunc.require_window(need, "frequency scan length")
    return report


# ---------------------------------------------------------------------------
# Profiles over n-ranges
# ---------------------------------------------------------------------------

# Nanoseconds of one frequency of a profile row in one process, for
# _split_rows: golden's int64 angles (sqrt2m1's big-integer ones take 2x).
_FREQ_NS = 44


@dataclass(frozen=True)
class VarianceProfile:
    ns: tuple[int, ...]
    norm_sq: tuple[float, ...]
    mean_variance: tuple[float, ...]
    lower_series: tuple[float, ...]
    upper_series: tuple[float, ...]
    levels: tuple[int, ...]


def variance_profile(phi: Observable, trunc: RationalTruncation,
                     ns) -> VarianceProfile:
    """The norms, Cesaro means and variance scales at each n of ``ns``, the
    Fourier series truncated as in ``norm_sq`` at the largest n.

    The kernel table, the series weights and the scales of every level up
    to the largest one (one running sum, as in ``bound_series``) are formed
    here; ``_split_rows`` then splits the rows across the cores, at
    table.rmax frequencies of work a row.  Every row runs the same
    code on the same arrays, so the profile is the same bit for bit at any
    number of processes.
    """
    ns = tuple(_integers("profile indices", *ns))
    if not ns or min(ns) < 1:
        raise ConfigError("a profile needs indices, each >= 1")
    table, w = _series(phi, trunc, max(ns))
    levels = [level_of(n, trunc) for n in ns]
    top = max(levels)
    # level-0 rows carry no scales and need no level of the truncation
    lows, ups = _scales(phi, top, trunc) if top else ([0.0], [0.0])
    ups[0] = 0.0

    def rows(idx):
        out = np.empty((idx.size, 5))
        for row, i in zip(out, idx):
            n, ell = ns[i], levels[i]
            row[:] = (np.sum(w * table.gn(n)), np.sum(w * table.gn_mean(n)),
                      lows[ell], ups[ell], ell)
        return out

    cols = _split_rows(rows, np.arange(len(ns)), table.rmax * _FREQ_NS)
    norms, means, lower, upper = (tuple(c.tolist()) for c in cols[:, :4].T)
    return VarianceProfile(ns, norms, means, lower, upper,
                           tuple(int(ell) for ell in cols[:, 4]))
