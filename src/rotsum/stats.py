"""Monte Carlo verification instruments: samplers, Kolmogorov-Smirnov
statistics, Gaussian and Gaussian-mixture references, and the experiment
drivers for the subsequence CLT, the Erdos-Fortet mixture limit, the
modified-lacunary-sequence demonstration, and quasi-orthogonality.

Sampling conventions
--------------------
Rotation experiments use stratified random rationals with denominator 2^64:
the exact engine consumes the integer numerators directly.  Doubling-map
experiments (frequencies 2^k or 2^k - 1) instead use the prime denominator
DOUBLING_DEN < 2^52: dyadic rationals collapse under repeated doubling,
while modular doubling by an odd prime keeps exact int64 arithmetic and the
multiplicative order of 2 is astronomically larger than any horizon used
here.

Every sampler is deterministic in (seed, K) and reports are reproducible
bit for bit, at any number of processes and at any BLAS thread count.
``draw_sums``, the doubling-map sums and ``mixture_cdf`` split their
points across the cores through ``parallel._split_rows``, each by its
estimated work per point, and no value depends on where they are cut.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import __version__ as _VERSION
from .contfrac import RationalTruncation
from .ergosum import ErgodicContext
from .errors import (CertificateError, ConfigError, RotsumError, _at_least,
                     _integers)
from .observables import (Observable, VectorObservable, _scalar,
                          gamma_sq_array, series_weights)
from .parallel import _split_rows
from .sequences import SubsequencePlan

__all__ = [
    "SampleSet",
    "ExperimentReport",
    "StratifiedSampler",
    "GridSampler",
    "DOUBLING_DEN",
    "mixture_cdf",
    "ks_statistic",
    "two_sample_ks",
    "draw_sums",
    "sample_sums",
    "clt_report",
    "clt_experiment",
    "erdos_fortet_experiment",
    "erdos_fortet_identity_error",
    "gaposhkin_count",
    "gaposhkin_demo",
    "quasi_orthogonality_check",
    "resonance_integral",
    "fourier_tail_norm",
    "block_variance_ratio",
    "covariance_2d",
]

# Prime modulus for doubling-map samplers; 2 has multiplicative order
# (DOUBLING_DEN - 1)/2 ~ 2.3e15, so orbits of x -> 2x never cycle at the
# horizons used here, and all residues fit exact int64 arithmetic.
DOUBLING_DEN = 4503599627370449

# Pass criteria of the experiment reports (recorded in their ``tolerance``).
_CLT_KS_TOL = 0.03                  # KS distance to N(0,1)
_CLT_RATIO_BAND = (0.9, 1.1)        # empirical / predicted variance
_EF_KS_MIX_TOL = 0.03               # KS distance to the Erdos-Fortet mixture
_EF_GAP_TOL = 0.02                  # how much worse the best single normal is
_GAPOSHKIN_KS_TOL = 0.02            # two-sample KS, plain against modified
_COV_TOL = 0.1                      # absolute, per covariance entry
_DIR_TOL = 0.10                     # relative, per directional variance
# Rows of t per block of mixture_cdf's integrand: a 17 x 512 block is
# 70 KB, and BLAS computes its product in one thread.
_MIX_ROWS = 16
# Buckets of [0, 1) that order the points of one _f0_sum term before its
# cosines; at most 256, so that a bucket index is one uint8.
_COS_BUCKETS = 128
# Partial-sum length of fourier_tail_norm.
_TAIL_JMAX = 20_000
# Nanoseconds of work per unit in one process, for _split_rows: one
# Euclid walk of a draw_sums sample at 500 bits, one point-step of _f0_sum
# and one point of mixture_cdf.
_WALK_NS = 15_000
_STEP_NS = 30
_MIX_NS = 4_800
# Most points one sampler draws: about 0.4 GB of Python-int numerators.
# Every workload and README run draws at most 20,000.
_SAMPLE_CAP = 2 ** 23


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def _capped(size) -> None:
    """ConfigError above _SAMPLE_CAP points, before numerators() allocates."""
    if _integers("sample size", size)[0] > _SAMPLE_CAP:
        raise ConfigError(f"a sample of {size} points exceeds the cap "
                          f"{_SAMPLE_CAP}")


@dataclass(frozen=True)
class StratifiedSampler:
    """K stratified random rationals i*step + U_i over a fixed denominator."""

    seed: int
    size: int
    den: int = 2 ** 64

    def __post_init__(self):
        _at_least("seed", self.seed, 0)
        size, den = _integers("sample size and denominator", self.size,
                              self.den)
        if not 1 <= size <= den:
            raise ConfigError(f"sample size must be >= 1 and at most "
                              f"den = {self.den}, got {self.size}")
        _capped(size)

    def numerators(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        step = self.den // self.size
        # uint64 draws equal the int64 ones wherever both fit; size 1 needs
        # the full step 2^64
        offs = rng.integers(0, step, size=self.size, dtype=np.uint64)
        base = np.arange(self.size, dtype=object) * step
        return base + offs.astype(object)


@dataclass(frozen=True)
class GridSampler:
    """x_i = i/K: deterministic grid (rational points, exact engine ready)."""

    size: int

    def __post_init__(self):
        _capped(_at_least("sample size", self.size, 1))

    def numerators(self) -> np.ndarray:
        return np.arange(self.size, dtype=object)

    @property
    def den(self) -> int:
        return self.size


@dataclass(frozen=True)
class SampleSet:
    values: np.ndarray
    normalization: float
    prediction: float | None = None


@dataclass
class ExperimentReport:
    kind: str
    empirical: dict
    prediction: dict
    tolerance: dict
    passed: bool
    seed: int
    plan_hash: str | None = None
    version: str = _VERSION
    extra: dict = field(default_factory=dict)

    def config_hash(self) -> str:
        doc = json.dumps({"kind": self.kind, "prediction": self.prediction,
                          "tolerance": self.tolerance, "seed": self.seed,
                          "plan": self.plan_hash}, sort_keys=True, default=str)
        return hashlib.sha256(doc.encode()).hexdigest()[:16]

    def to_json(self) -> str:
        doc = {
            "kind": self.kind,
            "empirical": self.empirical,
            "prediction": self.prediction,
            "tolerance": self.tolerance,
            "passed": bool(self.passed),
            "seed": self.seed,
            "plan_hash": self.plan_hash,
            "config_hash": self.config_hash(),
            "version": self.version,
            "extra": self.extra,
        }
        return json.dumps(doc, sort_keys=True, default=float)


# ---------------------------------------------------------------------------
# Reference distributions
# ---------------------------------------------------------------------------

def _normal_cdf_array(x: np.ndarray, out: np.ndarray | None = None
                      ) -> np.ndarray:
    # imported on first use: scipy.special adds about 20 MB to the process,
    # and neither the exact sums nor the billiard's two routes need it
    from scipy import special
    return special.ndtr(x, out=out)


@functools.cache
def _mixture_rule() -> tuple[np.ndarray, np.ndarray]:
    """``mixture_cdf``'s 512-point Gauss-Legendre rule on [0, 1/2]: the
    scales sqrt(2)|cos(pi y)| at its nodes and its weights, read-only.
    Built on first use, since leggauss solves a 512 x 512 eigenproblem,
    and in the calling process, so that the children ``mixture_cdf``
    forks neither solve it nor import scipy.special, imported here too."""
    from scipy import special  # noqa: F401
    nodes, weights = np.polynomial.legendre.leggauss(512)
    y = 0.25 * (nodes + 1.0)
    sig = math.sqrt(2.0) * np.abs(np.cos(np.pi * y))
    w = 0.25 * weights
    sig.flags.writeable = w.flags.writeable = False
    return sig, w


def _real_array(what: str, x) -> np.ndarray:
    """``x`` as a float64 array of at most one dimension; non-numbers, NaN
    and arrays of more dimensions raise ConfigError naming ``what``."""
    try:
        arr = np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError):
        raise ConfigError(f"{what}: real numbers expected, got "
                          f"{type(x).__name__}") from None
    if arr.ndim > 1:
        raise ConfigError(f"{what}: a number or a 1-D array expected, "
                          f"got shape {arr.shape}")
    if np.isnan(arr).any():
        raise ConfigError(f"{what}: NaN")
    return arr


def mixture_cdf(t) -> np.ndarray:
    """CDF of sqrt(2) |cos(pi Y)| * Z with Y uniform on [0,1], Z standard
    normal:  F(t) = int_0^1 Phi(t / (sqrt(2) |cos(pi y)|)) dy.

    Gauss-Legendre on [0, 1/2] (doubled by symmetry); the y -> 1/2 endpoint
    contributes Phi(+-inf) = step(t), which the saturating integrand handles,
    and F(+-inf) is exactly 1 or 0.  ``t`` is a real number or a 1-D array of
    them; NaN, non-numbers and arrays of more dimensions raise ConfigError.

    ``_split_rows`` cuts the points into contiguous chunks of 600 points or
    more (one fork's cost at _MIX_NS a point), at most one per available
    core, at multiples of _MIX_ROWS, and ``_mixture_rows`` evaluates each.
    So no chunk is one row, every process computes the blocks that one
    process would, and the values are the same at any number of processes,
    as at any BLAS thread count.
    """
    t_arr = _real_array("mixture_cdf", t)
    rule = _mixture_rule()
    vals = _split_rows(lambda rows: _mixture_rows(rows, *rule),
                       t_arr.reshape(-1), _MIX_NS, _MIX_ROWS)[:, 0]
    return vals if t_arr.ndim else float(vals[0])


def _mixture_rows(t_col: np.ndarray, sig: np.ndarray,
                  w: np.ndarray) -> np.ndarray:
    """``mixture_cdf`` at the points of ``t_col``, as one column.

    The integrand is computed in blocks of _MIX_ROWS rows, starting at
    multiples of _MIX_ROWS, in one reused buffer (Phi in place), and each
    block's product with the weights is written into the result.  A final
    block of one row joins the one before it: one-threaded BLAS gives a
    one-row product other bits, while blocks of 2 or more rows that start
    at multiples of _MIX_ROWS give each row the bits of the one-shot
    product.  Blocks cut elsewhere may not: of 2050 points, a chunk that
    starts at row 1025 gave two rows other bits.  A block is too small
    for BLAS to split between threads.
    """
    n = t_col.size
    vals = np.empty(n)
    buf = np.empty((min(n, _MIX_ROWS + 1), sig.size))
    # no block starts at the last row, unless that row is the only one
    for lo in range(0, max(n - 1, 1), _MIX_ROWS):
        hi = lo + _MIX_ROWS if n - lo - _MIX_ROWS > 1 else n
        block = np.divide(t_col[lo:hi, None], sig, out=buf[:hi - lo])
        _normal_cdf_array(block, out=block)
        np.matmul(block, w, out=vals[lo:hi])
    vals *= 2.0
    return vals[:, None]


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov
# ---------------------------------------------------------------------------

def ks_statistic(samples, cdf) -> float:
    """sup_t |ECDF(t) - cdf(t)| computed at the sorted sample in O(K log K).

    ``cdf`` is a vectorized callable applied to the sorted array; a result
    of another shape raises ConfigError, and errors raised by ``cdf``
    propagate.
    """
    z = _sorted_sample(samples)
    f = np.asarray(cdf(z), dtype=np.float64)
    if f.shape != z.shape:
        raise ConfigError(
            f"cdf returned shape {f.shape} for {z.shape[0]} samples")
    if not np.all(np.isfinite(f)):
        raise ConfigError("cdf returned non-finite values")
    n = z.size
    lo = np.arange(0, n) / n
    hi = np.arange(1, n + 1) / n
    return float(max(np.max(f - lo), np.max(hi - f)))


def _sorted_sample(samples) -> np.ndarray:
    """The sample as a sorted float64 array; a sample that is not a
    nonempty 1-D array of finite real numbers raises ConfigError."""
    z = _real_array("sample", samples)
    if z.ndim != 1:
        raise ConfigError("sample: a 1-D array expected, got a number")
    if z.size == 0:
        raise ConfigError("empty sample")
    if not np.all(np.isfinite(z)):
        raise ConfigError("samples must be finite")
    return np.sort(z)


def two_sample_ks(a, b) -> float:
    za, zb = _sorted_sample(a), _sorted_sample(b)
    allv = np.concatenate([za, zb])
    ca = np.searchsorted(za, allv, side="right") / za.size
    cb = np.searchsorted(zb, allv, side="right") / zb.size
    return float(np.max(np.abs(ca - cb)))


# ---------------------------------------------------------------------------
# Subsequence CLT sampling
# ---------------------------------------------------------------------------

def draw_sums(phi: Observable | tuple[Observable, ...],
              trunc: RationalTruncation,
              sampler: StratifiedSampler | GridSampler, N: int) -> np.ndarray:
    """S_N phi(x) at every point x of the sampler, exact engine, rounded once
    to float64: one row per point and one column per observable (``phi`` is
    one observable or a tuple sampled together).  Every sample set of the
    package is drawn here.

    ``_split_rows`` splits the points across the cores, and each process
    draws its chunk through ``ErgodicContext.sums_at``.  Every value is an
    exact sum rounded once, so the rows are the same bit for bit at any
    number of processes.
    """
    ctx = ErgodicContext(phi, trunc, sampler.den)
    return _split_rows(lambda nums: ctx.sums_at(nums, N),
                       sampler.numerators(), len(ctx.offsets) * _WALK_NS)


def sample_sums(plan: SubsequencePlan, phi: Observable,
                sampler: StratifiedSampler | GridSampler, n: int) -> SampleSet:
    """Samples of S_{L_n} phi(x) over the sampler's x, exact engine.

    ``normalization`` is the empirical L2 norm; ``prediction`` the Fourier
    variance sum_{k<=n} ||hat_phi_{q_{t_k}}||_2^2.
    """
    n = plan._position(n, 0)
    vals = draw_sums(phi, plan.trunc, sampler, plan.L[n])[:, 0]
    if n == 0:
        return SampleSet(vals, 1.0, prediction=0.0)
    norm = math.sqrt(float(np.mean(vals ** 2)))
    return SampleSet(vals, norm, prediction=plan.hat_variance(phi, n))


def clt_report(plan: SubsequencePlan, phi: Observable, n: int, ss: SampleSet,
               seed: int) -> ExperimentReport:
    """Normalized-sum Gaussianity check of the samples ``ss`` of
    S_{L_n} phi, drawn by ``sample_sums`` at plan position n."""
    n = plan._position(n, 1)
    seed = _at_least("seed", seed, 0)
    emp_var = ss.normalization ** 2
    ratio = emp_var / ss.prediction
    ks = ks_statistic(ss.values / ss.normalization, _normal_cdf_array)
    mean = float(np.mean(ss.values))
    lo, hi = _CLT_RATIO_BAND
    passed = (ks <= _CLT_KS_TOL) and (lo <= ratio <= hi)
    return ExperimentReport(
        kind="clt_subsequence",
        empirical={"ks": ks, "variance": emp_var, "variance_ratio": ratio,
                   "mean": mean},
        prediction={"variance": ss.prediction, "reference": "N(0,1)"},
        tolerance={"ks": _CLT_KS_TOL, "ratio_band": list(_CLT_RATIO_BAND)},
        passed=passed,
        seed=seed,
        plan_hash=plan.plan_hash(),
        extra={"n": n, "samples": len(ss.values),
               "observable": _scalar(phi).label},
    )


def clt_experiment(plan: SubsequencePlan, phi: Observable, n: int,
                   samples: int, seed: int) -> ExperimentReport:
    """Normalized-sum Gaussianity check along the plan at position n, on
    ``samples`` stratified points drawn with ``seed``."""
    ss = sample_sums(plan, phi, StratifiedSampler(seed=seed, size=samples), n)
    return clt_report(plan, phi, n, ss, seed)


# ---------------------------------------------------------------------------
# Doubling-map experiments
# ---------------------------------------------------------------------------

def _f0_sum(nums: np.ndarray, n: int, *shifted_sets) -> list[np.ndarray]:
    """One sum_{k=1..n} f0(e_k x) per shifted set, f0 = cos(2 pi x) +
    cos(4 pi x), with e_k = 2^k - 1 when the set is None or holds k, else
    2^k.

    Exact residues: r_k = 2^k num mod D by int64 doubling, and the shifted
    frequency uses (2^k - 1) num = r_k - num mod D.  All sums share one
    pass: each k computes the term of each e_k in use once and adds it to
    every sum in k order, so each sum equals its own separate pass.  A term
    takes its cosines with the points in bucket order of their fraction,
    one of _COS_BUCKETS equal buckets of [0, 1), and is scattered back
    before it is added: libm's cos branches on the range of its argument,
    and in sample order those branches mispredict.  np.cos is elementwise,
    so the order changes no bit.  Every step is elementwise in the points,
    so a sum at a point does not depend on which other points share the
    call, and ``_f0_columns`` may split the points across processes.
    """
    D = DOUBLING_DEN
    r = nums.copy()
    outs = [np.zeros(nums.size) for _ in shifted_sets]
    for k in range(1, n + 1):
        r = 2 * r
        r -= D * (r >= D)
        terms = {}                  # shifted at k -> f0(e_k x)
        for out, shifted_set in zip(outs, shifted_sets):
            shifted = shifted_set is None or k in shifted_set
            if shifted not in terms:
                t = r
                if shifted:
                    t = r - nums
                    t += D * (t < 0)
                frac = t.astype(np.float64) / D
                order = np.argsort((frac * _COS_BUCKETS).astype(np.uint8),
                                   kind="stable")
                g = frac[order]
                term = np.empty_like(frac)
                term[order] = np.cos(2 * np.pi * g) + np.cos(4 * np.pi * g)
                terms[shifted] = term
            out += terms[shifted]
    return outs


def _f0_columns(n: int, samples: int, seed: int, *shifted_sets) -> np.ndarray:
    """The ``_f0_sum`` sums at the stratified doubling-map sample, one row
    per point and one column per shifted set, split across the cores by
    ``_split_rows`` at n point-steps per point.  A column of the result is
    strided: divide or copy it before a reduction, so the reduction sums a
    contiguous array in the order it always has."""
    sampler = StratifiedSampler(seed, samples, DOUBLING_DEN)
    return _split_rows(
        lambda nums: np.column_stack(_f0_sum(nums, n, *shifted_sets)),
        sampler.numerators().astype(np.int64), n * _STEP_NS)


def erdos_fortet_experiment(n: int, samples: int, seed: int) -> ExperimentReport:
    """Distribution of (1/sqrt n) sum f0((2^k - 1) x): converges to the
    sqrt(2)|cos(pi Y)| Gaussian mixture, detectably non-Gaussian.

    Passes when KS(mixture) <= _EF_KS_MIX_TOL and the best-fit single normal
    is worse by at least _EF_GAP_TOL.
    """
    n = _at_least("n", n, 1)
    z = _f0_columns(n, samples, seed, None)[:, 0] / math.sqrt(n)
    ks_mix = ks_statistic(z, mixture_cdf)
    sd = math.sqrt(float(np.mean(z ** 2)))
    ks_norm = ks_statistic(z, lambda v: _normal_cdf_array(np.asarray(v) / sd))
    passed = (ks_mix <= _EF_KS_MIX_TOL) and (ks_norm >= ks_mix + _EF_GAP_TOL)
    return ExperimentReport(
        kind="erdos_fortet",
        empirical={"ks_mixture": ks_mix, "ks_best_normal": ks_norm,
                   "variance": sd * sd, "gap": ks_norm - ks_mix},
        prediction={"variance": 1.0, "reference": "sqrt(2)|cos(pi Y)| mixture"},
        tolerance={"ks_mixture": _EF_KS_MIX_TOL, "gap": _EF_GAP_TOL},
        passed=passed,
        seed=seed,
        extra={"n": n, "samples": samples},
    )


def erdos_fortet_identity_error(n: int, xs) -> float:
    """Max error of the cosine rearrangement identity

        sum_{k=1..n} [cos(2 pi (2^k-1)x) + cos(4 pi (2^k-1)x)]
          = cos(2 pi x) + cos(2 pi (2^{n+1}-2)x)
            + 2 cos(pi x) sum_{k=2..n} cos(2 pi (2^k - 3/2) x)

    over the given points (floats)."""
    (n,) = _integers("n", n)
    worst = 0.0
    for x in xs:
        lhs = sum(math.cos(2 * math.pi * (2 ** k - 1) * x)
                  + math.cos(4 * math.pi * (2 ** k - 1) * x)
                  for k in range(1, n + 1))
        rhs = (math.cos(2 * math.pi * x)
               + math.cos(2 * math.pi * (2 ** (n + 1) - 2) * x)
               + 2 * math.cos(math.pi * x)
               * sum(math.cos(2 * math.pi * (2 ** k - 1.5) * x)
                     for k in range(2, n + 1)))
        worst = max(worst, abs(lhs - rhs))
    return worst


def gaposhkin_index_set(a: int, nmax: int) -> set[int]:
    """I_a = union over m of {k : m^a <= k <= m^a + m}, restricted to <= nmax."""
    a = _at_least("exponent a", a, 1)
    (nmax,) = _integers("nmax", nmax)
    out: set[int] = set()
    m = 1
    while m ** a <= nmax:
        for k in range(m ** a, min(m ** a + m, nmax) + 1):
            out.add(k)
        m += 1
    return out


def gaposhkin_count(a: int, nmax: int) -> int:
    """#({1..nmax} intersect I_a), exact."""
    return len(gaposhkin_index_set(a, nmax))


def gaposhkin_demo(a: int, n: int, samples: int, seed: int) -> ExperimentReport:
    """Compares the normalized sums over 2^k against the sequence modified to
    2^k - 1 on the sparse index set I_a: the modification is invisible at
    scale sqrt(n)."""
    a = _at_least("exponent a", a, 5)
    n = _at_least("n", n, 1)
    mism = gaposhkin_index_set(a, n)
    s_plain, s_mod = (s / math.sqrt(n)
                      for s in _f0_columns(n, samples, seed, (), mism).T)
    ks = two_sample_ks(s_plain, s_mod)
    count = len(mism)
    sup_diff = float(np.max(np.abs(s_plain - s_mod)))
    sup_bound = 2.0 * 2.0 * count / math.sqrt(n)  # 2 ||f0||_inf per mismatch
    passed = (ks <= _GAPOSHKIN_KS_TOL) and (sup_diff <= sup_bound)
    return ExperimentReport(
        kind="gaposhkin_modified_sequence",
        empirical={"ks_two_sample": ks, "mismatches": count,
                   "sup_diff": sup_diff, "var_plain": float(np.var(s_plain)),
                   "var_modified": float(np.var(s_mod))},
        prediction={"mismatch_scale": n ** (2.0 / a), "sup_diff_bound": sup_bound},
        tolerance={"ks_two_sample": _GAPOSHKIN_KS_TOL},
        passed=passed,
        seed=seed,
        extra={"a": a, "n": n, "samples": samples},
    )


# ---------------------------------------------------------------------------
# Quasi-orthogonality and block variance
# ---------------------------------------------------------------------------

def _resonance(f: Observable, l1: int, g: Observable, l2: int) -> Fraction:
    """int_0^1 f(l1 x) conj(g(l2 x)) dx less its zero frequency, exactly.

    Frequencies k of f and j of g meet where l1 k = l2 j, so k = ka m and
    j = kb m (ka = l2/d, kb = l1/d, d = gcd(l1, l2)); then
    sum_{m != 0} e^{2 pi i m u} / m^2 = 2 pi^2 B2({u}) with
    B2(u) = u^2 - u + 1/6 sums them all: the series over m != 0 of
    c_{ka m}(f) conj(c_{kb m}(g)) is
    sum_{t,s} J_t(f) J_s(g) B2({kb s - ka t}) / (2 ka kb) over the jumps.
    """
    l1, l2 = (_at_least("multiplier", l, 1) for l in (l1, l2))
    d = math.gcd(l1, l2)
    ka, kb = l2 // d, l1 // d
    g_jumps = _scalar(g).jumps().items()
    total = Fraction(0)
    for t, jt in _scalar(f).jumps().items():
        for s, js in g_jumps:
            u = (kb * s - ka * t) % 1
            total += jt * js * (u * u - u + Fraction(1, 6))
    return total / (2 * ka * kb)


def resonance_integral(f: Observable, l1: int, g: Observable,
                       l2: int) -> Fraction:
    """|int_0^1 f(l1 x) conj(g(l2 x)) dx| less its zero frequency (the
    product of the means), as an exact Fraction with no truncation."""
    return abs(_resonance(f, l1, g, l2))


def fourier_tail_norm(f: Observable, t: float) -> float:
    """An upper bound of R(f, t) = (sum_{|j| >= t} |c_j|^2)^(1/2): the
    partial sum up to |j| = _TAIL_JMAX plus the completion bound
    2 K^2 / max(_TAIL_JMAX, ceil(t) - 1) of the terms beyond, as
    |gamma_j| <= K."""
    if not math.isfinite(t):
        raise ConfigError(f"tail index t must be finite, got {t}")
    k = _scalar(f).kbound()
    j0 = max(1, math.ceil(t))
    w = series_weights(gamma_sq_array(f, 1, _TAIL_JMAX))
    completion = 2.0 * k * k / max(_TAIL_JMAX, j0 - 1)
    return math.sqrt(float(np.sum(w[j0 - 1:])) + completion)


def quasi_orthogonality_check(f: Observable, g: Observable,
                              l1: int, l2: int) -> tuple[Fraction, float]:
    """Check |int f(l1 x) conj(g(l2 x))| <= R(f, l2/l1) ||g||_2 and return
    (lhs, rhs): the exact ``resonance_integral`` against the upper bound of
    ``fourier_tail_norm``.  The equality case (l1 = l2, f = g, both sides
    ||f||_2^2) passes with no allowance."""
    val = resonance_integral(f, l1, g, l2)      # validates l1 and l2
    if l2 < l1:
        raise ConfigError("need l2 >= l1")
    rhs = fourier_tail_norm(f, l2 / l1) * math.sqrt(float(g.norm_sq()))
    if val > rhs:
        raise CertificateError(
            f"quasi-orthogonality violated: {float(val)} > {rhs}")
    return val, rhs


def block_variance_ratio(fs: list[Observable], ns: list[int]) -> float:
    """int (sum_k f_k(n_k x))^2 dx / sum_k ||f_k||_2^2: exact diagonal norms
    plus the signed exact resonances of each pair, rounded once."""
    if len(fs) != len(ns):
        raise ConfigError("need one observable per frequency")
    ns = [_at_least("frequency", n, 1) for n in ns]
    diag = sum(_scalar(f).norm_sq() for f in fs)
    if diag == 0:
        raise ConfigError("need observables of nonzero total norm")
    cross = sum(2 * _resonance(fs[i], ns[i], fs[j], ns[j])
                for i in range(len(fs)) for j in range(i + 1, len(fs)))
    return float((diag + cross) / diag)


# ---------------------------------------------------------------------------
# Vector CLT
# ---------------------------------------------------------------------------

def covariance_2d(plan: SubsequencePlan, psi: VectorObservable,
                  n: int, samples: int, seed: int) -> ExperimentReport:
    """Empirical covariance of n^{-1/2} (S_{L_n} psi1, S_{L_n} psi2) against
    diag(1/2, 1/2), plus directional variances (u^2+v^2)/2 for
    (u,v) in {(1,0), (0,1), (1,1)}.  Requires a parity-certified plan."""
    if not plan.certified.get("parity"):
        raise ConfigError("covariance_2d requires a parity-certified plan")
    n = plan._position(n, 1)
    sums = draw_sums(psi.components, plan.trunc,
                     StratifiedSampler(seed=seed, size=samples), plan.L[n])
    v1 = sums[:, 0] / math.sqrt(n)
    v2 = sums[:, 1] / math.sqrt(n)
    cov = {
        "c11": float(np.mean(v1 * v1)),
        "c22": float(np.mean(v2 * v2)),
        "c12": float(np.mean(v1 * v2)),
    }
    directions = {}
    ok_dirs = True
    for (u, v) in ((1, 0), (0, 1), (1, 1)):
        var_uv = float(np.mean((u * v1 + v * v2) ** 2))
        pred = (u * u + v * v) / 2.0
        directions[f"({u},{v})"] = {"variance": var_uv, "prediction": pred}
        ok_dirs = ok_dirs and abs(var_uv - pred) <= _DIR_TOL * pred
    ok_cov = (abs(cov["c11"] - 0.5) <= _COV_TOL
              and abs(cov["c22"] - 0.5) <= _COV_TOL
              and abs(cov["c12"]) <= _COV_TOL)
    return ExperimentReport(
        kind="vector_clt_covariance",
        empirical={**cov, "directions": directions},
        prediction={"covariance": [[0.5, 0.0], [0.0, 0.5]]},
        tolerance={"cov_entry": _COV_TOL, "direction_rel": _DIR_TOL},
        passed=ok_cov and ok_dirs,
        seed=seed,
        plan_hash=plan.plan_hash(),
        extra={"n": n, "samples": samples, "observable": psi.label},
    )
