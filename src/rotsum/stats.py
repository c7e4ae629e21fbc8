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
bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__ as _VERSION
from .contfrac import RationalTruncation
from .ergosum import ErgodicContext
from .errors import CertificateError, ConfigError, _integers
from .observables import (Observable, VectorObservable, gamma_array,
                          gamma_sq_array, series_weights)
from .sequences import SubsequencePlan

__all__ = [
    "SampleSet",
    "ExperimentReport",
    "StratifiedSampler",
    "GridSampler",
    "DOUBLING_DEN",
    "normal_cdf",
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
# Series lengths of the Fourier instruments.
_TAIL_JMAX = 20_000                 # fourier_tail_norm
_RESONANCE_MMAX = 2000              # resonance sums


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StratifiedSampler:
    """K stratified random rationals i*step + U_i over a fixed denominator."""

    seed: int
    size: int
    den: int = 2 ** 64

    def __post_init__(self):
        seed, size, den = _integers("sampler seed, size and denominator",
                                    self.seed, self.size, self.den)
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
        if not 1 <= size <= den:
            raise ConfigError(f"sample size must be >= 1 and at most "
                              f"den = {self.den}, got {self.size}")

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

def normal_cdf(x: float) -> float:
    """Standard normal CDF via the stdlib complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _normal_cdf_array(x: np.ndarray) -> np.ndarray:
    # imported on first use: scipy.special adds about 20 MB to the process,
    # and neither the exact sums nor the billiard's two routes need it
    from scipy import special
    return special.ndtr(x)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(512)


def mixture_cdf(t) -> np.ndarray:
    """CDF of sqrt(2) |cos(pi Y)| * Z with Y uniform on [0,1], Z standard
    normal:  F(t) = int_0^1 Phi(t / (sqrt(2) |cos(pi y)|)) dy.

    Gauss-Legendre on [0, 1/2] (doubled by symmetry); the y -> 1/2 endpoint
    contributes Phi(+-inf) = step(t), which the saturating integrand handles.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    y = 0.25 * (_GL_NODES + 1.0)          # [0, 1/2]
    w = 0.25 * _GL_WEIGHTS
    sig = math.sqrt(2.0) * np.abs(np.cos(np.pi * y))
    vals = 2.0 * (_normal_cdf_array(t_arr[:, None] / sig[None, :]) @ w)
    return vals if np.ndim(t) else float(vals[0])


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
    """The sample as a sorted float64 array; empty or non-finite samples
    raise ConfigError."""
    z = np.sort(np.asarray(samples, dtype=np.float64))
    if z.size == 0:
        raise ConfigError("empty sample")
    if not np.all(np.isfinite(z)):
        raise ConfigError("samples must be finite")
    return z


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
    package is drawn here."""
    ctx = ErgodicContext(phi, trunc, sampler.den)
    sums = [ctx.sum_at(int(m), N) for m in sampler.numerators()]
    return np.array(sums, dtype=np.float64).reshape(len(sums), -1)


def sample_sums(plan: SubsequencePlan, phi: Observable,
                sampler: StratifiedSampler | GridSampler, n: int) -> SampleSet:
    """Samples of S_{L_n} phi(x) over the sampler's x, exact engine.

    ``normalization`` is the empirical L2 norm; ``prediction`` the Fourier
    variance sum_{k<=n} ||hat_phi_{q_{t_k}}||_2^2.
    """
    if not 0 <= n <= plan.count:
        raise ConfigError("n outside plan range")
    vals = draw_sums(phi, plan.trunc, sampler, plan.L[n])[:, 0]
    if n == 0:
        return SampleSet(vals, 1.0, prediction=0.0)
    norm = math.sqrt(float(np.mean(vals ** 2)))
    return SampleSet(vals, norm, prediction=plan.hat_variance(phi, n))


def clt_report(plan: SubsequencePlan, phi: Observable, n: int, ss: SampleSet,
               seed: int) -> ExperimentReport:
    """Normalized-sum Gaussianity check of the samples ``ss`` of
    S_{L_n} phi, drawn by ``sample_sums`` at plan position n."""
    if not 1 <= n <= plan.count:
        raise ConfigError("n outside plan range [1, plan.count]")
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
               "observable": getattr(phi, "label", "?")},
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
    every sum in k order, so each sum equals its own separate pass.
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
                terms[shifted] = (np.cos(2 * np.pi * frac)
                                  + np.cos(4 * np.pi * frac))
            out += terms[shifted]
    return outs


def erdos_fortet_experiment(n: int, samples: int, seed: int) -> ExperimentReport:
    """Distribution of (1/sqrt n) sum f0((2^k - 1) x): converges to the
    sqrt(2)|cos(pi Y)| Gaussian mixture, detectably non-Gaussian.

    Passes when KS(mixture) <= _EF_KS_MIX_TOL and the best-fit single normal
    is worse by at least _EF_GAP_TOL.
    """
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    sampler = StratifiedSampler(seed, samples, DOUBLING_DEN)
    nums = sampler.numerators().astype(np.int64)
    z = _f0_sum(nums, n, None)[0] / math.sqrt(n)
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
    if a < 1:
        raise ConfigError(f"exponent a must be >= 1, got {a}")
    out: set[int] = set()
    m = 1
    while m ** a <= nmax:
        for k in range(m ** a, min(m ** a + m, nmax) + 1):
            out.add(k)
        m += 1
    return out


def gaposhkin_count(a: int, nmax: int) -> int:
    """#({1..nmax} intersect I_a), exact."""
    return len([k for k in gaposhkin_index_set(a, nmax) if 1 <= k <= nmax])


def gaposhkin_demo(a: int, n: int, samples: int, seed: int) -> ExperimentReport:
    """Compares the normalized sums over 2^k against the sequence modified to
    2^k - 1 on the sparse index set I_a: the modification is invisible at
    scale sqrt(n)."""
    if a < 5:
        raise ConfigError("exponent a must be >= 5")
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    sampler = StratifiedSampler(seed, samples, DOUBLING_DEN)
    nums = sampler.numerators().astype(np.int64)
    mism = gaposhkin_index_set(a, n)
    s_plain, s_mod = (s / math.sqrt(n) for s in _f0_sum(nums, n, (), mism))
    ks = two_sample_ks(s_plain, s_mod)
    count = gaposhkin_count(a, n)
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

def _resonance_sum(f: Observable, ka: int, g: Observable, kb: int,
                   mmax: int) -> float:
    """sum over m != 0 of c_{ka m}(f) conj(c_{kb m}(g)); real by conjugate
    symmetry of real observables."""
    gf = gamma_array(f, ka, mmax)
    gg = gamma_array(g, kb, mmax)
    m = np.arange(1, mmax + 1, dtype=np.float64)
    series = (gf * gg.conjugate()) / (ka * kb * m * m)
    return float(2.0 * np.sum(series.real))


def resonance_integral(f: Observable, l1: int, g: Observable, l2: int,
                       mmax: int = _RESONANCE_MMAX) -> tuple[float, float]:
    """(|value|, tail_bound) for int_0^1 f(l1 x) conj(g(l2 x)) dx.

    Only frequencies with l1 k = l2 m resonate: k = (l2/d) m', m = (l1/d) m'
    with d = gcd(l1, l2); the series over m' is truncated at mmax.
    """
    if l1 < 1 or l2 < 1:
        raise ConfigError("multipliers must be positive integers")
    d = math.gcd(l1, l2)
    ka, kb = l2 // d, l1 // d
    val = _resonance_sum(f, ka, g, kb, mmax)
    kf, kg = f.kbound(), g.kbound()
    tail = 2.0 * kf * kg / (ka * kb) / mmax
    return abs(val), tail


def fourier_tail_norm(f: Observable, t: float) -> float:
    """Partial sum of R(f, t) = (sum_{|j| >= t} |c_j|^2)^(1/2); an
    underestimate of the true tail norm (no completion term added)."""
    if not math.isfinite(t):
        raise ConfigError(f"tail index t must be finite, got {t}")
    j0 = max(1, math.ceil(t))
    w = series_weights(gamma_sq_array(f, 1, _TAIL_JMAX))
    return math.sqrt(float(np.sum(w[j0 - 1:])))


def quasi_orthogonality_check(f: Observable, g: Observable,
                              l1: int, l2: int) -> tuple[float, float]:
    """Check |int f(l1 x) conj(g(l2 x))| <= R(f, l2/l1) ||g||_2.

    Returns (lhs, rhs) as truncated evaluations; the check grants the
    left side its truncation tail, so genuine violations fail while the
    equality case (l1 = l2, f = g, both sides ||f||_2^2) passes.
    """
    if l2 < l1:
        raise ConfigError("need l2 >= l1")
    val, tail = resonance_integral(f, l1, g, l2)
    rhs = fourier_tail_norm(f, l2 / l1) * math.sqrt(float(g.norm_sq()))
    if val > rhs + tail + 1e-12:
        raise CertificateError(
            f"quasi-orthogonality violated: {val} > {rhs} + {tail}")
    return val, rhs


def block_variance_ratio(fs: list, ns: list) -> float:
    """int (sum_k f_k(n_k x))^2 dx / sum_k ||f_k||_2^2 via resonance sums.

    The numerator expands into exact diagonal norms plus pairwise resonance
    integrals (signed real parts, truncation tails included in neither side:
    tails are O(K^2/(rho mmax)) with mmax = _RESONANCE_MMAX, and reported by
    the caller's tolerance).
    """
    if len(fs) != len(ns):
        raise ConfigError("need one observable per frequency")
    ns = _integers("frequencies", *ns)
    if any(n < 1 for n in ns):
        raise ConfigError(f"frequencies must be >= 1, got {ns}")
    diag = sum(float(f.norm_sq()) for f in fs)
    if diag == 0:
        raise ConfigError("need observables of nonzero total norm")
    cross = 0.0
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            d = math.gcd(ns[i], ns[j])
            ka, kb = ns[j] // d, ns[i] // d
            cross += 2.0 * _resonance_sum(fs[i], ka, fs[j], kb, _RESONANCE_MMAX)
    return (diag + cross) / diag


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
    if not 1 <= n <= plan.count:
        raise ConfigError("n outside plan range")
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
