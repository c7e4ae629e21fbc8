import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from scipy import integrate
from scipy import stats as sst

from rotsum import billiard as bil
from rotsum import cli
from rotsum import contfrac as cf
from rotsum import ergosum as es
from rotsum import observables as obs
from rotsum import parallel as par
from rotsum import sequences as seq
from rotsum import stats as st
from rotsum.errors import ConfigError, RotsumError


def fewest_to_split(row_ns: int) -> int:
    """The fewest points that parallel._split_rows shares between two
    processes at ``row_ns`` nanoseconds a point: two forks' cost of work."""
    return -(-2 * par._FORK_NS // row_ns)


# ---------------------------------------------------------------------------
# Instruments
# ---------------------------------------------------------------------------

def test_scipy_special_loads_on_first_gaussian_cdf():
    # about 20 MB that the exact sums and the billiard never pay for, and
    # the mixture's Gauss-Legendre rule, an eigenproblem only it needs
    code = ("import sys; import rotsum.cli, rotsum.billiard; "
            "assert 'scipy.special' not in sys.modules; "
            "from rotsum import stats; stats._normal_cdf_array(0.0); "
            "assert 'scipy.special' in sys.modules; "
            "assert stats._mixture_rule.cache_info().currsize == 0; "
            "stats.mixture_cdf(0.0); "
            "assert stats._mixture_rule.cache_info().currsize == 1")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def normal_cdf(x: float) -> float:
    """The oracle: the standard normal CDF from the stdlib erfc."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def test_normal_cdf_values():
    assert st._normal_cdf_array(0.0) == pytest.approx(0.5, abs=1e-15)
    assert st._normal_cdf_array(1.0) == pytest.approx(0.8413447460685429,
                                                      abs=1e-12)
    xs = np.linspace(-6, 6, 101)
    arr = st._normal_cdf_array(xs)
    for x, v in zip(xs, arr):
        assert abs(v - normal_cdf(x)) < 1e-13


def test_mixture_cdf_symmetry_and_quadrature():
    assert st.mixture_cdf(0.0) == pytest.approx(0.5, abs=1e-12)
    for t in (-2.0, -0.5, 0.7, 1.9):
        direct, _ = integrate.quad(
            lambda y: normal_cdf(t / (math.sqrt(2) * abs(math.cos(math.pi * y))))
            if abs(math.cos(math.pi * y)) > 1e-14 else (1.0 if t > 0 else
                                                        0.5 if t == 0 else 0.0),
            0, 1, limit=400, points=[0.5])
        assert st.mixture_cdf(t) == pytest.approx(direct, abs=5e-7)
        # symmetry F(-t) = 1 - F(t)
        assert st.mixture_cdf(-t) == pytest.approx(1 - st.mixture_cdf(t),
                                                   abs=1e-12)


def two_matrix_mixture_cdf(t):
    """The oracle: the mixture CDF as two n x 512 matrices, the integrand's
    arguments and a new one for Phi of them."""
    nodes, weights = np.polynomial.legendre.leggauss(512)
    t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    y = 0.25 * (nodes + 1.0)
    w = 0.25 * weights
    sig = math.sqrt(2.0) * np.abs(np.cos(np.pi * y))
    vals = 2.0 * (st._normal_cdf_array(t_arr[:, None] / sig[None, :]) @ w)
    return vals if np.ndim(t) else float(vals[0])


# one-row, block-sized, one-row-tail and thread-split sizes: the last block
# has 17 rows at 17, 33 and 4097, and two BLAS threads split a one-shot
# product of 10001 rows unevenly.  From _MIX_SPLIT points on two processes
# split the rows at a multiple of _MIX_ROWS: one point fewer stays whole,
# _MIX_SPLIT (1250) and one more are cut below their middle (at row 624),
# and 2050 at 1024, not at 1025, where two rows took other bits
_MIX_SPLIT = fewest_to_split(st._MIX_NS)
_MIX_SIZES = (1, 2, 15, 16, 17, 18, 33, _MIX_SPLIT - 1, _MIX_SPLIT,
              _MIX_SPLIT + 1, 2050, 4097, 10000, 10001)


def mixture_lines(cdf) -> str:
    """``cdf`` at the test sizes' sorted points and at five scalars, one
    line per case: the result's type name and the hex of its bytes."""
    rng = np.random.default_rng(22)
    cases = [np.sort(1.3 * rng.standard_normal(n)) for n in _MIX_SIZES]
    lines = []
    for t in cases + [0.0, -0.37, 2.5, math.inf, -math.inf]:
        got = cdf(t)
        lines.append(f"{type(got).__name__} {np.float64(got).tobytes().hex()}")
    return "\n".join(lines)


def lines_at(threads: int, call: str) -> list[str]:
    """The lines that ``call``, an expression over this module as ``t``,
    returns in a new process on two cores whose BLAS runs ``threads``
    threads, set before numpy loads."""
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(here.parent / "src"), str(here)]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    code = ("import sys, test_stats as t; t.par._cores = lambda: 2; "
            f"sys.stdout.write({call})")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_mixture_cdf_in_place_is_bitwise_the_two_matrix_formula():
    # at one BLAS thread, since the one-shot oracle's bits depend on how
    # BLAS splits its product between threads
    got = lines_at(1, "t.mixture_lines(t.st.mixture_cdf)")
    assert got == lines_at(1, "t.mixture_lines(t.two_matrix_mixture_cdf)")
    assert all(line.startswith("ndarray ") for line in got[:-5])
    assert all(line.startswith("float ") for line in got[-5:])
    assert st.mixture_cdf(math.inf) == 1.0
    assert st.mixture_cdf(-math.inf) == 0.0


def test_mixture_cdf_is_the_same_at_any_blas_thread_count():
    # a one-shot n x 512 product gives other bits at 10001 points under two
    # BLAS threads
    assert (lines_at(1, "t.mixture_lines(t.st.mixture_cdf)")
            == lines_at(2, "t.mixture_lines(t.st.mixture_cdf)"))


def test_mixture_cdf_holds_one_block():
    # the one-shot n x 512 matrix read 39 MiB here
    t = np.sort(np.random.default_rng(3).standard_normal(10000))
    st.mixture_cdf(t[:1])                 # the rule is built outside
    tracemalloc.start()
    try:
        st.mixture_cdf(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20


def split_points(size: int) -> np.ndarray:
    return np.sort(1.3 * np.random.default_rng(5).standard_normal(size))


def split_lines() -> str:
    """mixture_cdf at _MIX_SPLIT sorted points in one process, then split
    between two, before and after a product that BLAS splits between its
    threads: one hex line each."""
    t = split_points(_MIX_SPLIT)
    lines = []
    for cores, threaded in ((1, False), (2, False), (1, True), (2, True)):
        par._cores = lambda: cores
        if threaded:
            m = np.random.default_rng(0).standard_normal((800, 800))
            m @ m
        lines.append(st.mixture_cdf(t).tobytes().hex())
    return "\n".join(lines)


@pytest.mark.parametrize("threads", [1, 2])
def test_mixture_cdf_is_the_same_at_any_process_count(threads):
    values = lines_at(threads, "t.split_lines()")
    assert values == [values[0]] * 4


def test_mixture_cdf_split_follows_the_work(forks):
    # split_lines' size is the fewest points that two processes share
    for size, count in ((_MIX_SPLIT - 1, 0), (_MIX_SPLIT, 1)):
        forks.cores(2)
        st.mixture_cdf(split_points(size))
        assert forks.count == count


@pytest.mark.parametrize("bad", [math.nan, [0.1, math.nan], "abc",
                                 [0.1, "x"], object(), [[0.1, 0.2]],
                                 np.zeros((2, 3))],
                         ids=["nan", "nan-in-array", "str", "str-in-list",
                              "object", "nested-list", "2-d"])
def test_mixture_cdf_rejects_bad_input(bad):
    with pytest.raises(ConfigError):
        st.mixture_cdf(bad)


def test_ks_constant_samples():
    ks = st.ks_statistic(np.zeros(100), st._normal_cdf_array)
    assert ks >= 0.5


def test_ks_two_point_oracle():
    # half the mass at -1, half at +1, against N(0,1): sup gap is at +-1,
    # equal to Phi(1) - 1/2 by the hand computation of the step ECDF
    k = 10000
    samples = np.concatenate([-np.ones(k // 2), np.ones(k // 2)])
    ks = st.ks_statistic(samples, st._normal_cdf_array)
    assert ks == pytest.approx(normal_cdf(1.0) - 0.5, abs=1e-9)


def test_ks_self_consistency_seeded():
    rng = np.random.default_rng(123)
    z = rng.standard_normal(10000)
    assert st.ks_statistic(z, st._normal_cdf_array) < 0.03


def test_ks_empty_rejected():
    with pytest.raises(ConfigError):
        st.ks_statistic([], st._normal_cdf_array)


def test_ks_non_finite_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError):
            st.ks_statistic([0.1, bad, 0.3], st._normal_cdf_array)


def test_ks_cdf_of_wrong_shape_rejected():
    for cdf in (lambda z: 0.5, lambda z: st._normal_cdf_array(z)[:-1]):
        with pytest.raises(ConfigError):
            st.ks_statistic([0.1, 0.2, 0.3], cdf)


def test_ks_cdf_errors_propagate():
    def broken(z):
        raise ZeroDivisionError("cdf failed")

    with pytest.raises(ZeroDivisionError):
        st.ks_statistic([0.1, 0.2, 0.3], broken)


# Draws from a coarse grid tie often; the free floats rarely do.
ks_samples = hst.lists(hst.one_of(hst.integers(-8, 8).map(lambda k: k / 4),
                                  hst.floats(-6, 6)),
                       min_size=1, max_size=60)


@settings(max_examples=100)
@given(x=ks_samples)
@example(x=[0.25, -1.0, 0.25, 0.25, 2.0])
def test_ks_statistic_matches_scipy(x):
    want = sst.kstest(x, sst.norm.cdf, method="asymp").statistic
    assert st.ks_statistic(x, st._normal_cdf_array) == pytest.approx(
        want, abs=1e-12)


@settings(max_examples=100)
@given(a=ks_samples, b=ks_samples)
@example(a=[0.0, 0.5, 0.0], b=[0.5, 1.0, 0.0, 0.5])
def test_two_sample_ks_matches_scipy(a, b):
    with np.errstate(divide="ignore"):   # scipy's p-value at one point
        want = sst.ks_2samp(a, b, method="asymp").statistic
    assert st.two_sample_ks(a, b) == pytest.approx(want, abs=1e-12)


def test_stratified_sampler_sizes():
    with pytest.raises(ConfigError):
        st.StratifiedSampler(seed=0, size=0)
    # one stratum spans the whole denominator
    (x,) = st.StratifiedSampler(seed=4, size=1).numerators()
    assert 0 <= x < 2 ** 64
    # two strata keep the int64 draws the reproducible reports pin
    offs = np.random.default_rng(4).integers(0, 2 ** 63, size=2,
                                             dtype=np.int64)
    nums = st.StratifiedSampler(seed=4, size=2).numerators()
    assert list(nums) == [int(offs[0]), 2 ** 63 + int(offs[1])]


def test_two_sample_ks_identical():
    rng = np.random.default_rng(1)
    z = rng.standard_normal(500)
    assert st.two_sample_ks(z, z) == 0.0


# ---------------------------------------------------------------------------
# Subsequence CLT machinery
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def plan40():
    tr = cf.truncation(cf.clt_design_rule(c=30, beta=2, max_index=48), 46)
    return seq.plan_growth(tr, 2, 40)


def test_sample_sums_zero_plan(plan40):
    ss = st.sample_sums(plan40, obs.Sawtooth(),
                        st.StratifiedSampler(seed=0, size=64), 0)
    assert not np.any(ss.values)


def test_sample_sums_reproducible(plan40):
    sampler = st.StratifiedSampler(seed=5, size=200)
    a = st.sample_sums(plan40, obs.Sawtooth(), sampler, 10)
    b = st.sample_sums(plan40, obs.Sawtooth(), sampler, 10)
    assert np.array_equal(a.values, b.values)
    assert a.prediction == b.prediction == pytest.approx(10 / 12)


def test_sample_sums_mean_small(plan40):
    ss = st.sample_sums(plan40, obs.Sawtooth(),
                        st.StratifiedSampler(seed=2, size=4000), 20)
    k = len(ss.values)
    sd = float(np.std(ss.values))
    assert abs(float(np.mean(ss.values))) <= 3 * sd / math.sqrt(k) + 0.05


def test_plan_extension_block_identity(plan40):
    # S_{L_{n+1}}(x) - S_{L_n}(x) = S_{q_{t_{n+1}}}({x + L_n alpha}), exactly
    tr = plan40.trunc
    phi = obs.indicator(Fraction(1, 3))
    n = 6
    x = Fraction(5, 17)
    s_n = es.ergodic_sum(phi, x, plan40.L[n], tr)
    s_n1 = es.ergodic_sum(phi, x, plan40.L[n + 1], tr)
    shift = (x + plan40.L[n] * tr.value) % 1
    block = es.ergodic_sum(phi, shift, plan40.q(n + 1), tr)
    assert s_n1 - s_n == block


def test_variance_ratio_trend(plan40):
    # empirical variance over the Fourier prediction stays in [0.9, 1.1]
    # across n = 10, 20, 40 (band frozen from seeded runs)
    for n, k in ((10, 4000), (20, 4000), (40, 4000)):
        ss = st.sample_sums(plan40, obs.Sawtooth(),
                            st.StratifiedSampler(seed=7, size=k), n)
        ratio = ss.normalization ** 2 / ss.prediction
        assert 0.9 <= ratio <= 1.1


def test_partial_block_clt(plan40):
    # S_{L_40} - S_{L_20} = S_{L_40 - L_20}({x + L_20 alpha}): the block is
    # again approximately Gaussian with variance ~ the block's hat norms
    tr = plan40.trunc
    phi = obs.Sawtooth()
    m, n, k = 20, 40, 4000
    sampler = st.StratifiedSampler(seed=13, size=k)
    block_len = plan40.L[n] - plan40.L[m]
    alpha_shift = Fraction((plan40.L[m] * tr.p) % tr.q, tr.q)
    vals = []
    for num in sampler.numerators():
        x = (Fraction(int(num), sampler.den) + alpha_shift) % 1
        vals.append(float(es.ergodic_sum(phi, x, block_len, tr)))
    vals = np.array(vals)
    pred = (n - m) / 12.0
    emp = float(np.mean(vals ** 2))
    assert 0.85 <= emp / pred <= 1.15
    z = vals / math.sqrt(emp)
    assert st.ks_statistic(z, st._normal_cdf_array) <= 0.04


def test_grid_sampler_runs(plan40):
    ss = st.sample_sums(plan40, obs.Sawtooth(), st.GridSampler(size=256), 10)
    assert len(ss.values) == 256


@pytest.mark.parametrize("size", [0, -3])
def test_grid_sampler_refuses_an_empty_grid(size, capsys):
    # used to construct, and rotsum sum failed later, in ErgodicContext,
    # on "sample denominator must be >= 1"
    with pytest.raises(ConfigError, match=f"sample size must be >= 1, "
                                          f"got {size}"):
        st.GridSampler(size)
    assert cli.main(["sum", "--opt", f"N=5,grid={size}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: sample size must be >= 1, got {size}\n"


def test_clt_experiment_rejects_positions_outside_plan(plan40):
    # n = 0 would divide by a zero prediction
    for n in (-1, 0, plan40.count + 1):
        with pytest.raises(ConfigError, match="outside plan range"):
            st.clt_experiment(plan40, obs.Sawtooth(), n, 50, seed=0)


def test_sample_sums_rejects_vector_observable(plan40):
    vec = obs.billiard_displacement(Fraction(1, 3))
    for n in (0, 10):
        with pytest.raises(ConfigError, match="not a scalar observable"):
            st.sample_sums(plan40, vec, st.StratifiedSampler(seed=0, size=8), n)


def test_floor_sums_per_sample(monkeypatch, forks, plan40):
    # one walk of the Euclid chain per distinct jump point per sample,
    # shared by psi1 and psi2, counted in one process
    calls = []
    real = es._walk
    monkeypatch.setattr(es, "_walk",
                        lambda *args: calls.append(1) or real(*args))
    forks.cores(1)
    k = 40
    sampler = st.StratifiedSampler(seed=0, size=k)
    for phi, per_sample in ((obs.Sawtooth(), 1),
                            (obs.indicator(Fraction(1, 3)), 2)):
        calls.clear()
        st.sample_sums(plan40, phi, sampler, 10)
        assert len(calls) == per_sample * k
    tr = cf.truncation(cf.parity_design_rule(c=12, beta=2, max_index=30), 26)
    plan = seq.plan_parity(tr, 2, 6)
    calls.clear()
    st.covariance_2d(plan, obs.billiard_displacement(tr.value), 6, k, seed=0)
    assert len(calls) == 4 * k


def test_draw_sums_builds_one_chain(plan40):
    # every floor sum of a sample set at one N shares (N, P, L), so the set
    # fetches one Euclid chain and walks it once per floor sum
    k = 40
    sampler = st.StratifiedSampler(seed=0, size=k)
    es._chain.cache_clear()
    st.draw_sums((obs.indicator(Fraction(1, 3)), obs.Sawtooth()),
                 plan40.trunc, sampler, plan40.L[10])
    info = es._chain.cache_info()
    assert (info.misses, info.hits) == (1, 0)


@pytest.fixture(scope="module")
def split_sets():
    """(phi, truncation, sampler, N) of sample sets that split evenly,
    unevenly or not at all: the clt:c=30 indicator set at the 500-bit L_40,
    at 1001 points and on each side of the split rule, the billiard's psi
    pair on a parity plan and a grid."""
    plan = seq.plan_growth(cli.parse_alpha("clt:c=30", 48), 2.0, 40)
    tr = cf.truncation(cf.parity_design_rule(c=12, beta=2, max_index=30), 26)
    pplan = seq.plan_parity(tr, 2, 6)
    psi = bil.psi_components(bil.params_for_plan(pplan.trunc)).components
    ind = obs.indicator(Fraction(1, 3))
    walks = len(es.ErgodicContext(ind, plan.trunc, 2 ** 64).offsets)
    two = fewest_to_split(walks * st._WALK_NS)
    return {
        "clt_indicator_1001": (ind, plan.trunc,
                               st.StratifiedSampler(seed=3, size=1001),
                               plan.L[40]),
        "psi_pair_800": (psi, pplan.trunc,
                         st.StratifiedSampler(seed=5, size=800), pplan.L[6]),
        "indicator_one_process": (ind, plan.trunc,
                                  st.StratifiedSampler(seed=1, size=two - 1),
                                  plan.L[40]),
        "indicator_two_processes": (ind, plan.trunc,
                                    st.StratifiedSampler(seed=1, size=two),
                                    plan.L[40]),
        "grid_600": (obs.half(), plan.trunc, st.GridSampler(600), 10 ** 30),
    }


@pytest.mark.parametrize("name", ["clt_indicator_1001", "psi_pair_800",
                                  "indicator_one_process",
                                  "indicator_two_processes", "grid_600"])
def test_draw_sums_identical_at_any_process_count(forks, split_sets, name):
    phi, trunc, sampler, N = split_sets[name]
    draws = []
    for cores in (1, 2, 3):
        forks.cores(cores)
        draws.append(st.draw_sums(phi, trunc, sampler, N))
    width = len(phi) if isinstance(phi, tuple) else 1
    assert draws[0].shape == (sampler.size, width)
    assert draws[0].dtype == np.float64
    assert draws[1].tobytes() == draws[0].tobytes()
    assert draws[2].tobytes() == draws[0].tobytes()


def test_draw_sums_forks_only_for_large_sets(forks, split_sets):
    # on 3 cores: each forked process takes at least _FORK_NS of walks
    for name, children in (("indicator_one_process", 0),
                           ("indicator_two_processes", 1), ("grid_600", 2),
                           ("clt_indicator_1001", 2)):
        forks.cores(3)
        st.draw_sums(*split_sets[name])
        assert forks.count == children, name


def test_split_gives_every_process_a_point(forks):
    # no process gets an empty chunk, however much a point is worth: on 3
    # cores, 1 point of ten forks' work stays here and 2 take one child
    parent = []

    def kernel(nums):
        parent.append(len(nums))
        return nums[:, None].astype(np.float64)

    for size, count in ((1, 0), (2, 1)):
        forks.cores(3)
        parent.clear()
        rows = par._split_rows(kernel, np.arange(size), 10 * par._FORK_NS)
        assert rows[:, 0].tolist() == list(range(size))
        assert forks.count == count and parent == [1]


def test_failed_child_raises_and_is_reaped(monkeypatch, forks, split_sets):
    # the kernel fails in the children only: the parent raises a typed
    # error and leaves no child behind (``forks`` checks at teardown)
    parent = os.getpid()
    real = es.ErgodicContext.sums_at

    def failing(self, nums, N):
        if os.getpid() != parent:
            raise MemoryError("no room in the child")
        return real(self, nums, N)

    monkeypatch.setattr(es.ErgodicContext, "sums_at", failing)
    forks.cores(3)
    with pytest.raises(RotsumError, match="returned 0 of"):
        st.draw_sums(*split_sets["grid_600"])
    # a failure in this process reaps the children too
    monkeypatch.setattr(es.ErgodicContext, "sums_at",
                        lambda self, nums, N: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        st.draw_sums(*split_sets["clt_indicator_1001"])


def test_clt_experiment_report(plan40):
    rep = st.clt_experiment(plan40, obs.Sawtooth(), 12, 2000, seed=1)
    assert rep.passed
    assert rep.plan_hash == plan40.plan_hash()
    assert "ks" in rep.empirical
    doc = rep.to_json()
    assert "config_hash" in doc
    rep2 = st.clt_experiment(plan40, obs.Sawtooth(), 12, 2000, seed=1)
    assert rep.to_json() == rep2.to_json()


# ---------------------------------------------------------------------------
# Doubling-map experiments
# ---------------------------------------------------------------------------

def test_erdos_fortet_identity():
    rng = np.random.default_rng(8)
    xs = rng.random(20)
    for n in (3, 10, 20):
        assert st.erdos_fortet_identity_error(n, xs) < 1e-9


def test_erdos_fortet_experiment_small():
    rep = st.erdos_fortet_experiment(400, 4000, seed=3)
    assert rep.empirical["ks_mixture"] < 0.05
    assert rep.empirical["ks_best_normal"] > rep.empirical["ks_mixture"]
    assert rep.empirical["variance"] == pytest.approx(1.0, abs=0.15)


def test_gaposhkin_count_exact():
    # I_5 inside [1, 10^6]: sum over m <= 15 of (m + 1)
    assert st.gaposhkin_count(5, 10 ** 6) == sum(m + 1 for m in range(1, 16))
    assert st.gaposhkin_count(5, 10 ** 6) <= (10 ** 6) ** (2 / 5)


def test_f0_sums_share_one_pass():
    # the fused pass equals a separate pass per shifted set, bit for bit
    sampler = st.StratifiedSampler(4, 300, st.DOUBLING_DEN)
    nums = sampler.numerators().astype(np.int64)
    sets = ((), st.gaposhkin_index_set(5, 60), None)
    for fused, shifted_set in zip(st._f0_sum(nums, 60, *sets), sets):
        assert np.array_equal(fused, st._f0_sum(nums, 60, shifted_set)[0])


@settings(max_examples=60)
@given(nums=hst.lists(hst.integers(0, st.DOUBLING_DEN - 1), min_size=1,
                      max_size=6),
       n=hst.integers(1, 80), data=hst.data())
@example(nums=[0, 1, st.DOUBLING_DEN - 1], n=80, data=None)
def test_f0_sum_matches_exact_residues(nums, n, data):
    # oracle: the residues 2^k x mod D from Python's exact pow, shifted by
    # -x mod D where e_k = 2^k - 1, and the cosines from the math module
    D = st.DOUBLING_DEN
    picked = (set() if data is None
              else data.draw(hst.sets(hst.integers(1, n))))
    sets = (None, (), picked)
    fused = st._f0_sum(np.array(nums, dtype=np.int64), n, *sets)
    for got, shifted_set in zip(fused, sets):
        for x, value in zip(nums, got):
            want = 0.0
            for k in range(1, n + 1):
                t = pow(2, k, D) * x % D
                if shifted_set is None or k in shifted_set:
                    t = (t - x) % D
                want += (math.cos(2 * math.pi * t / D)
                         + math.cos(4 * math.pi * t / D))
            assert abs(value - want) <= 1e-12 * n


def _f0_sum_plain_order(nums, n, *shifted_sets):
    """``st._f0_sum`` with each term's cosines taken in sample order: the
    loop before the bucket order, kept as its bit-for-bit oracle."""
    D = st.DOUBLING_DEN
    r = nums.copy()
    outs = [np.zeros(nums.size) for _ in shifted_sets]
    for k in range(1, n + 1):
        r = 2 * r
        r -= D * (r >= D)
        terms = {}
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


def _bucket_edge_numerators():
    """Numerators whose fraction at k = 1 is exactly a bucket edge
    j / _COS_BUCKETS, for the shifted term (t = x) and for the plain one
    (t = 2 x mod D): 42 of the 128 edges are a float t / D."""
    D = st.DOUBLING_DEN
    nums = []
    for j in range(st._COS_BUCKETS):
        for t in range(j * D // st._COS_BUCKETS - 3,
                       j * D // st._COS_BUCKETS + 4):
            if 0 <= t < D and t / D * st._COS_BUCKETS == j:
                nums += [t, t * (D + 1) // 2 % D]
    return np.array(nums, dtype=np.int64)


@pytest.mark.parametrize("n", [1, 2, 60, 500])
def test_f0_sum_bucket_order_keeps_every_bit(n):
    D = st.DOUBLING_DEN
    samples = [st.StratifiedSampler(7, size, D).numerators().astype(np.int64)
               for size in (1, 7, 5000)]
    samples.append(_bucket_edge_numerators())
    assert len(samples[-1]) == 84
    for nums in samples:
        for sets in [(None,), ((),), ((), st.gaposhkin_index_set(5, n)),
                     (None, (), {1, n // 2, n})]:
            got = st._f0_sum(nums, n, *sets)
            want = _f0_sum_plain_order(nums, n, *sets)
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


# the doubling-map experiments at a size and seed
DOUBLING_RUNS = {
    "erdos_fortet": lambda size, seed: st.erdos_fortet_experiment(250, size,
                                                                  seed),
    "gaposhkin": lambda size, seed: st.gaposhkin_demo(5, 250, size, seed),
}


# at n = 250 two processes need at least 800 points (_STEP_NS of work a
# point-step): 1001 points split unevenly, on 2 and on 3 cores, and 511
# stay in one process
@pytest.mark.parametrize("size", [1001, 511])
@pytest.mark.parametrize("name", sorted(DOUBLING_RUNS))
def test_doubling_experiments_identical_at_any_process_count(forks, name,
                                                             size):
    reports, columns = [], []
    for cores in (1, 2, 3):
        forks.cores(cores)
        reports.append(DOUBLING_RUNS[name](size, 3).to_json())
        assert forks.count == (1 if size == 1001 and cores > 1 else 0)
        # the reports' statistics barely see the order of the points, the
        # columns do
        columns.append(st._f0_columns(
            250, size, 3, None, (), st.gaposhkin_index_set(5, 250)).tobytes())
    assert reports[1] == reports[0] and columns[1] == columns[0]
    assert reports[2] == reports[0] and columns[2] == columns[0]


# erdos-fortet --samples 10000 --opt n=5 used to fork at a loss; the
# benchmark's n = 500 on 10000 points still splits, and so does every n
# from the fewest steps that give two processes two forks' cost of work
_F0_SPLIT_N = fewest_to_split(10000 * st._STEP_NS)


@pytest.mark.parametrize("n, count", [(5, 0), (_F0_SPLIT_N - 1, 0),
                                      (_F0_SPLIT_N, 1), (500, 1)])
def test_doubling_split_follows_the_work(forks, n, count):
    forks.cores(2)
    st._f0_columns(n, 10000, 0, None)
    assert forks.count == count


def test_failed_doubling_child_raises_and_is_reaped(monkeypatch, forks):
    parent = os.getpid()
    real = st._f0_sum

    def failing(*args):
        if os.getpid() != parent:
            raise MemoryError("no room in the child")
        return real(*args)

    monkeypatch.setattr(st, "_f0_sum", failing)
    forks.cores(3)
    for run in DOUBLING_RUNS.values():
        with pytest.raises(RotsumError, match="returned 0 of"):
            run(1001, 3)


def test_gaposhkin_demo_small():
    rep = st.gaposhkin_demo(5, 300, 4000, seed=9)
    assert rep.empirical["mismatches"] == 9  # [1,2], [32..34], [243..246]
    assert rep.empirical["ks_two_sample"] <= 0.05
    assert rep.empirical["sup_diff"] <= rep.prediction["sup_diff_bound"]
    with pytest.raises(ConfigError):
        st.gaposhkin_demo(4, 100, 100, seed=0)


# ---------------------------------------------------------------------------
# Quasi-orthogonality and block variance
# ---------------------------------------------------------------------------

def exact_product_integral(f, l1, g, l2):
    """Exact integral of f(l1 x) g(l2 x) for step observables and the
    sawtooth: between the jump points of both factors the product is a
    polynomial of degree at most 2, which Milne's open rule
    h/3 (2 F(1/4) - F(1/2) + 2 F(3/4)) integrates exactly."""
    breaks = {Fraction(0)}
    for phi, l in ((f, l1), (g, l2)):
        for t in phi.jumps():
            for j in range(l):
                breaks.add((t + j) / l)
    bs = sorted(breaks) + [Fraction(1)]
    total = Fraction(0)
    for lo, hi in zip(bs, bs[1:]):
        h = hi - lo
        F = [f.evaluate(l1 * x) * g.evaluate(l2 * x)
             for x in (lo + h / 4, lo + h / 2, lo + 3 * h / 4)]
        total += h / 3 * (2 * F[0] - F[1] + 2 * F[2])
    return total


def test_resonance_integral_vs_exact():
    f = obs.indicator(Fraction(1, 3))
    g = obs.half_shifted(Fraction(2, 7))
    for l1, l2 in ((1, 1), (1, 4), (2, 6), (3, 5)):
        exact = exact_product_integral(f, l1, g, l2)
        assert st.resonance_integral(f, l1, g, l2) == abs(exact)


_RESONANCE_POOL = [obs.Sawtooth(), obs.indicator(Fraction(1, 3)), obs.half(),
                   obs.double_interval(Fraction(1, 5), Fraction(3, 8)),
                   obs.half_shifted(Fraction(2, 7))]


@hst.composite
def zero_mean_observables(draw):
    """A catalog observable, each one of slope 0 shifted by a drawn rational."""
    phi = draw(hst.sampled_from(_RESONANCE_POOL))
    if phi.slope == 0:
        phi = phi.shifted(draw(hst.fractions(0, 1, max_denominator=9)))
    return phi


@settings(max_examples=80, deadline=None)
@given(f=zero_mean_observables(), g=zero_mean_observables(),
       l1=hst.integers(1, 8), l2=hst.integers(1, 8))
@example(f=obs.Sawtooth(), g=obs.Sawtooth(), l1=1, l2=8)
def test_resonance_integral_equals_the_exact_integral(f, l1, g, l2):
    # oracle: the product integrated piece by piece; every observable here
    # has mean 0, so the zero frequency the resonance leaves out is 0
    assert st.resonance_integral(f, l1, g, l2) == abs(
        exact_product_integral(f, l1, g, l2))


def test_resonance_at_consecutive_plan_denominators(plan40):
    # gamma_r(f) depends on r only modulo the jump points' denominators, so
    # ka kb I(ka, kb) depends only on ka and kb modulo them: a small coprime
    # pair with the same residues is an enumerable oracle for the
    # 200-500-bit multipliers
    f, g = obs.indicator(Fraction(1, 3)), obs.double_interval(Fraction(1, 5),
                                                             Fraction(3, 8))
    M = 3 * 5 * 8
    for k in (20, 39):
        l1, l2 = plan40.q(k), plan40.q(k + 1)
        assert l2.bit_length() > 200
        d = math.gcd(l1, l2)
        ka, kb = l2 // d, l1 // d
        small_a, small_b = next(
            (a, b) for a in range(ka % M or M, 10 * M, M)
            for b in range(kb % M or M, 10 * M, M) if math.gcd(a, b) == 1)
        value = st.resonance_integral(f, l1, g, l2)
        assert isinstance(value, Fraction) and value > 0
        assert value * ka * kb == abs(
            exact_product_integral(f, small_b, g, small_a)) * small_a * small_b
        lhs, rhs = st.quasi_orthogonality_check(f, g, l1, l2)
        assert lhs == value <= rhs


def test_quasi_orthogonality_self():
    f = obs.indicator(Fraction(1, 3))
    lhs, rhs = st.quasi_orthogonality_check(f, f, 1, 1)
    assert lhs == f.norm_sq()
    assert rhs >= lhs


@pytest.mark.parametrize("f, g, l2", [
    (obs.indicator(Fraction(1, 3)), obs.half(), 30001),
    (obs.indicator(Fraction(1, 3)), obs.half(), 100000),
    (obs.Sawtooth(), obs.Sawtooth(), 30001),
], ids=["indicator-30001", "indicator-100000", "sawtooth-30001"])
def test_quasi_orthogonality_past_the_tail_series(f, g, l2):
    # past the partial sum's length R(f, l2) used to read 0, and the check
    # raised CertificateError although the lemma holds
    lhs, rhs = st.quasi_orthogonality_check(f, g, 1, l2)
    assert 0 < lhs <= rhs
    # R(f, t)^2 <= 2 K^2 / (ceil(t) - 1), so the bound cannot exceed that
    k = f.kbound()
    assert rhs <= math.sqrt(2 * k * k / (l2 - 1) * float(g.norm_sq())) * (
        1 + 1e-12)


def test_quasi_orthogonality_phi0_eight():
    st_phi = obs.Sawtooth()
    lhs, rhs = st.quasi_orthogonality_check(st_phi, st_phi, 1, 8)
    # resonance series: sum over m of c_{8m} conj(c_m) = (1/96) exactly
    assert lhs == Fraction(1, 96)
    # R(phi0, 8) ||phi0||_2 with R^2 = (1/2 pi^2) sum_{j>=8} j^-2
    r_sq = sum(1 / (2 * math.pi ** 2 * j * j) for j in range(8, 200000))
    assert rhs == pytest.approx(math.sqrt(r_sq) / math.sqrt(12), rel=1e-3)


def test_quasi_orthogonality_random_pairs():
    rng = np.random.default_rng(17)
    pool = [obs.Sawtooth(), obs.indicator(Fraction(1, 3)), obs.half(),
            obs.double_interval(Fraction(1, 5), Fraction(3, 8)),
            obs.half_shifted(Fraction(2, 7))]
    for _ in range(25):
        f = pool[rng.integers(len(pool))]
        g = pool[rng.integers(len(pool))]
        l1 = int(rng.integers(1, 30))
        l2 = l1 * int(rng.integers(2, 12))
        lhs, rhs = st.quasi_orthogonality_check(f, g, l1, l2)
        assert lhs <= rhs + 1e-12


def test_block_variance_ratio_lacunary():
    rng = np.random.default_rng(21)
    pool = [obs.indicator(Fraction(1, 3)), obs.half(),
            obs.half_shifted(Fraction(2, 7)), obs.Sawtooth()]
    for trial in range(3):
        ns, cur = [], 1
        for _ in range(8):
            cur *= int(rng.integers(16, 21))
            ns.append(cur)
        fs = [pool[rng.integers(len(pool))] for _ in ns]
        ratio = st.block_variance_ratio(fs, ns)
        assert 0.5 <= ratio <= 1.5
