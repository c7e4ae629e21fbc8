import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from rotsum import billiard as bil
from rotsum import cli
from rotsum import contfrac as cf
from rotsum import observables as obs
from rotsum import sequences as seq
from rotsum import stats as st
from rotsum.errors import ConfigError

TWO_PI = 2 * math.pi


# --- independent Fourier oracle: integrate phi(x) e^{-2 pi i r x} piece by
# --- piece with the exact antiderivative (steps) / integration by parts
# --- (the sawtooth), entirely separate from the jump formula under test.

def c_r_oracle(phi, r: int) -> complex:
    if isinstance(phi, obs.Sawtooth):
        pieces = [(Fraction(0), Fraction(1))]
    else:
        bs = list(phi.breakpoints) + [Fraction(1)]
        pieces = list(zip(bs[:-1], bs[1:]))
    total = 0j
    w = -2j * math.pi * r
    for lo, hi in pieces:
        a, b = float(lo), float(hi)
        if isinstance(phi, obs.Sawtooth):
            # int (x - 1/2) e^{wx} dx by parts
            def F(x):
                return ((x - 0.5) * cmath.exp(w * x) / w
                        - cmath.exp(w * x) / (w * w))
            total += F(b) - F(a)
        else:
            v = float(phi.evaluate((lo + hi) / 2))
            total += v * (cmath.exp(w * b) - cmath.exp(w * a)) / w
    return total


def test_evaluate_basics():
    st = obs.Sawtooth()
    assert st.evaluate(0) == Fraction(-1, 2)
    assert st.evaluate(Fraction(3, 4)) == Fraction(1, 4)
    ind = obs.catalog("indicator", beta=Fraction(1, 3))
    assert ind.evaluate(Fraction(1, 2)) == Fraction(-1, 3)
    assert ind.evaluate(Fraction(1, 4)) == Fraction(2, 3)
    # closed-left / open-right at the breakpoint
    assert ind.evaluate(Fraction(1, 3)) == Fraction(-1, 3)


def test_sawtooth_keeps_the_values_and_types_of_its_own_class():
    # the values the dedicated sawtooth class returned, pinned as literals:
    # the one-jump, slope-1 step function must return each of them, of the
    # same type
    st = obs.Sawtooth()
    got = [st.evaluate(0), st.evaluate(Fraction(3, 4)),
           st.evaluate(Fraction(-7, 3)), st.mean(), st.variation(),
           st.norm_sq(), st.sup_abs()]
    want = [Fraction(-1, 2), Fraction(1, 4), Fraction(1, 6), Fraction(0),
            Fraction(2), Fraction(1, 12), Fraction(1, 2)]
    assert got == want and all(type(v) is Fraction for v in got)
    assert [(type(t), t, type(j), j) for t, j in st.jumps().items()] == [
        (Fraction, 0, Fraction, -1)]
    assert st.kbound().hex() == (1.0 / TWO_PI).hex()
    for r in (1, 7, 10 ** 30 + 3, -5):
        g = st.fourier_gamma(r)
        assert (g.real.hex(), g.imag.hex()) == ((1j / TWO_PI).real.hex(),
                                                (1j / TWO_PI).imag.hex())
    assert (st.label, st.slope, isinstance(st, obs.StepFunction)) == (
        "phi0", 1, True)


def test_fourier_gamma_rejects_zero():
    with pytest.raises(ValueError):
        obs.Sawtooth().fourier_gamma(0)


def test_phi0_gamma_constant():
    st = obs.Sawtooth()
    for r in (1, -3, 17):
        g = st.fourier_gamma(r)
        assert abs(g - (-1) / (2j * math.pi)) < 1e-15
        assert abs(abs(g) - 1 / TWO_PI) < 1e-15


def test_indicator_gamma_closed_form():
    beta = Fraction(2, 7)
    phi = obs.indicator(beta)
    for r in range(1, 30):
        expect = (cmath.exp(-1j * math.pi * r * float(beta))
                  * math.sin(math.pi * r * float(beta)) / math.pi)
        assert abs(phi.fourier_gamma(r) - expect) < 1e-12


def test_double_interval_gamma_closed_form():
    beta, gamma = Fraction(1, 5), Fraction(3, 8)
    phi = obs.double_interval(beta, gamma)
    for r in range(1, 25):
        expect_c = (2j / (math.pi * r)
                    * cmath.exp(-1j * math.pi * r * float(beta + gamma))
                    * math.sin(math.pi * r * float(beta))
                    * math.sin(math.pi * r * float(gamma)))
        assert abs(phi.fourier_gamma(r) / r - expect_c) < 1e-12


CATALOG = [
    obs.Sawtooth(),
    obs.indicator(Fraction(1, 3)),
    obs.half(),
    obs.double_interval(Fraction(1, 5), Fraction(3, 8)),
    obs.half_shifted(Fraction(2, 7)),
]


@pytest.mark.parametrize("phi", CATALOG, ids=lambda p: p.label)
def test_gamma_vs_quadrature_oracle(phi):
    for r in list(range(1, 30)) + [50, 100, -7, -100]:
        oracle = r * c_r_oracle(phi, r)
        assert abs(phi.fourier_gamma(r) - oracle) < 1e-10


@pytest.mark.parametrize("phi", CATALOG, ids=lambda p: p.label)
def test_catalog_centered_and_bounded_gamma(phi):
    assert phi.mean() == 0
    k = phi.kbound()
    for r in range(1, 200):
        assert abs(phi.fourier_gamma(r)) <= k + 1e-12


def test_half_gamma_parity():
    phi = obs.half()
    tr = cf.truncation(cf.golden(20), 15)
    for n in range(1, 12):
        q = tr.qs[n]
        g = phi.fourier_gamma(q)
        if q % 2 == 0:
            assert abs(g) < 1e-12
        else:
            assert abs(g - 2 / (math.pi * 1j)) < 1e-12


def test_indicator_variation_and_flags():
    phi = obs.indicator(Fraction(1, 3))
    assert phi.variation() == 2
    assert obs.half().variation() == 4
    with pytest.raises(ConfigError):
        obs.indicator(Fraction(3, 2))
    with pytest.raises(ConfigError):
        obs.catalog("nope")
    with pytest.raises(ConfigError):
        obs.catalog("indicator")  # missing beta


def test_hat_identity_and_fixed_point():
    phi = obs.indicator(Fraction(1, 3))
    assert obs.hat_observable(phi, 1) is phi
    st = obs.Sawtooth()
    for ell in (7, 10 ** 30 + 3):   # gamma_{r l} = gamma_r
        hat = obs.hat_observable(st, ell)
        assert (hat.jumps(), hat.mean(), hat.slope) == (
            st.jumps(), st.mean(), st.slope)
        assert (hat.breakpoints, hat.values) == (st.breakpoints, st.values)


@pytest.mark.parametrize("phi", CATALOG[1:], ids=lambda p: p.label)
@pytest.mark.parametrize("ell", [2, 3, 7, 25, 50])
def test_hat_transfer_identity_and_bounds(phi, ell):
    hat = obs.hat_observable(phi, ell)
    assert hat.mean() == 0
    assert hat.variation() <= phi.variation()
    assert float(hat.sup_abs()) <= float(phi.variation()) + 1e-12
    # defining identity hat(ell x) = sum_j phi(x + j/ell) on a dense grid
    for i in range(0, 97, 7):
        x = Fraction(i, 97)
        direct = sum(phi.evaluate(x + Fraction(j, ell)) for j in range(ell))
        assert hat.evaluate(ell * x) == direct


def test_hat_fourier_coefficients():
    phi = obs.double_interval(Fraction(1, 5), Fraction(3, 8))
    for ell in (2, 5):
        hat = obs.hat_observable(phi, ell)
        for r in range(1, 12):
            # gamma_r(hat) = gamma_{r ell}(phi): check against the oracle
            oracle = r * c_r_oracle(hat, r)
            assert abs(oracle - phi.fourier_gamma(r * ell)) < 1e-10


def test_hat_norm_sq_phi0_is_one_twelfth_not_pi2_over_6():
    """The per-term transfer norm of the centered fractional part.

    Direct series: sum_{r != 0} |i/(2 pi)|^2 / r^2 = (1/4pi^2)(pi^2/3) = 1/12,
    independent of the modulus; the naive scaling pi^2/6 is ruled out by the
    same series.
    """
    val, tail = obs.hat_norm_sq(obs.Sawtooth(), 12345)
    assert val == obs.PHI0_HAT_NORM_SQ == pytest.approx(1 / 12)
    assert tail == 0.0
    series = sum(2 * (1 / (4 * math.pi ** 2)) / r ** 2 for r in range(1, 200000))
    assert abs(series - 1 / 12) < 1e-5
    assert abs(series - math.pi ** 2 / 6) > 0.5


def test_hat_norm_sq_indicator_lower_bound():
    tr = cf.truncation(cf.sqrt2m1(20), 15)
    beta = Fraction(2, 7)
    phi = obs.indicator(beta)
    for n in (3, 6, 9):
        q = tr.qs[n]
        val, tail = obs.hat_norm_sq(phi, q)
        lower = math.sin(math.pi * float((q * beta) % 1)) ** 2 / math.pi ** 2
        assert val + 1e-12 >= lower
        # matches the direct slow series
        slow = sum(2 * abs(phi.fourier_gamma(r * q)) ** 2 / r ** 2
                   for r in range(1, 500))
        assert abs(val - slow) < 2 * phi.kbound() ** 2 / 500 + 1e-9


def test_hat_norm_sq_half_odd_modulus():
    phi = obs.half()
    for ell in (3, 7, 987):
        val, tail = obs.hat_norm_sq(phi, ell)
        # odd multiples of odd ell: gamma = 2/(i pi): series -> (4/pi^2) * (pi^2/4)
        assert abs(val - 1.0) < 2e-3


def test_billiard_pair_hat_norms_follow_parity():
    spec = cf.parity_design_rule(c=10, beta=2, max_index=40)
    tr = cf.truncation(spec, 38)
    pair = obs.catalog("billiard_pair", alpha=tr.value)
    # q_n odd with p_n odd -> component 1 active (norm = 1 + O(1/q_{n+1}));
    # p_n even -> component 2 active
    for n in (1, 3, 4, 6):
        q, p = tr.qs[n], tr.ps[n]
        assert q % 2 == 1
        v1, _ = obs.hat_norm_sq(pair.phi1, q)
        v2, _ = obs.hat_norm_sq(pair.phi2, q)
        active, idle = (v1, v2) if p % 2 == 1 else (v2, v1)
        slack = 5.0 / tr.qs[n + 1] + 1e-3
        assert abs(active - 1.0) < slack
        assert idle < slack


def test_smoothness_budget():
    # the bounded-variation budget: sup |phi| and the Fourier tail envelope
    # R(f, t) <= 2 K t^{-1/2}
    phi = obs.indicator(Fraction(1, 3))
    assert phi.sup_abs() == Fraction(2, 3)
    for t in (4, 16, 64):
        envelope = 2 * phi.kbound() * t ** -0.5
        assert st.fourier_tail_norm(phi, t) <= envelope + 1e-9


def test_vector_observable():
    pair = obs.catalog("billiard_displacement", alpha=Fraction(2, 5))
    assert len(pair.components) == 2
    assert pair.phi1.mean() == 0 and pair.phi2.mean() == 0


# --- the exact-phase layer: reduce_phases and gamma_array against exact
# --- Fraction arithmetic and the scalar jump formula

@settings(max_examples=60)
@given(rmax=hst.integers(1, 300), offset=hst.integers(-2, 2),
       num=hst.integers(-2 ** 70, 2 ** 70))
def test_reduce_phases_against_fraction_oracle(rmax, offset, num):
    # den straddles 2**62 // rmax, where the int64 table gives way to the
    # big-integer walk
    den = 2 ** 62 // rmax + offset
    residues, fracs = obs.reduce_phases(num, den, rmax)
    assert (residues is None) == (den >= 2 ** 62 // rmax)
    for r in range(1, rmax + 1):
        exact = (r * num) % den
        if residues is not None:
            assert int(residues[r - 1]) == exact
        # correctly rounded in both regimes, also where den >= 2**53
        assert fracs[r - 1] == float(Fraction(exact, den))


@settings(max_examples=30)
@given(num=hst.integers(0, 10 ** 6), den=hst.integers(1, 10 ** 6),
       rmax=hst.integers(1, 200))
def test_reduce_phases_small_denominators_exact(num, den, rmax):
    residues, fracs = obs.reduce_phases(num, den, rmax)
    for r in range(1, rmax + 1):
        assert int(residues[r - 1]) == (r * num) % den
        assert fracs[r - 1] == float(Fraction(r * num, den) % 1)


def exact_division(num, den, rmax):
    """((r * num) % den) / den for r = 1..rmax, the big regime's oracle."""
    return np.array([(r * num % den) / den for r in range(1, rmax + 1)])


def assert_big_regime_exact(num, den, rmax):
    residues, fracs = obs.reduce_phases(num, den, rmax)
    assert residues is None
    assert fracs.tobytes() == exact_division(num % den, den, rmax).tobytes()


@settings(max_examples=80)
@given(bits=hst.integers(63, 2000), dyadic=hst.booleans(), data=hst.data(),
       rmax=hst.integers(1, 5000))
def test_reduce_phases_big_regime_is_exact_division(bits, dyadic, data, rmax):
    # a dyadic den makes exact ties of the final rounding
    den = 2 ** bits if dyadic else data.draw(
        hst.integers(2 ** (bits - 1), 2 ** bits - 1), label="den")
    num = data.draw(hst.one_of(hst.sampled_from([0, 1, den - 1]),
                               hst.integers(0, den - 1)), label="num")
    assert_big_regime_exact(num, den, rmax)


@settings(max_examples=120)
@given(bits=hst.integers(120, 1500), data=hst.data(), r0=hst.integers(2, 3000),
       below_power=hst.booleans(), k=hst.integers(1, 6),
       offset=hst.integers(-1000, 1000))
def test_reduce_phases_near_rounding_ties(bits, data, r0, below_power, k,
                                          offset):
    # {r0 theta} sits within 1000/den of a rounding midpoint: between two
    # doubles in [1/4, 1), or just below the power of two 2**-k, where the
    # doubles below are twice as dense as above.  The double-double value
    # lands on either side of such a midpoint; only the exact recompute
    # rounds it correctly.
    den = data.draw(hst.integers(2 ** (bits - 1), 2 ** bits - 1)
                    .filter(lambda d: math.gcd(d, r0) == 1), label="den")
    if below_power:
        mid = Fraction(1, 2 ** k) - Fraction(1, 2 ** (k + 54))
    else:
        mant = data.draw(hst.integers(2 ** 52, 2 ** 53 - 1), label="mant")
        mid = Fraction(2 * mant + 1, 2 ** (55 + k % 2))
    target = mid.numerator * den // mid.denominator + offset
    num = target * pow(r0, -1, den) % den
    assert_big_regime_exact(num, den, r0 + 8)


def test_reduce_phases_deep_variance_tables():
    # the sqrt2m1 CLI table (level 53, a 68-bit q) at rmax = 50000: its
    # phases p/q and the kernel angles mult * p over 2q of both parities
    tr = cli.parse_alpha("sqrt2m1", 48)
    assert (tr.level, tr.q.bit_length()) == (53, 68)
    assert_big_regime_exact(tr.p, tr.q, 50_000)
    parities = set()
    for mult in (1, 2, 39, 40, 199, 399):
        parities.add(mult * tr.p % 2)
        assert_big_regime_exact(mult * tr.p, 2 * tr.q, 50_000)
    assert parities == {0, 1}


def test_reduce_phases_deep_drift_table():
    # the billiard-clt drift table: the level-133 parity:c=30 plan (a
    # 1325-bit q) at rmax = 20000, its hitting-time breaks and kernel angles
    cfg = cli.RunConfig(command="billiard-clt", alpha="parity:c=30", terms=40)
    plan = cli._plan_for(cfg, parity=True)
    tr = plan.trunc
    assert (tr.level, tr.q.bit_length()) == (133, 1325)
    prof = bil.hitting_time_profile(bil.params_for_plan(tr))
    big = [t for t in prof.breaks if t.denominator >= 2 ** 62 // 20_000]
    assert len(big) >= 4
    for t in big:
        assert_big_regime_exact(t.numerator, t.denominator, 20_000)
    assert_big_regime_exact(tr.p, tr.q, 20_000)
    for m in (10, 20, 40):
        assert_big_regime_exact(plan.L[m] * tr.p, 2 * tr.q, 20_000)


LEVEL40 = cf.truncation(cf.clt_design_rule(c=30, beta=2, max_index=45), 40)
STEP_CATALOG = [phi for phi in CATALOG if phi.slope == 0] \
    + [obs.billiard_displacement(Fraction(2, 5)).phi1]


@settings(max_examples=40)
@given(phi=hst.sampled_from(STEP_CATALOG), shift=hst.integers(0, 96),
       stride=hst.one_of(hst.sampled_from(LEVEL40.qs[:41]),
                        hst.integers(1, LEVEL40.qs[40])))
def test_gamma_array_matches_scalar_gamma(phi, shift, stride):
    phi = phi.shifted(Fraction(shift, 97))
    g = obs.gamma_array(phi, stride, 24)
    for r in range(1, 25):
        assert abs(g[r - 1] - phi.fourier_gamma(stride * r)) < 1e-12
    gsq = obs.gamma_sq_array(phi, stride, 24)
    assert np.allclose(gsq, np.abs(g) ** 2, rtol=1e-12, atol=1e-15)


PARITY_Q = cli.parse_alpha("parity:c=30", 128).q   # level 133, 1325 bits


def gamma_array_oracle(phi, stride, rmax):
    """gamma_array with every jump's phases built at full length rmax."""
    acc = np.zeros(rmax, dtype=complex)
    for t, j in phi.jumps().items():
        theta = (stride * t) % 1
        acc += float(j) * np.exp(
            -2j * math.pi
            * obs.reduce_phases(theta.numerator, theta.denominator, rmax)[1])
    return acc / (2j * math.pi)


def same_bits(a, b):
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


def assert_tiled_tables_exact(phi, stride, rmax):
    g = obs.gamma_array(phi, stride, rmax)
    oracle = gamma_array_oracle(phi, stride, rmax)
    assert g.shape == (rmax,) and same_bits(g, oracle)
    assert same_bits(obs.gamma_sq_array(phi, stride, rmax),
                     (oracle * oracle.conjugate()).real)


def phase_period(phi, stride):
    """D, the lcm of the denominators of {stride t} over the jumps t."""
    return math.lcm(*(((stride * t) % 1).denominator for t in phi.jumps()))


CASES = ["den < rmax", "den == rmax", "den > rmax"]
WIDE_DENS = [2 ** 61 - 1, LEVEL40.q, PARITY_Q]


def rmax_for(case, den, periods, extra):
    """An rmax on the given side of the phase period den; den < rmax leaves
    a part period of 1 <= extra < den when den > 1."""
    if case == "den > rmax":
        return min(den - 1, extra)
    if case == "den == rmax":
        return den
    return den * periods + (extra % (den - 1) + 1 if den > 1 else 0)


# jumps +1 at 1/97 and -1 at 1/89: its period 8633 is no jump's denominator
COPRIME = obs.indicator(Fraction(8, 8633)).shifted(Fraction(-1, 97))


@example(phi=COPRIME, shift_den=97, stride=1, case="den < rmax", periods=2,
         extra=1234, shift=0)
@example(phi=COPRIME, shift_den=97, stride=1, case="den > rmax", periods=1,
         extra=3000, shift=0)
@settings(max_examples=60)
@given(phi=hst.sampled_from(STEP_CATALOG + [COPRIME]),
       shift_den=hst.sampled_from([97] + WIDE_DENS),
       stride=hst.one_of(hst.sampled_from(LEVEL40.qs[:41] + (PARITY_Q,)),
                         hst.integers(1, LEVEL40.qs[40])),
       case=hst.sampled_from(CASES), periods=hst.integers(1, 4),
       extra=hst.integers(1, 3000), shift=hst.integers(0, 2 ** 64))
def test_gamma_array_tiles_one_period_exactly(phi, shift_den, stride, case,
                                              periods, extra, shift):
    # a k/97 shift (k = 0 leaves phi as it is) keeps the period of
    # {stride t} small, so it is tiled; a wide shift puts it beyond any
    # rmax, in either reduce_phases regime (2**61 - 1 is an int64 table only
    # for rmax <= 2)
    phi = phi.shifted(Fraction(shift % shift_den, shift_den))
    den = phase_period(phi, stride)
    if den > 10_000:
        case = "den > rmax"
    rmax = max(rmax_for(case, den, periods, extra), 1)
    assert_tiled_tables_exact(phi, stride, rmax)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("stride", [1, 2, LEVEL40.qs[40], PARITY_Q],
                         ids=lambda d: f"{d.bit_length()}bit")
def test_gamma_array_tiles_small_denominators(case, stride):
    for phi in STEP_CATALOG:
        phi = phi.shifted(Fraction(5, 97))
        den = phase_period(phi, stride)
        assert 1 < den <= 4000
        rmax = rmax_for(case, den, 2, 1234)
        assert (den < rmax and rmax % den) or case != "den < rmax"
        assert_tiled_tables_exact(phi, stride, rmax)


@pytest.mark.parametrize("rmax", [1, 2, 3, 3000])
@pytest.mark.parametrize("shift_den", WIDE_DENS,
                         ids=lambda d: f"{d.bit_length()}bit")
def test_gamma_array_wide_denominators_both_regimes(shift_den, rmax):
    regimes = set()
    for phi in STEP_CATALOG:
        phi = phi.shifted(Fraction(5, shift_den))
        for stride in (7, LEVEL40.qs[39], PARITY_Q - 1):
            for t in phi.jumps():
                theta = (stride * t) % 1
                regimes.add(obs.reduce_phases(theta.numerator,
                                              theta.denominator, rmax)[0]
                            is None)
            assert_tiled_tables_exact(phi, stride, rmax)
    # big-regime tables throughout; the 61-bit shift also gives int64 ones,
    # with den above 2**53, at rmax <= 2
    int64 = shift_den == 2 ** 61 - 1 and rmax <= 2
    assert regimes == ({True, False} if int64 else {True})


def test_gamma_sq_array_sawtooth_constant():
    gsq = obs.gamma_sq_array(obs.Sawtooth(), 12345, 10)
    assert np.all(gsq == 1.0 / (4.0 * math.pi ** 2))


@pytest.mark.parametrize("stride", [1, 7, 3 ** 200], ids=["1", "7", "3**200"])
@pytest.mark.parametrize("rmax", [1, 2, 17, 5000])
def test_gamma_array_sawtooth_from_its_jump(stride, rmax):
    # the sawtooth's one jump, -1 at 0, gives gamma_r = i/(2 pi) bit for bit
    g = obs.gamma_array(obs.Sawtooth(), stride, rmax)
    assert same_bits(g, np.full(rmax, 1j / TWO_PI, dtype=complex))


# not centred, so that the transfer must scale the mean
UNCENTRED = obs.StepFunction((Fraction(0), Fraction(1, 3), Fraction(3, 4)),
                             (Fraction(2), Fraction(-1), Fraction(1, 2)))


@settings(max_examples=80)
@given(phi=hst.sampled_from(STEP_CATALOG + [UNCENTRED]),
       shift=hst.integers(0, 96), ell=hst.integers(2, 60))
def test_hat_observable_matches_enumeration(phi, shift, ell, hat_enumeration):
    phi = phi.shifted(Fraction(shift, 97))
    hat, oracle = obs.hat_observable(phi, ell), hat_enumeration(phi, ell)
    assert (hat.breakpoints, hat.values, hat.label) == (
        oracle.breakpoints, oracle.values, oracle.label)
    assert ([type(v) for v in hat.breakpoints + hat.values]
            == [type(v) for v in oracle.breakpoints + oracle.values])


def test_hat_transfer_at_the_plan_denominators():
    # the transfer moves jumps, so it reaches every q_(t_k) of the plan (up
    # to 500 bits) exactly; the truncated Fourier norm stays below the exact
    # one by at most its tail bound
    plan = seq.plan_growth(cli.parse_alpha("clt:c=30", 48), 2, 40)
    qs = plan.denominators()
    assert len(qs) == 40 and qs[-1].bit_length() == 500
    third = obs.indicator(Fraction(1, 3))
    for q in qs:
        assert obs.hat_observable(third, q).norm_sq() == Fraction(2, 9)
        for phi in STEP_CATALOG:
            value, tail = obs.hat_norm_sq(phi, q)
            assert 0 <= float(obs.hat_observable(phi, q).norm_sq()) - value <= tail
    assert obs.hat_observable(third, 3 ** 300 + 1).norm_sq() == Fraction(2, 9)
