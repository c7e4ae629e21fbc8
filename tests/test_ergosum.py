import bisect
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

from rotsum import billiard as bil
from rotsum import cli
from rotsum import contfrac as cf
from rotsum import ergosum as es
from rotsum import observables as obs
from rotsum import sequences as seq
from rotsum import stats as st
from rotsum.errors import ConfigError, PrecisionError


@pytest.fixture(scope="module")
def golden_trunc():
    return cf.truncation(cf.golden(40), 32)


@pytest.fixture(scope="module")
def sqrt2_trunc():
    return cf.truncation(cf.sqrt2m1(30), 22)


def test_floor_sum_simple_cases():
    assert es.floor_sum(5, 3, 1, 4) == 7
    for n in (0, 1, 9):
        assert es.floor_sum(n, 0, 13, 5) == n * (13 // 5)
    with pytest.raises(ValueError):
        es.floor_sum(3, 1, 1, 0)
    with pytest.raises(ValueError):
        es.floor_sum(-1, 1, 1, 1)


def test_floor_sum_matches_brute_force():
    rng = random.Random(7)
    for _ in range(2000):
        n = rng.randrange(0, 120)
        a = rng.randrange(-10 ** 6, 10 ** 6)
        b = rng.randrange(-10 ** 6, 10 ** 6)
        c = rng.randrange(1, 10 ** 6)
        assert es.floor_sum(n, a, b, c) == sum((a * j + b) // c
                                               for j in range(n))


def test_floor_sum_big_integers():
    # huge arguments still exact: compare against a shifted decomposition
    n = 10 ** 6
    a, b, c = 10 ** 30 + 7, -10 ** 25, 10 ** 18 + 9
    s = es.floor_sum(n, a, b, c)
    # sum over two halves must agree with the whole
    half = n // 2
    s2 = es.floor_sum(half, a, b, c) + es.floor_sum(n - half, a, a * half + b, c)
    assert s == s2


def test_count_visits_full_circle(golden_trunc):
    x = Fraction(1, 7)
    assert es.count_visits(x, (0, 1), 999, golden_trunc) == 999
    assert es.count_visits(x, (0, 1), 0, golden_trunc) == 0


def test_count_visits_wrap_interval(golden_trunc):
    x = Fraction(3, 11)
    n = 500
    a = es.count_visits(x, (Fraction(3, 4), Fraction(1, 4)), n, golden_trunc)
    b = (es.count_visits(x, (Fraction(3, 4), 1), n, golden_trunc)
         + es.count_visits(x, (0, Fraction(1, 4)), n, golden_trunc))
    assert a == b


def test_count_visits_denjoy_koksma_window(golden_trunc):
    beta = Fraction(1, 3)
    for n in range(2, 14):
        qn = golden_trunc.qs[n]
        for x in (Fraction(0), Fraction(1, 7), Fraction(5, 9)):
            c = es.count_visits(x, (0, beta), qn, golden_trunc)
            assert abs(c - qn * beta) <= 2


def test_count_visits_matches_direct(golden_trunc):
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randrange(1, 10 ** 4)
        x = Fraction(rng.randrange(0, 997), 997)
        u = Fraction(rng.randrange(0, 89), 89)
        w = u + Fraction(rng.randrange(1, 55), 55 * 3)
        w = min(w, Fraction(1))
        cnt = es.count_visits(x, (u, w), n, golden_trunc)
        a = golden_trunc.value
        direct = sum(1 for j in range(n) if u <= (x + j * a) % 1 < w)
        assert cnt == direct


def test_window_violation(golden_trunc):
    with pytest.raises(PrecisionError):
        es.count_visits(Fraction(1, 7), (0, Fraction(1, 2)),
                        golden_trunc.validity_bound + 1, golden_trunc)


def test_sum_at_and_count_visits_edges():
    # N - 1 = q_(M-1) - 1 is the last orbit length inside the window
    tr = cf.truncation(cf.golden(20), 12)
    edge = tr.validity_bound
    phis = (obs.Sawtooth(), obs.indicator(Fraction(1, 3)),
            obs.half_shifted(Fraction(2, 7)))
    ctx = es.ErgodicContext(phis, tr, 97)
    x, (u, w) = Fraction(5, 97), (Fraction(1, 4), Fraction(2, 3))
    assert ctx.sum_at(5, edge) == tuple(
        es._direct_sum(phi, x, edge, tr) for phi in phis)
    assert es.count_visits(x, (u, w), edge, tr) == sum(
        u <= (x + j * tr.value) % 1 < w for j in range(edge))
    with pytest.raises(PrecisionError):
        ctx.sum_at(5, edge + 1)
    with pytest.raises(PrecisionError):
        es.count_visits(x, (u, w), edge + 1, tr)
    with pytest.raises(ConfigError):
        ctx.sum_at(5, -1)
    with pytest.raises(ConfigError):     # no floor sum to reject it
        es.count_visits(x, (0, 1), -1, tr)
    with pytest.raises(ConfigError):
        es.count_visits(x, (Fraction(-1, 2), 0), 5, tr)


@settings(max_examples=200)
@given(hst.integers(0, 60), hst.integers(-10 ** 12, 10 ** 6),
       hst.integers(-10 ** 12, 10 ** 6), hst.integers(1, 10 ** 4))
@example(7, -5, -3, 4)
def test_floor_sum_negative_arguments(n, a, b, c):
    assert es.floor_sum(n, a, b, c) == sum((a * j + b) // c for j in range(n))


_BIG = hst.integers(2 ** 999, 2 ** 1000)
_SIGN = hst.sampled_from((-1, 1))


@settings(max_examples=100)
@given(_BIG, _SIGN, _BIG, _SIGN, _BIG, _BIG, hst.integers(0, 40))
def test_floor_sum_huge_arguments(n, sa, a, sb, b, c, small):
    # about 1000-bit operands: split n at h, fs(n) = fs(h) + fs'(n - h) with
    # fs' started at j = h; and brute force at small n
    a, b, h = sa * a, sb * b, n // 3
    assert es.floor_sum(n, a, b, c) == (es.floor_sum(h, a, b, c)
                                        + es.floor_sum(n - h, a, a * h + b, c))
    assert es.floor_sum(small, a, b, c) == sum((a * j + b) // c
                                               for j in range(small))


_WIDTHS = hst.sampled_from((1, 2, 3, 8, 31, 33, 63, 64, 65, 200, 500, 772,
                            1000, 1389, 1400))


@hst.composite
def _floor_sum_operands(draw):
    """(n, a, b, c) with c of 1-1400 bits, a and b anywhere in [-3c, 3c]
    (negative, reduced, or at least c), and n of 0-1400 bits."""
    bits = draw(_WIDTHS)
    c = draw(hst.integers(2 ** (bits - 1), 2 ** bits - 1))
    a = draw(hst.integers(-3 * c, 3 * c))
    b = draw(hst.integers(-3 * c, 3 * c))
    n = draw(hst.integers(0, 2 ** draw(_WIDTHS) - 1))
    return n, a, b, c


def _fib(m):
    a, b = 0, 1
    for _ in range(m):
        a, b = b, a + b
    return a


def _true_levels(n, a, b, c):
    """Each level (D, c, a, k, nominal n') of the chain of
    floor_sum(n, a, b, c), n > 0, with the true n' = floor((a n + b)/c)
    and b' = (a n + b) mod c of the plain recursion at that level."""
    b %= c
    for level in es._chain(n, a, c)[3]:
        _, c, a, _, _ = level
        n, b = divmod(a * n + b, c)
        yield level, n, b
        b %= a


def _walk_branches(n, a, b, c):
    """The names of the walk branches that floor_sum(n, a, b, c) takes,
    recomputed level by level by the plain recursion.  At each level the
    walk's x = b + D is d c + b', d = n' - nominal the miss, and its
    quotient s = x // a by the level's a tells the cases apart: the carry
    is the nominal one where 0 <= s < k, or s = k and x < c, and then
    b' = x is named against a.  A level that misses carries d into the
    next level or, where the nominal n' is 0, leaves d terms at the
    end."""
    names = {f"n = {n}"} if n < 2 else set()
    if not 0 <= b < c:
        names.add("b < 0" if b < 0 else "b >= c")
    if n == 0:
        return names
    levels = list(_true_levels(n, a, b, c))
    for i, ((_, c, a, k, nominal), n, b) in enumerate(levels):
        d = n - nominal
        x = d * c + b
        s = x // a
        kind = "k = 1, " if k == 1 else "k > 1, "
        if s < 0 or s > k:
            names.add(kind + ("s < 0" if s < 0 else "s > k"))
        elif s == k:
            names.add(kind + ("s = k, x < c" if x < c else "s = k, x >= c"))
        if not d:
            names.add("carry at nominal")
            names.add(kind + ("b >= a" if b >= a else "b < a"))
            continue
        names.add("carry below nominal" if d < 0 else "carry above nominal")
        if abs(d) > 1:
            names.add("two carries off nominal")
        if nominal == 0:
            names.add("carries left at the end")
        elif i + 1 < len(levels):
            names.add("miss carried into the next level")
    return names


# one pinned example per branch of the walk, per quotient case of a level
# and per edge of its input
_WALK_EXAMPLES = {
    "n = 0": (0, 2 ** 100, -7, 3 ** 50),
    "n = 1": (1, 3 ** 40, -(2 ** 70), 2 ** 64 + 13),
    "b < 0": (10 ** 30, 3 ** 90, -(7 ** 60), 2 ** 160 + 7),
    "b >= c": (10 ** 300, _fib(1500), 2 * _fib(1501) + 17, _fib(1501)),
    "carry at nominal": (1, 1, 1, 2),
    "carry below nominal": (1, 1, 0, 2),
    "carry above nominal": (1, 1, 2, 3),
    "two carries off nominal": (10, 9, 13, 14),
    "miss carried into the next level": (1, 2, 0, 3),
    "carries left at the end": (1, 1, 2, 3),
    "k = 1, b >= a": (2, 2, 1, 3),
    "k = 1, b < a": (1, 2, 1, 3),
    "k > 1, b >= a": (2, 1, 1, 2),
    "k > 1, b < a": (1, 1, 1, 2),
    "k = 1, s < 0": (1, 2, 0, 3),
    "k = 1, s = k, x < c": (2, 2, 1, 3),
    "k = 1, s = k, x >= c": (2, 2, 2, 3),
    "k = 1, s > k": (4, 3, 4, 5),
    "k > 1, s < 0": (1, 1, 0, 2),
    "k > 1, s = k, x < c": (1, 2, 2, 5),
    "k > 1, s = k, x >= c": (1, 1, 2, 3),
    "k > 1, s > k": (2, 1, 4, 5),
}


def _pin_walk_examples(test):
    for operands in _WALK_EXAMPLES.values():
        test = example(operands)(test)
    return test


@hst.composite
def _fibonacci_operands(draw):
    """(n, F_m, b, F_(m+1)) with c up to about 1390 bits: every partial
    quotient of F_m / F_(m+1) is 1 but the last, so the walk reduces mod a
    by subtraction at every level but one."""
    m = draw(hst.integers(3, 2000))
    a, c = _fib(m), _fib(m + 1)
    b = draw(hst.integers(-3 * c, 3 * c))
    n = draw(hst.integers(0, 2 ** draw(_WIDTHS) - 1))
    return n, a, b, c


@hst.composite
def _small_operands(draw):
    """(n, a, b, c) with c < 64 and n < 4c: the carries run up to 2 and
    past the chain's table far more often than at wide operands."""
    c = draw(hst.integers(1, 63))
    a = draw(hst.integers(-c, 2 * c))
    b = draw(hst.integers(-2 * c, 2 * c))
    n = draw(hst.integers(0, 4 * c))
    return n, a, b, c


@pytest.mark.parametrize("name", sorted(_WALK_EXAMPLES))
def test_walk_examples_take_their_branch(name):
    assert name in _walk_branches(*_WALK_EXAMPLES[name])


@settings(max_examples=1800)
@given(hst.one_of(_floor_sum_operands(), _fibonacci_operands(),
                  _small_operands()))
@_pin_walk_examples
@example((0, 5, 3, 7))
@example((9, 0, -13, 5))
@example((2 ** 700, 0, 3 ** 600, 5 ** 400))
@example((2 ** 700, 5 ** 400, 3 ** 600, 5 ** 400))
@example((10 ** 400, 3 ** 800, -(7 ** 500), 2 ** 1399 + 1))
def test_floor_sum_matches_euclid_oracle(euclid_floor_sum, operands):
    assert es.floor_sum(*operands) == euclid_floor_sum(*operands)


@hst.composite
def _carry_operands(draw):
    """2 a n < c <= a n + b: the nominal n' of the chain is 0 at the first
    level, and the whole sum comes from the carries the walk sums after
    it."""
    bits = draw(_WIDTHS.filter(lambda w: w > 1))
    c = draw(hst.integers(max(3, 2 ** (bits - 1)), 2 ** bits - 1))
    a = draw(hst.integers(1, (c - 1) // 2))
    n = draw(hst.integers(1, (c - 1) // (2 * a)))
    b = draw(hst.integers(c - a * n, c - 1))
    return n, a, b, c


@settings(max_examples=150)
@given(_carry_operands())
@example((1, 1, 2, 3))
def test_floor_sum_carries_past_nominal_end(euclid_floor_sum, operands):
    n, a, b, c = operands
    levels = es._chain(n, a, c)[3]
    assert len(levels) == 1 and levels[0][-1] == 0      # nominal n' = 0
    assert "carries left at the end" in _walk_branches(*operands)
    assert es.floor_sum(*operands) == euclid_floor_sum(*operands)


@hst.composite
def _missing_operands(draw):
    """(operands, i, side): an offset whose walk keeps the nominal carry
    at every level before level i of the chain and misses it at level i,
    below (side -1) or above (side 1).  The value b takes at level i is
    drawn first, where the level's D moves it out of [0, c); each level
    before it is then walked backwards, taking the smallest b + s a,
    s >= 0, that the level's D keeps in [0, c)."""
    n, a, _, c = draw(hst.one_of(_floor_sum_operands(),
                                 _fibonacci_operands(), _small_operands()))
    assume(n > 0)
    levels = es._chain(n, a, c)[3]
    side = draw(_SIGN)
    picks = [i for i, level in enumerate(levels) if level[0] * side > 0]
    assume(picks)
    i = draw(hst.sampled_from(picks))
    D, ci = levels[i][:2]
    b = draw(hst.integers(0, -D - 1) if side < 0 else
             hst.integers(ci - D, ci - 1))
    for D, cj, aj, _, _ in reversed(levels[:i]):
        x = b + max(0, -(-(D - b) // aj)) * aj
        assume(x < cj + min(D, 0))
        b = x - D
    return (n, a, b + draw(hst.integers(-3, 3)) * c, c), i, side


@settings(max_examples=300)
@given(_missing_operands())
def test_walk_misses_the_nominal_carry_on_both_sides(euclid_floor_sum, drawn):
    operands, i, side = drawn
    misses = [n - level[-1] for level, n, _ in _true_levels(*operands)]
    assert not any(misses[:i]) and misses[i] * side > 0
    assert es.floor_sum(*operands) == euclid_floor_sum(*operands)


@pytest.fixture(scope="module")
def sample_set_contexts():
    """(context, N) of the CLI's two widest sample sets: the indicator of
    [0, 1/3) on clt:c=30 at --terms 40 (a 772-bit L), and psi1, psi2 on the
    level-133 parity plan of parity:c=30 at --terms 40 (a 1389-bit L)."""
    plan = seq.plan_growth(cli.parse_alpha("clt:c=30", 48), 2.0, 40)
    pplan = seq.plan_parity(cli.parse_alpha("parity:c=30", 128), 2.0, 40)
    params = bil.params_for_plan(pplan.trunc)
    return (
        (es.ErgodicContext(obs.indicator(Fraction(1, 3)), plan.trunc, 2 ** 64),
         plan.L[40]),
        (es.ErgodicContext(bil.psi_components(params).components,
                           pplan.trunc, 2 ** 64), pplan.L[40]))


def test_sample_set_chains_match_euclid_oracle(euclid_floor_sum,
                                               sample_set_contexts):
    (ind, N), (psi, N2) = sample_set_contexts
    assert (ind.L.bit_length(), psi.L.bit_length()) == (772, 1389)
    assert psi.rot.level == 133
    # k > 1 at every level of the indicator's chain but the first; on the
    # parity chain every third level has k = 1
    ks = [level[3] for level in es._chain(N, ind.P, ind.L)[3]]
    assert ks[0] == 1 and min(ks[1:]) > 1
    ks = [level[3] for level in es._chain(N2, psi.P, psi.L)[3]]
    assert ks.count(1) >= len(ks) // 3
    for ctx, n in sample_set_contexts:
        misses = []
        for m in st.StratifiedSampler(seed=4, size=20).numerators():
            A = int(m) * ctx.x_scale % ctx.L
            for C in ctx.offsets:
                assert es.floor_sum(n, ctx.P, A - C, ctx.L) == \
                    euclid_floor_sum(n, ctx.P, A - C, ctx.L)
                misses += [t != level[-1] for level, t, _ in
                           _true_levels(n, ctx.P, A - C, ctx.L)]
        # the walk keeps the chain's nominal carry at nearly every level
        assert sum(misses) <= len(misses) // 100


@pytest.mark.parametrize("operands", [
    (4, Fraction(1, 2), 0, 1), (4, 0.5, 0, 1), (4.9, 1, 0, 1),
    (4, 1, 0.5, 1), (4, 1, 0, 2.0), ("4", 1, 0, 1), (None, 1, 0, 1)])
def test_floor_sum_rejects_non_integers(operands):
    with pytest.raises(ConfigError, match="must be integers"):
        es.floor_sum(*operands)


def test_integer_operands_of_any_kind(golden_trunc):
    # numpy integers and bools are integers; their sums equal the int ones
    assert es.floor_sum(np.int64(7), np.uint64(3), np.int32(-2), 5) == \
        es.floor_sum(7, 3, -2, 5)
    ctx = es.ErgodicContext(obs.Sawtooth(), golden_trunc, np.int64(64))
    assert ctx.x_den == 64 and type(ctx.x_den) is int
    assert ctx.sum_at(np.uint64(3), np.int64(10)) == ctx.sum_at(3, 10)
    assert es._direct_sum(obs.half(), Fraction(1, 3), np.int16(40),
                          golden_trunc) == \
        es.ergodic_sum(obs.half(), Fraction(1, 3), 40, golden_trunc)


@pytest.mark.parametrize("call", [
    lambda ctx, tr: ctx.sum_at(3, 10.7),
    lambda ctx, tr: ctx.sum_at(3.5, 10),
    lambda ctx, tr: ctx.sum_at(Fraction(7, 2), 10),
    lambda ctx, tr: es.ErgodicContext(obs.Sawtooth(), tr, 64.5),
    lambda ctx, tr: es._direct_sum(obs.half(), Fraction(1, 3), 40.5, tr),
    lambda ctx, tr: es.ergodic_sum(obs.half(), Fraction(1, 3), 40.5, tr),
], ids=["N", "x_num", "x_num_fraction", "x_den", "direct_N", "floorsum_N"])
def test_sum_rejects_non_integers(call, golden_trunc):
    ctx = es.ErgodicContext(obs.Sawtooth(), golden_trunc, 64)
    with pytest.raises(ConfigError, match="must be integers"):
        call(ctx, golden_trunc)


def test_context_reused_across_horizons(golden_trunc):
    # the chain cache is keyed by (N, P, L): one context at N1, N2, N1 (with
    # more horizons between than the cache holds) equals the direct engine
    phis = (obs.indicator(Fraction(1, 3)), obs.Sawtooth())
    den = 101
    ctx = es.ErgodicContext(phis, golden_trunc, den)
    N1, N2 = 987, 1597
    for N in (N1, N2, *range(100, 120), N1):
        for m in range(0, den, 17):
            x = Fraction(m, den)
            assert ctx.sum_at(m, N) == tuple(
                es._direct_sum(phi, x, N, golden_trunc)
                for phi in phis)


CATALOG = [
    obs.Sawtooth(),
    obs.indicator(Fraction(1, 3)),
    obs.half(),
    obs.double_interval(Fraction(1, 5), Fraction(3, 8)),
    obs.half_shifted(Fraction(2, 7)),
]


@pytest.mark.parametrize("phi", CATALOG, ids=lambda p: p.label)
def test_engines_agree(phi, golden_trunc):
    rng = random.Random(11)
    for _ in range(12):
        x = Fraction(rng.randrange(0, 2 ** 30), 2 ** 30)
        n = rng.randrange(0, 3000)
        fast = es.ergodic_sum(phi, x, n, golden_trunc)
        slow = es._direct_sum(phi, x, n, golden_trunc)
        assert type(fast) is Fraction and type(slow) is Fraction
        assert fast == slow


def test_zero_length_sum(golden_trunc):
    assert es.ergodic_sum(obs.half(), Fraction(1, 3), 0, golden_trunc) == 0


@pytest.mark.parametrize("phi", CATALOG, ids=lambda p: p.label)
def test_denjoy_koksma_exact_sup(phi, golden_trunc, sqrt2_trunc):
    # sup over ALL x (piecewise-exact profile), at every denominator
    for tr in (golden_trunc, sqrt2_trunc):
        for n in range(1, 9):
            prof = es.orbit_sum_profile(phi, tr.qs[n], tr.value)
            assert prof.sup_abs() <= phi.variation()


def test_sawtooth_denominator_sup_at_most_one(golden_trunc):
    # sharper numerical fact used by the periodization error bound: the
    # centered fractional part has |S_{q_n}| <= 1 at denominators
    for n in range(1, 16):
        prof = es.orbit_sum_profile(obs.Sawtooth(), golden_trunc.qs[n],
                                    golden_trunc.value)
        assert prof.sup_abs() <= 1


def test_cocycle_identity(golden_trunc):
    rng = random.Random(5)
    phi = obs.indicator(Fraction(1, 3))
    a = golden_trunc.value
    for _ in range(25):
        x = Fraction(rng.randrange(0, 10 ** 6), 10 ** 6)
        n = rng.randrange(0, 10 ** 4)
        m = rng.randrange(0, 10 ** 4)
        total = es.ergodic_sum(phi, x, n + m, golden_trunc)
        part = (es.ergodic_sum(phi, x, n, golden_trunc)
                + es.ergodic_sum(phi, (x + n * a) % 1, m, golden_trunc))
        assert total == part


def test_profile_matches_pointwise(golden_trunc):
    phi = obs.double_interval(Fraction(1, 5), Fraction(3, 8))
    n = 89
    prof = es.orbit_sum_profile(phi, n, golden_trunc.value)
    rng = random.Random(2)
    for _ in range(40):
        x = Fraction(rng.randrange(0, 10 ** 5), 10 ** 5)
        assert prof.evaluate(x) == es.ergodic_sum(phi, x, n, golden_trunc)


def test_profile_integral_against_riemann(golden_trunc):
    phi = obs.indicator(Fraction(2, 5))
    prof = es.orbit_sum_profile(phi, 13, golden_trunc.value)
    val = float(prof.integral_sq())
    grid = 20000
    riemann = sum(float(prof.evaluate(Fraction(i, grid))) ** 2
                  for i in range(grid)) / grid
    assert abs(val - riemann) < 5e-3


# Profile properties against brute force.  "deep" is a sqrt2-1 truncation
# with a 66-bit q, so n * L >= 2**62 and the profile runs on object arrays.
PROFILE_TRUNCS = {
    "golden": cf.truncation(cf.golden(40), 32),
    "sqrt2m1": cf.truncation(cf.sqrt2m1(30), 22),
    "seeded": cf.truncation(cf.from_list(
        [random.Random(4).randrange(1, 6) for _ in range(30)]), 20),
    "deep": cf.truncation(cf.sqrt2m1(60), 52),
}
PROFILE_PHIS = CATALOG + [
    obs.billiard_displacement(Fraction(2, 5)).phi1,
    # jumps 1/6, -1/2 and 1/3 (scale 6) and mean 11/120
    obs.StepFunction((Fraction(0), Fraction(1, 4), Fraction(3, 5)),
                     (Fraction(1, 3), Fraction(-1, 6), Fraction(1, 6))),
]


@hst.composite
def profile_cases(draw):
    phi = draw(hst.sampled_from(PROFILE_PHIS))
    if not isinstance(phi, obs.Sawtooth):
        den = draw(hst.integers(1, 200))
        phi = phi.shifted(Fraction(draw(hst.integers(0, den - 1)), den))
    trunc = PROFILE_TRUNCS[draw(hst.sampled_from(sorted(PROFILE_TRUNCS)))]
    x_den = draw(hst.integers(1, 10 ** 6))
    x = Fraction(draw(hst.integers(0, x_den - 1)), x_den)
    return phi, draw(hst.integers(1, 200)), trunc, x


@settings(max_examples=60)
@given(profile_cases())
@example((obs.indicator(Fraction(1, 3)), 200, PROFILE_TRUNCS["deep"],
          Fraction(5, 7)))
@example((obs.Sawtooth(), 150, PROFILE_TRUNCS["deep"], Fraction(0)))
def test_profile_against_brute_force(profile_oracle, case):
    phi, n, trunc, x = case
    prof = es.orbit_sum_profile(phi, n, trunc.value)
    direct = es._direct_sum(phi, x, n, trunc)
    assert prof.evaluate(x) == direct
    assert (prof.sup_abs(), prof.integral_sq()) == profile_oracle(phi, n, trunc)


# psi1 and psi2 share all their breakpoints; shifted steps mostly do not
CONTEXT_PHIS = PROFILE_PHIS + [obs.billiard_displacement(Fraction(2, 5)).phi2]


@hst.composite
def context_cases(draw):
    phis = []
    for _ in range(draw(hst.integers(1, 4))):
        phi = draw(hst.sampled_from(CONTEXT_PHIS))
        if not isinstance(phi, obs.Sawtooth) and draw(hst.booleans()):
            den = draw(hst.integers(1, 60))
            phi = phi.shifted(Fraction(draw(hst.integers(0, den - 1)), den))
        phis.append(phi)
    trunc = PROFILE_TRUNCS[draw(hst.sampled_from(sorted(PROFILE_TRUNCS)))]
    x_den = draw(hst.integers(1, 10 ** 6))
    return (tuple(phis), trunc, x_den, draw(hst.integers(0, x_den - 1)),
            draw(hst.integers(0, 300)))


@settings(max_examples=80)
@given(context_cases())
@example((tuple(CONTEXT_PHIS), PROFILE_TRUNCS["deep"], 2 ** 64, 12345, 300))
def test_context_matches_direct_per_observable(case):
    phis, trunc, x_den, x_num, n = case
    ctx = es.ErgodicContext(phis, trunc, x_den)
    x = Fraction(x_num, x_den)
    direct = tuple(es._direct_sum(phi, x, n, trunc)
                   for phi in phis)
    assert ctx.sum_at(x_num, n) == direct
    assert es.ErgodicContext(phis[0], trunc, x_den).sum_at(x_num, n) == direct[0]
    # one floor sum per distinct jump point of the union
    points = set().union(*(phi.jumps() for phi in phis))
    assert len(ctx.offsets) == len(points)


@hst.composite
def batch_cases(draw):
    """A context case with several numerators (of any sign and size) and a
    truncation, or an exact rational rotation summed far past any window."""
    phis, trunc, x_den, _, n = draw(context_cases())
    nums = draw(hst.lists(hst.integers(-10 ** 30, 10 ** 30), min_size=1,
                          max_size=6))
    if draw(hst.booleans()):
        return phis, trunc, x_den, nums, n
    rot = Fraction(draw(hst.integers(-10 ** 9, 10 ** 9)),
                   draw(hst.integers(1, 10 ** 9)))
    return phis, rot, x_den, nums, draw(hst.integers(0, 10 ** 40))


@settings(max_examples=80)
@given(batch_cases())
@example(((obs.Sawtooth(),), PROFILE_TRUNCS["golden"], 7, [3, -2], 0))
@example((tuple(CONTEXT_PHIS), PROFILE_TRUNCS["deep"], 2 ** 64, [1, 5], 1))
@example((tuple(CONTEXT_PHIS), Fraction(2, 7), 97, [5, 96, 10 ** 25], 0))
@example((tuple(CONTEXT_PHIS), Fraction(-3, 11), 97, [0, 5], 1))
# numerators past 2**53 over the sawtooth's denominator L: rounding each
# one to float before dividing would move the last bit of about a third
@example(((obs.Sawtooth(),), Fraction(-123456789, 987654321), 97,
          list(range(20)), 10 ** 40 + 12345))
def test_sums_at_rows_round_sum_at_once(case):
    # each batch value is the exact sum rounded once: float(Fraction) bit
    # for bit, for one observable and for a tuple
    phis, rot, x_den, nums, n = case
    for phi in (phis, phis[0]):
        ctx = es.ErgodicContext(phi, rot, x_den)
        rows = ctx.sums_at(nums, n)
        exact = [ctx.sum_at(m, n) for m in nums]
        if phi is phis[0]:
            exact = [(v,) for v in exact]
        want = np.array([[float(v) for v in row] for row in exact])
        assert rows.dtype == np.float64 and rows.shape == want.shape
        assert rows.tobytes() == want.tobytes()


def test_sums_at_checks_operands_and_window():
    tr = cf.truncation(cf.golden(20), 12)
    ctx = es.ErgodicContext(obs.half(), tr, 97)
    for nums, n in (([1, 2.5], 3), ([1, 2], 3.0), ([Fraction(1, 2)], 3)):
        with pytest.raises(ConfigError, match="must be integers"):
            ctx.sums_at(nums, n)
    with pytest.raises(ConfigError, match="N must be >= 0"):
        ctx.sums_at([1], -1)
    with pytest.raises(PrecisionError):
        ctx.sums_at([1], tr.validity_bound + 1)
    assert ctx.sums_at(np.arange(3, dtype=object), 5).shape == (3, 1)


def _fraction_loop_sum(phi, x, N, trunc):
    """S_N phi(x) as one ``evaluate`` Fraction added per term: the oracle of
    the integer direct engine."""
    L = math.lcm(trunc.q, x.denominator)
    P = trunc.p * (L // trunc.q)
    r = (x.numerator * (L // x.denominator)) % L
    total = Fraction(0)
    for _ in range(N):
        total += phi.evaluate(Fraction(r, L))
        r = (r + P) % L
    return total


@settings(max_examples=80)
@given(profile_cases())
@example((PROFILE_PHIS[-1], 200, PROFILE_TRUNCS["seeded"], Fraction(3, 7)))
def test_direct_sum_equals_fraction_loop(case):
    phi, n, trunc, x = case
    direct = es._direct_sum(phi, x, n, trunc)
    assert type(direct) is Fraction
    assert direct == _fraction_loop_sum(phi, x, n, trunc)


def test_direct_sum_places_a_point_just_below_a_breakpoint():
    # x lies 1/q below the breakpoint 2/7, whose denominator does not
    # divide q: read over q alone, the breakpoint used to round down onto
    # x and count it in the piece to its right
    tr = PROFILE_TRUNCS["golden"]
    phi = obs.indicator(Fraction(2, 7))
    x = Fraction(2 * tr.q // 7, tr.q)
    assert x < Fraction(2, 7) and phi.evaluate(x) == Fraction(5, 7)
    assert es._direct_sum(phi, x, 1, tr) == Fraction(5, 7)


@settings(max_examples=60)
@given(shift=hst.fractions(0, 1, max_denominator=300), ell=hst.integers(1, 40),
       trunc=hst.sampled_from(sorted(PROFILE_TRUNCS)),
       x=hst.fractions(0, 1, max_denominator=10 ** 6), n=hst.integers(0, 300))
@example(shift=Fraction(1, 3), ell=7, trunc="deep", x=Fraction(0), n=300)
def test_moved_sawtooth_sums_match_the_direct_sum(shift, ell, trunc, x, n):
    # the sawtooth shifted and transferred is a slope-1 step function with
    # its one jump moved: {y + ell shift} - 1/2; the kernel reads its jump
    # and slope, the direct sum its pieces, the loop its values
    tr = PROFILE_TRUNCS[trunc]
    phi = obs.hat_observable(obs.Sawtooth().shifted(shift), ell)
    moved = obs.Sawtooth().shifted(ell * shift)
    assert (phi.breakpoints, phi.values, phi.slope) == (
        moved.breakpoints, moved.values, moved.slope)
    direct = es._direct_sum(phi, x, n, tr)
    assert es.ergodic_sum(phi, x, n, tr) == direct == _fraction_loop_sum(
        phi, x, n, tr)


def test_context_rotation_is_a_truncation_or_an_exact_rational():
    # a truncation p_M/q_M stands for an irrational alpha and guards its
    # window; the same value given as an exact rational is a rational
    # rotation, summed exactly past q_(M-1) and past its period q_M
    tr = cf.truncation(cf.golden(20), 12)
    phis = (obs.Sawtooth(), obs.indicator(Fraction(1, 3)))
    x = Fraction(5, 97)
    with pytest.raises(PrecisionError):
        es.ErgodicContext(phis, tr, 97).sum_at(5, tr.validity_bound + 1)
    exact = es.ErgodicContext(phis, tr.value, 97)
    for N in (tr.validity_bound + 1, 3 * tr.q + 1):
        assert exact.sum_at(5, N) == tuple(
            sum(phi.evaluate(x + j * tr.value) for j in range(N))
            for phi in phis)
    # an integer rotation keeps x fixed
    assert es.ErgodicContext(phis, 1, 97).sum_at(5, 10) == tuple(
        10 * phi.evaluate(x) for phi in phis)


@pytest.mark.parametrize("rot", [0.5, np.float64(0.25), "1/3", None],
                         ids=["float", "float64", "str", "None"])
def test_context_rejects_inexact_rotation(rot):
    with pytest.raises(ConfigError, match="rotation must be"):
        es.ErgodicContext(obs.Sawtooth(), rot, 64)


@hst.composite
def jump_form_cases(draw):
    phi = draw(hst.sampled_from(CONTEXT_PHIS))
    if not isinstance(phi, obs.Sawtooth) and draw(hst.booleans()):
        den = draw(hst.integers(1, 60))
        phi = phi.shifted(Fraction(draw(hst.integers(0, den - 1)), den))
    if draw(hst.booleans()):        # on a jump point, the wrap at 0 included
        t = draw(hst.sampled_from(sorted(phi.jumps())))
        den = t.denominator * draw(hst.integers(1, 5))
        m = t.numerator * (den // t.denominator) + den * draw(hst.integers(0, 2))
    else:
        den = draw(hst.integers(1, 10 ** 6))
        m = draw(hst.integers(0, 3 * den))
    trunc = PROFILE_TRUNCS[draw(hst.sampled_from(sorted(PROFILE_TRUNCS)))]
    return phi, trunc, den, m


@settings(max_examples=120)
@given(jump_form_cases())
@example((obs.Sawtooth(), PROFILE_TRUNCS["deep"], 1, 0))
def test_jump_form_reproduces_observable(case):
    # jumps plus slope are the whole exact form: they close up around the
    # circle, add up to the variation, and S_1 from them is phi itself
    phi, trunc, den, m = case
    jumps = phi.jumps()
    assert sum(jumps.values()) + phi.slope == 0
    assert phi.variation() == sum(abs(v) for v in jumps.values()) + phi.slope
    assert es.ErgodicContext(phi, trunc, den).sum_at(m, 1) == \
        phi.evaluate(Fraction(m, den))


def test_step_function_rejects_inexact_values():
    with pytest.raises(ConfigError, match="int or Fraction"):
        obs.StepFunction((Fraction(0), Fraction(1, 2)), (0.5, -0.5))
    with pytest.raises(ConfigError, match="int or Fraction"):
        obs.StepFunction((Fraction(0), 0.5), (Fraction(1, 2), Fraction(-1, 2)))
    phi = obs.StepFunction((0, Fraction(1, 2)), (1, -1))
    val = es.ergodic_sum(phi, Fraction(3, 8), 7, cf.truncation(cf.golden(20), 15))
    assert type(val) is Fraction


def test_context_rejects_vector_observable(golden_trunc):
    vec = obs.billiard_displacement(Fraction(1, 3))
    with pytest.raises(ConfigError, match="not a scalar observable"):
        es.ErgodicContext(vec, golden_trunc, 8)
    assert len(es.ErgodicContext(vec.components, golden_trunc, 8).sum_at(1, 9)) == 2


def test_profile_merges_coinciding_jumps():
    # at rotation 1/8 the jumps of half() at 0 and 1/2 land on common
    # multiples of 1/8; only the net jump there may make a level
    phi = obs.half()
    for n in range(1, 17):
        prof = es.orbit_sum_profile(phi, n, Fraction(1, 8))
        vals = [sum(phi.evaluate(Fraction(2 * i + 1, 16) + Fraction(j, 8))
                    for j in range(n)) for i in range(8)]
        assert prof.sup_abs() == max(abs(v) for v in vals)
        assert prof.integral_sq() == sum(v * v for v in vals) / 8


def test_profile_dtype_follows_size():
    phi = obs.half()
    small = es.orbit_sum_profile(phi, 89, PROFILE_TRUNCS["golden"].value)
    deep = PROFILE_TRUNCS["deep"]
    assert 89 * deep.q >= 2 ** 62
    big = es.orbit_sum_profile(phi, 89, deep.value)
    assert small.levels.dtype == np.int64 and big.levels.dtype == object
    assert big.sup_abs() <= phi.variation()


def test_ostrowski_bound_certificate(golden_trunc):
    phi = obs.half()
    # single digit at a denominator
    lhs, rhs = es.ostrowski_bound_check(phi, Fraction(1, 7),
                                        golden_trunc.qs[7], golden_trunc)
    assert rhs == phi.variation()
    # N = 10 on golden: digits 8 + 2
    lhs, rhs = es.ostrowski_bound_check(phi, Fraction(1, 7), 10, golden_trunc)
    assert rhs == 2 * phi.variation()
    rng = random.Random(9)
    for _ in range(200):
        x = Fraction(rng.randrange(0, 10 ** 4), 10 ** 4)
        n = rng.randrange(1, 10 ** 6)
        phi = CATALOG[rng.randrange(len(CATALOG))]
        lhs, rhs = es.ostrowski_bound_check(phi, x, n, golden_trunc)
        assert lhs <= rhs


def approx_design(a_big: int, guard: int = 8):
    """alpha = [0; 1, 2, A, 1, 1, ...]: q_2 = 3 carries the big next quotient."""
    quots = [1, 2, a_big] + [1] * guard
    return cf.truncation(cf.from_list(quots), len(quots))


def test_approx_error_phi0_bound():
    for a_big in (10, 100, 1000):
        tr = approx_design(a_big)
        err = es.approx_error_sq(obs.Sawtooth(), 2, tr)
        assert 0 < float(err) <= 4.0 / a_big
    # degenerate golden case: a_{n+1} = 1 still satisfies the bound <= 4
    tr = cf.truncation(cf.golden(20), 15)
    err = es.approx_error_sq(obs.Sawtooth(), 6, tr)
    assert float(err) <= 4.0


@pytest.mark.parametrize("phi", CATALOG[1:], ids=lambda p: p.label)
def test_approx_error_catalog_bound_and_monotone(phi):
    errs = []
    for a_big in (10, 100, 1000):
        tr = approx_design(a_big)
        err = float(es.approx_error_sq(phi, 2, tr))
        bound = (4 * math.pi * phi.kbound()) ** 2 / a_big
        assert err <= bound
        errs.append(err)
    assert errs[0] > errs[1] > errs[2]


def _approx_error_oracle(phi, n, trunc):
    """|| S_{q_n} phi - sum_j phi(. + j/q_n) ||_2^2 by brute force.

    The circle is cut at {t - j alpha} and {t - j/q_n} for the jump points t
    and j < q_n, and the difference D is evaluated at the midpoint of every
    piece: S_{q_n} phi by the floor-sum engine, the periodized sum term by
    term.  D is constant on a piece, the sawtooth's slopes cancelling, so
    each piece contributes D^2 len.
    """
    qn = trunc.qs[n]
    cuts = sorted({Fraction(0)} | {(t - j * rot) % 1 for t in phi.jumps()
                                   for rot in (trunc.value, Fraction(1, qn))
                                   for j in range(qn)})
    total = Fraction(0)
    for lo, hi in zip(cuts, cuts[1:] + [Fraction(1)]):
        x = (lo + hi) / 2
        d = (es.ergodic_sum(phi, x, qn, trunc)
             - sum(phi.evaluate(x + Fraction(j, qn)) for j in range(qn)))
        total += d * d * (hi - lo)
    return total


@pytest.mark.parametrize("a_big", [10, 100])
def test_approx_error_matches_brute_force(a_big):
    tr = approx_design(a_big)
    pair = obs.billiard_displacement(Fraction(2, 5))
    for phi in CATALOG + [pair.phi1, pair.phi2]:
        assert es.approx_error_sq(phi, 2, tr) == _approx_error_oracle(phi, 2, tr)
