import bisect
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from rotsum import billiard as bil
from rotsum import cli
from rotsum import contfrac as cf
from rotsum import ergosum as es
from rotsum import observables as obs
from rotsum import sequences as seq
from rotsum.errors import (BoundaryError, ConfigError, RotsumError,
                           SingularOrbitError)


@pytest.fixture(scope="module")
def params25():
    # alpha = 2/5 with a + b = 1
    return bil.ObstacleParams(a=Fraction(2, 5), b=Fraction(3, 5))


@pytest.fixture(scope="module")
def square_params():
    return bil.ObstacleParams(a=Fraction(2, 5), b=Fraction(2, 5))


def test_small_obstacle_condition():
    with pytest.raises(ConfigError):
        bil.ObstacleParams(a=Fraction(3, 5), b=Fraction(3, 5))
    p = bil.ObstacleParams(a=Fraction(1, 4), b=Fraction(1, 2))
    assert p.alpha == Fraction(1, 3)
    assert p.strict
    # the cached alpha leaves equality and hashing to the two sides
    q = bil.ObstacleParams(a=Fraction(1, 4), b=Fraction(1, 2))
    assert p == q and hash(p) == hash(q)


def test_displacement_cases(params25):
    # alpha = 2/5: pieces (0,;3/10), (3/10,1/2), (1/2,4/5), (4/5,1)
    assert bil.displacement(Fraction(1, 10), params25) == (0, 1)
    assert bil.displacement(Fraction(35, 100), params25) == (1, 0)
    assert bil.displacement(Fraction(6, 10), params25) == (0, -1)
    assert bil.displacement(Fraction(9, 10), params25) == (-1, 0)
    for b in (Fraction(0), Fraction(3, 10), Fraction(1, 2), Fraction(4, 5)):
        with pytest.raises(BoundaryError):
            bil.displacement(b, params25)


def test_psi_components_match_displacement(params25):
    vec = bil.psi_components(params25)
    rng = random.Random(0)
    for _ in range(200):
        x = Fraction(rng.randrange(1, 9973), 9973)
        try:
            dz = bil.displacement(x, params25)
        except BoundaryError:
            continue
        assert (vec.phi1.evaluate(x), vec.phi2.evaluate(x)) == dz


def test_psi_components_are_shifted_odd_pair(params25):
    # psi1(x) = pair.phi1(x - (1/2 - alpha/2)); psi2 equals pair.phi2 directly
    vec = bil.psi_components(params25)
    pair = obs.billiard_pair(params25.alpha)
    shift = Fraction(1, 2) - params25.alpha / 2
    for i in range(151):
        x = Fraction(i, 151)
        assert vec.phi1.evaluate(x) == pair.phi1.evaluate(x - shift)
        assert vec.phi2.evaluate(x) == pair.phi2.evaluate(x)


def test_skew_product_x_dynamics(params25):
    st = bil.LatticeState(Fraction(1, 7), (0, 0))
    xs = [st.x]
    for _ in range(10):
        st = bil.step(st, params25)
        xs.append(st.x)
    for n, x in enumerate(xs):
        assert x == (Fraction(1, 7) + n * params25.alpha) % 1


def test_cell_after_zero_and_oracle(params25):
    assert bil.cell_after(0, Fraction(1, 7), params25) == (0, 0)
    rng = random.Random(4)
    for _ in range(40):
        x = Fraction(rng.randrange(1, 2 ** 20), 2 ** 20)
        n = rng.randrange(1, 2000)
        assert bil.cell_after(n, x, params25) == \
            bil.cell_after_direct(n, x, params25)


def test_cell_after_builds_one_context_per_shape(params25):
    bil._cell_context.cache_clear()
    x = Fraction(3, 7)
    for n in (5, 9, 5):
        assert bil.cell_after(n, x, params25) == \
            bil.cell_after_direct(n, x, params25)
    assert bil._cell_context.cache_info().misses == 1


@pytest.mark.parametrize("cell_sum", [bil.cell_after, bil.cell_after_direct])
def test_cell_sums_reject_negative_n(cell_sum, params25, monkeypatch):
    def no_work(*args):
        raise AssertionError("negative n must be rejected before any work")
    bil._cell_context.cache_clear()
    monkeypatch.setattr(bil, "ErgodicContext", no_work)
    monkeypatch.setattr(bil, "_psi", no_work)
    with pytest.raises(ConfigError):
        cell_sum(-3, Fraction(1, 7), params25)


@settings(max_examples=150)
@given(alpha=hst.fractions(min_value=0, max_value=1, max_denominator=10 ** 30)
       .filter(lambda a: 0 < a < 1),
       x=hst.fractions(min_value=0, max_value=1, max_denominator=10 ** 6),
       n=hst.integers(0, 300))
# 5/13 = [0; 2, 1, 1, 2]: n = 300 passes q_(M-1) = 5 and the period q_M = 13
@example(alpha=Fraction(5, 13), x=Fraction(1, 9), n=300)
def test_cell_context_on_exact_alpha_matches_iteration(alpha, x, n):
    # the kernel takes the rational rotation a/(a+b) as it is: exact at every
    # n, past q_(M-1) of every truncation of alpha and past its period
    params = bil.ObstacleParams(a=alpha, b=1 - alpha)
    try:
        direct = bil.cell_after_direct(n, x, params)
    except BoundaryError:
        return
    ctx = es.ErgodicContext(bil.psi_components(params).components, alpha,
                            x.denominator)
    assert ctx.sum_at(x.numerator, n) == direct


def test_cell_bounded_at_denominators():
    # at denominators of alpha the walk returns within a 2-cell box
    tr = cf.truncation(cf.golden(24), 18)
    params = bil.params_for_plan(tr)
    vec = bil.psi_components(params)
    for n in range(2, 10):
        qn = tr.qs[n]
        for comp in vec.components:
            prof = es.orbit_sum_profile(comp, qn, tr.value)
            assert prof.sup_abs() <= 2


def test_ray_cell_increments_are_unit_steps(square_params):
    orbit = bil.ray_trace(Fraction(3, 17), square_params, collisions=40)
    cells = [(0, 0)] + orbit.cells()
    for prev, cur in zip(cells, cells[1:]):
        step = (cur[0] - prev[0], cur[1] - prev[1])
        assert step in {(0, 1), (1, 0), (0, -1), (-1, 0)}


@pytest.mark.parametrize("a,b", [(Fraction(2, 5), Fraction(2, 5)),
                                 (Fraction(2, 5), Fraction(3, 5)),
                                 (Fraction(1, 3), Fraction(1, 2)),
                                 (Fraction(1, 7), Fraction(2, 7))])
def test_ray_trace_matches_exact_engine(a, b):
    params = bil.ObstacleParams(a=a, b=b)
    rng = random.Random(13)
    done = 0
    while done < 12:
        x = Fraction(rng.randrange(1, 2 ** 30), 2 ** 30)
        try:
            orbit = bil.ray_trace(x, params, collisions=60)
        except (SingularOrbitError, BoundaryError):
            continue
        cells = orbit.cells()
        for j, cell in enumerate(cells, start=1):
            assert cell == bil.cell_after_direct(j, x, params)
        done += 1


# --- the integer tracer and the integer cocycle against Fraction oracles

GOLDEN16 = bil.params_for_plan(cf.truncation(cf.golden(20), 16))


@hst.composite
def shapes(draw):
    """Rectangles with a + b <= 1 (a + b = 1 on about half the draws)."""
    den = draw(hst.integers(2, 40))
    i = draw(hst.integers(1, den - 1))
    j = den - i if draw(hst.booleans()) else draw(hst.integers(1, den - i))
    return bil.ObstacleParams(Fraction(i, den), Fraction(j, den))


SHAPES = hst.one_of(hst.just(GOLDEN16), shapes())
# small denominators land on corners, copy boundaries and tangencies;
# prime ones do not
SMALL_STARTS = hst.integers(2, 24).flatmap(
    lambda den: hst.integers(1, den - 1).map(lambda u: Fraction(u, den)))
PRIME_STARTS = hst.sampled_from([65537, 1000003, 2 ** 31 - 1]).flatmap(
    lambda den: hst.integers(1, den - 1).map(lambda u: Fraction(u, den)))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except RotsumError as exc:
        return type(exc), str(exc)


@settings(max_examples=150)
@given(params=SHAPES, chi=hst.one_of(SMALL_STARTS, PRIME_STARTS),
       collisions=hst.integers(1, 60))
@example(params=bil.ObstacleParams(Fraction(2, 5), Fraction(3, 5)),
         chi=Fraction(1, 5), collisions=4)
@example(params=bil.ObstacleParams(Fraction(2, 5), Fraction(3, 5)),
         chi=Fraction(1, 2), collisions=2)
def test_ray_trace_matches_fraction_oracle(params, chi, collisions,
                                           fraction_ray_trace):
    # every PathEvent field, start and direction, or the same typed failure
    assert _outcome(_orbit_fields, chi, params, collisions) == \
        _outcome(fraction_ray_trace, chi, params, collisions)


def _orbit_fields(chi, params, collisions):
    orbit = bil.ray_trace(chi, params, collisions)
    return orbit.chi, orbit.events, orbit.start, orbit.direction0


@settings(max_examples=60)
@given(params=SHAPES, chi=hst.one_of(SMALL_STARTS, PRIME_STARTS),
       collisions=hst.integers(1, 60))
def test_orbit_readers_match_events(params, chi, collisions):
    # cells and hitting times read the integer hit records, events are built
    # from them on access: both must tell the same orbit
    try:
        orbit = bil.ray_trace(chi, params, collisions)
    except RotsumError:
        return
    events = orbit.events
    assert len(events) == collisions
    assert orbit.cells() == [(e.obstacle[0] // 2, e.obstacle[1] // 2)
                             for e in events[1::2]]
    if collisions < 2:
        with pytest.raises(ConfigError, match="too short"):
            orbit.hitting_time()
        with pytest.raises(ConfigError, match="too short"):
            orbit.hitting_time_exact()
    else:
        assert orbit.hitting_time() == events[1].time
        assert orbit.hitting_time_exact() == events[1].t_exact
    assert orbit.events is events


@settings(max_examples=40)
@given(params=SHAPES, chi=PRIME_STARTS, collisions=hst.integers(2, 60))
def test_traced_cells_match_cocycle(params, chi, collisions):
    try:
        cells = bil.ray_trace(chi, params, collisions).cells()
    except SingularOrbitError:
        return
    for j, cell in enumerate(cells, start=1):
        assert cell == bil.cell_after(j, chi, params)
        assert cell == bil.cell_after_direct(j, chi, params)


def _fraction_displacement(x, params):
    x = Fraction(x) % 1
    alpha = params.alpha
    cuts = (Fraction(0), (1 - alpha) / 2, Fraction(1, 2), 1 - alpha / 2)
    if x in cuts:
        raise BoundaryError(f"x = {x} is a displacement breakpoint")
    return ((0, 1), (1, 0), (0, -1), (-1, 0))[bisect.bisect_right(cuts, x) - 1]


@settings(max_examples=200)
@given(params=SHAPES, cut=hst.integers(0, 3), shift=hst.integers(-3, 3),
       nudge=hst.sampled_from([0, 0, 1, -1]), den=hst.integers(1, 10 ** 6),
       free=hst.fractions(min_value=-5, max_value=5))
def test_displacement_matches_fraction_oracle(params, cut, shift, nudge, den,
                                              free):
    alpha = params.alpha
    cuts = (Fraction(0), (1 - alpha) / 2, Fraction(1, 2), 1 - alpha / 2)
    # on a breakpoint, just beside it, in any unit interval, and anywhere
    for x in (cuts[cut] + shift + Fraction(nudge, den), free):
        dz = _outcome(_fraction_displacement, x, params)
        assert _outcome(bil.displacement, x, params) == dz
        if dz[0] is not BoundaryError:
            assert bil.step(bil.LatticeState(x, (2, -1)), params) == \
                bil.LatticeState((x + alpha) % 1, (2 + dz[0], -1 + dz[1]))


def test_ray_trace_golden_truncation_alpha():
    tr = cf.truncation(cf.golden(20), 16)
    params = bil.params_for_plan(tr)
    rng = random.Random(99)
    for _ in range(8):
        x = Fraction(rng.randrange(1, 2 ** 30), 2 ** 30)
        orbit = bil.ray_trace(x, params, collisions=60)
        cells = orbit.cells()
        for j in (1, 7, 30):
            assert cells[j - 1] == bil.cell_after(j, x, params)


def test_mirror_symmetry_square_obstacles(square_params):
    # reflecting the start across 1/2 mirrors the geometry for a = b
    for i in (3, 5, 11):
        chi = Fraction(i, 64)
        t1 = bil.hitting_time(chi, square_params)
        t2 = bil.hitting_time(1 - chi, square_params)
        assert t1 == pytest.approx(t2, rel=1e-12)


def test_gap_between_hits_strict_case(square_params):
    # strictly small obstacles: consecutive hits stay a positive length apart
    min_gap = None
    orbit = bil.ray_trace(Fraction(3, 17), square_params, collisions=60)
    prev = Fraction(0)
    for ev in orbit.events:
        gap = ev.t_exact - prev
        prev = ev.t_exact
        min_gap = gap if min_gap is None else min(min_gap, gap)
    assert min_gap > 0
    # diagonal gap between obstacles along a line family: at least
    # (1 - (a+b)/2) in |dx| units... positive under the strict condition
    assert float(min_gap) > 0.05


def test_hitting_time_profile_and_c(params25, square_params):
    for params in (params25, square_params):
        prof = bil.hitting_time_profile(params)
        mc, quad = bil.estimate_c(params, n_starts=600, seed=3)
        assert mc == pytest.approx(quad, rel=0.01)
        # profile evaluates the tracer's hitting time pointwise
        rng = random.Random(6)
        for _ in range(25):
            chi = Fraction(rng.randrange(1, 2 ** 20), 2 ** 20)
            assert prof.evaluate(chi) == \
                bil.ray_trace(chi, params, 2).hitting_time_exact()


def test_hitting_time_gamma_against_quadrature(params25):
    # analytic piecewise oracle: integral of (s x + c) e^{-2 pi i r x}
    prof = bil.hitting_time_profile(params25)
    table = prof.gamma_array(64)
    for r in range(1, 65):
        acc = 0j
        for i, lo in enumerate(prof.breaks):
            hi = prof.breaks[i + 1] if i + 1 < len(prof.breaks) else Fraction(1)
            s, c = float(prof.slopes[i]), float(prof.intercepts[i])
            w = -2j * np.pi * r

            def antider(x):
                return (s * x + c) * np.exp(w * x) / w - s * np.exp(w * x) / w ** 2

            acc += antider(float(hi)) - antider(float(lo))
        oracle = r * acc
        assert abs(table[r - 1] - oracle) < 1e-10


def gamma_array_full_length(prof, rmax):
    """PiecewiseLinear.gamma_array with every break's cos/sin table built at
    full length rmax."""
    def unit(t):
        angle = -obs.TWO_PI * obs.phase_fracs(t, rmax)
        return np.cos(angle), np.sin(angle)

    k = len(prof.breaks)
    w = obs.TWO_PI * np.arange(1, rmax + 1, dtype=np.float64)
    re, im = np.zeros(rmax), np.zeros(rmax)
    cos_lo, sin_lo = unit(prof.breaks[0])
    for i in range(k):
        hi = prof.breaks[i + 1] if i + 1 < k else Fraction(1)
        nxt = prof.slopes[(i + 1) % k] * (hi % 1) + prof.intercepts[(i + 1) % k]
        jump = float(nxt - (prof.slopes[i] * hi + prof.intercepts[i]))
        cos_hi, sin_hi = unit(hi)
        re += jump * cos_hi
        im += jump * sin_hi
        s = float(prof.slopes[i])
        re -= s * (sin_hi - sin_lo) / w
        im += s * (cos_hi - cos_lo) / w
        cos_lo, sin_lo = cos_hi, sin_hi
    return im / obs.TWO_PI - 1j * (re / obs.TWO_PI)


@pytest.mark.parametrize("shape", ["params25", "level133"])
def test_hitting_time_gamma_tiles_exactly(shape, params25):
    # every break's table is built at full length; params25's breaks have
    # denominators up to 10, the level-133 drift shape's are 1325-bit wide
    if shape == "params25":
        params, sizes = params25, (1, 7, 10, 64, 101, 2000)
    else:
        params = bil.params_for_plan(cli.parse_alpha("parity:c=30", 128))
        sizes = (1, 64, 3000)
    prof = bil.hitting_time_profile(params)
    for rmax in sizes:
        table = prof.gamma_array(rmax)
        oracle = gamma_array_full_length(prof, rmax)
        assert np.array_equal(table.view(np.uint64), oracle.view(np.uint64))


def test_mild_hypothesis_designed():
    # quadratic quotient growth: the scaled log-window sums decay like
    # (ln n)^3/sqrt(n); over n <= 10^6 the decreasing trend is established
    spec = cf.parity_design_rule(c=12, beta=2, max_index=60)
    vals = bil.mild_hypothesis_values(spec, [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6])
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < vals[0] / 3
    # golden quotients: immediate decay to tiny values
    gvals = bil.mild_hypothesis_values(cf.golden(40), [10 ** 3, 10 ** 6])
    assert gvals[-1] < 0.02


def test_billiard_clt_smoke(monkeypatch):
    # a 12-term plan reaches none of the drift positions 20 and 40: check
    # three positions it does reach, on a shorter series
    monkeypatch.setattr(bil, "_DRIFT_NS", (4, 8, 12))
    monkeypatch.setattr(bil, "_DRIFT_RMAX", 4000)
    tr = cf.truncation(cf.parity_design_rule(c=12, beta=2, max_index=70), 66)
    plan = seq.plan_parity(tr, 2, 12)
    params = bil.params_for_plan(tr)
    rep = bil.clt_experiment(params, plan, 12, 800, seed=2)
    assert abs(rep.empirical["c11"] - 0.5) < 0.2
    assert abs(rep.empirical["c22"] - 0.5) < 0.2
    drift = rep.extra["psi0_norm_sq_over_n"]
    assert len(drift) == 3 and rep.extra["drift_rmax"] == 4000
    assert max(drift.values()) < 20 * min(drift.values()) + 1.0


def test_clt_requires_matching_alpha():
    tr = cf.truncation(cf.parity_design_rule(c=12, beta=2, max_index=70), 66)
    plan = seq.plan_parity(tr, 2, 6)
    wrong = bil.ObstacleParams(a=Fraction(2, 5), b=Fraction(3, 5))
    with pytest.raises(ConfigError):
        bil.clt_experiment(wrong, plan, 6, 100, seed=0)

