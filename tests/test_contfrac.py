import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from rotsum import contfrac as cf
from rotsum.errors import ConfigError, PrecisionError, SpecExhaustedError


def test_golden_first_denominators():
    tr = cf.truncation(cf.golden(10), 6)
    assert list(tr.qs) == [1, 1, 2, 3, 5, 8, 13]
    assert list(tr.ps) == [0, 1, 1, 2, 3, 5, 8]


def sqrt2_bounds(digits: int):
    """Exact rational bounds L < sqrt(2) < U via integer square root."""
    scale = 10 ** digits
    r = math.isqrt(2 * scale * scale)
    lo = Fraction(r, scale)
    hi = Fraction(r + 1, scale)
    assert lo * lo < 2 < hi * hi
    return lo, hi


def test_sqrt2m1_convergent_quality():
    # all partial quotients 2: alpha = sqrt(2) - 1
    tr = cf.truncation(cf.sqrt2m1(10), 4)
    assert (tr.ps[4], tr.qs[4]) == (12, 29)
    lo, hi = sqrt2_bounds(40)
    for p, q in zip(tr.ps[1:], tr.qs[1:]):
        approx = Fraction(p, q)
        # |alpha - p/q| < 1/q^2 certified on the enclosing interval
        err_hi = max(abs((hi - 1) - approx), abs((lo - 1) - approx))
        assert err_hi < Fraction(1, q * q)


@pytest.mark.parametrize("spec", [cf.golden(25), cf.sqrt2m1(25),
                                  cf.from_list([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7])])
def test_determinant_identity(spec):
    # p_{n-1} q_n - p_n q_{n-1} = (-1)^n, seeds p_{-1}=1, q_{-1}=0
    p = [1, 0]
    q = [0, 1]
    for k in range(1, min(spec.max_index, 14) + 1):
        a = spec.a(k)
        p.append(a * p[-1] + p[-2])
        q.append(a * q[-1] + q[-2])
    for n in range(0, len(p) - 2):
        assert p[n] * q[n + 1] - p[n + 1] * q[n] == (-1) ** n


def test_spec_exhaustion():
    spec = cf.from_list([1, 2, 3])
    with pytest.raises(SpecExhaustedError, match="convergent 4 needs a_4"):
        cf.truncation(spec, 4)
    with pytest.raises(SpecExhaustedError):
        spec.a(4)


@pytest.mark.parametrize("spec, least", [
    (cf.golden(15), 3), (cf.from_list([1, 4, 2]), 3),
    (cf.sqrt2m1(15), 2), (cf.from_list([5, 1, 1]), 2),
], ids=["golden", "list-1", "sqrt2m1", "list-5"])
def test_truncation_refuses_an_empty_window(spec, least):
    # golden's level 2 used to build with the window [1, q_1) = [1, 1), so
    # distance(1) raised and diagnostic_inequalities hit its scan check
    for level in range(-1, least):
        with pytest.raises(ConfigError, match=f"nonempty window is {least}$"):
            cf.truncation(spec, level)
    tr = cf.truncation(spec, least)
    assert tr.validity_bound >= 2
    assert tr.distance(1) == Fraction(min(tr.p, tr.q - tr.p), tr.q)


def test_quotients_must_be_positive():
    with pytest.raises(ConfigError):
        cf.from_list([1, 0, 2])


@pytest.fixture(scope="module")
def golden_trunc():
    return cf.truncation(cf.golden(40), 30)


def test_distance_at_denominators(golden_trunc):
    tr = golden_trunc
    for n in range(1, tr.level - 2):
        d = tr.distance(tr.qs[n])
        assert Fraction(1, 2 * tr.qs[n + 1]) <= d <= Fraction(1, tr.qs[n + 1])
        # tighter lower bound 1/(q_{n+1} + q_n)
        assert d >= Fraction(1, tr.qs[n + 1] + tr.qs[n])
        # and the exact upper bound 1/(a_{n+1} q_n + q_{n-1})
        assert d <= Fraction(1, tr.a(n + 1) * tr.qs[n] + tr.qs[n - 1])


def test_distance_k1_is_alpha(golden_trunc):
    tr = golden_trunc
    a = tr.value
    assert tr.distance(1) == min(a, 1 - a)


def test_denominators_minimize_distance(golden_trunc):
    tr = golden_trunc
    for n in range(3, 9):
        floor_d = tr.denominator_distance(n - 1)
        for k in range(1, tr.qs[n]):
            assert tr.distance(k) >= floor_d


def test_distance_window_enforced(golden_trunc):
    tr = golden_trunc
    with pytest.raises(PrecisionError):
        tr.distance(tr.validity_bound)
    with pytest.raises(PrecisionError):
        tr.distance(0)


def test_one_equals_mixed_distance_sum(golden_trunc):
    # q_n ||q_{n+1} a|| + q_{n+1} ||q_n a|| = 1, exactly on the truncation
    tr = golden_trunc
    for n in range(0, tr.level - 1):
        lhs = (tr.qs[n] * tr.denominator_distance(n + 1)
               + tr.qs[n + 1] * tr.denominator_distance(n))
        assert lhs == 1


def test_ostrowski_golden_ten(golden_trunc):
    d = cf.ostrowski_digits(10, golden_trunc)
    assert d.value == 10
    # greedy picks 8 + 2
    assert d.digits[5] == 1 and d.digits[2] == 1 and d.digit_sum() == 2


def test_ostrowski_single_digit_at_denominator(golden_trunc):
    for n in range(2, 12):
        d = cf.ostrowski_digits(golden_trunc.qs[n], golden_trunc)
        assert d.digit_sum() == 1 and d.digits[n] == 1


def test_ostrowski_property():
    rng = random.Random(42)
    spec2 = cf.from_list([rng.randrange(1, 9) for _ in range(60)])
    tr2 = cf.truncation(spec2, 60)
    deep_golden = cf.truncation(cf.golden(60), 50)
    for tr in (deep_golden, tr2):
        for _ in range(500):
            n = rng.randrange(1, 10 ** 9)
            d = cf.ostrowski_digits(n, tr)
            assert sum(b * q for b, q in zip(d.digits, tr.qs)) == n
            assert 0 <= d.digits[0] <= tr.a(1) - 1
            for k in range(1, d.m):
                assert 0 <= d.digits[k] <= tr.a(k + 1)
            assert 1 <= d.digits[d.m] <= tr.a(d.m + 1)


def test_ostrowski_rejects_nonpositive(golden_trunc):
    with pytest.raises(ValueError):
        cf.ostrowski_digits(0, golden_trunc)


def test_design_alpha_golden_rule():
    tr = cf.design_alpha(cf.golden(15), 10)
    assert tr.level == 15
    assert tr.qs[:7] == (1, 1, 2, 3, 5, 8, 13)


def test_beta_from_ostrowski(golden_trunc):
    tr = golden_trunc
    assert cf.beta_from_ostrowski([], tr) == 0
    assert cf.beta_from_ostrowski([1], tr) == tr.value  # {alpha}
    beta = cf.beta_from_ostrowski({2: 1, 5: 3}, tr)
    expected = (tr.qs[2] * tr.value + 3 * tr.qs[5] * tr.value) % 1
    assert beta == expected
    with pytest.raises(PrecisionError):
        cf.beta_from_ostrowski({tr.level - 1: 1}, tr)


def test_json_round_trip(golden_trunc):
    # the library writes specs and never reads them back
    assert json.loads(golden_trunc.spec.to_json()) == {
        "kind": "rule", "name": "golden", "params": {},
        "max_index": golden_trunc.spec.max_index}
    spec = cf.from_list([1, 2, 3, 4, 5])
    assert json.loads(spec.to_json()) == {
        "kind": "list", "quotients": [1, 2, 3, 4, 5], "max_index": 5}


SPECS = hst.one_of(
    hst.builds(lambda qs, cut: cf.PartialQuotientSpec(
        name="list", max_index=max(2, len(qs) - cut), quotients=tuple(qs)),
        hst.lists(hst.integers(1, 10 ** 6), min_size=2, max_size=40),
        hst.integers(0, 3)),
    hst.builds(cf.golden, hst.integers(2, 80)),
    hst.builds(cf.sqrt2m1, hst.integers(2, 80)),
    hst.builds(cf.clt_design_rule, hst.integers(1, 40), hst.integers(1, 3),
               hst.integers(2, 60)),
    hst.builds(cf.parity_design_rule, hst.integers(1, 40), hst.integers(1, 3),
               hst.integers(2, 60)),
)


def _draw_truncation(spec, data):
    """``spec`` frozen at a drawn level >= 2; None at level 2 with a_1 = 1,
    whose empty window [1, q_1) = [1, 1) the truncation refuses."""
    level = data.draw(hst.integers(2, spec.max_index), label="level")
    if level == 2 and spec.a(1) == 1:
        with pytest.raises(ConfigError, match="nonempty window is 3"):
            cf.truncation(spec, level)
        return None
    return cf.truncation(spec, level)


@pytest.mark.parametrize("name", ["clt_design", "parity_design"])
@pytest.mark.parametrize("params", [{}, {"c": 30}, {"beta": 2}])
def test_design_spec_without_its_params_is_refused(name, params):
    # the builders record c and beta; a rule spec built without them has no
    # defaults to fall back on
    with pytest.raises(ConfigError, match="needs params c and beta"):
        cf.PartialQuotientSpec(name=name, max_index=5, params=params)
    if not params:
        with pytest.raises(ConfigError, match="needs params c and beta"):
            cf.PartialQuotientSpec(name=name, max_index=5)


@pytest.mark.parametrize("build, kw", [
    (cf.clt_design_rule, {"c": np.int64(30)}),
    (cf.parity_design_rule, {"beta": np.int64(2)}),
], ids=["clt_design-c", "parity_design-beta"])
def test_design_builders_store_python_ints(build, kw):
    # a numpy integer used to be stored as given, and to_json raised a bare
    # TypeError
    spec = build(**kw)
    assert spec.params == {"c": 30, "beta": 2}
    assert {type(v) for v in spec.params.values()} == {int}
    assert json.loads(spec.to_json())["params"] == {"c": 30, "beta": 2}
    assert spec == build()


@settings(max_examples=80)
@given(spec=SPECS, data=hst.data())
def test_ostrowski_digits_sum_back_to_n(spec, data):
    tr = _draw_truncation(spec, data)
    if tr is None:
        return
    n = data.draw(hst.one_of(hst.integers(1, tr.qs[tr.level] - 1),
                             hst.sampled_from(tr.qs[1:tr.level])), label="n")
    d = cf.ostrowski_digits(n, tr)
    assert sum(b * q for b, q in zip(d.digits, tr.qs)) == n
    assert d.value == n
