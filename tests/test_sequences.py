import json
from fractions import Fraction

import numpy as np
import pytest

from rotsum import contfrac as cf
from rotsum import observables as obs
from rotsum import sequences as seq
from rotsum.errors import (ConfigError, InsufficientPartialQuotientsError,
                           ParityPatternError)


@pytest.fixture(scope="module")
def designed():
    # boosts at every third slot: a_{3k} = k^2 + 1, else 1
    spec = cf.from_list([(k // 3) ** 2 + 1 if k % 3 == 0 else 1
                         for k in range(1, 141)])
    return cf.truncation(spec, 140)


@pytest.fixture(scope="module")
def parity_trunc():
    return cf.truncation(cf.parity_design_rule(c=12, beta=2, max_index=140), 136)


def test_plan_growth_slot_design(designed):
    plan = seq.plan_growth(designed, 2, 20)
    # position 1 has a trivial threshold (1^2), so greedy takes t_1 = 1;
    # afterwards it lands exactly on the designed slots t_k = 3k - 1
    assert plan.t[0] == 1
    assert plan.t[1:] == tuple(3 * k - 1 for k in range(2, 21))
    assert plan.certified["growth"] and plan.certified["lacunary"]
    for k, tk in enumerate(plan.t, start=1):
        assert designed.a(tk + 1) >= k ** 2


def test_plan_growth_golden_fails():
    tr = cf.truncation(cf.golden(40), 35)
    with pytest.raises(InsufficientPartialQuotientsError):
        seq.plan_growth(tr, 2, 5)


def test_plan_prefix_sums_exact(designed):
    plan = seq.plan_growth(designed, 2, 30)
    qs = plan.denominators()
    for n in range(len(qs) + 1):
        assert plan.L[n] == sum(qs[:n])
    assert plan.L[-1] < designed.validity_bound
    # digit count grows like sum log a ~ 2 log(k!)
    assert len(str(plan.L[-1])) > 20


def test_plan_rejects_bad_parameters(designed):
    with pytest.raises(ConfigError):
        seq.plan_growth(designed, 1.0, 5)
    with pytest.raises(ConfigError):
        seq.plan_growth(designed, 2, 0)
    for count in (0, -1):
        with pytest.raises(ConfigError, match="count must be >= 1"):
            seq.plan_parity(designed, 2, count)
    with pytest.raises(ConfigError):
        seq.plan_parity(designed, 1.0, 5)


def test_plan_parity_certificates(parity_trunc):
    plan = seq.plan_parity(parity_trunc, 2, 30)
    assert plan.certified["parity"] and plan.certified["growth"]
    qs = plan.denominators()
    assert all(q % 2 == 1 for q in qs)
    for k, tk in enumerate(plan.t, start=1):
        assert parity_trunc.ps[tk] % 2 == (1 if k % 2 == 1 else 0)
    # superlacunary in the window sense
    cert = seq.check_lacunarity(qs)
    assert cert.superlacunary and cert.rho > 1


def test_plan_parity_unavailable_for_alternating_spec():
    # all quotients even: parities alternate (1,0) / (0,1), never (1,1)
    tr = cf.truncation(cf.sqrt2m1(30), 25)
    with pytest.raises(ParityPatternError) as exc:
        seq.plan_parity(tr, 2, 3)
    assert exc.value.diagnostic is not None


def test_pairs_mod2_never_both_even():
    for spec in (cf.golden(40), cf.sqrt2m1(40),
                 cf.from_list([2, 4, 6, 8] * 10)):
        tr = cf.truncation(spec, 40)
        for p, q in zip(tr.ps, tr.qs):
            assert (p % 2, q % 2) != (0, 0)


def test_admissible_parity_triples():
    odd = seq.admissible_parity_triples(1)
    # odd step: exactly the six orderings of the three unimodular pairs
    states = {(0, 1), (1, 0), (1, 1)}
    expected = {(a, b, c) for a in states for b in states for c in states
                if len({a, b, c}) == 3}
    assert odd == expected
    even = seq.admissible_parity_triples(0)
    assert all(t[2] == t[0] for t in even)
    assert len(even) == 6


def test_check_lacunarity_powers_of_two():
    cert = seq.check_lacunarity([2 ** k for k in range(1, 30)])
    assert cert.rho == 2
    assert not cert.superlacunary


def test_check_lacunarity_slow_sequence():
    cert = seq.check_lacunarity(list(range(2, 60)))
    assert cert.rho > 1          # finite window: ratios strictly above 1
    assert cert.rho < Fraction(11, 10)
    assert not cert.superlacunary
    with pytest.raises(ConfigError):
        seq.check_lacunarity([3, 3, 4])


def test_check_dm_powers_of_two():
    ns = [2 ** k for k in range(1, 31)]
    rep = seq.check_Dm(ns, 3)
    # frozen from exhaustive enumeration and stable as the window grows
    # (boundedness is the point; contrast the linear sequence below)
    assert rep["max_count"] == 9
    assert rep["max_pairs"] == 6
    assert seq.check_Dm(ns[:20], 3)["max_count"] == 9
    assert seq.check_Dm(ns[:20], 3)["max_pairs"] == 6
    rep1 = seq.check_Dm(ns, 1)
    # binary expansions make each of 2^k + 2^l and 2^k - 2^l unique per sign;
    # a nu like 6 = 2^2 + 2^1 = 2^3 - 2^1 is reachable by both signs
    assert rep1["max_count"] == 2
    assert seq.check_Dm(ns[:18], 1)["max_count"] == 2


def test_check_dm_linear_sequence_grows():
    small = seq.check_Dm(list(range(1, 20)), 2)
    big = seq.check_Dm(list(range(1, 60)), 2)
    assert big["max_count"] > small["max_count"] >= 2


def test_nondegeneracy_phi0(designed):
    plan = seq.plan_growth(designed, 2, 20)
    avg = seq.nondegeneracy_average(plan, obs.Sawtooth(), 20)
    assert avg == pytest.approx(1 / 12, rel=1e-9)


def test_nondegeneracy_indicator_near_one_sixth(parity_trunc):
    plan = seq.plan_parity(parity_trunc, 2, 40)
    rng = np.random.default_rng(4)
    vals = []
    for _ in range(4):
        beta = Fraction(int(rng.integers(1, 2 ** 40)) | 1, 2 ** 40)
        vals.append(seq.nondegeneracy_average(plan, obs.indicator(beta), 40))
    assert np.mean(vals) == pytest.approx(1 / 6, rel=0.1)


def test_degenerate_beta_distances_shrink():
    # beta = sum b_n q_n alpha with sparse digits and fast-growing quotients:
    # ||q_k beta|| -> 0 inside the window
    spec = cf.from_list([2 ** min(k, 20) for k in range(1, 36)])
    tr = cf.truncation(spec, 35)
    beta = cf.beta_from_ostrowski({2: 1, 6: 1, 12: 1}, tr)
    dists = []
    for k in range(1, 26):
        qk = tr.qs[k]
        prod = (qk * beta) % 1
        dists.append(float(min(prod, 1 - prod)))
    assert max(dists[15:]) < 1e-3
    assert max(dists[15:]) < min(dists[:4])
    assert dists[24] < 1e-6


def test_plan_json_round_trip():
    tr = cf.truncation(cf.clt_design_rule(c=5, beta=2, max_index=20), 18)
    plan = seq.plan_growth(tr, 2, 10)
    doc = json.loads(plan.to_json())
    assert doc["t"] == list(plan.t)
    assert doc["L"][-1] == str(plan.L[-1])
    assert doc["certified"]["growth"]
    assert len(plan.plan_hash()) == 16
