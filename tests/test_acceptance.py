"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Every tolerance is pinned here; the random content is seeded, so the suite
is reproducible bit for bit.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from rotsum import billiard as bil
from rotsum import contfrac as cf
from rotsum import ergosum as es
from rotsum import observables as obs
from rotsum import sequences as seq
from rotsum import stats as st
from rotsum import variance as var
from rotsum.errors import BoundaryError, CertificateError, SingularOrbitError

SQRT2 = math.sqrt(2.0)


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# Shared material
# ---------------------------------------------------------------------------

def catalog_observables():
    return [
        obs.Sawtooth(),
        obs.indicator(Fraction(1, 3)),
        obs.half(),
        obs.double_interval(Fraction(1, 5), Fraction(3, 8)),
        obs.half_shifted(Fraction(2, 7)),
        obs.billiard_displacement(Fraction(2, 5)).phi1,
    ]


def dk_spec_pool():
    """20 rotation numbers: golden, sqrt2-1, and 18 seeded designs mixing
    bounded, bursty and single-huge-quotient (Liouville-flavored) profiles."""
    rng = random.Random(20240901)
    specs = [cf.golden(30), cf.sqrt2m1(26)]
    for _ in range(10):
        quots = [rng.randrange(1, 5) for _ in range(26)]
        specs.append(cf.from_list(quots))
    for _ in range(5):
        quots = [1] * 22
        quots[rng.randrange(2, 7)] = rng.randrange(20, 51)
        quots[rng.randrange(8, 14)] = rng.randrange(20, 51)
        specs.append(cf.from_list(quots))
    for huge in (300, 1000, 3000):
        quots = [1] * 22
        quots[1] = huge
        specs.append(cf.from_list(quots))
    assert len(specs) == 20
    return specs


def test_acceptance_1_exact_engine_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(101)
    n_arr = rng.integers(0, 10 ** 4 + 1, size=10 ** 4)
    a_arr = rng.integers(-10 ** 6, 10 ** 6, size=10 ** 4)
    b_arr = rng.integers(-10 ** 6, 10 ** 6, size=10 ** 4)
    c_arr = rng.integers(1, 10 ** 6, size=10 ** 4)
    bad = 0
    for n, a, b, c in zip(n_arr, a_arr, b_arr, c_arr):
        n, a, b, c = int(n), int(a), int(b), int(c)
        js = np.arange(n, dtype=np.int64)
        brute = int(np.sum((a * js + b) // c))
        if es.floor_sum(n, a, b, c) != brute:
            bad += 1
    # ergodic sums: floorsum vs direct loop
    pool = dk_spec_pool()
    cat = catalog_observables()
    rng2 = random.Random(11)
    mism = 0
    for _ in range(100):
        spec = pool[rng2.randrange(2, len(pool))]
        tr = cf.truncation(spec, spec.max_index)
        n = rng2.randrange(0, min(10 ** 5, tr.validity_bound - 1))
        phi = cat[rng2.randrange(len(cat))]
        x = Fraction(rng2.randrange(0, 2 ** 30), 2 ** 30)
        fast = es.ergodic_sum(phi, x, n, tr)
        slow = es._direct_sum(phi, x, n, tr)
        if fast != slow:
            mism += 1
    dt = time.time() - t0
    ok = bad == 0 and mism == 0 and dt < 60
    _report(1, ok, f"floor_sum mismatches={bad}/10^4, ergodic mismatches="
                   f"{mism}/100, runtime={dt:.1f}s (<60s)")


def test_acceptance_2_denjoy_koksma(profile_oracle):
    pool = dk_spec_pool()
    cat = catalog_observables()
    # cross-validate the integer profile's sup against the midpoint oracle
    tr0 = cf.truncation(cf.golden(20), 15)
    for phi in cat:
        for n in (3, 6, 9):
            prof = es.orbit_sum_profile(phi, tr0.qs[n], tr0.value)
            assert prof.sup_abs() == profile_oracle(phi, tr0.qs[n], tr0)[0]
    checked = violations = 0
    worst_ratio = 0.0
    for spec in pool:
        # level 17 covers the window for n <= 15 and keeps the integer
        # profile inside int64
        tr = cf.truncation(spec, min(spec.max_index, 17))
        for phi in cat:
            v = phi.variation()
            for n in range(1, 16):
                if n >= tr.level:
                    continue
                sup = es.orbit_sum_profile(phi, tr.qs[n], tr.value).sup_abs()
                checked += 1
                if sup > v:
                    violations += 1
                worst_ratio = max(worst_ratio, float(sup / v))
    ok = violations == 0 and checked >= 20 * 6 * 14
    _report(2, ok, f"{checked} (spec, phi, n) combos, sup|S_q phi| <= V: "
                   f"violations={violations}, worst sup/V={worst_ratio:.3f}")


def test_acceptance_3_periodic_approximation():
    def design(a_big, guard=8):
        return cf.truncation(cf.from_list([1, 2, a_big] + [1] * guard),
                             3 + guard)

    cat = catalog_observables()
    ok = True
    details = []
    for phi in cat:
        errs = []
        for a_big in (10, 100, 1000):
            tr = design(a_big)
            err = float(es.approx_error_sq(phi, 2, tr))
            bound = (4 * math.pi * phi.kbound()) ** 2 / a_big
            if isinstance(phi, obs.Sawtooth):
                ok = ok and err <= 4.0 / a_big
            ok = ok and err <= bound
            errs.append(err)
        ok = ok and errs[0] > errs[1] > errs[2]
        details.append(f"{phi.label}: {errs[0]:.2e}->{errs[2]:.2e}")
    _report(3, ok, "error^2 <= (4 pi K)^2/a (phi0: <= 4/a), decreasing; "
                   + "; ".join(details[:2]) + "...")


def test_acceptance_4_variance_backends_and_inequalities():
    specs = {
        "golden": cf.truncation(cf.golden(45), 43),
        "sqrt2m1": cf.truncation(cf.sqrt2m1(24), 22),
        "designed": cf.truncation(cf.from_list([1, 50, 1, 1, 2, 1, 1, 1, 3, 1,
                                                1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
                                                1, 1, 1, 1]), 24),
    }
    cat = catalog_observables()[:5]
    worst = 0.0
    for name, tr in specs.items():
        for phi in cat:
            for n in (7, 55, 200, 987):
                exact, _ = var.norm_sq(phi, n, tr, mode="exact")
                fo, _ = var.norm_sq(phi, n, tr, mode="fourier")
                rel = abs(fo - float(exact)) / max(float(exact), 0.05)
                worst = max(worst, rel)
    ok = worst <= 0.01
    # Cesaro cross-check at n = 200
    ces_worst = 0.0
    for tr in specs.values():
        for phi in (obs.Sawtooth(), obs.indicator(Fraction(1, 3))):
            mv = var.mean_variance(phi, 200, tr)
            ces = sum(float(var.norm_sq(phi, k, tr, mode="exact")[0])
                      for k in range(1, 200)) / 200
            ces_worst = max(ces_worst, abs(mv - ces) / ces)
    ok = ok and ces_worst <= 0.01
    # kernel-mean lower bounds on a grid
    lb_ok = True
    for n in (10, 80):
        for u in np.linspace(0, 1, 21):
            lb_ok = lb_ok and var.gn_mean(n, u / (2 * n)) >= \
                n * n / math.pi ** 2 - 1e-9
        for t in np.linspace(1 / (2 * n), 0.5, 33):
            lb_ok = lb_ok and var.gn_mean(n, t) >= \
                1 / (8 * math.pi ** 2 * t * t) - 1e-9
    # repartition inequalities on every spec
    diag_ok = True
    for name, tr in specs.items():
        n = 8 if name != "designed" else 4
        for m in (10, 100):
            try:
                var.diagnostic_inequalities(tr, n, m)
            except CertificateError:
                diag_ok = False
    ok = ok and lb_ok and diag_ok
    _report(4, ok, f"fourier vs exact worst rel={worst:.4f} (<=1%), "
                   f"Cesaro worst rel={ces_worst:.4f} (<=1%), kernel bounds "
                   f"{'ok' if lb_ok else 'FAIL'}, repartition "
                   f"{'ok' if diag_ok else 'FAIL'}")


def test_acceptance_5_subsequence_clt():
    t0 = time.time()
    tr = cf.truncation(cf.clt_design_rule(c=30, beta=2, max_index=48), 46)
    plan = seq.plan_growth(tr, 2, 40)
    rep = st.clt_experiment(plan, obs.Sawtooth(), 40, 20000, seed=1)
    dt = time.time() - t0
    ks = rep.empirical["ks"]
    ratio = rep.empirical["variance_ratio"]
    ok = ks <= 0.03 and 0.9 <= ratio <= 1.1 and dt < 300
    _report(5, ok, f"KS={ks:.4f} (<=0.03), variance ratio={ratio:.4f} "
                   f"(in [0.9,1.1]), runtime={dt:.1f}s (<300s)")


def test_acceptance_6_example_limits():
    rng = np.random.default_rng(66)
    tr = cf.truncation(cf.clt_design_rule(c=30, beta=2, max_index=210), 208)
    plan = seq.plan_growth(tr, 2, 200)

    def rand_frac():
        return Fraction(int(rng.integers(1, 2 ** 40)) | 1, 2 ** 40)

    # Example-2 style: exactly 200 random interval endpoints
    vals2 = []
    for i in range(200):
        q = plan.q((i % 200) + 1)
        vals2.append(obs.hat_norm_sq(obs.indicator(rand_frac()), q)[0])
    # the two-parameter and odd-frequency families fluctuate more per draw;
    # more seeded draws sharpen the (unbiased) estimate of the same limit
    vals3 = []
    for i in range(600):
        q = plan.q((i % 200) + 1)
        vals3.append(obs.hat_norm_sq(
            obs.double_interval(rand_frac(), rand_frac()), q)[0])
    mean2, mean3 = float(np.mean(vals2)), float(np.mean(vals3))
    ptr = cf.truncation(cf.parity_design_rule(c=30, beta=2, max_index=320), 316)
    pplan = seq.plan_parity(ptr, 2, 200)
    vals4 = []
    for i in range(800):
        q = pplan.q((i % 200) + 1)
        beta = rand_frac() / 2
        vals4.append(obs.hat_norm_sq(obs.half_shifted(beta), q)[0])
    mean4 = float(np.mean(vals4))
    per_term_phi0 = obs.hat_norm_sq(obs.Sawtooth(), plan.q(17))[0]
    ok = (abs(mean2 - 1 / 6) <= 0.05 / 6
          and abs(mean3 - 1 / 3) <= 0.05 / 3
          and abs(mean4 - 1 / 2) <= 0.05 / 2
          and per_term_phi0 == 1 / 12
          and abs(per_term_phi0 - math.pi ** 2 / 6) > 0.7)
    _report(6, ok, f"means {mean2:.4f}~1/6, {mean3:.4f}~1/3, {mean4:.4f}~1/2 "
                   f"(all within 5%); phi0 per-term = 1/12 exactly "
                   f"(pi^2/6 ruled out)")


def test_acceptance_7_billiard_vector_clt_and_rays():
    ptr = cf.truncation(cf.parity_design_rule(c=30, beta=2, max_index=140), 136)
    plan = seq.plan_parity(ptr, 2, 40)
    params = bil.params_for_plan(ptr)
    rep = st.covariance_2d(plan, bil.psi_components(params), 40, 20000, seed=7)
    cov_ok = (abs(rep.empirical["c11"] - 0.5) <= 0.1
              and abs(rep.empirical["c22"] - 0.5) <= 0.1
              and abs(rep.empirical["c12"]) <= 0.1)
    dir_ok = True
    for key, entry in rep.empirical["directions"].items():
        dir_ok = dir_ok and (abs(entry["variance"] - entry["prediction"])
                             <= 0.10 * entry["prediction"])
    # ray tracer vs arithmetic engine: 10^3 orbits x 200 collisions
    ray_params = [
        bil.ObstacleParams(a=Fraction(2, 5), b=Fraction(2, 5)),
        bil.params_for_plan(cf.truncation(cf.golden(20), 16)),
    ]
    rng = random.Random(77)
    orbits = mismatches = skipped = 0
    while orbits < 1000:
        pr = ray_params[orbits % 2]
        x = Fraction(rng.randrange(1, 2 ** 30), 2 ** 30)
        try:
            orbit = bil.ray_trace(x, pr, collisions=200)
        except (SingularOrbitError, BoundaryError):
            skipped += 1
            continue
        cells = orbit.cells()
        state = bil.LatticeState(Fraction(x), (0, 0))
        for j, cell in enumerate(cells, start=1):
            state = bil.step(state, pr)
            if state.z != cell:
                mismatches += 1
                break
        orbits += 1
    ok = cov_ok and dir_ok and mismatches == 0 and skipped < 50
    _report(7, ok, f"cov=({rep.empirical['c11']:.3f},{rep.empirical['c22']:.3f},"
                   f"{rep.empirical['c12']:.3f})~diag(1/2,1/2) +-0.1, "
                   f"directions within 10%, ray/cocycle mismatches="
                   f"{mismatches}/1000 orbits x 200 collisions")


def test_acceptance_8_erdos_fortet_mixture():
    rep = st.erdos_fortet_experiment(500, 10 ** 4, seed=3)
    ks_mix = rep.empirical["ks_mixture"]
    gap = rep.empirical["gap"]
    ok = ks_mix <= 0.03 and gap >= 0.02
    _report(8, ok, f"KS(mixture)={ks_mix:.4f} (<=0.03), best-normal gap="
                   f"{gap:.4f} (>=0.02): the non-Gaussian limit is detected")


def test_acceptance_9_gaposhkin():
    count = st.gaposhkin_count(5, 10 ** 6)
    bound = (10 ** 6) ** (2 / 5)  # explicit constant C = 1
    rep = st.gaposhkin_demo(5, 500, 10 ** 4, seed=9)
    ks = rep.empirical["ks_two_sample"]
    ok = count <= bound and ks <= 0.02
    _report(9, ok, f"#(I_5 up to 10^6)={count} <= 10^2.4={bound:.0f} (C=1); "
                   f"modified-vs-plain KS={ks:.4f} (<=0.02)")


def test_acceptance_10_quasi_orthogonality_and_block_variance():
    rng = np.random.default_rng(10)
    pool = catalog_observables()
    failures = 0
    for _ in range(100):
        f = pool[rng.integers(len(pool))]
        g = pool[rng.integers(len(pool))]
        l1 = int(rng.integers(1, 40))
        l2 = l1 * int(rng.integers(2, 16))
        try:
            st.quasi_orthogonality_check(f, g, l1, l2)
        except CertificateError:
            failures += 1
    ratios = []
    for trial in range(10):
        trng = np.random.default_rng(1000 + trial)
        ns, cur = [], 1
        for _ in range(8):
            cur *= int(trng.integers(16, 21))
            ns.append(cur)
        fs = [pool[trng.integers(len(pool))] for _ in ns]
        ratios.append(st.block_variance_ratio(fs, ns))
    c_min, c_max = min(ratios), max(ratios)
    ok = failures == 0 and c_min > 0.5 and c_max / c_min < 2.0
    _report(10, ok, f"quasi-orthogonality failures={failures}/100; block "
                    f"variance ratio in [{c_min:.3f}, {c_max:.3f}] "
                    f"(positive, stable over 10 trials)")
