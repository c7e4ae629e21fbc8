import hashlib
import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy import integrate

from rotsum import cli
from rotsum import contfrac as cf
from rotsum import observables as obs
from rotsum import parallel as par
from rotsum import variance as var
from rotsum.errors import (CertificateError, ConfigError, PrecisionError,
                           RotsumError)


@pytest.fixture(scope="module")
def golden_trunc():
    return cf.truncation(cf.golden(45), 43)


CATALOG = [
    obs.Sawtooth(),
    obs.indicator(Fraction(1, 3)),
    obs.half(),
    obs.double_interval(Fraction(1, 5), Fraction(3, 8)),
]


def test_gn_kernel_basics():
    assert var.gn_kernel(7, 0.0) == 49.0
    assert var.gn_kernel(7, 1.0) == 49.0
    for t in (0.1, 0.37, 0.49):
        assert var.gn_kernel(1, t) == pytest.approx(1.0)
        assert var.gn_kernel(9, t) == pytest.approx(var.gn_kernel(9, 1 - t),
                                                    rel=1e-12)


@pytest.mark.parametrize("n", [3, 10, 41, 100])
def test_gn_integral_is_n(n):
    val, err = integrate.quad(lambda t: var.gn_kernel(n, t), 0, 1, limit=400)
    assert abs(val - n) < 1e-6


def test_gn_mean_matches_direct():
    for n in (1, 2, 17, 150):
        for t in (1e-9, 1e-4, 0.01, 0.123, 0.5):
            direct = sum(var.gn_kernel(k, t) for k in range(n)) / n
            assert var.gn_mean(n, t) == pytest.approx(direct, rel=1e-8)


@pytest.mark.parametrize("t", [0.0, 1.0, 1e-15, 3e-15, 1 - 1e-16, 1e-9,
                               1e-4, 0.0123, 0.37, 0.5, 1.75])
def test_gn_mean_direct_is_the_kernel_sum(t):
    # bit for bit, including the tiny-sine branch (|sin(pi t)| < 1e-14)
    for n in (1, 2, 17, 150, 1000):
        direct = sum(var.gn_kernel(k, t) for k in range(n)) / n
        assert var._gn_mean_direct(n, t).hex() == direct.hex()


def test_gn_mean_lower_bounds():
    # <G_n>(t) >= n^2/pi^2 on [0, 1/(2n)] and >= 1/(8 pi^2 t^2) up to 1/2
    for n in (5, 20, 100):
        for u in np.linspace(0.0, 1.0, 41):
            t = u / (2 * n)
            assert var.gn_mean(n, t) >= n * n / math.pi ** 2 - 1e-9
        for t in np.linspace(1 / (2 * n), 0.5, 57):
            assert var.gn_mean(n, t) >= 1 / (8 * math.pi ** 2 * t * t) - 1e-9


@pytest.mark.parametrize("phi", CATALOG, ids=lambda p: p.label)
def test_norm_sq_n1_is_plain_norm(phi, golden_trunc):
    val, tail = var.norm_sq(phi, 1, golden_trunc, mode="fourier")
    assert val == pytest.approx(float(phi.norm_sq()), rel=2e-3)
    exact, _ = var.norm_sq(phi, 1, golden_trunc, mode="exact")
    assert exact == phi.norm_sq()


@pytest.mark.parametrize("phi", CATALOG, ids=lambda p: p.label)
def test_norm_bounded_at_denominators(phi, golden_trunc):
    # ||S_{q_n} phi||_2 <= 2 pi K(phi) (the sawtooth transfer has sup <= 1)
    bound = (2 * math.pi * phi.kbound()) ** 2
    for n in range(2, 14):
        exact, _ = var.norm_sq(phi, golden_trunc.qs[n], golden_trunc,
                               mode="exact")
        assert float(exact) <= bound + 1e-12


def test_fourier_vs_exact_one_percent(golden_trunc):
    for phi in CATALOG:
        for n in (7, 55, 200, 987):
            exact, _ = var.norm_sq(phi, n, golden_trunc, mode="exact")
            fo, _ = var.norm_sq(phi, n, golden_trunc, mode="fourier")
            assert abs(fo - float(exact)) <= 0.01 * max(float(exact), 0.05)


@pytest.mark.parametrize("alpha", [
    "golden",
    pytest.param("sqrt2m1", marks=pytest.mark.xfail(strict=True, reason=(
        "AlphaFourierTable._angle_frac's big-integer fallback reduces "
        "mult * r * alpha mod 2 instead of mult * {r alpha} mod 2 (the "
        "FOUND entry on _angle_frac in CHANGES.md); its fix must move the "
        "benchmark's variance_cli_* digests together with it"))),
])
def test_mean_variance_matches_exact_cesaro_on_both_table_paths(alpha):
    # the CLI's truncations: golden's 37-bit q takes the int64 angle path,
    # sqrt2m1's 68-bit q the big-integer fallback (q >= 2**62 // rmax)
    tr = cli.parse_alpha(alpha, 48)
    phi = obs.double_interval(Fraction(1, 5), Fraction(3, 8))
    n = 40
    cesaro = sum(var.norm_sq(phi, k, tr, mode="exact")[0]
                 for k in range(n)) / n
    # the rmax = 20000 series tail alone leaves about 2e-4 on both paths
    assert var.mean_variance(phi, n, tr) == pytest.approx(float(cesaro),
                                                          rel=1e-3)


def test_mean_variance_small_and_cesaro(golden_trunc):
    phi = obs.indicator(Fraction(1, 3))
    # n = 1: the average holds only the empty sum, zero
    assert var.mean_variance(phi, 1, golden_trunc) == pytest.approx(0.0, abs=1e-12)
    n = 200
    for phi in (obs.Sawtooth(), obs.indicator(Fraction(1, 3))):
        mv = var.mean_variance(phi, n, golden_trunc)
        cesaro = sum(float(var.norm_sq(phi, k, golden_trunc, mode="exact")[0])
                     for k in range(1, n)) / n
        assert mv == pytest.approx(cesaro, rel=0.01)


def test_bound_series_golden_phi0(golden_trunc):
    lo, up = var.bound_series(obs.Sawtooth(), 10, golden_trunc)
    assert lo == pytest.approx(10 / (4 * math.pi ** 2), rel=1e-12)
    assert up == pytest.approx(11 / (4 * math.pi ** 2), rel=1e-12)


def test_bound_series_half_stalls_at_even_denominators(golden_trunc):
    # gamma_{q_j}(half) = 0 at even q_j, so those levels add nothing
    phi = obs.half()
    qs = golden_trunc.qs
    seen_even = False
    prev = 0.0
    for ell in range(1, 12):
        lo, _ = var.bound_series(phi, ell, golden_trunc)
        if qs[ell - 1] % 2 == 0:
            assert lo == pytest.approx(prev, abs=1e-14)
            seen_even = True
        else:
            assert lo > prev
        prev = lo
    assert seen_even


def test_variance_dichotomy_big_quotient():
    # one huge quotient: the variance between denominators grows with it,
    # while at the denominator just before it stays uniformly bounded
    maxima = []
    for big in (10, 100):
        quots = [1, 1, 1, 1, big] + [1] * 14
        tr = cf.truncation(cf.from_list(quots), len(quots))
        phi = obs.Sawtooth()
        q4, q5 = tr.qs[4], tr.qs[5]
        at_q4, _ = var.norm_sq(phi, q4, tr, mode="exact")
        assert float(at_q4) <= (2 * math.pi * phi.kbound()) ** 2
        mid, _ = var.norm_sq(phi, (q4 + q5) // 2, tr, mode="exact")
        maxima.append(float(mid))
    assert maxima[1] > 4 * maxima[0]


def test_mean_variance_proof_level_lower_bound(golden_trunc):
    # for n >= q_ell: <D phi>_n >= (1/8 pi^2) sum_{j<ell} |g_{q_j}|^2/(q_j ||q_j a||)^2
    tr = golden_trunc
    for phi in (obs.Sawtooth(), obs.indicator(Fraction(1, 3))):
        for ell in (4, 7):
            n = tr.qs[ell] + 3
            lhs = var.mean_variance(phi, n, tr)
            rhs = 0.0
            for j in range(ell):
                g = abs(phi.fourier_gamma(tr.qs[j])) ** 2
                rhs += g / float(tr.qs[j] * tr.denominator_distance(j)) ** 2
            rhs /= 8 * math.pi ** 2
            assert lhs >= rhs - 1e-9


@pytest.mark.parametrize("level", [43, 80])
def test_alpha_table_distance_against_exact(level):
    # level 43: q < 2**62 // rmax, int64 residues; level 80: the big-integer
    # walk
    tr = cf.truncation(cf.golden(level + 2), level)
    rmax = 2000
    table = var.AlphaFourierTable(tr, rmax)
    assert (table.num is None) == (tr.q >= 2 ** 62 // rmax)
    exact = np.array([float(tr.distance(r)) for r in range(1, rmax + 1)])
    if table.num is not None:
        assert np.array_equal(table.dist, exact)
    else:
        np.testing.assert_allclose(table.dist, exact, rtol=1e-12)


def test_diagnostics_golden_and_designed(golden_trunc):
    rep = var.diagnostic_inequalities(golden_trunc, 8, 10)
    assert all(ok for (_, _, ok) in rep.values())
    # m = q_n variant
    rep = var.diagnostic_inequalities(golden_trunc, 6, golden_trunc.qs[6])
    assert all(ok for (_, _, ok) in rep.values())
    designed = cf.truncation(cf.from_list([1, 50, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1,
                                           1, 1, 1, 1, 1, 1]), 18)
    rep = var.diagnostic_inequalities(designed, 3, 12)
    assert all(ok for (_, _, ok) in rep.values())


A4_TRUNCATIONS = {
    "golden": (cf.truncation(cf.golden(45), 43), 8),
    "sqrt2m1": (cf.truncation(cf.sqrt2m1(24), 22), 8),
    "designed": (cf.truncation(cf.from_list(
        [1, 50, 1, 1, 2, 1, 1, 1, 3] + [1] * 15), 24), 4),
}


@pytest.mark.parametrize("name", sorted(A4_TRUNCATIONS))
def test_diagnostic_orbit_sum_matches_fraction_loop(name):
    trunc, n = A4_TRUNCATIONS[name]
    lhs = Fraction(0)
    for k in range(1, trunc.qs[n]):
        d = trunc.distance(k)
        lhs += Fraction(1, k * k) / (d * d)
    rhs = 6 * sum(Fraction(trunc.qs[j + 1], trunc.qs[j]) ** 2
                  for j in range(n))
    report = var.diagnostic_inequalities(trunc, n, 10)
    assert report["orbit_sum"] == (float(lhs), float(rhs), lhs <= rhs)


def test_diagnostics_short_scan_is_not_a_violation():
    # the tail allowances 1/kscan and m^2/kscan, not the partial sums, used
    # to tip (ii) and (iii) into a CertificateError here
    spec = cf.golden(40)
    for level in (11, 12):      # the longer scan adds terms, so 12 is short
        with pytest.raises(PrecisionError) as exc:
            var.diagnostic_inequalities(cf.truncation(spec, level), 9, 10)
        assert exc.value.required_level == level + 1
    rep = var.diagnostic_inequalities(cf.truncation(spec, 13), 9, 10)
    assert all(ok for (_, _, ok) in rep.values())
    # here the cap, not the window, cut the scan
    with pytest.raises(ConfigError, match="exceeds the cap 100000"):
        var.diagnostic_inequalities(cf.truncation(spec, 30), 20, 100)


def test_diagnostics_violation_is_a_certificate_error(monkeypatch,
                                                      golden_trunc):
    # a partial sum past its right side fails at any scan length
    class Shrunk(var.AlphaFourierTable):
        def __init__(self, trunc, rmax):
            super().__init__(trunc, rmax)
            self.dist = self.dist / 100

    monkeypatch.setattr(var, "AlphaFourierTable", Shrunk)
    with pytest.raises(CertificateError, match="violated"):
        var.diagnostic_inequalities(golden_trunc, 8, 10)


def _level_of_loop(n, trunc):
    """The walk up trunc.qs that level_of made before it bisected."""
    ell = 0
    while ell + 1 < len(trunc.qs) and trunc.qs[ell + 1] <= n:
        ell += 1
    return ell


@pytest.mark.parametrize("name", sorted(A4_TRUNCATIONS))
def test_level_of_matches_the_loop(name):
    # both are step functions of n that change only at some q_j, so equal
    # values at 1 and at each q_j - 1 and q_j cover every n < q_M
    trunc = A4_TRUNCATIONS[name][0]
    ns = {1} | {q + d for q in trunc.qs for d in (-1, 0)}
    for n in sorted(n for n in ns if 1 <= n < trunc.q):
        assert var.level_of(n, trunc) == _level_of_loop(n, trunc)

    @settings(max_examples=200)
    @given(n=hst.integers(1, trunc.q - 1))
    def check(n):
        assert var.level_of(n, trunc) == _level_of_loop(n, trunc)

    check()


def _bound_series_loop(phi, ell, trunc):
    """bound_series summed afresh at level ell alone."""
    lower = 0.0
    for j in range(ell):
        g = phi.fourier_gamma(trunc.qs[j])
        lower += (g.real * g.real + g.imag * g.imag) * trunc.a(j + 1) ** 2
    k = phi.kbound()
    upper = k * k * sum(trunc.a(j + 1) ** 2 for j in range(ell + 1))
    return lower, upper


@pytest.mark.parametrize("name", sorted(A4_TRUNCATIONS))
def test_bound_series_prefix_matches_the_sum_at_each_level(name):
    trunc = A4_TRUNCATIONS[name][0]
    for phi in CATALOG + [obs.half_shifted(Fraction(2, 7))]:
        for ell in range(trunc.level):
            got = var.bound_series(phi, ell, trunc)
            want = _bound_series_loop(phi, ell, trunc)
            assert [v.hex() for v in got] == [v.hex() for v in want]
    with pytest.raises(PrecisionError):
        var.bound_series(CATALOG[1], trunc.level, trunc)


def test_variance_profile_shape(golden_trunc):
    prof = var.variance_profile(obs.Sawtooth(), golden_trunc, [1, 5, 21, 100])
    assert prof.ns == (1, 5, 21, 100)
    assert len(prof.norm_sq) == 4
    # level boundary: q_7 = 21 <= 21 < q_8 = 34 means level 7
    assert prof.levels[2] == 7
    assert var.level_of(21, golden_trunc) == 7
    assert all(v >= 0 for v in prof.norm_sq)
    assert all(u >= l - 1e-12 for l, u in zip(prof.lower_series,
                                              prof.upper_series))


@pytest.mark.parametrize("phi", CATALOG, ids=lambda p: p.label)
def test_variance_profile_matches_pointwise(phi, golden_trunc):
    ns = (1, 5, 21, 100)
    prof = var.variance_profile(phi, golden_trunc, ns)
    for n, norm, mean in zip(ns, prof.norm_sq, prof.mean_variance):
        assert norm == var.norm_sq(phi, n, golden_trunc)[0]
        assert mean == var.mean_variance(phi, n, golden_trunc)
    for ell, lower, upper in zip(prof.levels, prof.lower_series,
                                 prof.upper_series):
        assert (lower, upper) == var.bound_series(phi, ell, golden_trunc)


def _profile_bytes(prof):
    return [np.array(col).tobytes() for col in (
        prof.norm_sq, prof.mean_variance, prof.lower_series,
        prof.upper_series)]


# the fewest rows of a 20,000-frequency table that two processes share:
# two forks' cost of work at _FREQ_NS a frequency
_PROFILE_SPLIT = -(-2 * par._FORK_NS // (20_000 * var._FREQ_NS))


# forks at 1, 2 and 3 cores: 32 golden and 15 sqrt2m1 rows split at 2 and
# 3 processes, and so do the fewest rows on the split rule's far side, at
# 2; the rows of each sqrt2m1 case include its level-0 row at n = 1
@pytest.mark.parametrize("alpha, rows, counts", [
    pytest.param("golden", 32, (0, 1, 2), id="golden-32"),
    pytest.param("sqrt2m1", 15, (0, 1, 2), id="sqrt2m1-15"),
    pytest.param("sqrt2m1", _PROFILE_SPLIT - 1, (0, 0, 0),
                 id="sqrt2m1-one-process"),
    pytest.param("sqrt2m1", _PROFILE_SPLIT, (0, 1, 1),
                 id="sqrt2m1-two-processes")])
def test_variance_profile_identical_at_any_process_count(forks, alpha, rows,
                                                         counts):
    tr = cli.parse_alpha(alpha, 48)
    phi = obs.double_interval(Fraction(1, 5), Fraction(3, 8))
    # the rows of `rotsum variance --opt nmax=200`, a 20,000-frequency table
    ns = sorted({max(1, round(200 ** (i / 39))) for i in range(40)})[:rows]
    profs = []
    for cores, count in zip((1, 2, 3), counts):
        forks.cores(cores)
        profs.append(var.variance_profile(phi, tr, ns))
        assert forks.count == count
    for prof in profs:
        assert prof.ns == tuple(ns)
        assert _profile_bytes(prof) == _profile_bytes(profs[0])
        assert prof.levels == profs[0].levels
        assert all(type(ell) is int for ell in prof.levels)


def test_failed_profile_child_raises_and_is_reaped(monkeypatch, forks):
    # the kernel fails in the children only: the parent raises a typed
    # error and leaves no child behind (``forks`` checks at teardown)
    parent = os.getpid()
    real = var.AlphaFourierTable.gn

    def failing(self, n):
        if os.getpid() != parent:
            raise MemoryError("no room in the child")
        return real(self, n)

    tr = cli.parse_alpha("golden", 48)
    phi = obs.half()
    ns = range(1, 32)                     # three processes on 3 cores
    monkeypatch.setattr(var.AlphaFourierTable, "gn", failing)
    forks.cores(3)
    with pytest.raises(RotsumError, match="returned 0 of"):
        var.variance_profile(phi, tr, ns)
    assert forks.count == 2
    # a failure in this process reaps the children too
    monkeypatch.setattr(var.AlphaFourierTable, "gn", lambda self, n: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        var.variance_profile(phi, tr, ns)


# recorded when every row was computed in one process, one after another
@pytest.mark.parametrize("alpha, digest", [
    ("sqrt2m1",
     "6544657b01d50e779cad22e7561739ff6179d74e80c72f909b6fe7aed5d91939"),
    ("golden",
     "0949dba95c2aab21f7f813f35bac5ae96e5339739e3224fbca884dd7cbfc828e"),
])
def test_variance_cli_pinned_at_one_and_two_processes(forks, capsys, alpha,
                                                      digest):
    argv = ["variance", "--alpha", alpha, "--observable",
            "double_interval:beta=1/5,gamma=3/8", "--opt", "nmax=500"]
    for cores in (1, 2):
        forks.cores(cores)
        assert cli.main(argv) == 0
        assert forks.count == cores - 1
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digest
