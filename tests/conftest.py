"""Brute-force oracles shared by the test files, the hypothesis profile and
the fork-counting fixture."""

import math
import os
from fractions import Fraction

import pytest
from hypothesis import settings

from rotsum import billiard as bil
from rotsum import ergosum as es
from rotsum import observables as obs
from rotsum import parallel
from rotsum.errors import SingularOrbitError

# every property test draws the same examples on every run
settings.register_profile("rotsum", derandomize=True, deadline=None)
settings.load_profile("rotsum")


class _Forks:
    """os.fork calls made by this process since the last ``cores`` call."""

    def __init__(self, monkeypatch):
        self.count = 0
        self._monkeypatch = monkeypatch
        real = os.fork

        def fork():
            self.count += 1
            return real()

        monkeypatch.setattr(os, "fork", fork)

    def cores(self, n):
        """Gives parallel._split_rows n cores and restarts the count."""
        self._monkeypatch.setattr(parallel, "_cores", lambda: n)
        self.count = 0


@pytest.fixture
def forks(monkeypatch):
    """Counts os.fork calls; ``forks.cores(n)`` sets the cores that
    parallel._split_rows may use.  At teardown no child process is left."""
    yield _Forks(monkeypatch)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _euclid_floor_sum(n, a, b, c):
    """sum_{j<n} floor((a j + b)/c) by the plain Euclid recursion, which
    redoes every quadratic-size product and division for each b: the loop
    that the chain-and-walk floor sum replaced, kept as its oracle."""
    if n == 0:
        return 0
    ans = 0
    if a < 0:
        a2 = a % c
        ans -= n * (n - 1) // 2 * ((a2 - a) // c)
        a = a2
    if b < 0:
        b2 = b % c
        ans -= n * ((b2 - b) // c)
        b = b2
    while True:
        if a >= c:
            ans += n * (n - 1) // 2 * (a // c)
            a %= c
        if b >= c:
            ans += n * (b // c)
            b %= c
        y_max = a * n + b
        if y_max < c:
            return ans
        n, b = divmod(y_max, c)
        c, a = a, c


@pytest.fixture(scope="session")
def euclid_floor_sum():
    return _euclid_floor_sum


def _midpoint_profile_oracle(phi, n, trunc):
    """(sup |S|, integral of S^2) for S(x) = sum_{j<n} phi(x + j alpha).

    The jump points {t - j alpha} are sorted as Fractions and S is evaluated
    at the midpoint of every piece by the floor-sum engine.  S is constant on
    a piece, or has slope n for the sawtooth, so each piece contributes its
    end values to the sup and v^2 len + n^2 len^3 / 12 to the integral.
    """
    alpha = trunc.value
    cuts = sorted({Fraction(0)} | {(t - j * alpha) % 1
                                   for t in phi.jumps() for j in range(n)})
    slope = n * phi.slope
    sup = integral = Fraction(0)
    for lo, hi in zip(cuts, cuts[1:] + [Fraction(1)]):
        v = es.ergodic_sum(phi, (lo + hi) / 2, n, trunc)
        half = slope * (hi - lo) / 2
        sup = max(sup, abs(v - half), abs(v + half))
        integral += (v * v + half * half / 3) * (hi - lo)
    return sup, integral


@pytest.fixture(scope="session")
def profile_oracle():
    return _midpoint_profile_oracle


def _hat_enumeration(phi, ell):
    """hat_phi_ell of a step function by enumeration: breakpoints {ell t}
    for the breakpoints t of phi, and on each piece the value
    sum_{j<ell} phi((y + j)/ell) at its midpoint y, equal neighbours merged.
    The ell * #pieces evaluations that the jump transfer of hat_observable
    replaced, kept as its oracle."""
    bs = sorted({Fraction(0)} | {(ell * t) % 1 for t in phi.breakpoints})
    mids = [(b + e) / 2 for b, e in zip(bs, bs[1:] + [Fraction(1)])]
    vals = [sum(phi.evaluate((y + j) / ell) for j in range(ell)) for y in mids]
    keep = [i for i, v in enumerate(vals) if i == 0 or v != vals[i - 1]]
    return obs.StepFunction(tuple(bs[i] for i in keep),
                            tuple(vals[i] for i in keep),
                            label=f"hat({phi.label},{ell})")


@pytest.fixture(scope="session")
def hat_enumeration():
    return _hat_enumeration


def _fraction_first_hit(px, py, sx, sy, params, max_slabs=256):
    """First obstacle hit of the ray (px,py) + t(sx,sy), t > 0, by slab
    walking in Fractions: (t, hit point, obstacle, side)."""
    ha, hb = params.a / 2, params.b / 2
    m0 = math.floor(px) if sx > 0 else math.ceil(px)
    for k in range(max_slabs):
        m = m0 + sx * k
        if sx > 0:
            tx_lo, tx_hi = m - ha - px, m + ha - px
        else:
            tx_lo, tx_hi = px - (m + ha), px - (m - ha)
        if tx_hi <= 0:
            continue
        y_lo = py + sy * max(tx_lo, Fraction(0))
        y_hi = py + sy * tx_hi
        ylo, yhi = min(y_lo, y_hi), max(y_lo, y_hi)
        best = None
        for n in range(math.ceil(ylo - hb), math.floor(yhi + hb) + 1):
            if sy > 0:
                ty_lo, ty_hi = n - hb - py, n + hb - py
            else:
                ty_lo, ty_hi = py - (n + hb), py - (n - hb)
            t_enter = max(tx_lo, ty_lo)
            t_exit = min(tx_hi, ty_hi)
            if t_enter <= 0 or t_enter > t_exit:
                continue
            if t_enter == t_exit or tx_lo == ty_lo:
                raise SingularOrbitError(
                    f"corner/tangent hit at obstacle ({m},{n})")
            if best is None or t_enter < best[0]:
                if tx_lo > ty_lo:
                    side = "left" if sx > 0 else "right"
                else:
                    side = "bottom" if sy > 0 else "top"
                best = (t_enter, (m, n), side)
        if best is not None:
            t, obstacle, side = best
            return t, (px + sx * t, py + sy * t), obstacle, side
    raise SingularOrbitError("no obstacle found within the slab horizon")


def _fraction_ray_trace(chi, params, collisions):
    """The billiard orbit from chi traced in Fractions, as the BilliardOrbit
    fields (chi, events, start, direction0), with events that carry exact
    times, hit points, obstacles and sides."""
    pos, direction = bil.section_start(chi, params)
    (px, py), (sx, sy) = pos, direction
    events = []
    t_total = Fraction(0)
    for _ in range(collisions):
        t, hit, obstacle, side = _fraction_first_hit(px, py, sx, sy, params)
        t_total += t
        events.append(bil.PathEvent(float(t_total) * bil.SQRT2, t_total, hit,
                                    obstacle, side))
        px, py = hit
        if side in ("left", "right"):
            sx = -sx
        else:
            sy = -sy
    return Fraction(chi), tuple(events), pos, direction


@pytest.fixture(scope="session")
def fraction_ray_trace():
    return _fraction_ray_trace
