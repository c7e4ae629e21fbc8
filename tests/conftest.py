"""Brute-force oracles shared by the test files."""

from fractions import Fraction

import pytest

from rotsum import ergosum as es
from rotsum import observables as obs


def _midpoint_profile_oracle(phi, n, trunc):
    """(sup |S|, integral of S^2) for S(x) = sum_{j<n} phi(x + j alpha).

    The jump points {t - j alpha} are sorted as Fractions and S is evaluated
    at the midpoint of every piece by the floor-sum engine.  S is constant on
    a piece, or has slope n for the sawtooth, so each piece contributes its
    end values to the sup and v^2 len + n^2 len^3 / 12 to the integral.
    """
    alpha = trunc.value
    sawtooth = isinstance(phi, obs.Sawtooth)
    points = [Fraction(0)] if sawtooth else list(phi.jumps())
    cuts = sorted({Fraction(0)} | {(t - j * alpha) % 1
                                   for t in points for j in range(n)})
    slope = n if sawtooth else 0
    sup = integral = Fraction(0)
    for lo, hi in zip(cuts, cuts[1:] + [Fraction(1)]):
        v = es.ergodic_sum(phi, (lo + hi) / 2, n, trunc).value
        half = slope * (hi - lo) / 2
        sup = max(sup, abs(v - half), abs(v + half))
        integral += (v * v + half * half / 3) * (hi - lo)
    return sup, integral


@pytest.fixture(scope="session")
def profile_oracle():
    return _midpoint_profile_oracle
