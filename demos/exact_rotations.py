#!/usr/bin/env python3
"""Tour of the exact rotation engine.

Builds a rotation number from its partial quotients, inspects convergents
and Ostrowski digits, and evaluates ergodic sums at a horizon whose length
has more than a hundred digits -- exactly, via Euclidean floor sums.
"""

from fractions import Fraction

from rotsum import contfrac as cf
from rotsum import ergosum as es
from rotsum import observables as obs


def main():
    print("=== golden rotation: convergents and distances ===")
    tr = cf.truncation(cf.golden(40), 30)
    for n in range(1, 9):
        d = tr.denominator_distance(n)
        print(f"  n={n}: p/q = {tr.ps[n]}/{tr.qs[n]},  ||q_n a|| = {d} "
              f"(~ {float(d):.3e})")
    print("  identity q_n ||q_(n+1) a|| + q_(n+1) ||q_n a|| =",
          tr.qs[5] * tr.denominator_distance(6)
          + tr.qs[6] * tr.denominator_distance(5))

    print("\n=== Ostrowski digits ===")
    for n in (10, 100, 12345):
        d = cf.ostrowski_digits(n, tr)
        terms = " + ".join(f"{b}*{q}" for b, q in zip(d.digits, tr.qs) if b)
        print(f"  {n} = {terms}  (digit sum {d.digit_sum()})")

    print("\n=== ergodic sums at an astronomical horizon ===")
    spec = cf.clt_design_rule(c=30, beta=2, max_index=48)
    deep = cf.truncation(spec, 46)
    big_n = sum(deep.qs[k] for k in range(1, 41))
    print(f"  horizon N has {len(str(big_n))} digits")
    phi = obs.indicator(Fraction(1, 3))
    for x in (Fraction(1, 7), Fraction(2, 11)):
        val = es.ergodic_sum(phi, x, big_n, deep)
        print(f"  S_N(1_[0,1/3) - 1/3) at x={x}: {val} = {float(val):.6f}")
    print("  (each value is an exact rational; runtime is logarithmic in N)")

    print("\n=== Denjoy-Koksma at denominators ===")
    for n in (5, 10, 15):
        prof = es.orbit_sum_profile(phi, tr.qs[n], tr.value)
        print(f"  sup_x |S_(q_{n}) phi| = {float(prof.sup_abs()):.4f} "
              f"<= V(phi) = {phi.variation()}")


if __name__ == "__main__":
    main()
