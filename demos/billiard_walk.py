#!/usr/bin/env python3
"""The rectangular periodic billiard at the diagonal direction.

A ball bounces among axis-aligned a x b rectangles centered at the integer
lattice.  Every two collisions the obstacle index advances by a unit step
determined by a circle rotation with angle a/(a+b): the script traces an
orbit geometrically, checks it against the arithmetic cocycle, and runs the
two-dimensional Gaussian experiment for the cell displacement.
"""

from fractions import Fraction

from rotsum import billiard as bil
from rotsum import contfrac as cf
from rotsum import sequences as seq


def main():
    params = bil.ObstacleParams(a=Fraction(2, 5), b=Fraction(3, 5))
    print(f"=== obstacle {params.a} x {params.b}, rotation angle "
          f"alpha = {params.alpha} ===")
    orbit = bil.ray_trace(Fraction(1, 9), params, collisions=8)
    for ev in orbit.events:
        print(f"  t={ev.time:7.3f}  hit {ev.side:<6} of obstacle "
              f"{ev.obstacle}")
    cells = orbit.cells()
    arithmetic = [bil.cell_after_direct(j + 1, Fraction(1, 9), params)
                  for j in range(len(cells))]
    print(f"  ray-traced cells:  {cells}")
    print(f"  arithmetic cells:  {arithmetic}  "
          f"({'match' if cells == arithmetic else 'MISMATCH'})")

    print("\n=== hitting time: two independent estimates of the mean ===")
    mc, quad = bil.estimate_c(params, n_starts=2000, seed=0)
    print(f"  Monte Carlo: {mc:.6f}   exact quadrature: {quad:.6f}")

    print("\n=== vector CLT of the cell displacement ===")
    ptr = cf.truncation(cf.parity_design_rule(c=30, beta=2, max_index=140), 136)
    plan = seq.plan_parity(ptr, 2, 40)
    big = bil.params_for_plan(ptr)
    rep = bil.clt_experiment(big, plan, 40, 4000, seed=7)
    e = rep.empirical
    print(f"  covariance of n^(-1/2) S(L_n): "
          f"[[{e['c11']:.3f}, {e['c12']:.3f}], [{e['c12']:.3f}, {e['c22']:.3f}]]"
          f"  (target diag(1/2, 1/2))")
    for key, entry in e["directions"].items():
        print(f"  direction {key}: variance {entry['variance']:.3f} "
              f"~ {entry['prediction']:.3f}")
    drift = rep.extra["psi0_norm_sq_over_n"]
    print(f"  centered hitting-time norm^2 / n over the plan: "
          f"{ {k: round(v, 3) for k, v in drift.items()} } (bounded)")


if __name__ == "__main__":
    main()
