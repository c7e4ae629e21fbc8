"""The four benchmark workloads.

Each workload turns a seed into a fixed list of operations (``Op``).  One
pass runs every operation once, in order, in one thread: a closed loop.  The
seed decides the generated inputs; the library only ever sees those inputs.

An operation returns ``(text, problem)``: ``text`` is the canonical output
(CLI stdout, or the ``repr`` of an exact library result) whose sha256 is
compared with the recorded reference, and ``problem`` is ``None`` or the
message of a failed seed-independent oracle.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# Every workload runs in one thread.  numpy's BLAS would otherwise start a
# thread per core (``rotsum.stats`` solves a 512-point Gauss-Legendre
# eigenproblem on import), and on a shared machine those threads make
# set-up time swing by a factor of several.  Set before numpy is first
# imported; child processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from rotsum import billiard as bil  # noqa: E402
from rotsum import cli  # noqa: E402
from rotsum import contfrac as cf  # noqa: E402
from rotsum import ergosum as es  # noqa: E402
from rotsum import observables as obs  # noqa: E402
from rotsum import sequences as seq  # noqa: E402
from rotsum import variance as var  # noqa: E402

# Sizes per workload.  "full" is what the benchmark measures; "tiny" only
# exercises every code path for the self-test.
SIZES = {
    "rotation_clt": {
        "full": {"clt_samples": 5000, "doubling_samples": 10000},
        "tiny": {"clt_samples": 100, "doubling_samples": 500},
    },
    "billiard_clt": {
        "full": {"terms": 40, "samples": 1000},
        "tiny": {"terms": 6, "samples": 20},
    },
    "variance_backends": {
        "full": {"golden_ns": range(4, 16), "sqrt2m1_ns": range(3, 9),
                 "norm_ns": (7, 55, 200, 987), "nmax": 500},
        "tiny": {"golden_ns": range(4, 7), "sqrt2m1_ns": range(3, 5),
                 "norm_ns": (7, 20), "nmax": 20},
    },
    "billiard_rays": {
        "full": {"orbits": 120, "collisions": 200},
        "tiny": {"orbits": 4, "collisions": 20},
    },
}

# Groups whose results do not depend on the seed, so that one reference
# digest serves every seed.  Exact sups and exact L2 norms are invariant
# under the seeded shift of the observables; the CLI variance calls and the
# repartition diagnostics take no seeded input at all.
SEED_FREE_GROUPS = {
    "variance_backends": ("dk_sup", "norm_sq_exact", "diagnostics",
                          "variance_cli_sqrt2m1", "variance_cli_golden"),
}

REPORT_KEYS = {"kind", "empirical", "prediction", "tolerance", "passed",
               "seed", "plan_hash", "config_hash", "version", "extra"}
EMPIRICAL_KEYS = {
    "clt_subsequence": {"ks", "variance", "variance_ratio", "mean"},
    "erdos_fortet": {"ks_mixture", "ks_best_normal", "variance", "gap"},
    "gaposhkin_modified_sequence": {"ks_two_sample", "mismatches", "sup_diff",
                                    "var_plain", "var_modified"},
    "billiard_clt": {"c11", "c22", "c12", "directions"},
}
VARIANCE_HEADER = ["n", "norm_sq", "mean_variance", "lower_series",
                   "upper_series", "level"]

# Ray starts have this prime denominator.  Every hit point and every orbit
# point x + j*alpha is affine in the start with a nonzero coefficient, so
# it carries the factor 2^31 - 1 in its denominator, while obstacle corners
# and displacement breakpoints have small denominators: no seeded orbit can
# hit a corner or a breakpoint, and no operation fails on valid code.
RAY_DEN = 2 ** 31 - 1


@dataclass(frozen=True)
class Op:
    group: str                      # reference digests are kept per group
    stage: str | None               # end-to-end stage metric, if any
    fn: Callable[[], tuple]         # () -> (text, problem)


def build(name: str, seed: int, size: str = "full") -> list[Op]:
    """The operations of one pass of workload ``name`` at ``seed``."""
    return _BUILDERS[name](seed, SIZES[name][size])


# ---------------------------------------------------------------------------
# CLI operations
# ---------------------------------------------------------------------------

def _cli_op(group, stage, argv, check):
    argv = [str(a) for a in argv]

    def fn():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(list(argv))
        text = out.getvalue()
        if rc != 0:
            return text, f"rotsum {argv[0]} exited {rc}: {err.getvalue().strip()}"
        return text, check(text)

    return Op(group, stage, fn)


def _check_report(kind, seed, plan=None):
    """Report shape; with ``plan``, the report must name that plan."""
    def check(text):
        doc = json.loads(text)
        if set(doc) != REPORT_KEYS:
            return f"report keys {sorted(doc)}"
        if doc["kind"] != kind or doc["seed"] != seed:
            return f"report kind/seed {doc['kind']}/{doc['seed']}"
        if plan is not None and doc["plan_hash"] != plan.plan_hash():
            return f"report plan_hash {doc['plan_hash']} != {plan.plan_hash()}"
        missing = EMPIRICAL_KEYS[kind] - set(doc["empirical"])
        return f"empirical keys missing {sorted(missing)}" if missing else None
    return check


def _check_variance_csv(nmax):
    rows_expected = len({max(1, round(nmax ** (i / 39))) for i in range(40)})

    def check(text):
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != VARIANCE_HEADER:
            return f"variance header {rows[0]}"
        if len(rows) - 1 != rows_expected:
            return f"variance rows {len(rows) - 1} != {rows_expected}"
        for row in rows[1:]:
            try:
                if len(list(map(float, row))) != len(VARIANCE_HEADER):
                    return f"variance row {row}"
            except ValueError:
                return f"variance row {row}"
        return None
    return check


def _rotation_clt(seed, size):
    # The plan the CLI builds (levels = terms + 8, beta = 2), built once here
    # so that set-up covers the truncation and the plan, and every report is
    # checked against it.
    plan = seq.plan_growth(cli.parse_alpha("clt:c=30", 40 + 8), 2.0, 40)
    cli.parse_observable("indicator:beta=1/3")
    clt = ["clt", "--alpha", "clt:c=30", "--terms", 40,
           "--samples", size["clt_samples"], "--seed", seed]
    doubling = ["--samples", size["doubling_samples"], "--seed", seed]
    report = _check_report("clt_subsequence", seed, plan)
    return [
        _cli_op("clt_phi0", "op.clt_phi0_s", clt, report),
        _cli_op("clt_indicator", "op.clt_indicator_s",
                clt + ["--observable", "indicator:beta=1/3"], report),
        _cli_op("erdos_fortet", None,
                ["erdos-fortet"] + doubling + ["--opt", "n=500"],
                _check_report("erdos_fortet", seed)),
        _cli_op("gaposhkin", None,
                ["gaposhkin"] + doubling + ["--opt", "n=500,a=5"],
                _check_report("gaposhkin_modified_sequence", seed)),
    ]


def _billiard_clt(seed, size):
    # The plan (levels = 3 * terms + 8, beta = 2), obstacle shape and vector
    # observable the CLI builds, built once here so that set-up covers them;
    # the report is checked against the plan.
    terms = size["terms"]
    plan = seq.plan_parity(cli.parse_alpha("parity:c=30", 3 * terms + 8),
                           2.0, terms)
    bil.psi_components(bil.params_for_plan(plan.trunc))
    argv = ["billiard-clt", "--alpha", "parity:c=30", "--terms", terms,
            "--samples", size["samples"], "--seed", seed]
    return [_cli_op("billiard_clt", None, argv,
                    _check_report("billiard_clt", seed, plan))]


# ---------------------------------------------------------------------------
# Library operations
# ---------------------------------------------------------------------------

def catalog_observables():
    """The six catalog observables of the acceptance suite."""
    return [
        obs.Sawtooth(),
        obs.indicator(Fraction(1, 3)),
        obs.half(),
        obs.double_interval(Fraction(1, 5), Fraction(3, 8)),
        obs.half_shifted(Fraction(2, 7)),
        obs.billiard_displacement(Fraction(2, 5)).phi1,
    ]


def a4_truncations():
    """The three rotation numbers of acceptance criterion 4."""
    return {
        "golden": cf.truncation(cf.golden(45), 43),
        "sqrt2m1": cf.truncation(cf.sqrt2m1(24), 22),
        "designed": cf.truncation(cf.from_list(
            [1, 50, 1, 1, 2, 1, 1, 1, 3] + [1] * 15), 24),
    }


def _sup_op(phi, n, trunc):
    def fn():
        sup = es.orbit_sum_profile(phi, trunc.qs[n], trunc.value).sup_abs()
        bound = phi.variation()
        problem = None if sup <= bound else f"sup {sup} > V {bound}"
        return repr(sup), problem
    return Op("dk_sup", "op.dk_sup_s", fn)


def _norm_ops(phi, n, trunc):
    exact = {}

    def fn_exact():
        value, _ = var.norm_sq(phi, n, trunc, mode="exact")
        exact["value"] = value
        return repr(value), None

    def fn_fourier():
        value, _ = var.norm_sq(phi, n, trunc, mode="fourier")
        ref = float(exact["value"])
        rel = abs(value - ref) / max(ref, 0.05)
        problem = None if rel <= 0.01 else f"fourier vs exact rel {rel:.4f}"
        return repr(value), problem

    return [Op("norm_sq_exact", None, fn_exact),
            Op("norm_sq_fourier", None, fn_fourier)]


def _diagnostics_op(trunc, n, m):
    def fn():
        report = var.diagnostic_inequalities(trunc, n, m)
        bad = [k for k, v in report.items() if not v[2]]
        return repr(report), (f"inequalities failed {bad}" if bad else None)
    return Op("diagnostics", None, fn)


def _variance_backends(seed, size):
    rng = random.Random(seed)
    # Each step observable is shifted by a seeded k/97.  Sup norms and L2
    # norms are shift-invariant, so the exact results must not change with
    # the seed while every breakpoint the engines see does.
    phis = [phi if isinstance(phi, obs.Sawtooth)
            else phi.shifted(Fraction(rng.randrange(1, 97), 97))
            for phi in catalog_observables()]
    ops = []
    for spec, ns in ((cf.golden, size["golden_ns"]),
                     (cf.sqrt2m1, size["sqrt2m1_ns"])):
        trunc = cf.truncation(spec(max(ns) + 4), max(ns) + 2)
        ops += [_sup_op(phi, n, trunc) for n in ns for phi in phis]
    truncs = a4_truncations()
    for trunc in truncs.values():
        for phi in phis[:5]:
            for n in size["norm_ns"]:
                ops += _norm_ops(phi, n, trunc)
    for name, trunc in truncs.items():
        for m in (10, 100):
            ops.append(_diagnostics_op(trunc, 4 if name == "designed" else 8, m))
    nmax = size["nmax"]
    for alpha in ("sqrt2m1", "golden"):
        argv = ["variance", "--alpha", alpha,
                "--observable", "double_interval:beta=1/5,gamma=3/8",
                "--opt", f"nmax={nmax}"]
        ops.append(_cli_op(f"variance_cli_{alpha}", "op.variance_fourier_s",
                           argv, _check_variance_csv(nmax)))
    return ops


def _ray_op(x, params, collisions):
    def fn():
        orbit = bil.ray_trace(x, params, collisions=collisions)
        cells = orbit.cells()
        state = bil.LatticeState(x, (0, 0))
        for j, cell in enumerate(cells, start=1):
            state = bil.step(state, params)
            if state.z != cell:
                return repr(cells), f"ray cell {cell} != cocycle {state.z} at {j}"
        final = bil.cell_after(len(cells), x, params)
        if final != cells[-1]:
            return repr(cells), f"cell_after {final} != ray {cells[-1]}"
        return repr(cells), None
    return Op("rays", None, fn)


def _billiard_rays(seed, size):
    rng = random.Random(seed)
    shapes = [bil.ObstacleParams(a=Fraction(2, 5), b=Fraction(2, 5)),
              bil.params_for_plan(cf.truncation(cf.golden(20), 16))]
    return [_ray_op(Fraction(rng.randrange(1, RAY_DEN), RAY_DEN),
                    shapes[i % 2], size["collisions"])
            for i in range(size["orbits"])]


_BUILDERS = {
    "rotation_clt": _rotation_clt,
    "billiard_clt": _billiard_clt,
    "variance_backends": _variance_backends,
    "billiard_rays": _billiard_rays,
}
WORKLOADS = tuple(_BUILDERS)
