"""Typed failures: no bare asserts or ValueErrors in the library, and
certificate checks raise CertificateError.  Also every exported name of the
library resolves, and the library reads no environment variable."""

import ast
import dataclasses
import importlib
import inspect
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from rotsum import billiard as bil
from rotsum import cli
from rotsum import contfrac as cf
from rotsum import ergosum as es
from rotsum import observables as obs
from rotsum import sequences as seq
from rotsum import stats as st
from rotsum import variance as var
from rotsum.errors import (CertificateError, ConfigError, PrecisionError,
                           RotsumError, SpecExhaustedError)

SRC = Path(__file__).resolve().parents[1] / "src" / "rotsum"


def _library_nodes():
    """(file:line, node) for every syntax node of the library's source."""
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 9
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield f"{path.name}:{getattr(node, 'lineno', 0)}", node


def _raises(node, name):
    return (isinstance(node, ast.Raise) and node.exc is not None
            and name in ast.unparse(node.exc))


def test_library_has_no_assert_statements():
    # asserts vanish under python -O; exactness checks must raise typed errors
    found = [where for where, node in _library_nodes()
             if isinstance(node, ast.Assert) or _raises(node, "AssertionError")]
    assert not found, found


def test_library_raises_no_bare_value_error():
    # bad arguments raise ConfigError, which is itself a ValueError
    found = [where for where, node in _library_nodes()
             if _raises(node, "ValueError")]
    assert not found, found


_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def test_library_reads_no_environment():
    # outputs depend on the configuration and seed alone, so no environment
    # variable may reach them
    found = [where for where, node in _library_nodes()
             if (isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT
                 and ast.unparse(node.value) == "os")
             or (isinstance(node, ast.ImportFrom) and node.module == "os"
                 and {alias.name for alias in node.names} & _ENVIRONMENT)]
    assert not found, found


def test_only_split_rows_forks():
    # parallel._split_rows is the one place that starts a process
    # (draw_sums, the doubling-map experiments and mixture_cdf split their
    # points through it, variance.variance_profile its rows): its children
    # end in os._exit, and it reaps every one
    def forks(node):
        return ((isinstance(node, ast.Attribute) and node.attr == "fork"
                 and ast.unparse(node.value) == "os")
                or (isinstance(node, ast.ImportFrom) and node.module == "os"
                    and "fork" in {alias.name for alias in node.names}))

    tree = ast.parse((SRC / "parallel.py").read_text())
    (split,) = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name == "_split_rows"]
    inside = [node for node in ast.walk(split) if forks(node)]
    found = [where for where, node in _library_nodes() if forks(node)]
    # _split_rows's nodes are among the library's, so equal counts leave no
    # fork outside it
    assert inside and len(found) == len(inside), found


def _package_imports(name):
    """The rotsum modules that module ``name`` imports from."""
    tree = ast.parse((SRC / f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = (".".join(filter(None, ["rotsum", node.module]))
                    if node.level else node.module)
            names = [base + "." + alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found |= {name.split(".")[1] for name in names
                  if name.startswith("rotsum.")}
    return found


def test_fork_layer_imports_only_errors():
    # the fork layer is a base layer, and variance reaches it directly,
    # not through its peer stats
    assert _package_imports("parallel") == {"errors"}
    assert "stats" not in _package_imports("variance")


def _decorator_name(node):
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def test_no_cache_on_public_functions():
    # the benchmark tracer wraps public functions only: a memoized public
    # layer would answer hits without entering its span, so caches sit on
    # private helpers
    cached = [(where, node.name) for where, node in _library_nodes()
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and any(_decorator_name(d) in ("lru_cache", "cache")
                      for d in node.decorator_list)]
    assert {"_chain", "_cell_context"} <= {name for _, name in cached}
    public = [(where, name) for where, name in cached if not name.startswith("_")]
    assert not public, public


def test_every_exported_name_resolves():
    # a deleted function or class must leave no dangling __all__ entry
    exporting = 0
    for path in sorted(SRC.glob("*.py")):
        stem = "" if path.stem == "__init__" else f".{path.stem}"
        module = importlib.import_module(f"rotsum{stem}")
        names = getattr(module, "__all__", ())
        exporting += bool(names)
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (path.name, missing)
    assert exporting >= 7


def test_certificate_failure_is_typed(monkeypatch):
    tr = cf.truncation(cf.golden(30), 20)
    phi = obs.half()
    lhs, rhs = es.ostrowski_bound_check(phi, Fraction(1, 7), 10, tr)
    assert lhs <= rhs
    # an engine reporting a sum past the Ostrowski bound must fail the check
    monkeypatch.setattr(es, "ergodic_sum", lambda *args: 100 * rhs)
    with pytest.raises(CertificateError) as exc:
        es.ostrowski_bound_check(phi, Fraction(1, 7), 10, tr)
    assert isinstance(exc.value, RotsumError)


@pytest.mark.parametrize("phi", [obs.Sawtooth(), obs.half()],
                         ids=lambda p: p.label)
@pytest.mark.parametrize("rmax", [-3, 0])
def test_fourier_tables_reject_rmax_below_one(phi, rmax):
    # not numpy's ValueError for a negative length; the phase tables and the
    # hitting time's table used to return empty arrays
    with pytest.raises(ConfigError, match="rmax"):
        obs.gamma_array(phi, 1, rmax)
    with pytest.raises(ConfigError, match="rmax"):
        obs.gamma_sq_array(phi, 1, rmax)
    with pytest.raises(ConfigError, match="rmax"):
        obs.reduce_phases(1, 3, rmax)
    with pytest.raises(ConfigError, match="rmax"):
        obs.phase_fracs(Fraction(1, 3), rmax)
    with pytest.raises(ConfigError, match="rmax"):
        _INSTANCES[bil.PiecewiseLinear].gamma_array(rmax)


# Arguments that would pick an engine or a truncation length: no caller
# needs more than one value, so the library holds each as a constant
_UNSET_SETTINGS = {"engine", "rmax", "mmax", "drift_ns", "rmax_drift", "window"}


@pytest.mark.parametrize("fn", [
    es.ergodic_sum, es.approx_error_sq, obs.hat_norm_sq,
    seq.SubsequencePlan.hat_variance, seq.nondegeneracy_average, seq.check_Dm,
    var.norm_sq, var.mean_variance, var.variance_profile,
    st.resonance_integral, bil.clt_experiment,
], ids=lambda fn: fn.__qualname__)
def test_no_engine_or_truncation_arguments(fn):
    params = set(inspect.signature(fn).parameters)
    assert not params & _UNSET_SETTINGS, sorted(params & _UNSET_SETTINGS)
    if fn is es.approx_error_sq:
        # one exact path, no backend switch
        assert "mode" not in params


def test_spec_with_unknown_rule_name_is_refused():
    # used to build, then fail with a bare KeyError on the first a(k)
    with pytest.raises(ConfigError, match="bogus"):
        cf.PartialQuotientSpec(name="bogus", max_index=5)


_SHAPE = bil.ObstacleParams(Fraction(2, 5), Fraction(3, 5))
_X = Fraction(1, 9)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: bil.ray_trace(_X, _SHAPE, collisions=2.5),
                 id="ray_trace-collisions"),
    pytest.param(lambda: bil.cell_after_direct(2.5, _X, _SHAPE),
                 id="cell_after_direct-n"),
    pytest.param(lambda: bil.cell_after(2.5, _X, _SHAPE), id="cell_after-n"),
    # one rule for x across the cocycle: an exact rational, never a float
    pytest.param(lambda: bil.step(bil.LatticeState(0.3, (0, 0)), _SHAPE),
                 id="step-x"),
    pytest.param(lambda: bil.displacement(0.3, _SHAPE), id="displacement-x"),
    pytest.param(lambda: bil.cell_after(3, 0.3, _SHAPE), id="cell_after-x"),
    pytest.param(lambda: bil.cell_after_direct(3, 0.3, _SHAPE),
                 id="cell_after_direct-x"),
    # the ray tracer's route too: each used to read 0.3 as its binary
    # expansion
    pytest.param(lambda: bil.ray_trace(0.3, _SHAPE), id="ray_trace-x"),
    pytest.param(lambda: bil.hitting_time(0.3, _SHAPE), id="hitting_time-x"),
    pytest.param(lambda: bil.section_start(0.3, _SHAPE), id="section_start-x"),
    pytest.param(lambda: bil.ObstacleParams(0.4, 0.4), id="ObstacleParams"),
])
def test_billiard_rejects_inexact_arguments(call):
    # not a TypeError, an AttributeError or a silently truncated count
    with pytest.raises(ConfigError):
        call()


_GOLDEN = cf.truncation(cf.golden(15), 10)
# deep enough for the 20000-term Fourier tables of variance
_DEEP_GOLDEN = cf.truncation(cf.golden(30), 26)
_PLAN = seq.plan_growth(
    cf.truncation(cf.clt_design_rule(c=30, beta=2, max_index=12), 10), 2, 2)
_PARITY_PLAN = seq.plan_parity(
    cf.truncation(cf.parity_design_rule(c=12, beta=2, max_index=30), 26), 2, 2)
_NAN = float("nan")
_INF = float("inf")
# Samples that are not a 1-D array of real numbers: each used to escape from
# the KS readers as numpy's broadcast ValueError, an AxisError, a
# ValueError or a TypeError.
_BAD_SAMPLES = {"2-d": np.zeros((3, 4)), "scalar": 0.5, "str": ["a", "b"],
                "object": object()}


@pytest.mark.parametrize("call", [
    # a <= 0 used to loop forever on m ** a <= nmax
    pytest.param(lambda: st.gaposhkin_index_set(0, 10), id="index_set-a0"),
    pytest.param(lambda: st.gaposhkin_count(-1, 10), id="count-a-1"),
    # negative level indices used to wrap to the deepest level
    pytest.param(lambda: es.approx_error_sq(obs.half(), -1, _GOLDEN),
                 id="approx_error_sq-n-1"),
    pytest.param(lambda: var.bound_series(obs.half(), -3, _GOLDEN),
                 id="bound_series-ell-3"),
    pytest.param(lambda: var.diagnostic_inequalities(_GOLDEN, -20, 10),
                 id="diagnostics-n-20"),
    # each used to return NaN or 1.0, or escape as a ZeroDivisionError, a
    # math domain error or a bare ValueError
    pytest.param(lambda: st.two_sample_ks([], [1.0]), id="two_sample_ks-empty"),
    *[pytest.param(lambda bad=bad: st.ks_statistic(bad, st._normal_cdf_array),
                   id=f"ks_statistic-{key}")
      for key, bad in _BAD_SAMPLES.items()],
    *[pytest.param(lambda bad=bad: st.two_sample_ks(bad, [1.0]),
                   id=f"two_sample_ks-a-{key}")
      for key, bad in _BAD_SAMPLES.items()],
    *[pytest.param(lambda bad=bad: st.two_sample_ks([1.0], bad),
                   id=f"two_sample_ks-b-{key}")
      for key, bad in _BAD_SAMPLES.items()],
    pytest.param(lambda: st.two_sample_ks([_NAN], [1.0]),
                 id="two_sample_ks-nan"),
    pytest.param(lambda: st.block_variance_ratio([], []),
                 id="block_variance_ratio-empty"),
    pytest.param(lambda: bil.estimate_c(_SHAPE, n_starts=0),
                 id="estimate_c-no-starts"),
    pytest.param(lambda: bil.mild_hypothesis_values(cf.golden(10), [0]),
                 id="mild_hypothesis-n0"),
    pytest.param(lambda: var.variance_profile(obs.half(), _GOLDEN, []),
                 id="variance_profile-empty"),
    pytest.param(lambda: st.fourier_tail_norm(obs.half(), _NAN),
                 id="fourier_tail_norm-nan"),
    pytest.param(lambda: seq.plan_growth(_GOLDEN, _NAN, 3), id="plan-beta-nan"),
    # integer arguments are integers: each used to truncate the float, read
    # a negative count from the end, or escape as a bare TypeError or an
    # AttributeError
    pytest.param(lambda: _GOLDEN.distance(2.7), id="distance-k"),
    pytest.param(lambda: cf.ostrowski_digits(2.5, _GOLDEN),
                 id="ostrowski_digits-N"),
    pytest.param(lambda: cf.from_list([1, 2.5, 3]), id="from_list"),
    pytest.param(lambda: seq.check_lacunarity([1.5, 3]),
                 id="check_lacunarity"),
    pytest.param(lambda: es.orbit_sum_profile(obs.half(), 2.5, _GOLDEN.value),
                 id="orbit_sum_profile-n"),
    pytest.param(lambda: var.norm_sq(obs.half(), 2.5, _GOLDEN, mode="exact"),
                 id="norm_sq-n"),
    pytest.param(lambda: obs.hat_norm_sq(obs.half(), 2.5), id="hat_norm_sq-ell"),
    pytest.param(lambda: obs.hat_observable(obs.half(), 2.5),
                 id="hat_observable-ell"),
    pytest.param(lambda: cf.design_alpha(cf.golden(15), -3),
                 id="design_alpha-levels"),
    pytest.param(lambda: cf.beta_from_ostrowski([0.5], _GOLDEN),
                 id="beta_from_ostrowski"),
    pytest.param(lambda: seq.plan_growth(_GOLDEN, 2, 2.5), id="plan-count"),
    pytest.param(lambda: obs.gamma_array(obs.half(), 1, 2.5),
                 id="gamma_array-rmax"),
    pytest.param(lambda: st.StratifiedSampler(0, 2.5), id="sampler-size"),
    pytest.param(lambda: st.StratifiedSampler(-1, 5), id="sampler-seed-1"),
    pytest.param(lambda: cf.truncation(cf.golden(15), 2.5),
                 id="truncation-level"),
    # each used to escape as a bare TypeError
    pytest.param(lambda: var.diagnostic_inequalities(_GOLDEN, 4.0, 10),
                 id="diagnostics-n"),
    pytest.param(lambda: var.bound_series(obs.half(), 2.0, _GOLDEN),
                 id="bound_series-ell"),
    pytest.param(lambda: es.approx_error_sq(obs.half(), 2.0, _GOLDEN),
                 id="approx_error_sq-n"),
    pytest.param(lambda: var.mean_variance(obs.half(), 3.0, _DEEP_GOLDEN),
                 id="mean_variance-n"),
    pytest.param(lambda: st.resonance_integral(obs.half(), 1.5, obs.half(), 2),
                 id="resonance_integral-l1"),
    pytest.param(lambda: st.gaposhkin_index_set(5.5, 100), id="index_set-a"),
    pytest.param(lambda: st.erdos_fortet_experiment(2.5, 10, 0),
                 id="erdos_fortet-n"),
    pytest.param(lambda: st.gaposhkin_demo(5, 50.5, 10, 0), id="gaposhkin-n"),
    pytest.param(lambda: _PLAN.hat_variance(obs.half(), 2.0),
                 id="hat_variance-n"),
    pytest.param(lambda: seq.nondegeneracy_average(_PLAN, obs.half(), 2.0),
                 id="nondegeneracy_average-n"),
    pytest.param(lambda: st.sample_sums(_PLAN, obs.half(),
                                        st.StratifiedSampler(0, 4), 1.0),
                 id="sample_sums-n"),
    pytest.param(lambda: st.covariance_2d(
        _PARITY_PLAN, obs.billiard_displacement(_PARITY_PLAN.trunc.value), 1.0,
        4, 0), id="covariance_2d-n"),
    # each used to truncate the float or compute at it
    pytest.param(lambda: var.variance_profile(obs.half(), _DEEP_GOLDEN, [2.5]),
                 id="variance_profile-ns"),
    pytest.param(lambda: var.level_of(3.5, _GOLDEN), id="level_of-n"),
    pytest.param(lambda: var.gn_kernel(2.5, 0.1), id="gn_kernel-n"),
    pytest.param(lambda: var.gn_mean(2.5, 0.1), id="gn_mean-n"),
    pytest.param(lambda: var.diagnostic_inequalities(_GOLDEN, 4, 3.5),
                 id="diagnostics-m"),
    pytest.param(lambda: st.clt_report(_PLAN, obs.half(), 1.0,
                                       st.SampleSet(np.array([-1.0, 1.0]), 1.0,
                                                    prediction=1.0), 0),
                 id="clt_report-n"),
    # exact rationals in the exact engines, as in the cocycle
    pytest.param(lambda: es.count_visits(0.1, (0, Fraction(1, 2)), 5, _GOLDEN),
                 id="count_visits-x"),
    pytest.param(lambda: es.ergodic_sum(obs.half(), 0.1, 5, _GOLDEN),
                 id="ergodic_sum-x"),
    pytest.param(lambda: es.orbit_sum_profile(obs.half(), 5, 0.3),
                 id="orbit_sum_profile-rot"),
    pytest.param(lambda: obs.half().shifted(0.1), id="shifted-delta"),
    # no silent NaN: each used to return NaN or escape as numpy's or the
    # interpreter's ValueError or OverflowError
    pytest.param(lambda: st.block_variance_ratio([obs.half(), obs.half()],
                                                 [0, 3]),
                 id="block_variance_ratio-n0"),
    pytest.param(lambda: var.gn_kernel(3, _NAN), id="gn_kernel-nan"),
    pytest.param(lambda: var.gn_mean(3, _INF), id="gn_mean-inf"),
    pytest.param(lambda: st.ks_statistic([0.1, 0.2],
                                         lambda z: z * _NAN),
                 id="ks_statistic-cdf-nan"),
    pytest.param(lambda: bil.mild_hypothesis_values(cf.golden(10), [_NAN]),
                 id="mild_hypothesis-nan"),
    pytest.param(lambda: bil.mild_hypothesis_values(cf.golden(10), [_INF]),
                 id="mild_hypothesis-inf"),
    pytest.param(lambda: bil.params_for_plan(_GOLDEN, scale=_NAN),
                 id="params_for_plan-scale-nan"),
    pytest.param(lambda: bil.estimate_c(_SHAPE, 3, seed=-1),
                 id="estimate_c-seed-1"),
    # plan positions outside the plan: q(0) used to read the last term's
    # denominator, hat_variance to escape as a bare IndexError past the plan
    # or to return 0.0 below it
    pytest.param(lambda: _PLAN.q(0), id="plan_q-k0"),
    pytest.param(lambda: _PLAN.hat_variance(obs.half(), 5),
                 id="hat_variance-n5"),
    pytest.param(lambda: _PLAN.hat_variance(obs.half(), -1),
                 id="hat_variance-n-1"),
    # used to return 0.0, reading no jump of the pair
    pytest.param(lambda: _PLAN.hat_variance(obs.billiard_pair(Fraction(2, 5)),
                                            0),
                 id="hat_variance-vector-n0"),
    # used to escape as a bare TypeError
    pytest.param(lambda: st.erdos_fortet_identity_error(2.5, [0.1]),
                 id="erdos_fortet_identity_error-n"),
    # input checks that no other test reached
    pytest.param(lambda: bil.ObstacleParams(Fraction(0), Fraction(1, 2)),
                 id="ObstacleParams-side-0"),
    pytest.param(lambda: bil.ObstacleParams(Fraction(1, 2), Fraction(1)),
                 id="ObstacleParams-side-1"),
    pytest.param(lambda: bil.params_for_plan(_GOLDEN, scale=Fraction(3, 2)),
                 id="params_for_plan-scale"),
    pytest.param(lambda: obs.StepFunction((0, 0.5), (1, -1)),
                 id="StepFunction-float"),
    pytest.param(lambda: obs.StepFunction((Fraction(1, 4),), (1,)),
                 id="StepFunction-start"),
    pytest.param(lambda: obs.StepFunction((0, Fraction(3, 2)), (1, -1)),
                 id="StepFunction-range"),
    pytest.param(lambda: obs.StepFunction((0, Fraction(1, 2), Fraction(1, 4)),
                                          (1, -1, 0)),
                 id="StepFunction-order"),
    pytest.param(lambda: obs.StepFunction((0, Fraction(1, 2)), (1,)),
                 id="StepFunction-values"),
    pytest.param(lambda: obs.half().fourier_gamma(0),
                 id="StepFunction-gamma0"),
    pytest.param(lambda: obs.double_interval(Fraction(1, 5), Fraction(1)),
                 id="double_interval-gamma"),
    pytest.param(lambda: obs.half_shifted(Fraction(1, 2)),
                 id="half_shifted-beta"),
    pytest.param(lambda: obs.billiard_pair(Fraction(1)), id="billiard_pair"),
    pytest.param(lambda: obs.billiard_displacement(Fraction(0)),
                 id="billiard_displacement"),
    pytest.param(lambda: cf.PartialQuotientSpec(name="golden", max_index=0),
                 id="spec-max_index"),
    pytest.param(lambda: cf.PartialQuotientSpec(name="list", max_index=3,
                                                quotients=(1, 2)),
                 id="spec-short-list"),
    pytest.param(lambda: cf.PartialQuotientSpec(name="list", max_index=2,
                                                quotients=(1, 0)),
                 id="spec-quotient-0"),
    pytest.param(lambda: cf.clt_design_rule(c=0), id="clt_design_rule-c"),
    pytest.param(lambda: cf.parity_design_rule(c=0),
                 id="parity_design_rule-c"),
    # each used to build a spec from a float, or to escape as a bare
    # TypeError
    pytest.param(lambda: cf.golden(2.5), id="golden-max_index-float"),
    pytest.param(lambda: cf.clt_design_rule(c=2.5),
                 id="clt_design_rule-c-float"),
    pytest.param(lambda: cf.parity_design_rule(beta=1.5),
                 id="parity_design_rule-beta-float"),
    # used to build all-ones quotients, a bounded-type rotation named clt
    pytest.param(lambda: cf.clt_design_rule(c=1, beta=-3),
                 id="clt_design_rule-beta-below-1"),
    pytest.param(lambda: cf.clt_design_rule(c="3"),
                 id="clt_design_rule-c-string"),
    pytest.param(lambda: cf.PartialQuotientSpec(name="golden", max_index="5"),
                 id="spec-max_index-string"),
    # used to return the sawtooth's constant for a float stride
    pytest.param(lambda: obs.gamma_sq_array(obs.Sawtooth(), 0.3, 3),
                 id="gamma_sq_array-sawtooth-stride"),
    pytest.param(lambda: cf.truncation(cf.golden(15), 1), id="truncation-1"),
    pytest.param(lambda: cli.parse_alpha("list:1,2,3,4,5", 3),
                 id="parse_alpha-short-list"),
    pytest.param(lambda: seq.check_lacunarity([5]), id="check_lacunarity-one"),
    pytest.param(lambda: seq.nondegeneracy_average(_PLAN, obs.half(), 3),
                 id="nondegeneracy_average-n3"),
    pytest.param(lambda: st.quasi_orthogonality_check(obs.half(), obs.half(),
                                                      3, 2),
                 id="quasi_orthogonality-l2<l1"),
    pytest.param(lambda: st.block_variance_ratio([obs.half()], [1, 2]),
                 id="block_variance_ratio-lengths"),
    pytest.param(lambda: st.covariance_2d(
        _PLAN, obs.billiard_displacement(_PLAN.trunc.value), 1, 4, 0),
        id="covariance_2d-growth-plan"),
    pytest.param(lambda: st.covariance_2d(
        _PARITY_PLAN, obs.billiard_displacement(_PARITY_PLAN.trunc.value), 3,
        4, 0), id="covariance_2d-n3"),
    pytest.param(lambda: var.norm_sq(obs.half(), 3, _GOLDEN, mode="bogus"),
                 id="norm_sq-mode"),
    pytest.param(lambda: var.diagnostic_inequalities(_GOLDEN, 4, 2),
                 id="diagnostics-m2"),
])
def test_edge_inputs_raise_config_error(call):
    with pytest.raises(ConfigError):
        call()


_OBSERVABLE = re.compile(r"\b(Observable|StepFunction|Sawtooth)\b")
# A valid argument for each parameter annotation (the first alternative of a
# union), or for each unannotated parameter by its name
_ARGUMENTS = {
    "Observable": obs.half(), "list[Observable]": [obs.half()],
    "VectorObservable": obs.billiard_pair(Fraction(2, 5)),
    "int": 2, "float": 2.0, "Fraction": Fraction(1, 3), "list[int]": [2],
    "tuple": (Fraction(0), Fraction(1, 2)),
    "tuple[Fraction, ...]": (Fraction(0), Fraction(1, 2)),
    "RationalTruncation": _GOLDEN, "SubsequencePlan": _PARITY_PLAN,
    "ObstacleParams": bil.params_for_plan(_PARITY_PLAN.trunc),
    "StratifiedSampler": st.StratifiedSampler(0, 4),
    "SampleSet": st.SampleSet(np.array([-1.0, 1.0]), 1.0, prediction=1.0),
    "stride": 1, "ns": [2],
}
# An instance for each class with a public method that takes an observable
# or an exact input
_INSTANCES = {
    seq.SubsequencePlan: _PARITY_PLAN, obs.StepFunction: obs.half(),
    es.OrbitProfile: es.orbit_sum_profile(obs.half(), 3, Fraction(1, 3)),
    bil.PiecewiseLinear: bil.hitting_time_profile(_SHAPE),
}


def _key(param) -> str:
    """The ``_ARGUMENTS`` key of a parameter: the first alternative of its
    annotation, or its name where it has none."""
    return (str(param.annotation).split(" | ")[0]
            if param.annotation is not param.empty else param.name)


def _takes_observable(fn):
    try:
        params = inspect.signature(fn).parameters.values()
    except ValueError:      # no signature, as for the exception classes
        return False
    return any(_OBSERVABLE.search(str(p.annotation)) for p in params)


def _observable_readers():
    """(name, callable) for every public function, class and method of the
    library with a parameter annotated as a scalar observable; a method is
    bound to its class's entry in ``_INSTANCES``."""
    for path in sorted(SRC.glob("*.py")):
        stem = "" if path.stem == "__init__" else f".{path.stem}"
        module = importlib.import_module(f"rotsum{stem}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) \
                    != module.__name__:
                continue
            if (inspect.isfunction(obj) or inspect.isclass(obj)) \
                    and _takes_observable(obj):
                yield name, obj
            if inspect.isclass(obj):
                for attr, fn in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(fn) \
                            and _takes_observable(fn):
                        yield f"{name}.{attr}", getattr(_INSTANCES[obj], attr)


_READERS = sorted(_observable_readers())


def test_observable_readers_are_found():
    names = {name for name, _ in _READERS}
    assert {"ErgodicContext", "hat_observable", "resonance_integral",
            "block_variance_ratio", "SubsequencePlan.hat_variance",
            "norm_sq"} <= names
    assert len(names) >= 24
    assert "covariance_2d" not in names     # it takes a VectorObservable


@pytest.mark.parametrize("name, fn", _READERS, ids=[n for n, _ in _READERS])
def test_observable_readers_refuse_a_vector_observable(name, fn):
    # each used to escape as a bare AttributeError, or to return as if the
    # pair were one observable; every observable argument is tried in turn
    vector = obs.billiard_pair(Fraction(2, 5))
    required = [p for p in inspect.signature(fn).parameters.values()
                if p.default is p.empty]
    args = [_ARGUMENTS[_key(p)] for p in required]
    tried = 0
    for i, param in enumerate(required):
        if _OBSERVABLE.search(str(param.annotation)):
            bad = [vector] if isinstance(args[i], list) else vector
            with pytest.raises(ConfigError, match="not a scalar observable"):
                fn(*args[:i], bad, *args[i + 1:])
            tried += 1
    assert tried


def _is_exact_input(param, in_plan: bool) -> bool:
    """A point of the circle or a rational (annotated as a Fraction), a
    seed, a stride, an observable's slope, or a plan position (``n`` or
    ``k`` beside a plan)."""
    return ("Fraction" in str(param.annotation).split(" | ")
            or param.name in ("seed", "stride", "slope")
            or in_plan and param.name in ("n", "k"))


def _exact_inputs():
    """(name, callable, parameter) for each exact input of the library's
    public functions, methods and the classes that check their own
    arguments, a method bound to its class's entry in ``_INSTANCES``;
    the CLI's inputs have their own tests."""
    for path in sorted(SRC.glob("*.py")):
        if path.stem in ("__init__", "cli"):
            continue
        module = importlib.import_module(f"rotsum.{path.stem}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) \
                    != module.__name__ or getattr(obj, "__name__", name) \
                    != name:    # an alias, as Observable is of StepFunction
                continue
            entries = []        # (name, function, its class or None)
            if inspect.isfunction(obj):
                entries.append((name, obj, None))
            if inspect.isclass(obj):
                checks = ("__post_init__" if dataclasses.is_dataclass(obj)
                          else "__init__")
                if checks in vars(obj):
                    entries.append((name, obj, None))
                entries += [(f"{name}.{attr}", fn, obj)
                            for attr, fn in vars(obj).items()
                            if not attr.startswith("_")
                            and inspect.isfunction(fn)]
            for qualname, fn, owner in entries:
                params = inspect.signature(fn).parameters
                in_plan = owner is seq.SubsequencePlan or "plan" in params
                for param in params.values():
                    if _is_exact_input(param, in_plan):
                        yield qualname, (fn if owner is None else getattr(
                            _INSTANCES[owner], fn.__name__)), param.name


_EXACT_INPUTS = sorted(_exact_inputs(), key=lambda e: (e[0], e[2]))


def test_exact_inputs_are_found():
    found = {(name, param) for name, _, param in _EXACT_INPUTS}
    assert {("indicator", "beta"), ("StepFunction.evaluate", "x"),
            ("OrbitProfile.evaluate", "x"), ("PiecewiseLinear.evaluate", "x"),
            ("section_start", "chi"), ("gamma_array", "stride"),
            ("ErgodicContext", "rot"), ("SubsequencePlan.q", "k"),
            ("StepFunction", "slope"),
            ("covariance_2d", "n"), ("StratifiedSampler", "seed"),
            ("estimate_c", "seed")} <= found
    assert len(found) >= 43


@pytest.mark.parametrize("bad", [0.3, "1/3"], ids=["float", "string"])
@pytest.mark.parametrize("name, fn, param", _EXACT_INPUTS,
                         ids=[f"{n}-{p}" for n, _, p in _EXACT_INPUTS])
def test_exact_inputs_refuse_floats_and_strings(name, fn, param, bad):
    # one rule per input: a point, a rational, a seed or a plan position is
    # read by the helpers of rotsum.errors, so 0.3 is never read as its
    # binary expansion and "1/3" never escapes as a TypeError
    kwargs = {p.name: _ARGUMENTS[_key(p)]
              for p in inspect.signature(fn).parameters.values()
              if p.default is p.empty}
    if fn is st.gaposhkin_demo:
        kwargs["a"] = 5         # its smallest exponent
    kwargs[param] = bad
    with pytest.raises(ConfigError, match=re.escape(repr(bad))):
        fn(**kwargs)


@pytest.mark.parametrize("n", [10, 11])
def test_approx_error_beyond_the_window_is_a_precision_error(n):
    # n = level used to return 0 (q_n read as q_M) and n = level + 1 to raise
    # a bare IndexError
    assert _GOLDEN.level == 10
    with pytest.raises(PrecisionError):
        es.approx_error_sq(obs.half(), n, _GOLDEN)
    assert es.approx_error_sq(obs.half(), 9, _GOLDEN) > 0


@pytest.mark.parametrize("name, params", [
    ("indicator", {"beta": Fraction(1, 3), "gamma": Fraction(7)}),
    ("half", {"beta": Fraction(1, 3)}),
    ("phi0", {"label": "x"}),
])
def test_catalog_takes_exactly_its_builders_parameters(name, params):
    with pytest.raises(ConfigError, match=name):
        obs.catalog(name, **params)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: cf.design_alpha(cf.golden(15), 11),
                 id="design_alpha-past-max_index"),
])
def test_edge_inputs_raise_spec_exhausted_error(call):
    with pytest.raises(SpecExhaustedError):
        call()


def _deeper(trunc, level):
    """``trunc``'s spec frozen at ``level``; a named rule's max_index is
    extended to reach it, as the CLI sets max_index to the level."""
    spec = trunc.spec
    if spec.quotients is None and spec.max_index < level:
        spec = dataclasses.replace(spec, max_index=level)
    return cf.truncation(spec, level)


_HALF = obs.half()
_CLT10 = cf.truncation(cf.clt_design_rule(max_index=10), 10)
_PARITY13 = cf.truncation(cf.parity_design_rule(max_index=13), 13)


# (truncation, request, the smallest level that holds it): every entry point
# that a truncation's depth limits
@pytest.mark.parametrize("trunc, call, level", [
    pytest.param(_GOLDEN, lambda tr: es.ErgodicContext(_HALF, tr, 7).sum_at(
        3, 200), 13, id="sum_at"),
    pytest.param(_GOLDEN, lambda tr: es.ErgodicContext(_HALF, tr, 7).sums_at(
        [1, 3], 10 ** 6), 31, id="sums_at"),
    # the truncation rotsum sum uses: level 55 used to be asked for
    pytest.param(cf.truncation(cf.golden(53), 53),
                 lambda tr: es.ergodic_sum(_HALF, 0, 10 ** 29, tr),
                 141, id="ergodic_sum-golden-1e29"),
    pytest.param(_GOLDEN, lambda tr: tr.distance(10 ** 4), 21, id="distance"),
    pytest.param(_GOLDEN, lambda tr: var.norm_sq(_HALF, 5, tr),
                 23, id="norm_sq-fourier-table"),
    pytest.param(_GOLDEN, lambda tr: var.norm_sq(_HALF, 300, tr, mode="exact"),
                 14, id="norm_sq-exact"),
    pytest.param(_CLT10, lambda tr: seq.plan_growth(tr, 2, 9),
                 11, id="plan_growth"),
    pytest.param(_PARITY13, lambda tr: seq.plan_parity(tr, 2, 8),
                 14, id="plan_parity"),
    pytest.param(_GOLDEN, lambda tr: tr.denominator_distance(12),
                 13, id="denominator_distance"),
    pytest.param(_GOLDEN, lambda tr: cf.beta_from_ostrowski({9: 1, 11: 2}, tr),
                 13, id="beta_from_ostrowski"),
    pytest.param(_GOLDEN, lambda tr: cf.ostrowski_digits(10 ** 4, tr),
                 20, id="ostrowski_digits"),
    pytest.param(cf.truncation(cf.from_list([3, 1, 4, 1, 5, 9, 2, 6]), 4),
                 lambda tr: cf.ostrowski_digits(500, tr),
                 6, id="ostrowski_digits-list"),
    pytest.param(_GOLDEN, lambda tr: es.approx_error_sq(_HALF, 13, tr),
                 14, id="approx_error_sq"),
    pytest.param(_GOLDEN, lambda tr: var.bound_series(_HALF, 12, tr),
                 13, id="bound_series"),
    pytest.param(_GOLDEN, lambda tr: var.diagnostic_inequalities(tr, 9, 3),
                 11, id="diagnostic_inequalities"),
])
def test_required_level_is_the_smallest_that_holds_the_request(trunc, call,
                                                               level):
    with pytest.raises(PrecisionError) as exc:
        call(trunc)
    assert exc.value.required_level == level > trunc.level
    call(_deeper(trunc, level))
    with pytest.raises(PrecisionError) as shallow:
        call(_deeper(trunc, level - 1))
    assert shallow.value.required_level == level


@pytest.mark.parametrize("trunc, call", [
    # the list ends before any of its windows holds the request
    pytest.param(cf.truncation(cf.from_list([1, 2, 3, 4, 5, 6]), 4),
                 lambda tr: tr.distance(300), id="distance"),
    pytest.param(cf.truncation(cf.from_list([1, 2, 3, 4, 5, 6]), 4),
                 lambda tr: cf.ostrowski_digits(10 ** 6, tr),
                 id="ostrowski_digits"),
    pytest.param(cf.truncation(cf.from_list([1, 2, 3, 4, 5, 6]), 4),
                 lambda tr: tr.denominator_distance(6), id="index-past-list"),
])
def test_explicit_list_past_its_end_names_no_level(trunc, call):
    with pytest.raises(PrecisionError) as exc:
        call(trunc)
    assert exc.value.required_level is None


def test_sawtooth_is_tested_for_only_by_its_two_constants():
    # one observable type: Sawtooth only builds the one-jump, slope-1 step
    # function, and only the constant |gamma_r|^2 and the exact norm 1/12
    # still test for it
    tree = ast.parse((SRC / "observables.py").read_text())
    (cls,) = [node for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == "Sawtooth"]
    assert [node.name for node in cls.body
            if not isinstance(node, ast.Expr)] == ["__init__"]

    def tests_for_sawtooth(node):
        return (isinstance(node, ast.Call)
                and ast.unparse(node.func) == "isinstance"
                and "Sawtooth" in ast.unparse(node.args[1]))

    found = [where for where, node in _library_nodes()
             if tests_for_sawtooth(node)]
    owners = [node.name for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef)
              and any(map(tests_for_sawtooth, ast.walk(node)))]
    assert len(found) == 2 and sorted(owners) == [
        "gamma_sq_array", "hat_norm_sq"], (found, owners)


def test_precision_error_is_raised_only_by_the_truncation():
    # one rule decides truncation depth: RationalTruncation's window and
    # level checks; every other module calls them
    found = [where for where, node in _library_nodes()
             if _raises(node, "PrecisionError")]
    assert found and all(w.startswith("contfrac.py:") for w in found), found


@pytest.mark.parametrize("cap, owner", [
    ("_PROFILE_CAP", ("ergosum.py", "_signed_profile")),
    ("_RMAX", ("observables.py", "_table_length")),
    ("_SAMPLE_CAP", ("stats.py", "_capped")),
])
def test_each_size_cap_is_compared_in_one_place(cap, owner):
    owners = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Compare) and cap in ast.unparse(node):
                        owners.append((path.name, fn.name))
    assert set(owners) == {owner}, owners


def _small_peak(call, error):
    """Raises ``error`` from ``call`` and returns the tracemalloc peak."""
    tracemalloc.start()
    try:
        with pytest.raises(error) as exc:
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, exc.value


_GOLDEN40 = cf.truncation(cf.golden(40), 40)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: es.orbit_sum_profile(_HALF, 2 ** 40, Fraction(1, 3)),
                 id="orbit_sum_profile"),
    # 2 jumps * (2**25 + 1) positions, just above the cap
    pytest.param(lambda: var.norm_sq(_HALF, 2 ** 25 + 1, _GOLDEN40,
                                     mode="exact"), id="norm_sq-exact"),
    # 2 jumps * 2 terms * q_36 = 96,631,268 positions; q_35 gives 59,721,408
    pytest.param(lambda: es.approx_error_sq(_HALF, 36, _GOLDEN40),
                 id="approx_error_sq"),
])
def test_exact_profile_cap_refuses_before_allocating(call):
    assert 4 * _GOLDEN40.qs[35] <= es._PROFILE_CAP < 4 * _GOLDEN40.qs[36]
    peak, exc = _small_peak(call, ConfigError)
    assert "exceeds the cap" in str(exc)
    assert peak < 2 ** 20


@pytest.mark.parametrize("call, error", [
    # 10**6 frequencies past the window q_29 = 832040: the weights used to be
    # built first (14.9 GiB of them at n = 10**7)
    pytest.param(lambda: var.norm_sq(_HALF, 10 ** 4,
                                     cf.truncation(cf.golden(40), 30)),
                 PrecisionError, id="norm_sq-window"),
    pytest.param(lambda: var.mean_variance(_HALF, 10 ** 4,
                                           cf.truncation(cf.golden(40), 30)),
                 PrecisionError, id="mean_variance-window"),
    # inside the window: 100,100 frequencies, just above the one table cap
    pytest.param(lambda: var.norm_sq(_HALF, 1001, _GOLDEN40),
                 ConfigError, id="norm_sq-cap"),
    pytest.param(lambda: var.variance_profile(_HALF, _GOLDEN40, [5, 1001]),
                 ConfigError, id="variance_profile-cap"),
    # a bad observable is refused before either
    pytest.param(lambda: var.mean_variance(obs.billiard_pair(Fraction(2, 5)),
                                           10 ** 4,
                                           cf.truncation(cf.golden(40), 30)),
                 ConfigError, id="mean_variance-vector"),
    # the one cap holds at every table entry point; each of these used to
    # build its 100,001 entries
    pytest.param(lambda: obs.reduce_phases(1, 3, 100_001), ConfigError,
                 id="reduce_phases-cap"),
    pytest.param(lambda: obs.phase_fracs(Fraction(1, 3), 100_001),
                 ConfigError, id="phase_fracs-cap"),
    pytest.param(lambda: obs.gamma_array(_HALF, 1, 100_001), ConfigError,
                 id="gamma_array-cap"),
    pytest.param(lambda: obs.gamma_sq_array(_HALF, 1, 100_001), ConfigError,
                 id="gamma_sq_array-cap"),
    pytest.param(lambda: _INSTANCES[bil.PiecewiseLinear].gamma_array(100_001),
                 ConfigError, id="PiecewiseLinear.gamma_array-cap"),
])
def test_fourier_tables_refuse_before_allocating(call, error):
    peak, _ = _small_peak(call, error)
    assert peak < 2 ** 20


def _rmax_readers():
    """(name, callable) for every public function, class and method of the
    library with a parameter named ``rmax``; a method is bound to its
    class's entry in ``_INSTANCES``."""
    for path in sorted(SRC.glob("*.py")):
        stem = "" if path.stem == "__init__" else f".{path.stem}"
        module = importlib.import_module(f"rotsum{stem}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) \
                    != module.__name__:
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                try:
                    if "rmax" in inspect.signature(obj).parameters:
                        yield name, obj
                except ValueError:   # no signature: the exception classes
                    pass
            if inspect.isclass(obj):
                for attr, fn in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(fn) \
                            and "rmax" in inspect.signature(fn).parameters:
                        yield f"{name}.{attr}", getattr(_INSTANCES[obj], attr)


_RMAX_READERS = sorted(_rmax_readers(), key=lambda e: e[0])


def test_rmax_readers_are_found():
    assert {"reduce_phases", "phase_fracs", "gamma_array", "gamma_sq_array",
            "PiecewiseLinear.gamma_array", "AlphaFourierTable"} <= \
        {name for name, _ in _RMAX_READERS}


@pytest.mark.parametrize("rmax", [0, obs._RMAX + 1])
@pytest.mark.parametrize("name, fn", _RMAX_READERS,
                         ids=[n for n, _ in _RMAX_READERS])
def test_every_table_length_is_read_by_the_one_rule(name, fn, rmax):
    # a table entry point added later cannot skip the length rule; the
    # truncation's window holds the cap, so only the rule can refuse it
    assert _GOLDEN40.validity_bound > obs._RMAX + 1
    arguments = {**_ARGUMENTS, "RationalTruncation": _GOLDEN40}
    kwargs = {p.name: arguments[_key(p)]
              for p in inspect.signature(fn).parameters.values()
              if p.default is p.empty}
    kwargs["rmax"] = rmax
    peak, _ = _small_peak(lambda: fn(**kwargs), ConfigError)
    assert peak < 2 ** 20


@pytest.mark.parametrize("call", [
    pytest.param(lambda: st.StratifiedSampler(0, 10 ** 12),
                 id="StratifiedSampler"),
    pytest.param(lambda: st.GridSampler(st._SAMPLE_CAP + 1), id="GridSampler"),
])
def test_sample_cap_refuses_before_allocating(call):
    # numerators() used to allocate first: 7.28 TiB at 10**12 points
    assert st.GridSampler(st._SAMPLE_CAP).size == st._SAMPLE_CAP
    peak, exc = _small_peak(call, ConfigError)
    assert "exceeds the cap" in str(exc)
    assert peak < 2 ** 20
