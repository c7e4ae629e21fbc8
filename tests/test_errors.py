"""Typed failures: no bare asserts or ValueErrors in the library, and
certificate checks raise CertificateError.  Also every exported name of the
library resolves, and the library reads no environment variable."""

import ast
import importlib
from fractions import Fraction
from pathlib import Path

import pytest

from rotsum import billiard as bil
from rotsum import contfrac as cf
from rotsum import ergosum as es
from rotsum import observables as obs
from rotsum import sequences as seq
from rotsum import stats as st
from rotsum import variance as var
from rotsum.errors import (CertificateError, ConfigError, PrecisionError,
                           RotsumError)

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
    # not numpy's ValueError for a negative length
    with pytest.raises(ConfigError, match="rmax"):
        obs.gamma_array(phi, 1, rmax)
    with pytest.raises(ConfigError, match="rmax"):
        obs.gamma_sq_array(phi, 1, rmax)


@pytest.mark.parametrize("phi", [obs.Sawtooth(), obs.half()],
                         ids=lambda p: p.label)
def test_hat_norm_sq_rejects_rmax_zero(phi):
    # not a ZeroDivisionError in the tail bound
    with pytest.raises(ConfigError, match="rmax"):
        obs.hat_norm_sq(phi, 3, rmax=0)


def test_variance_profile_rejects_rmax_zero():
    # rmax=0 is refused, not read as the default
    tr = cf.truncation(cf.golden(30), 20)
    with pytest.raises(ConfigError, match="rmax"):
        var.variance_profile(obs.half(), tr, [1, 5], rmax=0)
    assert var.variance_profile(obs.half(), tr, [1, 5], rmax=1).ns == (1, 5)


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
_NAN = float("nan")
_INF = float("inf")


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
    # one Fourier setup: rmax=0 used to be a PrecisionError here
    pytest.param(lambda: var.norm_sq(obs.half(), 3, _GOLDEN, rmax=0),
                 id="norm_sq-rmax0"),
    pytest.param(lambda: var.mean_variance(obs.half(), 3, _GOLDEN, rmax=0),
                 id="mean_variance-rmax0"),
    pytest.param(lambda: es.approx_error_sq(obs.half(), 2, _GOLDEN,
                                            mode="series", rmax=0),
                 id="approx_error_sq-rmax0"),
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
    pytest.param(lambda: seq.check_Dm([1, 3, 9], 2, window=-1),
                 id="check_Dm-window"),
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
])
def test_edge_inputs_raise_config_error(call):
    with pytest.raises(ConfigError):
        call()


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
