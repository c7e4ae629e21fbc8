"""Span tracing of the rotsum layers from outside the library.

``Tracer.install`` wraps every public function and public method of the
eight rotsum modules.  A wrapped name is replaced in every rotsum module
that bound it on import (``from .stats import covariance_2d`` in billiard,
for instance), and methods are replaced on their class.  Generator
functions, properties and dataclass-generated methods stay unwrapped: their
time counts as the self time of their caller.

A span is ``(id, parent, op, name, t0, t1, self_s)``: ``op`` is the index of
the benchmark operation that caused it and ``self_s`` is its duration minus
the time its child spans cover.  Spans stay in memory; ``layer_metrics``
turns one pass worth of spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("contfrac", "sequences", "observables", "ergosum", "variance",
           "stats", "billiard", "cli")
COLUMNS = ("id", "parent", "op", "name", "t0", "t1", "self_s")


def _mode_tag(args, kwargs):
    mode = kwargs.get("mode", args[3] if len(args) > 3 else "fourier")
    return f"[{mode}]"


def _jump_count(phi):
    if not hasattr(phi, "breakpoints"):        # the sawtooth: one jump at 0
        return 1
    vals = phi.values
    return sum(vals[i] != vals[i - 1] for i in range(len(vals)))


# Span names that get a suffix from their arguments.
_TAGS = {"variance.norm_sq": _mode_tag}


def _hook_ctx(tracer, args, kwargs, result):
    tracer.raise_max("ergosum.operand_bits", args[0].L.bit_length())


def _hook_trunc(tracer, args, kwargs, result):
    tracer.raise_max("contfrac.q_bits", result.q.bit_length())


def _hook_profile(tracer, args, kwargs, result):
    phi, n = args[0], args[1]
    tracer.counts["ergosum.profile_points"] += int(n) * _jump_count(phi)


def _hook_ray(tracer, args, kwargs, result):
    tracer.counts["billiard.collisions"] += len(result.events)


def _hook_sample_sums(tracer, args, kwargs, result):
    tracer.counts["samples"] += len(result.values)


def _hook_covariance(tracer, args, kwargs, result):
    tracer.counts["samples"] += result.extra["samples"]


# Exact work counters, read from arguments and results after a call.
_HOOKS = {
    "ergosum.ErgodicContext.__init__": _hook_ctx,
    "contfrac.truncation": _hook_trunc,
    "ergosum.orbit_sum_profile": _hook_profile,
    "billiard.ray_trace": _hook_ray,
    "stats.sample_sums": _hook_sample_sums,
    "stats.covariance_2d": _hook_covariance,
}


class Tracer:
    """Records spans of wrapped rotsum calls and of benchmark operations."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []          # [span id, time covered by children]
        self._next_id = 0
        self._patches = []        # (owner, attribute, original value)
        self.op = -1

    def raise_max(self, key, value):
        self.counts[key] = max(self.counts[key], value)

    def reset(self):
        self.spans = []
        self.counts = defaultdict(int)

    # -- spans --------------------------------------------------------------

    def _enter(self):
        frame = [self._next_id, 0.0]
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append(frame)
        return frame, parent

    def _exit(self, frame, parent, name, t0, t1):
        self._stack.pop()
        dur = t1 - t0
        if self._stack:
            self._stack[-1][1] += dur
        self.spans.append((frame[0], parent, self.op, name, t0, t1,
                           dur - frame[1]))

    def run_span(self, name, fn, *args):
        """Call ``fn(*args)`` inside a span named ``name``."""
        frame, parent = self._enter()
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self._exit(frame, parent, name, t0, perf_counter())

    def _wrap(self, fn, name):
        tracer = self
        tag = _TAGS.get(name)
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame, parent = tracer._enter()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                full = name + tag(args, kwargs) if tag else name
                tracer._exit(frame, parent, full, t0, t1)
            if hook:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    # -- patching -----------------------------------------------------------

    def install(self):
        """Wrap the public functions and methods of every rotsum layer."""
        wrapped = {}              # id(original) -> (original, wrapper)
        for short in MODULES:
            mod = importlib.import_module(f"rotsum.{short}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if not inspect.isgeneratorfunction(obj):
                        wrapped[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}"))
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, short, mod.__file__)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "rotsum" and not mod_name.startswith("rotsum."):
                continue
            for attr, obj in list(vars(mod).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, entry[1])

    def _wrap_methods(self, cls, short, filename):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            static = isinstance(member, staticmethod)
            fn = member.__func__ if static else member
            if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                continue
            if fn.__code__.co_filename != filename:   # dataclass-generated
                continue
            wrapper = self._wrap(fn, f"{short}.{cls.__name__}.{attr}")
            self._patches.append((cls, attr, member))
            setattr(cls, attr, staticmethod(wrapper) if static else wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


# ---------------------------------------------------------------------------
# Per-layer metrics from one pass of spans
# ---------------------------------------------------------------------------

SAMPLING = ("stats.sample_sums", "stats.covariance_2d")


def layer_metrics(spans, counts):
    """Per-layer metrics of one traced pass (values only)."""
    incl = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    sum_at_us = []
    by_id = {}
    for sid, parent, _op, name, t0, t1, own in spans:
        by_id[sid] = (parent, name)
        incl[name] += t1 - t0
        self_s[name] += own
        calls[name] += 1
        if name == "ergosum.ErgodicContext.sum_at":
            sum_at_us.append((t1 - t0) * 1e6)

    def total(names, table=incl):
        return sum(table[n] for n in names)

    def under_sampling(sid):
        parent = by_id[sid][0]
        while parent is not None:
            if by_id[parent][1] in SAMPLING:
                return True
            parent = by_id[parent][0]
        return False

    module_self = defaultdict(float)
    for name, own in self_s.items():
        module_self[name.split(".", 1)[0]] += own
    sampled_floor_sums = sum(1 for sid, (_, name) in by_id.items()
                             if name == "ergosum.floor_sum" and under_sampling(sid))
    samples = counts.get("samples", 0)
    collisions = counts.get("billiard.collisions", 0)
    m = {f"{mod}.self_s": module_self[mod] for mod in MODULES}
    m.update({
        "contfrac.truncation_s": incl["contfrac.truncation"],
        "contfrac.q_bits": counts.get("contfrac.q_bits", 0),
        "sequences.plan_s": total(("sequences.plan_growth",
                                   "sequences.plan_parity")),
        "ergosum.sum_at_calls": calls["ergosum.ErgodicContext.sum_at"],
        "ergosum.sum_at_s": incl["ergosum.ErgodicContext.sum_at"],
        "ergosum.sum_at_p50_us": _quantile(sum_at_us, 0.50),
        "ergosum.sum_at_p99_us": _quantile(sum_at_us, 0.99),
        "ergosum.floor_sum_calls": calls["ergosum.floor_sum"],
        "ergosum.floor_sum_per_sample":
            sampled_floor_sums / samples if samples else 0.0,
        "ergosum.operand_bits": counts.get("ergosum.operand_bits", 0),
        "ergosum.profile_calls": calls["ergosum.orbit_sum_profile"],
        "ergosum.profile_points": counts.get("ergosum.profile_points", 0),
        "ergosum.profile_s": total((
            "ergosum.orbit_sum_profile", "ergosum.diff_profile",
            "ergosum.OrbitProfile.sup_abs", "ergosum.OrbitProfile.integral_sq")),
        "variance.fourier_table_s": total((
            "variance.AlphaFourierTable.__init__", "variance.AlphaFourierTable.gn",
            "variance.AlphaFourierTable.gn_mean")),
        "variance.norm_sq_exact_s": incl["variance.norm_sq[exact]"],
        "variance.norm_sq_fourier_s": incl["variance.norm_sq[fourier]"],
        "variance.diagnostics_s": incl["variance.diagnostic_inequalities"],
        "observables.hat_norm_sq_s": incl["observables.hat_norm_sq"],
        "observables.gamma_array_s": incl["observables.gamma_array"],
        "billiard.drift_gamma_calls": calls["billiard.PiecewiseLinear.fourier_gamma"],
        "billiard.drift_gamma_s": incl["billiard.PiecewiseLinear.fourier_gamma"],
        "billiard.ray_trace_calls": calls["billiard.ray_trace"],
        "billiard.collisions": collisions,
        "billiard.ray_us_per_collision":
            incl["billiard.ray_trace"] / collisions * 1e6 if collisions else 0.0,
        "billiard.cocycle_s": total(("billiard.step", "billiard.cell_after")),
        "stats.sample_self_s": total(SAMPLING, self_s),
        "stats.ks_s": total(("stats.ks_statistic", "stats.two_sample_ks"), self_s),
        "stats.mixture_cdf_s": incl["stats.mixture_cdf"],
        "stats.doubling_self_s": total(("stats.erdos_fortet_experiment",
                                        "stats.gaposhkin_demo"), self_s),
        "trace.run_s": incl["bench.pass"],
        "trace.harness_self_s": module_self["bench"],
    })
    return m


def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]
