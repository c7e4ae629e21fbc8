"""Command-line front end.

Subcommands: cf, ostrowski, sum, variance, plan, clt, erdos-fortet,
gaposhkin, billiard, billiard-clt.  Outputs are RFC-4180 CSV (data tables,
big integers as decimal strings) or single-line JSON reports; identical
configuration and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import errno
import hashlib
import io
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from . import __version__
from . import billiard as bil
from . import contfrac as cf
from . import observables as obs
from . import sequences as seq
from . import stats as st
from . import variance as var
from .errors import ConfigError, PrecisionError, RotsumError, _at_least


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    command: str
    alpha: str | None = None    # None: the command's default
    observable: str = "phi0"
    beta: float = 2.0
    terms: int = 40
    samples: int = 20000
    seed: int = 0
    out: str | None = None
    format: str = "csv"
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        # a plan needs larger partial quotients than golden's; resolved here,
        # so that a left-out --alpha hashes as its default passed explicitly
        if self.alpha is None:
            plan_alpha = {"plan": "clt:c=30", "clt": "clt:c=30",
                          "billiard-clt": "parity:c=30"}
            self.alpha = plan_alpha.get(self.command, "golden")

    def to_json(self) -> str:
        # "threads" is a constant: no result depends on how many processes
        # draw the samples, and the field stays only because the recorded
        # config hashes include it
        return json.dumps({**asdict(self), "threads": "1"}, sort_keys=True)

    def hash(self) -> str:
        # output paths are not semantic: identical experiments hashed
        # identically wherever they (and their sample CSV) are written
        doc = json.loads(self.to_json())
        doc.pop("out", None)
        doc["options"].pop("samples_csv", None)
        return hashlib.sha256(
            json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


# The designed rotation numbers of the alpha specs 'clt:' and 'parity:'; the
# defaults of their keys c and beta are those of the builders.
_DESIGNS = {"clt": cf.clt_design_rule, "parity": cf.parity_design_rule}


def parse_alpha(text: str, levels: int):
    """'golden' | 'sqrt2m1' | 'list:1,2,3' | 'clt:c=30' | 'parity:c=30'."""
    max_index = levels + cf.GUARD
    name, _, rest = text.partition(":")
    if text == "golden":
        spec = cf.golden(max_index)
    elif text == "sqrt2m1":
        spec = cf.sqrt2m1(max_index)
    elif text.startswith("list:"):
        spec = cf.from_list([_int("partial quotient", v)
                             for v in text[5:].split(",") if v])
        levels = min(levels, spec.max_index - cf.GUARD)
        if levels < 1:
            raise ConfigError("explicit list too short for the guard")
    elif name in _DESIGNS:
        kw = _parse_kw(rest)
        unknown = sorted(set(kw) - {"c", "beta"})
        if unknown:
            raise ConfigError(f"alpha {name!r} takes only c and beta, got "
                              f"{', '.join(unknown)}")
        spec = _DESIGNS[name](max_index=max_index,
                              **{k: _int(k, v) for k, v in kw.items()})
    else:
        raise ConfigError(f"cannot parse alpha spec {text!r}")
    return cf.design_alpha(spec, levels)


def _int(what: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{what} must be an integer, got {text!r}") from None


def _fraction(what: str, text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(
            f"{what} must be a rational number, got {text!r}") from None


def _parse_kw(text: str) -> dict:
    out = {}
    for part in text.split(","):
        if not part:
            continue
        k, _, v = (side.strip() for side in part.partition("="))
        if k in out:
            raise ConfigError(f"key {k!r} given twice")
        out[k] = v
    return out


def parse_observable(text: str):
    """'phi0' | 'indicator:beta=1/3' | 'half' | 'double_interval:beta=..,gamma=..' ..."""
    name, _, rest = text.partition(":")
    kw = {k: _fraction(k, v) for k, v in _parse_kw(rest).items()}
    return obs.catalog(name, **kw)


def _emit(rows: list[dict], cfg: RunConfig, header: list[str]) -> str:
    if cfg.format == "json":
        return "\n".join(json.dumps(r, sort_keys=True, default=str)
                         for r in rows) + "\n"
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=header, lineterminator="\r\n")
    w.writeheader()
    for r in rows:
        w.writerow({k: str(v) for k, v in r.items()})
    return buf.getvalue()


def _write(text: str, cfg: RunConfig) -> None:
    if cfg.out:
        with open(cfg.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_report(rep: st.ExperimentReport, cfg: RunConfig) -> None:
    rep.extra["config_hash"] = cfg.hash()
    _write(rep.to_json() + "\n", cfg)


def _require_writable(cfg: RunConfig) -> None:
    """ConfigError before any work when the directory of --out or of
    samples_csv does not exist or cannot be written, with the message that
    open() would give after the run."""
    paths = [cfg.out] if cfg.out else []
    if "samples_csv" in cfg.options:
        paths.append(cfg.options["samples_csv"])
    for path in paths:
        folder = os.path.dirname(path) or "."
        if not path or not os.path.isdir(folder):
            code = errno.ENOENT
        elif not os.access(folder, os.W_OK):
            code = errno.EACCES
        else:
            continue
        raise ConfigError(str(OSError(code, os.strerror(code), path)))


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_cf(cfg: RunConfig) -> str:
    n = _at_least("terms", cfg.terms, 1)
    tr = parse_alpha(cfg.alpha, n)
    rows = []
    for k in range(1, min(n, tr.level) + 1):
        rows.append({"n": k, "a_n": tr.a(k), "p_n": tr.ps[k], "q_n": tr.qs[k]})
    _write(_emit(rows, cfg, ["n", "a_n", "p_n", "q_n"]), cfg)
    return f"cf: {len(rows)} convergents of {cfg.alpha}"


def _cmd_ostrowski(cfg: RunConfig) -> str:
    N = _int("N", cfg.options.get("N", "10"))
    tr = parse_alpha(cfg.alpha, max(cfg.terms, 40))
    digits = cf.ostrowski_digits(N, tr)
    rows = [{"k": k, "b_k": b, "q_k": tr.qs[k], "N_k": digits.partial_sums[k]}
            for k, b in enumerate(digits.digits)]
    _write(_emit(rows, cfg, ["k", "b_k", "q_k", "N_k"]), cfg)
    return f"ostrowski: N={N} -> digit sum {digits.digit_sum()}"


def _cmd_sum(cfg: RunConfig) -> str:
    N = _int("N", cfg.options.get("N", "1000"))
    grid = _int("grid", cfg.options.get("grid", "64"))
    tr = parse_alpha(cfg.alpha, max(cfg.terms, 48))
    phi = parse_observable(cfg.observable)
    sums = st.draw_sums(phi, tr, st.GridSampler(grid), N)[:, 0]
    rows = [{"x": f"{i}/{grid}", "sum": float(v)} for i, v in enumerate(sums)]
    _write(_emit(rows, cfg, ["x", "sum"]), cfg)
    return f"sum: S_N over {grid} grid points, N={N}"


def _cmd_variance(cfg: RunConfig) -> str:
    nmax = _at_least("nmax", _int("nmax", cfg.options.get("nmax", "200")), 1)
    tr = parse_alpha(cfg.alpha, 48)
    phi = parse_observable(cfg.observable)
    ns = sorted({max(1, round(nmax ** (i / 39))) for i in range(40)})
    prof = var.variance_profile(phi, tr, ns)
    rows = [{"n": n, "norm_sq": prof.norm_sq[i],
             "mean_variance": prof.mean_variance[i],
             "lower_series": prof.lower_series[i],
             "upper_series": prof.upper_series[i],
             "level": prof.levels[i]} for i, n in enumerate(prof.ns)]
    _write(_emit(rows, cfg, ["n", "norm_sq", "mean_variance", "lower_series",
                             "upper_series", "level"]), cfg)
    return f"variance: {len(rows)} rows up to n={nmax}"


def _plan_for(cfg: RunConfig, parity: bool):
    levels = 3 * cfg.terms + 8 if parity else cfg.terms + 8
    tr = parse_alpha(cfg.alpha, levels)
    if parity:
        return seq.plan_parity(tr, cfg.beta, cfg.terms)
    return seq.plan_growth(tr, cfg.beta, cfg.terms)


def _cmd_plan(cfg: RunConfig) -> str:
    parity = bool(_int("parity", cfg.options.get("parity", "0")))
    plan = _plan_for(cfg, parity)
    _write(plan.to_json() + "\n", cfg)
    return f"plan: {plan.count} terms, certified={plan.certified}"


def _cmd_clt(cfg: RunConfig) -> str:
    plan = _plan_for(cfg, parity=False)
    phi = parse_observable(cfg.observable)
    sampler = st.StratifiedSampler(seed=cfg.seed, size=cfg.samples)
    ss = st.sample_sums(plan, phi, sampler, cfg.terms)
    rep = st.clt_report(plan, phi, cfg.terms, ss, cfg.seed)
    if "samples_csv" in cfg.options:
        with open(cfg.options["samples_csv"], "w", newline="") as fh:
            fh.write("index,value\r\n")
            for i, v in enumerate(ss.values):
                fh.write(f"{i},{float(v)!r}\r\n")
    _write_report(rep, cfg)
    return (f"clt: KS={rep.empirical['ks']:.4f} "
            f"ratio={rep.empirical['variance_ratio']:.4f} passed={rep.passed}")


def _cmd_erdos_fortet(cfg: RunConfig) -> str:
    n = _int("n", cfg.options.get("n", "500"))
    rep = st.erdos_fortet_experiment(n, cfg.samples, cfg.seed)
    _write_report(rep, cfg)
    return (f"erdos-fortet: KS(mix)={rep.empirical['ks_mixture']:.4f} "
            f"gap={rep.empirical['gap']:.4f} passed={rep.passed}")


def _cmd_gaposhkin(cfg: RunConfig) -> str:
    n = _int("n", cfg.options.get("n", "500"))
    a = _int("a", cfg.options.get("a", "5"))
    rep = st.gaposhkin_demo(a, n, cfg.samples, cfg.seed)
    _write_report(rep, cfg)
    return (f"gaposhkin: KS={rep.empirical['ks_two_sample']:.4f} "
            f"mismatches={rep.empirical['mismatches']} passed={rep.passed}")


def _cmd_billiard(cfg: RunConfig) -> str:
    a = _fraction("a", cfg.options.get("a", "2/5"))
    b = _fraction("b", cfg.options.get("b", "2/5"))
    collisions = _int("collisions", cfg.options.get("collisions", "50"))
    if "x" in cfg.options:
        x = _fraction("x", cfg.options["x"])
    else:
        # seeded random section start
        rng = np.random.default_rng(_at_least("seed", cfg.seed, 0))
        x = Fraction(int(rng.integers(1, 2 ** 40)), 2 ** 40)
    params = bil.ObstacleParams(a=a, b=b)
    orbit = bil.ray_trace(x, params, collisions=collisions)
    rows = []
    for ev in orbit.events:
        rows.append({"t": ev.time, "x": float(ev.position[0]),
                     "y": float(ev.position[1]),
                     "cell_i": ev.obstacle[0], "cell_j": ev.obstacle[1],
                     "side": ev.side})
    _write(_emit(rows, cfg, ["t", "x", "y", "cell_i", "cell_j", "side"]), cfg)
    return f"billiard: {collisions} collisions from x={x}"


def _cmd_billiard_clt(cfg: RunConfig) -> str:
    plan = _plan_for(cfg, parity=True)
    params = bil.params_for_plan(plan.trunc)
    rep = bil.clt_experiment(params, plan, cfg.terms, cfg.samples, cfg.seed)
    _write_report(rep, cfg)
    return (f"billiard-clt: c11={rep.empirical['c11']:.3f} "
            f"c22={rep.empirical['c22']:.3f} passed={rep.passed}")


# argparse settings of the common flags; their defaults live in RunConfig
_FLAGS = {
    "alpha": dict(help="golden|sqrt2m1|list:..|clt:c=30|parity:c=30"),
    "observable": dict(help="phi0|indicator:beta=1/3|half|double_interval:...|"
                            "half_shifted:beta=1/5"),
    "beta": dict(type=float, help="growth exponent of the plan"),
    "terms": dict(type=int),
    "samples": dict(type=int),
    "seed": dict(type=int),
    "out": dict(),
    "format": dict(choices=("csv", "json")),
}

# Each subcommand's handler, the flags it reads and the --opt keys it reads;
# the parser defines no other flag and run() refuses any other key.
_HANDLERS = {
    "cf": (_cmd_cf, ("alpha", "terms", "out", "format"), ()),
    "ostrowski": (_cmd_ostrowski, ("alpha", "terms", "out", "format"), ("N",)),
    "sum": (_cmd_sum, ("alpha", "observable", "terms", "out", "format"),
            ("N", "grid")),
    "variance": (_cmd_variance, ("alpha", "observable", "out", "format"),
                 ("nmax",)),
    "plan": (_cmd_plan, ("alpha", "beta", "terms", "out"), ("parity",)),
    "clt": (_cmd_clt, ("alpha", "observable", "beta", "terms", "samples",
                       "seed", "out"), ("samples_csv",)),
    "erdos-fortet": (_cmd_erdos_fortet, ("samples", "seed", "out"), ("n",)),
    "gaposhkin": (_cmd_gaposhkin, ("samples", "seed", "out"), ("n", "a")),
    "billiard": (_cmd_billiard, ("seed", "out", "format"),
                 ("a", "b", "collisions", "x")),
    "billiard-clt": (_cmd_billiard_clt, ("alpha", "beta", "terms", "samples",
                                         "seed", "out"), ()),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rotsum",
        description="Exact ergodic sums over circle rotations: continued "
                    "fractions, variance bounds, subsequence CLT experiments "
                    "and the rectangular periodic billiard.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, flags, keys) in _HANDLERS.items():
        # no prefix matching: a flag is read only under its full name; unset
        # flags stay off the namespace, so RunConfig supplies their defaults
        p = sub.add_parser(name, allow_abbrev=False,
                           argument_default=argparse.SUPPRESS)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        if keys:
            p.add_argument("--opt", action="append",
                           help="key=value options: " + ", ".join(keys))
    return ap


def config_from_args(args) -> RunConfig:
    doc = dict(vars(args))
    options = _parse_kw(",".join(doc.pop("opt", [])))
    return RunConfig(options=options, **doc)


def run(cfg: RunConfig) -> int:
    try:
        handler, _, keys = _HANDLERS[cfg.command]
        unknown = sorted(set(cfg.options) - set(keys))
        if unknown:
            raise ConfigError(f"{cfg.command} reads no --opt {', '.join(unknown)}"
                              f" (it reads: {', '.join(keys) or 'none'})")
        _require_writable(cfg)
        summary = handler(cfg)
    except PrecisionError as exc:
        hint = (f" (rebuild at level >= {exc.required_level})"
                if exc.required_level else "")
        print(f"error: {exc}{hint}", file=sys.stderr)
        return 2
    except (RotsumError, OSError) as exc:   # OSError: an output not written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{summary} [config {cfg.hash()}, v{__version__}]", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    # exact big integers are the output format, so no digit limit applies to
    # reading or printing them
    sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
    except ConfigError as exc:      # a repeated --opt key
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
