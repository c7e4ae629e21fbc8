"""rotsum benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload rotation_clt --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the workload's passes run untraced for ``--seconds`` and
the end-to-end metrics are reported.  With ``--trace 1`` half the time runs
untraced passes and the rest traced passes, and the per-layer metrics are
reported; the spans of the last traced pass are written to
``bench/out/trace_<workload>.json``.  Every metric is printed by name with
its unit; the last line of stdout is the JSON result.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
OUT = BENCH / "out"
SETUP_PROBES = 9
CAL_EVERY = 0.15
# Counters that must repeat exactly between traced passes and between runs
# of the same seed.
EXACT_COUNTERS = ("ergosum.floor_sum_calls", "ergosum.profile_points",
                  "ergosum.operand_bits", "contfrac.q_bits",
                  "billiard.collisions", "billiard.drift_gamma_calls",
                  "ergosum.sum_at_calls", "ergosum.profile_calls",
                  "billiard.ray_trace_calls")
STAGES = ("op.clt_phi0_s", "op.clt_indicator_s", "op.dk_sup_s",
          "op.variance_fourier_s")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def attempt(op):
    """Run one operation; an exception counts as a failed operation."""
    try:
        return op.fn()
    except Exception as exc:  # boundary: record and keep measuring
        return None, "".join(traceback.format_exception_only(exc)).strip()


class Pass(NamedTuple):
    seconds: float          # time in operations, calibration excluded
    stages: dict            # seconds per end-to-end stage
    results: list           # (text, problem) per operation
    cal: float | None       # mean calibration time during the pass


def run_pass(ops, tracer=None):
    """Run every operation once, in order.

    An untraced pass samples the calibration loop before its first
    operation and then every ``CAL_EVERY`` seconds from a SIGALRM handler,
    which runs between the bytecodes of whatever operation is executing.
    ``cal`` is the mean sample, so it follows the machine's speed through
    the pass; ``seconds`` and the stage times exclude the sampling time.
    """
    stages = defaultdict(float)
    results = []
    samples = []

    def loop():
        for i, op in enumerate(ops):
            a, sampled = perf_counter(), sum(samples)
            if tracer is None:
                res = attempt(op)
            else:
                tracer.op = i
                res = tracer.run_span("bench.op", attempt, op)
            stages[op.stage] += perf_counter() - a - (sum(samples) - sampled)
            results.append(res)

    if tracer is not None:
        t0 = perf_counter()
        tracer.run_span("bench.pass", loop)
        return Pass(perf_counter() - t0, stages, results, None)
    first = calibrate()
    previous = signal.signal(signal.SIGALRM, lambda *_: samples.append(calibrate()))
    t0 = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, CAL_EVERY, CAL_EVERY)
    try:
        loop()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    seconds = perf_counter() - t0 - sum(samples)
    return Pass(seconds, stages, results, statistics.fmean([first] + samples))


def group_digests(ops, results):
    groups = defaultdict(list)
    for op, (text, _) in zip(ops, results):
        groups[op.group].append(None if text is None else digest(text))
    return groups


def reference_for(workload, seed, size):
    """{group: [digest per op]} recorded for this workload and seed."""
    if size != "full" or not REFERENCE.exists():
        return {}
    ref = json.loads(REFERENCE.read_text()).get(workload, {})
    out = {g: d.split() for g, d in ref.get("*", {}).items()}
    out.update({g: d.split() for g, d in ref.get(str(seed), {}).items()})
    return out


def count_failures(ops, results, reference, baseline=None):
    """Failed operations of one pass: an exception, a failed oracle, an
    output whose digest differs from the reference, or (traced passes) an
    output that differs from the untraced pass ``baseline``."""
    problems = []
    seen = defaultdict(int)
    for i, (op, (text, problem)) in enumerate(zip(ops, results)):
        k = seen[op.group]
        seen[op.group] += 1
        expected = reference.get(op.group)
        if problem is None and expected is not None and (
                k >= len(expected) or expected[k] != digest(text)):
            problem = f"output digest differs from the reference ({op.group}[{k}])"
        if problem is None and baseline is not None and text != baseline[i][0]:
            problem = "output differs with tracing on"
        if problem is not None:
            problems.append(f"op {i} {op.group}: {problem}")
    return problems


def probe_setup(workload, seed, size):
    cmd = [sys.executable, str(BENCH / "probe_setup.py"),
           "--workload", workload, "--seed", str(seed), "--size", size]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.strip().splitlines()[-1])


def calibrate():
    """Seconds for a fixed pure-Python loop of dictionary, tuple and
    small-integer operations (about 10 ms).  It calls no rotsum code, so it
    measures how fast the interpreter runs at the moment.  Of the loops
    tried (big-integer products, Fraction steps, list sorting, and this
    one), this one followed the pass times of all four workloads most
    closely, big-integer ones included: the library's time is mostly
    interpreter dispatch and small objects."""
    t0 = perf_counter()
    table = {}
    for i in range(35000):
        k = (i * 7919) % 1013
        table[k] = (table.get(k, (0,))[0] + i, i)
    return perf_counter() - t0


def environment():
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "rotsum").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest()[:16],
        "calibration_s": statistics.median(calibrate() for _ in range(9)),
    }


def git_commit():
    try:
        # the ceiling keeps git from reporting an enclosing repository
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30,
                             env=dict(os.environ,
                                      GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(name, values, unit, note=""):
    q1, med, q3 = quartiles(values)
    print(f"metric {name} = {med!r} {unit}  (median of {len(values)}; "
          f"q1 {q1:.6g}, q3 {q3:.6g}){note}")
    return med


def timed_passes(ops, seconds, tracer=None, on_pass=None, min_passes=1):
    """Passes until ``seconds`` have elapsed and ``min_passes`` have run."""
    passes = []
    start = perf_counter()
    while len(passes) < min_passes or perf_counter() - start < seconds:
        if tracer is not None:
            tracer.reset()
        passes.append(run_pass(ops, tracer))
        if on_pass is not None:
            on_pass(tracer)
    return passes


def measure(args, ops, units, reference):
    """--trace 0: end-to-end metrics."""
    setups = [probe_setup(args.workload, args.seed, args.size)
              for _ in range(SETUP_PROBES)]
    passes = timed_passes(ops, args.seconds)
    values = {
        "setup_s": summarize("setup_s", setups, "s", " fresh processes"),
        "run_cal": summarize("run_cal", [p.seconds / p.cal for p in passes],
                             "cal", " passes"),
    }
    summarize("run_s", [p.seconds for p in passes], "s", " passes")
    summarize("calibration_s", [p.cal for p in passes], "s", " passes")
    for stage in STAGES:
        stage_times = [p.stages[stage] for p in passes if stage in p.stages]
        if stage_times:
            summarize(stage, stage_times, "s", " passes")
    values["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"metric peak_rss_mb = {values['peak_rss_mb']!r} MB")
    failures = []
    for p in passes:
        failures += count_failures(ops, p.results, reference)
    return values, len(passes), failures, []


def measure_traced(args, ops, units, reference):
    """--trace 1: untraced passes for half the time, then traced passes;
    at least two of each, so that the overhead compares medians and the
    exact counters are compared between passes on every workload."""
    from tracer import COLUMNS, MODULES, Tracer, layer_metrics

    plain = timed_passes(ops, args.seconds / 2, min_passes=2)
    per_pass = []
    tracer = Tracer()
    with tracer:
        traced = timed_passes(
            ops, args.seconds / 2, tracer,
            on_pass=lambda t: per_pass.append(layer_metrics(t.spans, t.counts)),
            min_passes=2)
    failures = []
    for p in plain:
        failures += count_failures(ops, p.results, reference)
    for p in traced:
        failures += count_failures(ops, p.results, reference, plain[0].results)
    run_problems = []
    for key in EXACT_COUNTERS:
        seen = {m[key] for m in per_pass}
        if len(seen) > 1:
            run_problems.append(f"counter {key} differs between passes: {sorted(seen)}")
    values = {key: statistics.median(m[key] for m in per_pass)
              for key in per_pass[0]}
    values["trace.overhead_s"] = values["trace.run_s"] - statistics.median(
        p.seconds for p in plain)
    for stage in STAGES:
        values[stage] = statistics.median(p.stages.get(stage, 0.0) for p in plain)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace_{args.workload}.json"
    with open(path, "w") as fh:
        fh.write(f'{{"workload": {json.dumps(args.workload)}, "seed": {args.seed}, '
                 f'"columns": {json.dumps(COLUMNS)}, "spans": [\n')
        fh.write(",\n".join(json.dumps(s) for s in tracer.spans))
        fh.write("\n]}\n")
    print(f"trace: {len(plain)} untraced and {len(traced)} traced passes; "
          f"{len(tracer.spans)} spans of the last traced pass in {path}")
    for key in sorted(values):
        print(f"metric {key} = {values[key]!r} {units.get(key, '')}")
    layers = sum(values[f"{m}.self_s"] for m in MODULES) + values["trace.harness_self_s"]
    print(f"trace: layer self times + harness self time = {layers!r} s "
          f"of trace.run_s = {values['trace.run_s']!r} s")
    return values, len(plain) + len(traced), failures, run_problems


def record_reference(args, ops):
    """Write this seed's output digests into bench/reference.json."""
    import workloads

    results = run_pass(ops).results
    bad = [p for _, p in results if p is not None]
    if bad:
        sys.exit(f"not recording: operations failed: {bad[:3]}")
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    entry = ref.setdefault(args.workload, {})
    seed_free = workloads.SEED_FREE_GROUPS.get(args.workload, ())
    for group, digests in group_digests(ops, results).items():
        text = " ".join(digests)
        key = "*" if group in seed_free else str(args.seed)
        old = entry.setdefault(key, {}).get(group)
        if key == "*" and old is not None and old != text:
            sys.exit(f"seed-free group {group} changed with seed {args.seed}")
        entry[key][group] = text
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"recorded {args.workload} seed {args.seed}")


def load_spec():
    """{metric name: unit} and the metric lists from BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}
    return units, [m["name"] for m in doc["end_to_end"]], \
        [m["name"] for m in doc["per_layer"]]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--record-reference", action="store_true",
                    help="record this seed's output digests and exit")
    args = ap.parse_args(argv)
    if not (SRC / "rotsum" / "__init__.py").is_file():
        print(f"error: no rotsum sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the value is embedded in every CLI report, so it is part of the input
    os.environ.pop("ROTSUM_THREADS", None)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    ops = workloads.build(args.workload, args.seed, args.size)
    if args.record_reference:
        record_reference(args, ops)
        return 0
    units, end_to_end, per_layer = load_spec()
    print(f"rotsum benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size} "
          f"ops/pass={len(ops)}")
    print("env " + json.dumps(environment(), sort_keys=True))
    reference = reference_for(args.workload, args.seed, args.size)
    print(f"reference digests: {'checked' if reference else 'none for this seed'}")
    measure_fn, names = ((measure_traced, per_layer) if args.trace
                         else (measure, end_to_end))
    values, passes, failures, run_problems = measure_fn(args, ops, units, reference)
    attempted = len(ops) * passes
    print(f"metric fail_ratio = {len(failures) / attempted!r} ratio  "
          f"({len(failures)} of {attempted} operations)")
    for line in (failures + run_problems)[:10]:
        print(f"failure: {line}", file=sys.stderr)
    missing = [n for n in names if n not in values]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 2
    result = {
        "correct": not failures and not run_problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
