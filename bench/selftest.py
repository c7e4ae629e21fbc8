"""Self-test of the benchmark harness at tiny sizes (about a minute).

Checks that:

1. every workload, untraced and traced, exits 0 with a correct result that
   carries exactly the metrics BENCHMARK.json names, each with its unit;
2. a corrupted reference digest is counted as a failed operation;
3. every operation's output (CLI stdout included) is byte-identical with
   tracing on and off, and the trace covers all eight rotsum modules.

    python3 bench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import MODULES, Tracer, layer_metrics  # noqa: E402


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        raise SystemExit(1)


def metrics_emitted(doc):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        units = {m["name"]: m["unit"] for m in doc[key]}
        for w in workloads.WORKLOADS:
            out = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", w,
                 "--seed", "0", "--seconds", "0.5", "--trace", str(trace),
                 "--size", "tiny"],
                capture_output=True, text=True, timeout=170, cwd=ROOT)
            check(out.returncode == 0, f"{w} trace={trace} exits 0 {out.stderr[-300:]}")
            res = json.loads(out.stdout.strip().splitlines()[-1])
            check(set(res) == {"correct", "attempted", "failed", "metrics"}
                  and res["correct"] and res["failed"] == 0
                  and res["attempted"] >= 1, f"{w} trace={trace} result is correct")
            got = {n: m["unit"] for n, m in res["metrics"].items()}
            check(got == units, f"{w} trace={trace} emits every {key} metric with its unit")


def corrupted_digest_counts():
    ops = workloads.build("rotation_clt", 0, "tiny")
    results = run.run_pass(ops).results
    reference = dict(run.group_digests(ops, results))
    check(run.count_failures(ops, results, reference) == [],
          "outputs match their own digests")
    bad = dict(reference, clt_phi0=["0" * 12])
    failures = run.count_failures(ops, results, bad)
    check(len(failures) == 1, "one corrupted digest is one failed operation")
    original = run.reference_for
    run.reference_for = lambda workload, seed, size: bad
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            run.main(["--workload", "rotation_clt", "--seed", "0",
                      "--seconds", "0.2", "--size", "tiny"])
    finally:
        run.reference_for = original
    res = json.loads(out.getvalue().strip().splitlines()[-1])
    check(not res["correct"] and res["failed"] * 4 == res["attempted"],
          "the corrupted digest fails that operation in every pass of a run")


def tracing_is_transparent():
    covered = set()
    for w in workloads.WORKLOADS:
        ops = workloads.build(w, 0, "tiny")
        plain = run.run_pass(ops).results
        tracer = Tracer()
        with tracer:
            traced = run.run_pass(ops, tracer).results
        check([t for t, _ in plain] == [t for t, _ in traced],
              f"{w}: outputs byte-identical with tracing on and off")
        m = layer_metrics(tracer.spans, tracer.counts)
        covered |= {mod for mod in MODULES if m[f"{mod}.self_s"] > 0}
        layers = sum(m[f"{mod}.self_s"] for mod in MODULES) + m["trace.harness_self_s"]
        check(abs(layers - m["trace.run_s"]) < 1e-6 * max(1.0, m["trace.run_s"]),
              f"{w}: layer self times add up to the traced pass time")
    check(covered == set(MODULES), "the trace covers all eight modules")


def main():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    corrupted_digest_counts()
    tracing_is_transparent()
    metrics_emitted(doc)
    print("selftest passed")


if __name__ == "__main__":
    main()
