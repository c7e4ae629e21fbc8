"""Steadiness check of the benchmark itself.

Runs every workload of BENCHMARK.json once per seed 1..RUNS for its
``run_seconds`` (seeds in round-robin order, so each workload's runs spread
over the whole check), then reports for every end-to-end metric the median
of the run values and the spread between their first and third quartile as
a share of the median.  A metric is steady when that spread is below a third
of its bound in BENCHMARK.json; ``setup_s`` is reported but not held to it.
Each workload is also traced twice at seed 1, and every exact work counter
must be identical between the two runs.  The run values, their quartiles,
the traced results and the first run's environment record go to
``bench/out/steady.json``.

    python3 bench/steady.py --runs 10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import EXACT_COUNTERS  # noqa: E402


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600,
                         cwd=ROOT)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
    return json.loads(lines[-1]), env


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    seconds = doc["run_seconds"]
    workloads = [w["name"] for w in doc["workloads"]]
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    values = {w: {m: [] for m in bounds} for w in workloads}
    ok = True
    envs = []
    for seed in range(1, args.runs + 1):
        for w in workloads:
            res, env = run_once(w, seed, seconds, 0)
            envs.append(env)
            if not res["correct"] or res["failed"]:
                print(f"{w} seed {seed}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']}")
                ok = False
            for m in bounds:
                values[w][m].append(res["metrics"][m]["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{m}={res['metrics'][m]['value']:.4g}" for m in bounds), flush=True)
    print(f"\n{'workload':18} {'metric':12} {'median':>10} {'spread':>8} "
          f"{'bound/3':>8}")
    for w in workloads:
        for m, bound in bounds.items():
            med, sp = spread(values[w][m])
            steady = m == "setup_s" or sp < bound / 3
            ok = ok and steady
            print(f"{w:18} {m:12} {med:10.4g} {sp:8.3f} {bound / 3:8.3f}"
                  f"{'' if steady else '  NOT STEADY'}")
    summary = {w: {m: dict(zip(("q1", "median", "q3"),
                              statistics.quantiles(v, n=4)), values=v)
                   for m, v in values[w].items()} for w in workloads}
    traced = {}
    for w in workloads:
        first, second = (run_once(w, 1, seconds, 1)[0] for _ in range(2))
        diff = [c for c in EXACT_COUNTERS
                if first["metrics"][c]["value"] != second["metrics"][c]["value"]]
        print(f"{w}: exact counters {'differ: ' + str(diff) if diff else 'identical'}")
        ok = ok and not diff and first["correct"] and second["correct"]
        traced[w] = [first, second]
    (BENCH / "out").mkdir(exist_ok=True)
    (BENCH / "out" / "steady.json").write_text(json.dumps(
        {"seeds": [1, args.runs], "seconds": seconds, "env": envs[0],
         "end_to_end": summary, "traced": traced},
        indent=1))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
