"""Byte identity of the benchmark workloads: one full-size pass of each at
seed 0 must reproduce the output digests recorded in bench/reference.json."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = ("rotation_clt", "billiard_clt", "variance_backends", "billiard_rays")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_matches_reference_digests(workload, monkeypatch):
    # importing bench/workloads.py sets these thread variables; setting them
    # here first lets monkeypatch restore them.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    import workloads

    ops = workloads.build(workload, 0, "full")
    reference = run.reference_for(workload, 0, "full")
    assert reference
    results = run.run_pass(ops).results
    assert run.count_failures(ops, results, reference) == []
