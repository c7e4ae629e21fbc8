"""Typed failures: no bare asserts in the library, and certificate checks
raise CertificateError."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from rotsum import contfrac as cf
from rotsum import ergosum as es
from rotsum import observables as obs
from rotsum.errors import CertificateError, RotsumError

SRC = Path(__file__).resolve().parents[1] / "src" / "rotsum"


def test_library_has_no_assert_statements():
    # asserts vanish under python -O; exactness checks must raise typed errors
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            bare = isinstance(node, ast.Assert)
            raised = (isinstance(node, ast.Raise) and node.exc is not None
                      and "AssertionError" in ast.unparse(node.exc))
            if bare or raised:
                found.append(f"{path.name}:{node.lineno}")
    assert len(list(SRC.glob("*.py"))) >= 9
    assert not found, found


def test_certificate_failure_is_typed(monkeypatch):
    tr = cf.truncation(cf.golden(30), 20)
    phi = obs.half()
    lhs, rhs = es.ostrowski_bound_check(phi, Fraction(1, 7), 10, tr)
    assert lhs <= rhs
    # an engine reporting a sum past the Ostrowski bound must fail the check
    monkeypatch.setattr(es, "ergodic_sum", lambda *args: es.ErgodicSumResult(
        100 * rhs, 10, "floorsum", True))
    with pytest.raises(CertificateError) as exc:
        es.ostrowski_bound_check(phi, Fraction(1, 7), 10, tr)
    assert isinstance(exc.value, RotsumError)
