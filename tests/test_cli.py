import ast
import csv
import dataclasses
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from rotsum import cli
from rotsum import stats as st
from rotsum.errors import ConfigError

ROOT = Path(__file__).resolve().parent.parent


def run_cli(args, tmp_path, name):
    out = tmp_path / name
    rc = cli.main(args + ["--out", str(out)])
    assert rc == 0
    return out.read_bytes()


def test_cf_csv(tmp_path):
    data = run_cli(["cf", "--alpha", "golden", "--terms", "6"], tmp_path, "a.csv")
    lines = data.decode().strip().splitlines()
    assert lines[0] == "n,a_n,p_n,q_n"
    assert lines[1] == "1,1,1,1"
    assert lines[6] == "6,1,8,13"


def test_cf_explicit_list(tmp_path):
    data = run_cli(["cf", "--alpha", "list:2,2,2,2,2,2,2,2,2,2", "--terms", "4"],
                   tmp_path, "b.csv")
    rows = data.decode().strip().splitlines()
    assert rows[-1].startswith("4,2,12,29")


def test_determinism_byte_identical(tmp_path):
    args = ["clt", "--alpha", "clt:c=30", "--terms", "10", "--samples", "500",
            "--seed", "3"]
    a = run_cli(list(args), tmp_path, "r1.json")
    b = run_cli(list(args), tmp_path, "r2.json")
    assert a == b
    doc = json.loads(a)
    assert doc["kind"] == "clt_subsequence"
    assert "config_hash" in doc and doc["version"]


@pytest.mark.parametrize("argv", [
    ["clt", "--alpha", "clt:c=30", "--terms", "4", "--samples", "40"],
    ["billiard-clt", "--alpha", "parity:c=30", "--terms", "4", "--samples",
     "40"],
], ids=lambda argv: argv[0])
def test_output_ignores_thread_variable(argv, capsys, monkeypatch):
    # no environment variable reaches a report or its config hash
    monkeypatch.delenv("ROTSUM_THREADS", raising=False)
    assert cli.main(list(argv)) == 0
    plain = capsys.readouterr()
    monkeypatch.setenv("ROTSUM_THREADS", "4")
    assert cli.main(list(argv)) == 0
    assert capsys.readouterr() == plain
    assert '"config_hash"' in plain.out


def test_ostrowski_and_sum(tmp_path):
    data = run_cli(["ostrowski", "--alpha", "golden", "--opt", "N=10"],
                   tmp_path, "o.csv")
    assert "1,8,10" in data.decode()
    data = run_cli(["sum", "--alpha", "golden", "--observable",
                    "indicator:beta=1/3", "--opt", "N=987,grid=8"],
                   tmp_path, "s.csv")
    rows = data.decode().strip().splitlines()
    assert len(rows) == 9
    # at a denominator the sums stay within the variation bound
    for row in rows[1:]:
        assert abs(float(row.split(",")[1])) <= 2.0


def test_variance_csv(tmp_path):
    data = run_cli(["variance", "--alpha", "golden", "--observable", "phi0",
                    "--opt", "nmax=50"], tmp_path, "v.csv")
    head = data.decode().splitlines()[0]
    assert head == "n,norm_sq,mean_variance,lower_series,upper_series,level"


def test_plan_json(tmp_path):
    data = run_cli(["plan", "--alpha", "parity:c=12", "--terms", "8",
                    "--opt", "parity=1"], tmp_path, "p.json")
    doc = json.loads(data)
    assert doc["certified"]["parity"] is True
    assert len(doc["t"]) == 8


def test_gaposhkin_and_erdos(tmp_path):
    data = run_cli(["gaposhkin", "--samples", "800", "--seed", "4",
                    "--opt", "n=200"], tmp_path, "g.json")
    doc = json.loads(data)
    assert doc["kind"] == "gaposhkin_modified_sequence"
    data = run_cli(["erdos-fortet", "--samples", "800", "--seed", "4",
                    "--opt", "n=200"], tmp_path, "e.json")
    assert json.loads(data)["kind"] == "erdos_fortet"


def test_billiard_events_csv(tmp_path):
    data = run_cli(["billiard", "--opt", "a=2/5,b=2/5,collisions=8,x=1/7"],
                   tmp_path, "bl.csv")
    rows = data.decode().strip().splitlines()
    assert rows[0] == "t,x,y,cell_i,cell_j,side"
    assert len(rows) == 9
    times = [float(r.split(",")[0]) for r in rows[1:]]
    assert all(b > a for a, b in zip(times, times[1:]))


def test_billiard_events_csv_pinned(capsys):
    # the exact events CSV on a shape with a + b = 1, recorded before orbits
    # kept integer hit records and built their events on access
    assert cli.main(["billiard", "--opt",
                     "a=2/5,b=3/5,collisions=50,x=1/9"]) == 0
    out = capsys.readouterr().out.encode()
    assert len(out) == 2775
    assert hashlib.sha256(out).hexdigest() == (
        "4083237664352f96b87e44cb61384272128d33b60a9cc57ba8feeeb8893d6239")


def test_billiard_clt_smoke(tmp_path):
    data = run_cli(["billiard-clt", "--alpha", "parity:c=12", "--terms", "8",
                    "--samples", "300", "--seed", "1"], tmp_path, "bc.json")
    doc = json.loads(data)
    assert doc["kind"] == "billiard_clt"
    assert "psi0_norm_sq_over_n" in doc["extra"]


@pytest.mark.parametrize("argv", [
    ["cf", "--alpha", "golden", "--terms", "12"],
    ["ostrowski", "--alpha", "golden", "--opt", "N=1000"],
    ["sum", "--alpha", "sqrt2m1", "--observable", "indicator:beta=1/3",
     "--opt", "N=1000,grid=8"],
    ["variance", "--alpha", "golden", "--observable", "half",
     "--opt", "nmax=30"],
    ["billiard", "--opt", "a=2/5,b=3/5,collisions=12,x=1/9"],
], ids=lambda argv: argv[0])
def test_json_rows_carry_the_csv_values(argv, capsys):
    assert cli.main(argv) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert cli.main(argv + ["--format", "json"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert rows and len(lines) == len(rows)
    for line, row in zip(lines, rows):
        assert {k: str(v) for k, v in json.loads(line).items()} == row


def test_billiard_seeded_start(capsys):
    # without --opt x the start is drawn from the seed
    argv = ["billiard", "--opt", "collisions=10"]
    outs = []
    for seed in ("5", "5", "6"):
        assert cli.main(argv + ["--seed", seed]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] != outs[2]
    assert outs[0].count("\r\n") == 11


@pytest.mark.parametrize("argv", [
    ["clt", "--terms", "4", "--samples", "10"],
    ["erdos-fortet", "--samples", "10"],
    ["gaposhkin", "--samples", "10"],
    # the seeded start used to escape as numpy's ValueError
    ["billiard"],
    ["billiard-clt", "--terms", "4", "--samples", "10"],
], ids=lambda argv: argv[0])
def test_negative_seed_exits_with_config_error(argv, capsys):
    assert cli.main(argv + ["--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be >= 0, got -1\n"


def test_sum_past_the_window_names_the_level_that_holds_it(capsys):
    # the default golden truncation is at level 53, whose window ends near
    # 5.3e10; 10**29 - 1 needs q_140 > 10**29 - 1, so level 141
    assert cli.main(["sum", "--opt", f"N={10 ** 29}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: precision exhausted: orbit length")
    assert captured.err.endswith(" (rebuild at level >= 141)\n")


def test_big_integers_are_read_and_printed_in_full(capsys):
    # past Python's 4300-digit limit on int <-> str conversion
    a1 = "9" * 5000
    assert cli.main(["cf", "--alpha", f"list:{a1},1,1,1,1,1,1,1",
                     "--terms", "2"]) == 0
    rows = capsys.readouterr().out.split("\r\n")
    assert rows[1] == f"1,{a1},1,{a1}"


def test_variance_refuses_tables_above_the_cap(capsys):
    # refused before any table is built; nothing used to bound the tables,
    # and nmax=10000000 asked for 10**9 frequencies
    assert cli.main(["variance", "--opt", "nmax=1001"]) == 2
    assert capsys.readouterr().err == (
        "error: a Fourier table of 100100 frequencies exceeds the cap 100000\n")


def test_invalid_config_exit_code(capsys):
    rc = cli.main(["cf", "--alpha", "bogus-name"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_plan_rejects_unknown_alpha(capsys):
    for argv in (["plan", "--alpha", "gloden"],
                 ["plan", "--alpha", "gloden", "--opt", "parity=1"],
                 ["plan", "--opt", "parity=1", "--terms", "0"]):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


# each used to escape as a TypeError, a ZeroDivisionError, a math domain
# error or a NaN sample, or (nmax=0) to print a row for n = 1, or (cf) to
# print a header-only table
@pytest.mark.parametrize("argv", [
    ["cf", "--terms", "0"],
    ["cf", "--terms", "-2"],
    ["variance", "--opt", "nmax=-5"],
    ["variance", "--opt", "nmax=0"],
    ["gaposhkin", "--samples", "50", "--opt", "n=0"],
    ["gaposhkin", "--samples", "0"],
    ["erdos-fortet", "--samples", "50", "--opt", "n=-3"],
    ["erdos-fortet", "--samples", "50", "--opt", "n=0"],
    ["erdos-fortet", "--samples", "0"],
], ids=" ".join)
def test_edge_counts_exit_with_config_error(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "must be >= 1" in captured.err


def test_clt_rejects_vector_observable(capsys):
    rc = cli.main(["clt", "--alpha", "clt:c=30", "--terms", "3", "--samples",
                   "5", "--observable", "billiard_displacement:alpha=1/3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not a scalar observable" in err


def test_clt_samples_csv_samples_once(tmp_path, monkeypatch):
    calls = []
    real = st.sample_sums
    monkeypatch.setattr(st, "sample_sums",
                        lambda *args: calls.append(args) or real(*args))
    csv_path = tmp_path / "samples.csv"
    args = ["clt", "--alpha", "clt:c=30", "--terms", "10", "--samples", "300",
            "--seed", "3", "--observable", "indicator:beta=1/3",
            "--opt", f"samples_csv={csv_path}"]
    report = run_cli(list(args), tmp_path, "r.json")
    monkeypatch.undo()
    assert len(calls) == 1
    plan, phi, sampler, n = calls[0]
    values = real(plan, phi, sampler, n).values
    text = csv_path.read_bytes().decode()
    assert "np.float64" not in text
    assert text.split("\r\n") == (
        ["index,value"] + [f"{i},{float(v)!r}" for i, v in enumerate(values)]
        + [""])
    # the report is the one clt_experiment makes from the same samples
    rep = st.clt_experiment(plan, phi, 10, 300, 3)
    cfg = cli.config_from_args(cli.build_parser().parse_args(args))
    rep.extra["config_hash"] = cfg.hash()
    assert report.decode() == rep.to_json() + "\n"


def test_clt_report_ignores_samples_csv_path(tmp_path, capsys):
    # the CSV path is not semantic: config_hash, and so the report, is the
    # same wherever the samples are written
    reports = []
    for name in ("a.csv", "elsewhere.csv"):
        rc = cli.main(["clt", "--alpha", "clt:c=30", "--terms", "6",
                       "--samples", "100", "--seed", "2",
                       "--opt", f"samples_csv={tmp_path / name}"])
        assert rc == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["extra"]["config_hash"]
    assert (tmp_path / "a.csv").read_bytes() == \
        (tmp_path / "elsewhere.csv").read_bytes()


def test_unknown_opt_key_is_refused(capsys):
    # a misspelt key used to run silently on the default nmax=200
    assert cli.main(["variance", "--opt", "nmx=5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "nmx" in captured.err


def test_billiard_flags_only_on_billiard(capsys):
    # billiard-clt never read --a, --b, --collisions or --x, and billiard
    # reads its shape through --opt alone
    for argv in (["billiard-clt", "--a", "1/3"], ["billiard", "--a", "1/3"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


# each used to exit 0 with the unread input hashed into the config
@pytest.mark.parametrize("argv", [
    ["cf", "--seed", "5"],
    ["cf", "--n", "3"],
    ["cf", "--opt", "N=3"],
    ["erdos-fortet", "--alpha", "golden"],
    ["clt", "--format", "json"],
], ids=" ".join)
def test_unread_flags_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_unread_observable_parameter_is_refused(capsys):
    assert cli.main(["clt", "--alpha", "clt:c=30", "--terms", "3",
                     "--samples", "5",
                     "--observable", "indicator:beta=1/3,gamma=7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "gamma" in captured.err


# the designed alpha specs take only their builders' keys c and beta; each
# other key used to be ignored, yet hashed into the config
@pytest.mark.parametrize("alpha, key", [
    ("clt:c=30,zzz=1", "zzz"),
    ("clt:max_index=3", "max_index"),
    ("parity:c=30,gamma=1", "gamma"),
])
def test_unread_alpha_key_is_refused(alpha, key, capsys):
    assert cli.main(["cf", "--alpha", alpha, "--terms", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and key in captured.err


@pytest.mark.parametrize("alpha, levels, what", [
    ("clt:c=abc", 3, "c"),
    ("parity:beta=2.5", 3, "beta"),
    ("list:1,2.5,3,4,5,6,7", 1, "partial quotient"),
])
def test_non_integer_alpha_values_raise_config_error(alpha, levels, what,
                                                      capsys):
    with pytest.raises(ConfigError, match=f"{what} must be an integer"):
        cli.parse_alpha(alpha, levels)
    assert cli.main(["cf", "--alpha", alpha, "--terms", "3"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {what} must be")


# a zero denominator used to escape as a ZeroDivisionError traceback, and
# a malformed integer reached run() as a bare ValueError
@pytest.mark.parametrize("argv, what", [
    (["billiard", "--opt", "x=1/0"], "x must be a rational"),
    (["billiard", "--opt", "a=1/0"], "a must be a rational"),
    (["billiard", "--opt", "b=abc"], "b must be a rational"),
    (["billiard", "--opt", "collisions=5.5"], "collisions must be an integer"),
    (["billiard-clt", "--alpha", "parity:c=30", "--terms", "6",
      "--samples", "10", "--opt", "scale=0/0"], "scale must be a rational"),
    (["clt", "--alpha", "clt:c=30", "--terms", "6", "--samples", "10",
      "--observable", "indicator:beta=1/0"], "beta must be a rational"),
    (["clt", "--alpha", "clt:c=30", "--terms", "6", "--samples", "10",
      "--observable", "indicator:beta=abc"], "beta must be a rational"),
    (["ostrowski", "--opt", "N=1e3"], "N must be an integer"),
    (["sum", "--opt", "N=abc"], "N must be an integer"),
    (["sum", "--opt", "grid=1/2"], "grid must be an integer"),
    (["variance", "--opt", "nmax=x"], "nmax must be an integer"),
    (["plan", "--opt", "parity=yes"], "parity must be an integer"),
    (["erdos-fortet", "--opt", "n=1/0"], "n must be an integer"),
    (["gaposhkin", "--opt", "a=1/0"], "a must be an integer"),
    # each used to reach numpy's allocation of every numerator
    (["clt", "--terms", "4", "--samples", "1000000000000"],
     "a sample of 1000000000000 points exceeds the cap"),
    (["sum", "--opt", "grid=1000000000000"],
     "a sample of 1000000000000 points exceeds the cap"),
    # a repeated key used to keep its last value; a design exponent below 1
    # used to build a bounded-type rotation of all-ones quotients
    (["sum", "--alpha", "golden", "--opt", "N=3,N=4"], "key 'N' given twice"),
    (["sum", "--opt", "N=3", "--opt", "N=4"], "key 'N' given twice"),
    (["cf", "--alpha", "clt:c=2,c=30"], "key 'c' given twice"),
    (["clt", "--alpha", "clt:c=30", "--terms", "6", "--samples", "10",
      "--observable", "indicator:beta=1/3,beta=1/4"], "key 'beta' given twice"),
    (["cf", "--alpha", "clt:c=1,beta=-3"], "exponent beta must be >= 1"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_bad_option_values_exit_with_config_error(argv, what, capsys):
    # a repeated --opt key is refused as the config is read, every other
    # input by the handler
    with pytest.raises(ConfigError, match=what):
        cfg = cli.config_from_args(cli.build_parser().parse_args(argv))
        cli._HANDLERS[cfg.command][0](cfg)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {what}")


@pytest.mark.parametrize("argv", [
    ["cf", "--alpha", "golden", "--terms", "3", "--out", "{path}"],
    ["clt", "--terms", "4", "--samples", "10", "--opt", "samples_csv={path}"],
], ids=lambda argv: argv[0])
def test_unwritable_output_exits_with_an_error_line(argv, tmp_path, capsys):
    # used to end in a FileNotFoundError traceback with exit 1
    path = tmp_path / "missing" / "x.csv"
    assert cli.main([a.format(path=path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: [Errno 2] No such file or directory: '{path}'\n")


@pytest.mark.parametrize("argv", [
    ["clt", "--alpha", "clt:c=30", "--terms", "40", "--samples", "5000",
     "--seed", "3", "--opt", "samples_csv={path}"],
    ["erdos-fortet", "--samples", "10000", "--seed", "3", "--opt", "n=500",
     "--out", "{path}"],
], ids=lambda argv: argv[0])
def test_unwritable_output_fails_before_the_experiment(argv, tmp_path, capsys,
                                                       monkeypatch):
    # each used to run its experiment for most of a second before failing
    def never(*args):
        raise AssertionError("the experiment ran")
    monkeypatch.setattr(st, "sample_sums", never)
    monkeypatch.setattr(st, "_f0_columns", never)
    path = tmp_path / "missing" / "x.csv"
    assert cli.main([a.format(path=path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: [Errno 2] No such file or directory: '{path}'\n")


def test_output_failing_during_the_write_exits_with_an_error_line(tmp_path,
                                                                  capsys):
    # the directory exists, so only the write finds that the path is one
    assert cli.main(["cf", "--terms", "3", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"


def test_designed_alpha_defaults_come_from_the_builders(capsys):
    assert cli.main(["cf", "--alpha", "clt:c=30", "--terms", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ("n,a_n,p_n,q_n\r\n1,1,1,1\r\n2,30,30,31\r\n"
                            "3,120,3601,3721\r\n")
    assert "[config 476f836f45a6d0ab," in captured.err
    assert cli.parse_alpha("parity", 3).spec.params == {"c": 30, "beta": 2}


@pytest.mark.parametrize("argv, alpha", [
    (["plan"], "clt:c=30"),
    (["plan", "--opt", "parity=1"], "clt:c=30"),
    (["clt", "--samples", "5"], "clt:c=30"),
    (["billiard-clt", "--samples", "5"], "parity:c=30"),
], ids=" ".join)
def test_plan_commands_default_to_a_plan_alpha(argv, alpha, capsys):
    # the golden ratio's partial quotients cannot build a plan: each of these
    # used to exit 2 on the default --alpha golden
    assert cli.main(argv) == 0
    default = capsys.readouterr()
    assert cli.main(argv + ["--alpha", alpha]) == 0
    explicit = capsys.readouterr()
    assert default.out == explicit.out
    assert default.err == explicit.err and "[config " in default.err
    assert cli.RunConfig(command=argv[0]).alpha == alpha
    assert cli.RunConfig(command="cf").alpha == "golden"


_CLI_TREE = ast.parse(inspect.getsource(cli))
_FUNCTIONS = {node.name: node for node in _CLI_TREE.body
              if isinstance(node, ast.FunctionDef)}
_FIELDS = {f.name for f in dataclasses.fields(cli.RunConfig)}


def _is_cfg(node):
    return isinstance(node, ast.Name) and node.id == "cfg"


def _is_options(node):
    return (isinstance(node, ast.Attribute) and node.attr == "options"
            and _is_cfg(node.value))


def _option_key(node):
    """k in cfg.options.get("k", ..), cfg.options["k"] or "k" in cfg.options."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr == "get" and _is_options(node.func.value):
        return node.args[0].value
    if isinstance(node, ast.Subscript) and _is_options(node.value):
        return node.slice.value
    if isinstance(node, ast.Compare) and _is_options(node.comparators[0]):
        return node.left.value
    return None


def _config_reads(name):
    """RunConfig fields and --opt keys that function ``name`` reads from its
    ``cfg``, following the module functions it hands ``cfg`` to."""
    fields, keys = set(), set()
    for node in ast.walk(_FUNCTIONS[name]):
        if isinstance(node, ast.Attribute) and _is_cfg(node.value) \
                and node.attr in _FIELDS:
            fields.add(node.attr)
        if isinstance(node, ast.Call) and any(map(_is_cfg, node.args)) \
                and getattr(node.func, "id", None) in _FUNCTIONS:
            more_fields, more_keys = _config_reads(node.func.id)
            fields |= more_fields
            keys |= more_keys
        if _option_key(node) is not None:
            keys.add(_option_key(node))
    return fields, keys


@pytest.mark.parametrize("command", sorted(cli._HANDLERS))
def test_declared_flags_are_the_ones_read(command):
    handler, flags, keys = cli._HANDLERS[command]
    fields, opt_keys = _config_reads(handler.__name__)
    assert fields == set(flags) | ({"options"} if keys else set())
    assert opt_keys == set(keys)
    sub = cli.build_parser()._subparsers._group_actions[0].choices[command]
    defined = {a.dest for a in sub._actions} - {"help"}
    assert defined == set(flags) | ({"opt"} if keys else set())


def test_config_hash_pinned():
    # every report embeds its config hash, so the serialised config must not
    # drift (values recorded when each field was still listed by hand)
    cfg = cli.RunConfig(command="clt", alpha="clt:c=30", terms=40,
                        samples=5000, seed=1)
    assert cfg.hash() == "4da4a123a76621ef"
    assert cfg.to_json() == (
        '{"alpha": "clt:c=30", "beta": 2.0, "command": "clt", '
        '"format": "csv", "observable": "phi0", "options": {}, "out": null, '
        '"samples": 5000, "seed": 1, "terms": 40, "threads": "1"}')


def test_run_config_round_trip():
    cfg = cli.RunConfig(command="clt", alpha="clt:c=30", observable="phi0",
                        beta=2.0, terms=40, samples=100, seed=7, out=None,
                        format="json", options={"n": "5"})
    cfg2 = cli.RunConfig.from_json(cfg.to_json())
    assert cfg2 == cfg
    assert cfg.hash() == cfg2.hash()


TEXT = hst.text(max_size=12)


@settings(max_examples=100)
@given(cfg=hst.builds(
    cli.RunConfig, command=hst.sampled_from(sorted(cli._HANDLERS)),
    alpha=TEXT, observable=TEXT,
    beta=hst.floats(allow_nan=False, allow_infinity=False),
    terms=hst.integers(0, 10 ** 6), samples=hst.integers(0, 10 ** 9),
    seed=hst.integers(-2 ** 70, 2 ** 70), out=hst.none() | TEXT,
    format=hst.sampled_from(["csv", "json"]),
    options=hst.dictionaries(TEXT, TEXT, max_size=4)))
def test_run_config_json_round_trip(cfg):
    cfg2 = cli.RunConfig.from_json(cfg.to_json())
    assert cfg2 == cfg
    assert cfg2.to_json() == cfg.to_json() and cfg2.hash() == cfg.hash()


def test_console_entry_point():
    # the subprocess does not inherit pytest's pythonpath setting
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "rotsum.cli", "cf", "--terms", "3"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0
    assert "q_n" in proc.stdout


# ---------------------------------------------------------------------------
# Grammar fuzz: every argv ends in output, one error line or argparse's exit
# ---------------------------------------------------------------------------

# mostly well-formed values, so that most argvs reach the library
_VALUES = hst.sampled_from(["1", "2", "3", "5", "7", "1/3", "2/5", "3/8",
                            "0", "-1", "1/0", "abc", "", "1.5"])


def _pairs(keys, size=2):
    """'k=v,..' over ``keys``, a key possibly repeated."""
    pair = hst.tuples(hst.sampled_from(keys), _VALUES).map("=".join)
    return hst.lists(pair, max_size=size).map(",".join)


_FLAG_VALUES = {
    "alpha": hst.one_of(
        hst.sampled_from(["golden", "sqrt2m1", "gloden", "clt:c=30",
                          "parity:c=30", "list:"]),
        hst.lists(hst.sampled_from(["1", "2", "5", "0", "-1", "x", ""]),
                  max_size=12).map(lambda qs: "list:" + ",".join(qs)),
        hst.tuples(hst.sampled_from(["clt", "parity"]),
                   _pairs(["c", "beta", "zzz"])).map(":".join)),
    "observable": hst.one_of(
        hst.sampled_from(["phi0", "half", "indicator:beta=1/3", "nope"]),
        hst.tuples(hst.sampled_from(["indicator", "double_interval",
                                     "half_shifted", "billiard_displacement"]),
                   _pairs(["beta", "gamma", "alpha", "x"])).map(":".join)),
    "beta": hst.sampled_from(["2", "2", "1.5", "0", "nan", "x"]),
    "terms": hst.sampled_from(["1", "3", "6", "6", "0", "x"]),
    "samples": hst.sampled_from(["7", "30", "30", "1", "0", "1/2"]),
    "seed": hst.sampled_from(["0", "3", "7", "-1", "x"]),
    "format": hst.sampled_from(["csv", "json", "json", "xml"]),
}
# flags and keys that are always given, so that no default size applies
_SIZED_FLAGS = {"terms", "samples"}
_SIZED_KEYS = {"variance": "nmax", "erdos-fortet": "n", "gaposhkin": "n"}


@hst.composite
def _argvs(draw):
    command = draw(hst.sampled_from(sorted(cli._HANDLERS)))
    _, flags, keys = cli._HANDLERS[command]
    argv = [command]
    for flag in flags:
        if flag in _FLAG_VALUES and (flag in _SIZED_FLAGS
                                     or draw(hst.booleans())):
            argv += [f"--{flag}", draw(_FLAG_VALUES[flag])]
    # the keys read, a misspelt one and an empty one; --opt where no key is
    # read is argparse's to refuse
    read = [k for k in keys if k != "samples_csv"]
    opts = [draw(_pairs(read * 4 + ["nmx", ""] if read else ["N"]))]
    if command in _SIZED_KEYS:
        size = draw(hst.sampled_from(["1", "5", "30", "30", "0", "x"]))
        opts.insert(0, f"{_SIZED_KEYS[command]}={size}")
    if draw(hst.booleans()):
        opts = [",".join(opts)]
    for opt in opts:
        if opt.strip(","):
            argv += ["--opt", opt]
    return argv + draw(hst.sampled_from([[]] * 6 + [["--nope", "1"],
                                                     ["--a", "1/3"]]))


@settings(max_examples=150)
@given(argv=_argvs())
def test_every_argv_ends_in_output_or_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:               # argparse's own refusal
        assert exc.code == 2 and out.getvalue() == "", argv
        return
    lines = err.getvalue().splitlines()
    if rc == 0:
        assert out.getvalue(), argv
        assert not any(line.startswith("error:") for line in lines), argv
    else:
        assert rc == 2 and out.getvalue() == "", argv
        assert len(lines) == 1 and lines[0].startswith("error: "), argv
