"""README against the code: the subcommand table and the usage block against
the CLI, and every package member README names against the package."""

import importlib
import inspect
import re
import shlex
from itertools import takewhile
from pathlib import Path

import pytest

import rotsum
from rotsum import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
_TICKS = re.compile(r"`([^`]*)`")
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")


def _subcommand_table() -> dict:
    """{subcommand: (flags, --opt keys)} as README's table lists them."""
    lines = README.splitlines()
    start = lines.index("| subcommand | flags | `--opt` keys |") + 2
    table = {}
    for line in takewhile(lambda ln: ln.startswith("|"), lines[start:]):
        name, flags, keys = (_TICKS.findall(cell)
                             for cell in line.strip("|").split("|"))
        table[name[0]] = (tuple(f.removeprefix("--") for f in flags),
                          tuple(k for k in keys if not k.startswith("--")))
    return table


def test_subcommand_table_lists_the_flags_and_keys_each_handler_reads():
    assert _subcommand_table() == {
        name: (flags, keys) for name, (_, flags, keys) in cli._HANDLERS.items()}


def _usage_lines() -> list[str]:
    block = README.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    return [line for line in block.split("```", 1)[0].splitlines()
            if line.startswith("rotsum ")]


def test_usage_block_shows_every_subcommand():
    assert {line.split()[1] for line in _usage_lines()} == set(cli._HANDLERS)


@pytest.mark.parametrize("line", _usage_lines())
def test_usage_line_parses_and_passes_the_key_check(line, monkeypatch, capsys):
    # run() with the handler stubbed: its key and output checks run, the
    # command does not
    cfg = cli.config_from_args(
        cli.build_parser().parse_args(shlex.split(line, comments=True)[1:]))
    _, flags, keys = cli._HANDLERS[cfg.command]
    monkeypatch.setitem(cli._HANDLERS, cfg.command,
                        (lambda cfg: "stub", flags, keys))
    assert cli.run(cfg) == 0, capsys.readouterr().err


def _roots() -> dict:
    """The names a README member reference may start with: the package, its
    modules and the classes they define."""
    roots = {"rotsum": rotsum}
    for path in sorted((ROOT / "src" / "rotsum").glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"rotsum.{path.stem}")
        roots[path.stem] = module
        roots.update((name, obj) for name, obj in vars(module).items()
                     if inspect.isclass(obj)
                     and obj.__module__ == module.__name__)
    return roots


def _resolves(obj, names) -> bool:
    """Each name an attribute of the one before it; the last may also be a
    dataclass field without a class default."""
    for name in names:
        if not hasattr(obj, name):
            return name == names[-1] and \
                name in getattr(obj, "__dataclass_fields__", {})
        obj = getattr(obj, name)
    return True


_ROOTS = _roots()
_MEMBERS = sorted({token for token in _TICKS.findall(README)
                   if _DOTTED.fullmatch(token)
                   and token.split(".")[0] in _ROOTS})


def test_member_references_are_found():
    assert {"stats._WALK_NS", "stats._MIX_NS", "stats._STEP_NS",
            "stats._MIX_ROWS", "variance._FREQ_NS", "parallel._FORK_NS",
            "contfrac._LEVEL_CAP", "billiard._COLLISION_CAP",
            "parallel._split_rows", "ErgodicContext.sums_at",
            "RationalTruncation.ps", "rotsum.errors"} <= set(_MEMBERS)


@pytest.mark.parametrize("token", _MEMBERS)
def test_member_reference_resolves(token):
    head, *rest = token.split(".")
    assert _resolves(_ROOTS[head], rest), token
