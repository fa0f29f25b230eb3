"""README command-line examples print what the README shows, byte for byte."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from bosegas.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"
# a fenced block whose first line is a `$ bosegas ...` command, then its output
_EXAMPLE = re.compile(r"^```\n\$ (bosegas [^\n]*)\n(.*?)^```$", re.M | re.S)
EXAMPLES = _EXAMPLE.findall(README.read_text(encoding="utf-8"))


def test_readme_has_cli_examples():
    assert len(EXAMPLES) == 3


@pytest.mark.parametrize("command,shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example_output(capsys, command, shown):
    # a "..." line elides output: the lines before it must open the output
    # and the lines after it close it
    assert main(shlex.split(command)[1:]) == 0
    out = capsys.readouterr().out
    head, elided, tail = shown.partition("...\n")
    if elided:
        assert len(out) >= len(head) + len(tail)
        assert out.startswith(head) and out.endswith(tail)
    else:
        assert out == shown


# a long option as the README writes it, `--t-list`, not the middle of a word
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def _readme_flags():
    """Every --flag the README names, but on the pip line of its Install
    section, which names pip's own."""
    lines = README.read_text(encoding="utf-8").splitlines()
    return set(_FLAG.findall("\n".join(l for l in lines if not l.startswith("pip install"))))


def _cli_options():
    """The long options of build_parser() and of each of its subcommands."""
    parser = build_parser()
    parsers = [parser]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            parsers.extend(action.choices.values())
    return {opt for p in parsers for action in p._actions for opt in action.option_strings
            if opt.startswith("--")}


def test_readme_flags_are_the_cli_options():
    # a flag the README names must exist, and every option but --help and
    # --version must be named there
    named, options = _readme_flags(), _cli_options()
    assert named - options == set(), "README names flags the CLI does not have"
    assert options - {"--help", "--version"} - named == set(), "options the README omits"
