"""README command-line examples print what the README shows, byte for byte."""

import re
import shlex
from pathlib import Path

import pytest

from bosegas.cli import main

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
