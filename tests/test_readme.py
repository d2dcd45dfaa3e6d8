"""README.md against the code: its CLI examples run, and its grammar is the
one in the expression language's module docstring."""

import shlex
import textwrap
from pathlib import Path

import pytest

from qdissect import cli, exprlang

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_block(after):
    """The first fenced code block after the line ``after``."""
    rest = README.split(after + "\n", 1)[1]
    return rest.split("```", 2)[1].split("\n", 1)[1]


CLI_LINES = [shlex.split(line, comments=True)
             for line in fenced_block("## CLI").splitlines() if line.startswith("qdissect ")]


def test_the_cli_block_has_every_example():
    assert len(CLI_LINES) == 10


@pytest.mark.parametrize("argv", CLI_LINES, ids=[" ".join(a[1:3]) for a in CLI_LINES])
def test_cli_example_exits_0(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # signs --csv writes alpha.csv here
    assert cli.main(argv[1:]) == 0
    assert capsys.readouterr().err == ""


def test_grammar_matches_the_module_docstring():
    doc = exprlang.__doc__.split("Grammar (whitespace-insensitive):\n\n", 1)[1]
    assert fenced_block("## Expression language") == textwrap.dedent(doc.split("\n\n", 1)[0]) + "\n"
