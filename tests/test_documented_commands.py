"""Every documented command parses with today's CLI.

README.md, EXPERIMENTS.md and the ``python -m repro`` docstring show
``python -m repro ...`` lines for readers to copy.  Each one is parsed
(not run) with the parser that would read it, so a removed or renamed
flag fails here instead of in a reader's terminal:

* ``python -m repro check ...`` with :func:`repro.lint.check.build_parser`;
* ``python -m repro lint ...`` (or ``python -m repro.lint ...``) with
  :func:`repro.lint.cli.build_parser`;
* any other ``python -m repro ...`` with :func:`repro.__main__.build_parser`,
  so a subcommand that no longer exists is a usage error.

Every such line counts in the docstring and in the documents' fenced
code blocks, where it is meant to be copied.  In prose, which may name
a command with placeholders, only ``python -m repro --...`` lines do.
"""

import re
import shlex
from pathlib import Path

import pytest

import repro.__main__ as cli
from repro.lint import check
from repro.lint import cli as lint_cli

ROOT = Path(__file__).resolve().parents[1]

#: ``python -m repro``, the subcommand it names (if any) and its arguments.
_COMMAND = re.compile(r"python -m repro(?:[ .](check|lint)\b)?(.*)$")


def _parse_experiment(arguments):
    cli.config_from_args(cli.build_parser().parse_args(arguments))


_PARSERS = {
    "experiment": _parse_experiment,
    "check": lambda arguments: check.build_parser().parse_args(arguments),
    "lint": lambda arguments: lint_cli.build_parser().parse_args(arguments),
}


def _code_lines(text: str, fenced_only: bool):
    """The lines of ``text``, each with whether it sits in a code block."""
    in_block = not fenced_only
    for line in text.splitlines():
        if fenced_only and line.lstrip().startswith("```"):
            in_block = not in_block
            continue
        yield line, in_block


def documented_commands() -> list[tuple[str, str, str]]:
    """``(source, parser, arguments)`` for every documented command."""
    sources = {
        "README.md": ((ROOT / "README.md").read_text(), True),
        "EXPERIMENTS.md": ((ROOT / "EXPERIMENTS.md").read_text(), True),
        "repro/__main__.py": (cli.__doc__, False),
    }
    commands = []
    for source, (text, fenced_only) in sources.items():
        for line, in_block in _code_lines(text, fenced_only):
            if not (match := _COMMAND.search(line)):
                continue
            parser = match.group(1) or "experiment"
            arguments = match.group(2).lstrip()
            if in_block or (parser == "experiment" and arguments[:2] == "--"):
                commands.append((source, parser, arguments))
    return commands


COMMANDS = documented_commands()


def _command(parser: str, arguments: str) -> str:
    """The command line after ``python -m repro``."""
    return arguments if parser == "experiment" else f"{parser} {arguments}".rstrip()


def test_documents_show_experiment_commands():
    assert {source for source, _, _ in COMMANDS} == {
        "README.md", "EXPERIMENTS.md", "repro/__main__.py"
    }
    assert {parser for _, parser, _ in COMMANDS} == set(_PARSERS)


@pytest.mark.parametrize(
    "source, parser, arguments",
    COMMANDS,
    ids=[f"{s}:{_command(p, a)}" for s, p, a in COMMANDS],
)
def test_documented_command_parses(source, parser, arguments, capsys):
    argv = shlex.split(arguments, comments=True)
    try:
        _PARSERS[parser](argv)
    except SystemExit:
        command = _command(parser, arguments)
        pytest.fail(
            f"{source}: `python -m repro {command}` no longer parses:\n"
            + capsys.readouterr().err
        )
