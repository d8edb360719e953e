"""Every documented experiment command parses with today's CLI.

README.md, EXPERIMENTS.md and the ``python -m repro`` docstring show
``python -m repro --...`` lines for readers to copy.  Each one is parsed
(not run) with :func:`repro.__main__.build_parser`, so a removed or
renamed flag fails here instead of in a reader's terminal.
"""

import re
import shlex
from pathlib import Path

import pytest

import repro.__main__ as cli

ROOT = Path(__file__).resolve().parents[1]

#: An experiment invocation: ``python -m repro`` followed by a flag (the
#: subcommands ``lint``/``check``/``trace`` have their own CLIs).
_COMMAND = re.compile(r"python -m repro (--.*)$")


def documented_commands() -> list[tuple[str, str]]:
    sources = {
        "README.md": (ROOT / "README.md").read_text(),
        "EXPERIMENTS.md": (ROOT / "EXPERIMENTS.md").read_text(),
        "repro/__main__.py": cli.__doc__,
    }
    return [
        (source, match.group(1))
        for source, text in sources.items()
        for line in text.splitlines()
        if (match := _COMMAND.search(line))
    ]


COMMANDS = documented_commands()


def test_documents_show_experiment_commands():
    assert {source for source, _ in COMMANDS} == {
        "README.md", "EXPERIMENTS.md", "repro/__main__.py"
    }


@pytest.mark.parametrize(
    "source, arguments", COMMANDS, ids=[f"{s}:{a}" for s, a in COMMANDS]
)
def test_documented_command_parses(source, arguments, capsys):
    argv = shlex.split(arguments, comments=True)
    try:
        cli.config_from_args(cli.build_parser().parse_args(argv))
    except SystemExit:
        pytest.fail(
            f"{source}: `python -m repro {arguments}` no longer parses:\n"
            + capsys.readouterr().err
        )
