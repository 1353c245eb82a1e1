"""The documentation's code is part of the test surface.

Runs (a) the doctests embedded in ``repro.core.api``'s module docstring
(the facade's sync + async examples) and (b) every ``python`` fenced
block in README.md, so a drifted example fails CI instead of a reader,
and (c) parses, running nothing, every ``python -m repro`` and ``python3
-m ledger`` command in a fenced block of the top-level docs and docs/,
so a deleted command or flag cannot linger in one.
"""

import doctest
import re
import shlex
from pathlib import Path

import pytest
from ledger.__main__ import _parser as ledger_parser

import repro.core.api
from repro.bench.experiments import EXPERIMENTS
from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

_PYTHON_BLOCK = re.compile(r"```python\n(.*?)```", re.DOTALL)


def readme_blocks():
    blocks = _PYTHON_BLOCK.findall(README.read_text())
    assert blocks, "README.md lost its python examples"
    return blocks


def test_api_docstring_examples():
    results = doctest.testmod(repro.core.api, verbose=False)
    assert results.attempted > 0
    assert results.failed == 0


@pytest.mark.parametrize(
    "block", readme_blocks(), ids=lambda b: b.strip().splitlines()[0][:40]
)
def test_readme_python_examples(block):
    # Each block is a self-contained, self-asserting program.
    exec(compile(block, str(README), "exec"), {"__name__": "__readme__"})


_FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.DOTALL | re.MULTILINE)
_COMMAND = re.compile(r"python3? -m (repro|ledger)\b(.*)")
# A command's words end where the shell takes over: a pipe, a list or a
# redirection operator, a subshell's close, or a comment.
_SHELL_END = re.compile(r"\s(?:\||;|&&|>|<|#)|\)|;")
_PARSERS = {"repro": build_parser, "ledger": ledger_parser}


def doc_commands():
    docs = [ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    docs += sorted((ROOT / "docs").glob("*.md"))
    commands = []
    for doc in docs:
        for block in _FENCE.findall(doc.read_text()):
            for line in block.replace("\\\n", " ").splitlines():
                for match in _COMMAND.finditer(line):
                    words = _SHELL_END.split(match.group(2), maxsplit=1)[0]
                    commands.append((doc.name, match.group(1), words.strip()))
    assert len(commands) > 40, "the docs lost their command examples"
    return commands


@pytest.mark.parametrize(
    "doc, program, words", doc_commands(), ids=lambda value: str(value)[:60]
)
def test_doc_command_parses(doc, program, words):
    # A loop variable ("$name") stands for what the loop supplies: an
    # experiment name.
    argv = [sorted(EXPERIMENTS)[0] if word.startswith("$") else word
            for word in shlex.split(words)]
    try:
        _PARSERS[program]().parse_args(argv)
    except SystemExit as exit:
        pytest.fail(f"{doc}: `{program} {words}` does not parse (exit {exit.code})")
