"""Every CLI command the docs show must still parse.

Scans ``README.md`` and the verify-skill notes for lines that start with
``python -m repro`` or ``repro-flash`` (after optional ``VAR=value``
prefixes), joins ``\\`` continuations, and parses each command with the
real argument parser.  Nothing is executed.  Every ``examples/...`` path
those commands name must exist.
"""

import os
import re
import shlex

from repro.cli import _build_parser

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
DOCS = ("README.md", os.path.join(".claude", "skills", "verify", "SKILL.md"))

_COMMAND = re.compile(r"^(?:[A-Z_]+=\S*\s+)*(?:python -m repro|repro-flash)(?:\s|$)")
#: shell operators that end the command proper (redirects, pipes, chains).
_SHELL_STOP = {">", ">>", "|", "&&", "||", ";", "2>&1"}


def documented_commands() -> list[tuple[str, str]]:
    """``(doc:line, command)`` for every CLI line in the docs."""
    found = []
    for doc in DOCS:
        path = os.path.join(ROOT, doc)
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        i = 0
        while i < len(lines):
            start, text = i, lines[i].strip()
            i += 1
            if not _COMMAND.match(text):
                continue
            while text.endswith("\\") and i < len(lines):
                text = text[:-1] + " " + lines[i].strip()
                i += 1
            found.append((f"{doc}:{start + 1}", text))
    return found


def _argv(command: str) -> list[str]:
    words = shlex.split(command, comments=True)
    while "=" in words[0]:  # VAR=value prefixes
        words.pop(0)
    words = words[3:] if words[0] == "python" else words[1:]
    for i, word in enumerate(words):
        if word in _SHELL_STOP:
            return words[:i]
    return words


def test_documented_commands_parse():
    # One test over all commands (not one per line), so editing the docs
    # never renames tests.
    commands = documented_commands()
    assert len(commands) >= 20, "the command scan found too little"
    failures = []
    for where, command in commands:
        argv = _argv(command)
        try:
            _build_parser().parse_args(argv)
        except SystemExit as exc:
            failures.append(f"{where}: `{command}` does not parse (exit {exc.code})")
        failures += [
            f"{where}: no such file {word}"
            for word in argv
            if word.startswith("examples/") and not os.path.exists(os.path.join(ROOT, word))
        ]
    assert not failures, "\n".join(failures)
