"""CLI output on the corpus, byte for byte.

``tests/golden/`` holds the standard output of every command below on
every corpus file, in text (``.txt``) and structured (``.json``) form,
as printed before the attack relation, the instance-sharing scan and
the region difference were each merged into one definition (the
``neq`` files, added later, as printed before backward chaining became
an explicit-stack loop).  A change
meant to keep results the same must leave every file matching.  A
change meant to alter output rewrites the files with

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md which outputs changed and why.
"""

import contextlib
import io
from pathlib import Path

import pytest

from caba.cli import main

ROOT = Path(__file__).parent
CORPUS = ROOT.parent / "src" / "caba" / "corpus"
GOLDEN = ROOT / "golden"

COMMANDS = {
    "parse": ("parse",),
    "arguments": ("arguments",),
    "attacks": ("attacks",),
    "split": ("split",),
    "extensions-stable-native-check": (
        "extensions", "--semantics", "stable", "--native-check",
    ),
    "extensions-admissible": ("extensions", "--semantics", "admissible"),
    "extensions-conflict-free": ("extensions", "--semantics", "conflict-free"),
    "check-attacks": ("check", "--universe", "0..3", "--mode", "attacks"),
    "check-extension": ("check", "--universe", "0..3", "--mode", "extension"),
}
FORMATS = {"text": "txt", "structured": "json"}
CASES = [
    (f.stem, slug, fmt)
    for f in sorted(CORPUS.glob("*.caba"))
    for slug in COMMANDS
    for fmt in FORMATS
]


def _argv(stem: str, slug: str, fmt: str) -> list[str]:
    cmd, *flags = COMMANDS[slug]
    return ["--format", fmt, cmd, str(CORPUS / f"{stem}.caba"), *flags]


def _golden(stem: str, slug: str, fmt: str) -> Path:
    return GOLDEN / f"{stem}.{slug}.{FORMATS[fmt]}"


@pytest.mark.parametrize("stem,slug,fmt", CASES)
def test_output_matches_golden(capsys, stem, slug, fmt):
    assert main(_argv(stem, slug, fmt)) == 0
    assert capsys.readouterr().out.encode() == _golden(stem, slug, fmt).read_bytes()


if __name__ == "__main__":
    for case in CASES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(_argv(*case)) == 0, case
        _golden(*case).write_bytes(buf.getvalue().encode())
