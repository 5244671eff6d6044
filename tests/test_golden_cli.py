"""Golden CLI transcript: stdout and exit code of the scenario and reproduce commands.

``tests/golden/cli.txt`` holds the output of ``solve``, ``metrics`` and
``oracle`` on every ``scenarios/*.json`` plus every ``reproduce`` case.  The
test compares it byte for byte, except ``note`` lines, which describe the
construction rather than state an answer.  Regenerate after an intended
output change with ``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
from pathlib import Path

from layersec.cli import _REPRODUCTIONS, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli.txt"


def _commands():
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        for cmd in ("solve", "metrics", "oracle"):
            yield [cmd, "--scenario", f"scenarios/{path.name}"]
    for case in sorted(_REPRODUCTIONS):
        yield ["reproduce", case]


def _runs():
    """(argv, stdout, exit code) of every transcript command."""
    for argv in _commands():
        out, err = _stdio.StringIO(), _stdio.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(ROOT / a) if a.startswith("scenarios/") else a for a in argv])
        yield argv, out.getvalue(), code


def transcript() -> str:
    return "".join(f"$ layersec {' '.join(argv)}\n{out}exit {code}\n" for argv, out, code in _runs())


def _answers(text: str) -> list:
    return [line for line in text.splitlines() if not line.startswith("note  ")]


def test_cli_transcript_matches_golden():
    assert _answers(transcript()) == _answers(GOLDEN.read_text())


def _refuse_float(text):
    raise AssertionError(f"float {text} in JSON output")


def test_cli_output_holds_no_float_and_no_python_repr():
    for argv, out, _ in _runs():
        if out and argv[0] != "reproduce":
            json.loads(out, parse_float=_refuse_float)
        assert "Fraction(" not in out, argv


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(transcript())
