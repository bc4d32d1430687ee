"""Golden CLI corpus: every recorded argv gives the same stdout and exit code.

The corpus (tests/golden/cli_corpus.json) covers each subcommand, both
output formats and the error paths; tests/golden/record.py writes it.
The `verify` defects are exact (0 for a passing table), and the amplitudes
are built in Python floats, so no numeric library can move a digit.
"""

import contextlib
import io
import json
from pathlib import Path

from mub3q import cli

CORPUS = Path(__file__).parent / "golden" / "cli_corpus.json"


def test_golden_cli_corpus():
    entries = json.loads(CORPUS.read_text(encoding="utf-8"))
    assert len(entries) > 100
    moved = []
    for entry in entries:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(entry["argv"])
        if (code, out.getvalue()) != (entry["exit"], entry["stdout"]):
            moved.append(" ".join(entry["argv"]))
    assert not moved, f"{len(moved)} invocations changed output: {moved[:5]}"
