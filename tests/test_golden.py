"""Byte identity of the command-line front end against tests/golden/cli.txt.

Each entry of the file is replayed through cli.run; exit code, stdout and
stderr must match exactly.  tests/golden/regenerate.py writes the file, and
is run only when a change of output is intended.
"""

import io
import json
from pathlib import Path

from diffalg import cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.txt"


def test_cli_output_matches_golden_file():
    entries = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    assert len(entries) >= 100
    changed = []
    for entry in entries:
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(entry["argv"], out, err)
        if (code, out.getvalue(), err.getvalue()) != \
                (entry["exit"], entry["stdout"], entry["stderr"]):
            changed.append(entry["argv"])
    assert changed == []
