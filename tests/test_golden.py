"""Byte identity of the command-line front end against tests/golden/cli.txt.

Each entry of the file is replayed through cli.run, or with "stdin" as a
script through the batch mode, cli._batch; exit code, stdout and stderr
must match exactly.  A long stdout is recorded as its SHA-256 and
UTF-8 length, which the replay compares.  tests/golden/regenerate.py
writes the file, and is run only when a change of output is intended.
"""

import hashlib
import io
import json
from pathlib import Path

from diffalg import cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.txt"


def _stdout_matches(entry, text: str) -> bool:
    if "stdout" in entry:
        return text == entry["stdout"]
    data = text.encode("utf-8")
    return (hashlib.sha256(data).hexdigest(), len(data)) == \
        (entry["stdout_sha256"], entry["stdout_bytes"])


def test_cli_output_matches_golden_file():
    entries = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    assert len(entries) >= 100
    changed = []
    for entry in entries:
        out, err = io.StringIO(), io.StringIO()
        if "stdin" in entry:
            code = cli._batch(io.StringIO(entry["stdin"]), out, err)
        else:
            code = cli.run(entry["argv"], out, err)
        if code != entry["exit"] or err.getvalue() != entry["stderr"] or \
                not _stdout_matches(entry, out.getvalue()):
            changed.append(entry.get("argv", entry.get("stdin")))
    assert changed == []
