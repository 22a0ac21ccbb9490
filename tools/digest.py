"""Digests of the program's output on the benchmark corpora.

    python3 tools/digest.py

Run from anywhere; the program is the source under src/.  Seeds 1-3 of
each corpus in bench/corpus.py go through diffalg.cli three ways: each
command through cli.run as given ("text"), each through cli.run with
--format json added where it has no --format ("json"), and the whole
corpus as one stdin batch through cli._batch ("batch").  Each of the 27
records prints one line, its workload, seed, mode and the SHA-256 of its
stdout, stderr and exit codes.  Two trees that print the same lines give
the same bytes on every corpus command.
"""

import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import corpus  # noqa: E402
from diffalg import cli  # noqa: E402

SEEDS = (1, 2, 3)


def _json(argv: list) -> list:
    return argv if "--format" in argv else argv + ["--format", "json"]


def _digest(parts: list) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def _each(commands, shape) -> str:
    parts = []
    for command in commands:
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(shape(command.argv), out, err)
        parts += [out.getvalue(), err.getvalue(), str(code)]
    return _digest(parts)


def _batch(commands) -> str:
    stdin = io.StringIO("".join(command.line + "\n" for command in commands))
    out, err = io.StringIO(), io.StringIO()
    code = cli._batch(stdin, out, err)
    return _digest([out.getvalue(), err.getvalue(), str(code)])


def _records(commands):
    yield "text", _each(commands, list)
    yield "json", _each(commands, _json)
    yield "batch", _batch(commands)


def main() -> int:
    for name, build in corpus.WORKLOADS.items():
        for seed in SEEDS:
            for mode, digest in _records(build(seed)):
                print("%s seed=%d %s %s" % (name, seed, mode, digest))
    return 0


if __name__ == "__main__":
    sys.exit(main())
