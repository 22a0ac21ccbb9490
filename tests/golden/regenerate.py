"""Regenerate cli.txt, the byte-identity record of the command-line front end.

    python3 tests/golden/regenerate.py

Run from the repository root.  The file is regenerated only when a change
of output is intended: tests/test_golden.py replays every entry through
diffalg.cli.run and fails on any difference in exit code, stdout or
stderr, so a change meant to keep the output (a speed-up, a refactor) must
leave cli.txt as it is.

Each line of cli.txt is one JSON object {"argv", "exit", "stdout",
"stderr"}.  A stdout longer than STDOUT_TEXT_MAX bytes is recorded as
"stdout_sha256" and "stdout_bytes" (its UTF-8 length) in place of the
text, so the file stays small and the replay still checks every byte.
Every command is recorded twice, in text and in --format json.
The commands are every STRIDE-th command of seeds 1 and 2 of the three
benchmark corpora (bench/corpus.py), then EDGE: errors, poles, bad flags,
series at nonzero base points, classification in both formats and
reductions of several steps.
"""

import hashlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

STRIDE = 40
STDOUT_TEXT_MAX = 64 * 1024
# commands that take over a second are left out: the replay runs in tier 1
SLOW_VERBS = ("gl-witness",)

EDGE = [
    ["derive", "(x')^2-2*x"],
    ["separant", "t"],
    ["order", "t++1"],
    ["order", "0"],
    ["order", "x1 + x"],
    ["derive", "x^(3)/(t-1) + x'/t"],
    ["wronskian", "1/0"],
    ["wronskian", "t", "1/(t^2+1)", "(t-2)/(t+3)"],
    ["depend", "t", "2*t", "t^2"],
    ["ode-from", "1/t", "t^2"],
    ["member", "x"],
    ["frobnicate"],
    ["derive", "x", "--frob", "1"],
    ["solve-series", "1/t", "--base-point", "0"],
    ["solve-series", "1/t", "-1", "--base-point", "2", "--precision", "5"],
    ["solve-series", "0", "t/(t+1)", "--base-point", "-1/3",
     "--precision", "4"],
    ["solve-series", "1", "--precision", "513"],
    ["solve-series", "t", "-1/(t-3)", "2*t+1", "-2", "--precision", "512",
     "--base-point", "1/2"],
    ["solve-series", "(t+1)/(3-2*t)", "--precision", "256", "--base-point",
     "-3/2"],
    ["classify-int", "1/t"],
    ["classify-int", "1/t^2 + 2*t"],
    # poles of multiplicity 3-5: derivatives, then inputs with a log part
    ["classify-int", "-2/(t-1)^3 - 8*t/(t^2+1)^5"],
    ["classify-int", "(-2*t^10 - 10*t^8 - 20*t^6 - 7*t^5 + 25*t^4 - 92*t^3 "
     "+ 66*t^2 - 21*t - 3)/(t^13 - 3*t^12 + 8*t^11 - 16*t^10 + 25*t^9 "
     "- 35*t^8 + 40*t^7 - 40*t^6 + 35*t^5 - 25*t^4 + 16*t^3 - 8*t^2 + 3*t "
     "- 1)"],
    ["classify-int", "(-3*t^13 + 21*t^12 - 48*t^11 + 39*t^10 - 48*t^9 "
     "+ 147*t^8 - 105*t^7 + 6*t^6 - 168*t^5 + 96*t^4 - 22*t^3 + 66*t^2 - 20)"
     "/(5*t^11 - 35*t^10 + 80*t^9 - 65*t^8 + 80*t^7 - 245*t^6 + 175*t^5 "
     "- 10*t^4 + 280*t^3 - 160*t^2 - 80*t - 160)"],
    ["classify-int", "1/(t-1)^3 + 1/t"],
    ["classify-int", "(t^3-2)/((t-1)^5*(t^2+2)^4*t^3)"],
    ["classify-int", "(t^4+1)/((t^2-2)^4*(t+3))"],
    ["classify-exp", "1/(2*t)"],
    ["classify-exp", "1/(t^2-2)"],
    ["classify-exp", "(3*t^2+1)/(t^3+t)"],
    # irrational residues over a high-degree denominator
    ["classify-exp", "1/(t^60+t+1)"],
    ["classify-exp", "t^39/(t^40+3*t+7)"],
    # residue 1/3 shared by t^2 + 1 and t - 1; residues 3/5 and -1/5
    ["classify-exp", "(3*t^2-2*t+1)/(3*t^3-3*t^2+3*t-3)"],
    ["classify-exp", "(2*t+3)/(5*t^2+5*t)"],
    ["group-check", "sl2", "1,1;0,1"],
    ["group-check", "borel", "1"],
    ["group-check", "mu4", "-1"],
    # an order past the interpreter's 4300-digit int conversion limit
    ["group-check", "mu" + "9" * 5000, "1"],
    # unipotent members, then determinant 1 off the unipotent shape
    ["group-check", "unipotent", "1,0;0,1"],
    ["group-check", "unipotent", "1,5/2;0,1"],
    ["group-check", "unipotent", "1,0;3,1"],
    ["group-check", "unipotent", "2,0;0,1/2"],
    ["group-check", "unipotent", "1,0;0,2"],
    ["group-check", "gm", "0"],
    ["group-check", "gm", "-2/3"],
    ["group-check", "gl2", "1,2;2,4"],
    ["group-check", "sl3", "1,0,0;0,1,0;0,0,-1"],
    ["gl-witness", "2", "--seed", "4"],
    ["gl-witness", "2", "--matrix", "1,1;1,1"],
    ["reduce", "x''-1", "--mod", "(x')^2-2*x"],
    ["reduce", "x^(4)*x + t*(x'')^2", "--mod", "(x')^2 - t*x"],
    ["reduce", "(x'')^3 + x", "--mod", "x'^2 + x/t"],
    ["member", "x''-1", "--mod", "(x')^2-2*x"],
    ["reduce", "x2' + x1", "--mod", "x1' - x2"],
]


def commands():
    import corpus

    out = []
    for make in (corpus.ritt, corpus.linalg_galois, corpus.series_batch):
        for seed in (1, 2):
            cmds = [c.argv for c in make(seed)]
            out.extend(a for a in cmds[::STRIDE] if a[0] not in SLOW_VERBS)
    return out + EDGE


def formats(argv):
    """argv in text and in --format json."""
    base = list(argv)
    if "--format" in base:
        i = base.index("--format")
        del base[i:i + 2]
    return [base, base + ["--format", "json"]]


def stdout_record(text: str) -> dict:
    """stdout as recorded: the text, or its SHA-256 and length past
    STDOUT_TEXT_MAX bytes."""
    data = text.encode("utf-8")
    if len(data) <= STDOUT_TEXT_MAX:
        return {"stdout": text}
    return {"stdout_sha256": hashlib.sha256(data).hexdigest(),
            "stdout_bytes": len(data)}


def record(argv):
    from diffalg import cli

    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out, err)
    return {"argv": argv, "exit": code, **stdout_record(out.getvalue()),
            "stderr": err.getvalue()}


def main():
    lines = [json.dumps(record(a)) for argv in commands() for a in formats(argv)]
    (HERE / "cli.txt").write_text("\n".join(lines) + "\n")
    print("wrote %d entries to %s" % (len(lines), HERE / "cli.txt"))


if __name__ == "__main__":
    main()
