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

The file ends with STDIN, scripts fed to the batch mode: one entry
{"stdin", "exit", "stdout", "stderr"} each, replayed through
diffalg.cli._batch.  They pin how a line is split into words (quotes,
escapes, whitespace) and where a batch stops.
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
    # repeated poles, rational contents, zero and constant elements
    ["wronskian", "1/(t+1)^3", "t/(t+1)^2"],
    ["ode-from", "1/(t+1)^3", "t/(t+1)^2"],
    ["wronskian", "1/(t^2+1)^2", "t^5/(t-1)^4", "(3*t-1)/(t^2+1)^3"],
    ["ode-from", "(t/3)/(2*t^2+2)", "5/7"],
    ["wronskian", "0", "t"],
    ["ode-from", "0"],
    # the five-element ode-from of linalg-galois seed 3
    ["ode-from", "((-2*t^2+3*t+3)/(t+3))", "(-t/(t-3))", "((2*t+3)/(t+3))",
     "(-3/t)", "((t-3)/(t-2))"],
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
    # residues on the primitive ints of den, lead L != 1: the Frobenius
    # test passes at p = 3 but the residues +-1/(2*sqrt(7)) are irrational;
    # cyclic n = 2; two non-monic poles sharing the residue 3/8
    ["classify-exp", "1/(t^2-7)"],
    ["classify-exp", "1/(3*t^2-7)"],
    ["classify-exp", "1/(2*t+1)"],
    ["classify-exp", "(3/4)/(2*t+1) + (3/4)/(2*t-1)"],
    # Hermite reduction over a non-monic repeated factor
    ["classify-int", "(1/3)/(2*t+1)^3 + 5/(7*(t^2+3))"],
    ["classify-int", "(1/3)/(2*t+1)^3 - 3/(2*t+1)^2"],
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
    # matrix literals: rational and zero rows, signs and spaces, the other
    # forms of a rational number, a dense sl8 (a product of unitriangular
    # matrices), a fractional transform, then the refused shapes and
    # entries: a short row, an empty entry, digits outside ASCII (one int
    # reads, one it refuses), a literal past the int conversion limit and
    # a zero denominator
    ["group-check", "sl2", "1/2,0;0,2"],
    ["group-check", "gl3", "1,2,3;0,0,0;4,5,6"],
    ["group-check", "sl2", " 1 , -0 ; +0 , 1 "],
    ["group-check", "sl2", "0.5,0;0,2"],
    ["group-check", "sl2", "1e0,0;0,1"],
    ["group-check", "sl2", "1_0,0;0,1/10"],
    ["group-check", "sl8", "1,1,1,-2,0,-2,-2,1;-1,0,1,3,-2,0,2,-2;"
     "0,1,3,-1,-1,0,-1,1;-1,-2,-5,6,-1,2,2,-2;-2,-3,-5,7,0,6,2,0;"
     "-1,0,-1,8,-4,-3,2,-3;1,2,4,-1,-4,5,-8,10;-2,-1,-1,5,-1,-2,8,-3"],
    ["gl-witness", "3", "--matrix", "1/2,1,0;0,2/3,1;-1,0,3/4"],
    ["group-check", "gl2", "1,0;0"],
    ["group-check", "gl2", "1,;0,1"],
    ["group-check", "mu2", "\u0663"],
    ["group-check", "mu2", "\u00b2"],
    ["group-check", "gm", "9" * 5000],
    ["group-check", "gm", "1/0"],
    ["reduce", "x''-1", "--mod", "(x')^2-2*x"],
    ["reduce", "x^(4)*x + t*(x'')^2", "--mod", "(x')^2 - t*x"],
    ["reduce", "(x'')^3 + x", "--mod", "x'^2 + x/t"],
    ["member", "x''-1", "--mod", "(x')^2-2*x"],
    ["reduce", "x2' + x1", "--mod", "x1' - x2"],
    # printer branches: rational contents, negative rational leads, +-1
    # coefficients, a bare power of t as denominator, a numerator content
    # over a denominator other than 1
    ["derive", "(3/2)*x/t^2 - x'"],
    ["separant", "(-3/4)*(x')^2/(t+1) + x"],
    ["derive", "-x*t + x''/(3*t^2) - (5/6)*x - t"],
    ["derive", "x1*x2 - (t^2/2)*x2' + 1"],
    ["wronskian", "(2/3)*t^2", "t"],
    ["wronskian", "t/3", "1/(2*t+2)"],
    ["ode-from", "(2*t+1)*t"],
    ["ode-from", "t", "1/(2*t+3)"],
    ["solve-series", "(3/2)*t", "-1", "--precision", "4", "--base-point",
     "-1"],
    # x-free sums, powers and quotients in the parser
    ["wronskian", "-(2*t-2)^2/(t+1)", "(t-t)^0 + 0^0*t", "(6*t+6)^3/(4*t)"],
    ["wronskian", "1/(t-t)"],
    ["derive", "((1+2*t)^3 - 1)/(2*t)*x - (t/3 - 1/3)^2*x'"],
    # clearing denominators: zero elements, shared and repeated
    # denominators, rational contents over them (wronskian 0 t is above)
    ["wronskian", "3", "1/(t+1)"],
    ["depend", "1/(t+1)", "2/(t+1)", "t/(t+1)"],
    ["depend", "0", "t"],
    ["ode-from", "1/(t+1)^2", "t/(t+1)^3"],
    ["ode-from", "(2/3)/(t-1)", "t^2"],
    ["solve-series", "0", "(1/2)/(t^2+1)", "--precision", "6"],
    ["solve-series", "(3/4)/(t+1)", "(1/2)/(t+1)^2", "--base-point", "1/2",
     "--precision", "5"],
    # eliminating over Z: sparse rows that stay in Z[t], 9-digit
    # coefficients over quadratic denominators, rational contents, and
    # the rank-deficient exits of the determinant, the solve and the kernel
    ["wronskian", "t", "t^41", "t^81", "t^121"],
    ["wronskian", "123456789/(t^2+987654321)",
     "(987654321*t)/(t^2+123456789*t+1)",
     "(555555555*t^2+1)/(3*t^2-777777777)",
     "(t^3-222222222)/(444444444*t^2+t+9)"],
    ["wronskian", "(2/3)*t^2+(1/5)*t", "(7/4)*t^3-1/2", "(5/9)/(t+1)"],
    ["wronskian", "t", "2*t"],
    ["ode-from", "t", "2*t"],
    ["depend", "0", "1/(t^2+1)"],
    # series: a non-monic cleared lead with rational contents at 7/3, a
    # cleared lead negative at t0, precision equal to the order, a zero
    # middle coefficient, and order 4 at precision 128 a distance 1 from
    # a pole
    ["solve-series", "(2/3)/(3*t^2+2)", "t/(5*t-1)", "--base-point", "7/3",
     "--precision", "10"],
    ["solve-series", "(5/6)*t/(4*t^2-9)", "(7/2)/(3*t^2+2)",
     "(1/3)/(3*t-5)", "--base-point", "7/3", "--precision", "9"],
    ["solve-series", "1/(t^2-4)", "t", "--precision", "8"],
    ["solve-series", "t/(2-3*t)", "1/(t^2-5)", "--base-point", "-5/7",
     "--precision", "8"],
    ["solve-series", "t", "1/(t+2)", "3", "--precision", "3", "--base-point",
     "1/2"],
    ["solve-series", "1/(t+1)", "0", "t^2", "--precision", "10",
     "--base-point", "-1/2"],
    ["solve-series", "1/(t-1)", "t", "2/(t-1)^2", "-1", "--precision", "128"],
    # powers of sums of terms, squared on the cleared numerators: with
    # t-denominators, two indeterminates, a reduction, a high exponent
    ["derive", "(x+t)^3"],
    ["derive", "(x'+1/(t+1))^2*x"],
    ["order", "((t+1)*x+1)^4"],
    ["derive", "(x1+x2/(t-1))^3"],
    ["reduce", "(x'+t*x)^3", "--mod", "x'-x"],
    ["order", "(x+t)^38"],
    # x-free powers with a content or a negative lead
    ["derive", "(-1-t)^3*x"],
    ["derive", "(2*t+4)^3*x"],
    ["derive", "(t/2+1)^2*x"],
    ["derive", "(-t)^5*x"],
]

STDIN = [
    # single quotes; double quotes holding \", \\ and \x, the last line
    # an unknown verb, whose message shows the first word
    "# quoted arguments\n\n"
    "order 'x'\"''\"\n"
    "solve-series '1/(t+1)' \"-1\" --precision \"4\" --base-point '1/2'\n"
    "derive \"x''\"'+t*x'\n"
    "\"fr\\\"ob\\\\ \\x\" 'a  \\b' \"\" c\"d\"'e'\n",
    # backslash-escaped spaces and tabs; an escaped space joins two words
    "derive x\\ +\\ t*x\\'\n"
    "order x\\\t+\\\tx\\'\\'\n"
    "wronskian t\\ ^2 1/\\(t+1\\)\n"
    "order\\ x\n",
    # blank and comment lines, CR as a separator, a '#' inside a line
    "\n   \n# comment\n\t# indented comment\norder x\n"
    "separant\r\"x'^2\"\n"
    "depend t 2*t\n"
    "order x #c\n",
    # a vertical tab separates nothing
    "order x\x0bx\n",
    # an empty quoted word is a word
    "depend '' t\n",
    "order x\ndepend 1 t\n",
    # each of shlex's errors, outside and inside double quotes
    "order x\nderive 'x + t\n",
    "order x\nderive \"x''\n",
    "order x\nderive x\\\n",
    "order x\nderive \"x\\\n",
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


def record_stdin(script: str) -> dict:
    from diffalg import cli

    out, err = io.StringIO(), io.StringIO()
    code = cli._batch(io.StringIO(script), out, err)
    return {"stdin": script, "exit": code, **stdout_record(out.getvalue()),
            "stderr": err.getvalue()}


def main():
    lines = [json.dumps(record(a)) for argv in commands() for a in formats(argv)]
    lines += [json.dumps(record_stdin(script)) for script in STDIN]
    (HERE / "cli.txt").write_text("\n".join(lines) + "\n")
    print("wrote %d entries to %s" % (len(lines), HERE / "cli.txt"))


if __name__ == "__main__":
    main()
