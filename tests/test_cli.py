"""Parser, pretty-printer round trips, and command-line behavior."""

import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from random import Random

import pytest

from conftest import random_diffpoly, random_ratfunc
from diffalg import cli
from diffalg.basefield import Poly, RatFunc
from diffalg.diffpoly import DiffPoly, var
from diffalg.errors import MixedArity, ParseError
from diffalg.parsing import (parse_diffpoly, parse_fraction, parse_matrix,
                             parse_ratfunc)


def invoke(args):
    out = io.StringIO()
    err = io.StringIO()
    code = cli.run(args, out, err)
    return code, out.getvalue(), err.getvalue()


def test_parse_ratfunc_examples():
    f = parse_ratfunc("(t^2+1)/(t-1)")
    assert f.num == Poly((1, 0, 1))
    assert f.den == Poly((-1, 1))
    assert parse_ratfunc("2/4") == RatFunc(Fraction(1, 2))


def test_parse_error_column():
    with pytest.raises(ParseError) as info:
        parse_ratfunc("t++1")
    assert info.value.column == 3
    with pytest.raises(ParseError) as info:
        parse_ratfunc("(t+1")
    assert info.value.column == 5


def test_parse_diffpoly_examples():
    x = DiffPoly.from_var(var(0, 0))
    x1 = DiffPoly.from_var(var(0, 1))
    assert parse_diffpoly("(x')^2 - 2*x") == x1 ** 2 - 2 * x
    p = parse_diffpoly("x^(3) + t*x")
    assert max(v.order for v in p.variables()) == 3
    w = parse_diffpoly("x1'*x2 - x2'*x1")
    assert w.num_indeterminates == 2
    # prime syntax and the ^(k) marker address the same variable
    assert parse_diffpoly("x''") == parse_diffpoly("x^(2)")


def test_mixed_arity_rejected():
    with pytest.raises(MixedArity):
        parse_diffpoly("x + x1")
    with pytest.raises(MixedArity):
        parse_diffpoly("x2*x' ")


def test_prime_limit():
    with pytest.raises(ParseError) as info:
        parse_diffpoly("x'''")
    assert info.value.column == 4
    assert parse_diffpoly("x^(4)") == DiffPoly.from_var(var(0, 4))


def test_derivative_marker_only_on_indeterminates():
    # t^(2) is not valid exponent syntax; exponents take bare integers
    with pytest.raises(ParseError):
        parse_ratfunc("t^(2)")
    assert parse_ratfunc("t^2") == RatFunc(Poly((0, 0, 1)))


def test_division_rules():
    with pytest.raises(ParseError):
        parse_diffpoly("1/x")
    with pytest.raises(ZeroDivisionError):
        parse_ratfunc("1/0")
    with pytest.raises(ZeroDivisionError):
        parse_ratfunc("1/(t-t)")
    half_x = parse_diffpoly("x/2")
    assert half_x == DiffPoly.from_var(var(0, 0)) * DiffPoly.const(
        Fraction(1, 2))


def test_matrix_and_fraction_literals():
    m = parse_matrix("1,0;0,1")
    assert m.det() == 1
    assert parse_matrix("1/2,0;0,2").det() == 1
    assert parse_fraction("-3/2") == Fraction(-3, 2)
    with pytest.raises(ParseError):
        parse_fraction("t")


def test_roundtrip_ratfunc():
    rng = Random(20260801)
    for _ in range(200):
        f = random_ratfunc(rng)
        assert parse_ratfunc(str(f)) == f


def test_roundtrip_diffpoly():
    rng = Random(20260802)
    for _ in range(200):
        p = random_diffpoly(rng, num_indeterminates=rng.randint(1, 3),
                            max_order=4)
        assert parse_diffpoly(str(p)) == p


def test_documented_invocations():
    code, out, err = invoke(["separant", "(x')^2-2*x"])
    assert (code, out, err) == (0, "2*x'\n", "")
    code, out, err = invoke(["member", "x''-1", "--mod", "(x')^2-2*x"])
    assert (code, out, err) == (0, "true\n", "")
    code, out, err = invoke(["classify-exp", "1/(2*t)", "--format", "json"])
    assert code == 0
    assert out == ('{"group":"cyclic","n":2,"beta":"t",'
                   '"minimal_polynomial":"X^2 - c*t","dimension":0}\n')


def test_verb_outputs():
    assert invoke(["derive", "(x')^2-2*x"])[1] == "2*x'*x'' - 2*x'\n"
    assert invoke(["order", "x^(3)+t*x"])[1] == "3\n"
    assert invoke(["order", "7"])[1] == "-1\n"
    assert invoke(["wronskian", "t", "t^2"])[1] == "t^2\n"
    assert invoke(["ode-from", "t", "t^2"])[1] == \
        "y'' - 2/t*y' + 2/t^2*y = 0\n"
    code, out, _ = invoke(["depend", "t", "2*t", "t^2"])
    assert out.splitlines() == ["true", "certificate: 1 -1/2 0"]
    code, out, _ = invoke(["reduce", "x''-1", "--mod", "(x')^2-2*x"])
    assert out.splitlines() == [
        "remainder: 0",
        "separant_power: 1",
        "initial_power: 0",
        "certificate[0]: derivative 1, cofactor 1",
    ]


def test_solve_series_verb():
    code, out, _ = invoke(["solve-series", "0", "-1", "--precision", "6"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1 + 1/2*t^2 + 1/24*t^4 + 1/720*t^6 + O(t^7)"
    assert lines[1] == "t + 1/6*t^3 + 1/120*t^5 + O(t^7)"


def test_group_check_verb():
    assert invoke(["group-check", "sl2", "1,1;0,1"]) == (0, "true\n", "")
    assert invoke(["group-check", "sl2", "2,0;0,1"]) == (0, "false\n", "")
    assert invoke(["group-check", "mu4", "-1"]) == (0, "true\n", "")
    code, _, err = invoke(["group-check", "borel", "1"])
    assert code == 2 and "unknown group" in err
    # a group number past the int-conversion limit is the input's fault
    limit = sys.get_int_max_str_digits()
    for family in ("mu", "gl"):
        message = "the number in group %s<...> has more than %d digits" \
            % (family, limit)
        argv = ["group-check", family + "9" * (limit + 700), "1"]
        assert invoke(argv) == (2, "", "error: %s\n" % message)
        code, out, _ = invoke(argv + ["--format", "json"])
        assert code == 2 and json.loads(out) == {"error": "usage",
                                                 "message": message}


def test_exit_codes():
    assert invoke(["order", "t++1"])[0] == 2
    assert invoke(["order", "0"])[0] == 1
    assert invoke(["wronskian", "1/0"])[0] == 1
    assert invoke(["member", "x"])[0] == 2
    assert invoke(["frobnicate"])[0] == 2
    assert invoke(["solve-series", "1/t", "--base-point", "0"])[0] == 1
    assert invoke(["gl-witness", "2", "--matrix", "1,1;1,1"])[0] == 1


def test_json_error_objects():
    code, out, err = invoke(["order", "t++1", "--format", "json"])
    assert code == 2 and err == ""
    assert json.loads(out) == {"error": "syntax",
                               "message": "unexpected '+'", "column": 3}
    code, out, err = invoke(["order", "0", "--format", "json"])
    assert code == 1
    assert json.loads(out)["error"] == "domain"
    # options are checked after --format is read, and a zero
    # denominator in a number is the domain error of one in an expression
    for args, code, error in (
            (["solve-series", "1", "--precision", "x"], 2,
             {"error": "usage",
              "message": "--seed and --precision take integers"}),
            (["solve-series", "1", "--base-point", "abc"], 2,
             {"error": "syntax", "message": "expected a rational number",
              "column": 1}),
            (["solve-series", "1", "--base-point", "1/0"], 1,
             {"error": "domain", "message": "division by zero"}),
            (["group-check", "sl2", "1/0,0;0,1"], 1,
             {"error": "domain", "message": "division by zero"}),
            (["derive", "x", "--frob", "1"], 2,
             {"error": "usage", "message": "unknown option --frob"})):
        assert invoke(args) == (code, "", "error: %s%s\n" % (
            error["message"], " (column 1)" if "column" in error else ""))
        assert invoke(args + ["--format", "json"]) == (
            code, json.dumps(error, separators=(",", ":")) + "\n", "")


def test_errors_name_variables_as_typed():
    assert invoke(["separant", "t"]) == (
        1, "", "error: polynomial has no positive-rank leader in x\n")


def test_errors_never_print_partial_results():
    code, out, err = invoke(["wronskian", "t", "1/0"])
    assert code == 1 and out == ""
    assert err.startswith("error:")


def test_deterministic_output():
    first = invoke(["gl-witness", "3", "--seed", "11", "--format", "json"])
    second = invoke(["gl-witness", "3", "--seed", "11", "--format", "json"])
    assert first == second == (0, '{"kind":"bool","result":true}\n', "")
    assert invoke(["gl-witness", "2", "--seed", "4"]) == (0, "true\n", "")


def _timed(args):
    started = time.perf_counter()
    result = invoke(args)
    return result, time.perf_counter() - started


def test_large_sizes_stay_fast():
    # sl<n> is decided as det = 1 and gl-witness evaluates instead of
    # expanding; the n!-term polynomials took 82 s at sl7 and over 60 s
    # at gl-witness 5
    identity = ";".join(",".join("1" if i == j else "0" for j in range(8))
                        for i in range(8))
    result, elapsed = _timed(["group-check", "sl8", identity])
    assert result == (0, "true\n", "") and elapsed < 1.0
    result, elapsed = _timed(["gl-witness", "6", "--seed", "3"])
    assert result == (0, "true\n", "") and elapsed < 10.0
    # mu<k> reads z^k = 1 as z = 1, or z = -1 with k even; forming
    # (3/2)^k took about 9 s at k = 10^6
    result, elapsed = _timed(["group-check", "mu10000000", "3/2"])
    assert result == (0, "false\n", "") and elapsed < 1.0
    for group, entry, answer in (("mu10000000", "1", "true"),
                                 ("mu10000000", "-1", "true"),
                                 ("mu9999999", "-1", "false")):
        assert invoke(["group-check", group, entry]) == (0, answer + "\n", "")


def test_gl_witness_size_limit():
    assert invoke(["gl-witness", "8", "--matrix", ";".join(
        ",".join("1" if i == j else "0" for j in range(8)) for i in range(8))]) \
        == (0, "true\n", "")
    for size in ("9", "0"):
        code, out, err = invoke(["gl-witness", size])
        assert code == 1 and out == ""
        assert err == "error: matrix size must be between 1 and 8\n"


def test_series_precision_limit():
    # 10^12 ran out of memory and 10^8 ran for hours
    for precision in ("1000000000000", "100000000", "513"):
        result, elapsed = _timed(["solve-series", "0", "-1",
                                  "--precision", precision])
        assert result == (1, "", "error: precision must be at most 512\n")
        assert elapsed < 0.5
    code, out, err = invoke(["solve-series", "0", "-1", "--precision", "512"])
    assert code == 0 and err == "" and out.count("O(t^513)") == 2


def test_size_budgets():
    # each ran for 17-90 s and exited 0 before the budgets
    for argv, message in [
            (["order", "(1+t)^3000"],
             "a power of t-degree 3000 is over the limit of 1000"),
            (["order", "t^2000000"],
             "a power of t-degree 2000000 is over the limit of 1000"),
            (["reduce", "x^(800)", "--mod", "x'-x"],
             "derivative order 800 is over the limit of 100")]:
        result, elapsed = _timed(argv)
        assert result == (1, "", "error: %s\n" % message)
        assert elapsed < 1
    # the limits themselves are accepted, and the budget reads the base's
    # t-degree: a power of a constant is not refused
    assert invoke(["order", "(1+t)^1000"]) == (0, "-1\n", "")
    assert invoke(["order", "(t^2+1)^501"])[0] == 1
    assert invoke(["order", "x^(100) + 2^2000"]) == (0, "100\n", "")
    code, out, _ = invoke(["order", "x^(101)", "--format", "json"])
    assert code == 1 and json.loads(out)["error"] == "domain"


def test_long_integers_are_errors():
    limit = sys.get_int_max_str_digits()
    # a literal past the int-conversion limit is a syntax error at its column
    code, out, err = invoke(["order", "x + " + "1" * (limit + 100)])
    assert (code, out) == (2, "")
    assert err == ("error: integer literal longer than %d digits (column 5)\n"
                   % limit)
    # an answer past it is a domain error, with nothing partial on stdout
    message = "the answer has an integer of more than %d digits" % limit
    big = "10^%d*x" % (limit + 100)
    assert invoke(["derive", big]) == (1, "", "error: %s\n" % message)
    code, out, err = invoke(["derive", big, "--format", "json"])
    assert (code, err) == (1, "")
    assert json.loads(out) == {"error": "domain", "message": message}
    assert invoke(["solve-series", "10^9", "--precision", "512"]) \
        == (1, "", "error: %s\n" % message)


def test_other_value_errors_propagate(monkeypatch):
    def broken(pos, opts):
        raise ValueError("not about digits")
    monkeypatch.setitem(cli._HANDLERS, "derive", broken)
    with pytest.raises(ValueError, match="not about digits"):
        invoke(["derive", "x"])


def test_batch_mode():
    script = "\n".join([
        "# fundamental example",
        "",
        "separant \"(x')^2-2*x\"",
        "member \"x''-1\" --mod \"(x')^2-2*x\"",
    ]) + "\n"
    out = io.StringIO()
    err = io.StringIO()
    code = cli._batch(io.StringIO(script), out, err)
    assert code == 0
    assert out.getvalue() == "2*x'\ntrue\n"
    # processing stops at the first failing line
    out = io.StringIO()
    err = io.StringIO()
    code = cli._batch(io.StringIO("order \"t++1\"\norder \"t\"\n"), out, err)
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue() == ("error: unexpected '+' (column 3)\n"
                              "error: batch stopped at line 1\n")
    # the line number counts blank and comment lines; a domain error
    # keeps its exit code and a shlex error exits 2
    out = io.StringIO()
    err = io.StringIO()
    code = cli._batch(io.StringIO(script + "separant t\norder t\n"), out, err)
    assert code == 1
    assert out.getvalue() == "2*x'\ntrue\n"
    assert err.getvalue().endswith("\nerror: batch stopped at line 5\n")
    out = io.StringIO()
    err = io.StringIO()
    code = cli._batch(io.StringIO("\norder t\norder \"t\n"), out, err)
    assert code == 2
    assert out.getvalue() == "-1\n"
    assert err.getvalue() == ("error: No closing quotation\n"
                              "error: batch stopped at line 3\n")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "diffalg.cli", "separant", "(x')^2-2*x"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "2*x'\n"


def test_cli_import_loads_no_dataclasses():
    # the records are plain classes: dataclasses imports inspect, which
    # pulls in ast, dis and tokenize (0.75 MB of the 3.4 MB peak that
    # importing diffalg.cli added)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, diffalg.cli; print(sorted("
         "{'dataclasses', 'inspect', 'diffalg.cli'} & set(sys.modules)))"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout == "['diffalg.cli']\n"


_ONE_PER_VERB = [
    ["derive", "(x')^2-2*x"],
    ["order", "x''"],
    ["separant", "(x')^2"],
    ["reduce", "x''-1", "--mod", "(x')^2-2*x"],
    ["member", "x''-1", "--mod", "(x')^2-2*x"],
    ["wronskian", "t", "t^2"],
    ["depend", "t", "2*t"],
    ["ode-from", "1/t", "t^2"],
    ["solve-series", "1/t", "--base-point", "1", "--precision", "4"],
    ["classify-int", "1/t"],
    ["classify-exp", "(3*t^2-2*t+1)/(3*t^3-3*t^2+3*t-3)"],
    ["group-check", "sl2", "1,1;0,1"],
    ["gl-witness", "2", "--seed", "4"],
]


def test_no_verb_imports_sympy():
    # the library runs without sympy: residues are found with no
    # factorization, so no command may pull it in
    assert sorted(argv[0] for argv in _ONE_PER_VERB) == sorted(cli._HANDLERS)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import io, json, sys\nfrom diffalg import cli\n"
         "codes = [cli.run(a, io.StringIO(), io.StringIO()) "
         "for a in json.loads(sys.argv[1])]\n"
         "print(codes, 'sympy' in sys.modules)",
         json.dumps(_ONE_PER_VERB)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout == "%s False\n" % ([0] * len(_ONE_PER_VERB),)


def test_every_exported_name_resolves():
    import diffalg

    assert [name for name in diffalg.__all__ if not hasattr(diffalg, name)] == []
