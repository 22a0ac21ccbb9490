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
from hypothesis import example, given, settings, strategies as st

from conftest import random_diffpoly, random_ratfunc
from diffalg import cli
from diffalg.basefield import Poly, RatFunc
from diffalg.diffpoly import DiffPoly, var
from diffalg.errors import MixedArity, NotApplicable, ParseError
from diffalg.parsing import (_power_size, parse_diffpoly, parse_fraction,
                             parse_matrix, parse_ratfunc)


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


def test_parser_builds_each_indeterminate_term_once(monkeypatch):
    # the term of an (order, index) is built on first use and shared by
    # every later occurrence, in this text and in later parses
    made = []
    from_var = DiffPoly.from_var.__func__
    monkeypatch.setattr(DiffPoly, "from_var", classmethod(
        lambda cls, v, m=None: made.append(v) or from_var(cls, v, m)))
    text = "x9^(97)*x9^(97) - 3*x9^(97)*x8^(99) + x9^(97)^2 + x8^(99)"
    p = parse_diffpoly(text)
    assert len(made) <= 2
    u, w = DiffPoly.from_var(var(8, 97)), DiffPoly.from_var(var(7, 99))
    assert p == 2 * u ** 2 - 3 * u * w + w
    assert p.num_indeterminates == 9
    made.clear()
    assert parse_diffpoly(text) == p
    assert made == []


@pytest.mark.parametrize("text", ["x", "x'", "x2^(5)", "x^1", "(x')",
                                  "x*1 + 0"])
def test_editing_a_parse_result_leaves_later_parses_alone(text):
    # the shared terms stay the parser's: a result's terms are its own
    p = parse_diffpoly(text)
    expected = dict(p.terms)
    p.terms.clear()
    p.terms[()] = parse_ratfunc("7")
    assert parse_diffpoly(text).terms == expected
    assert parse_diffpoly("2*" + text) == 2 * DiffPoly(expected,
                                                       p.num_indeterminates)


# expression trees: ("int", v), ("t",), ("x", index or None, order), a
# binary node (op, a, b) for + - * / (the divisor of "/" drawn anywhere or
# from trees without x), ("^", a, k) and ("neg", a); a power's base is a
# leaf or a sum of two, so that nested powers do not blow the degree up
_scalar_leaves = st.one_of(st.integers(0, 4).map(lambda v: ("int", v)), st.just(("t",)))


def _leaves(indices):
    return st.one_of(_scalar_leaves, st.builds(
        lambda i, o: ("x", i, o), st.sampled_from(indices), st.integers(0, 3)))


def _trees(leaves, divisors, size):
    bases = st.one_of(leaves, st.tuples(st.sampled_from("+-"), leaves, leaves))
    return st.recursive(leaves, lambda sub: st.one_of(
        st.tuples(st.sampled_from("+-*/"), sub, sub),
        st.tuples(st.just("/"), sub, divisors),
        st.tuples(st.just("^"), bases, st.integers(0, 3)),
        st.tuples(st.just("neg"), sub)), max_leaves=size)


_scalar_trees = _trees(_scalar_leaves, _scalar_leaves, 4)
_expressions = st.sampled_from([(None,), (0, 1), (None, 1)]).flatmap(
    lambda indices: _trees(_leaves(indices), _scalar_trees, 7))


class _Reference:
    """Renders a tree as text and evaluates it in DiffPoly arithmetic, one
    node at a time, recording the first error the parser must report."""

    def __init__(self):
        self.text = ""
        self.error = None
        self.kinds = set()

    def fail(self, error):
        self.error = self.error or error

    def build(self, node) -> DiffPoly:
        kind = node[0]
        if kind == "int":
            self.text += str(node[1])
            return DiffPoly.const(node[1])
        if kind == "t":
            self.text += "t"
            return DiffPoly.const(RatFunc(Poly.t()))
        if kind == "x":
            _, index, order = node
            column = len(self.text) + 1
            self.kinds.add(index is None)
            if len(self.kinds) > 1:
                self.fail(MixedArity("cannot mix bare x with indexed indeterminates",
                                     column))
            self.text += ("x" if index is None else "x%d" % (index + 1)) + (
                "'" * order if order <= 2 else "^(%d)" % order)
            if order > 100:
                self.fail(NotApplicable("derivative order %d is over the limit "
                                        "of 100" % order))
            return DiffPoly.from_var(var(index or 0, order))
        if kind == "neg":
            self.text += "-("
            value = -self.build(node[1])
            self.text += ")"
            return value
        self.text += "("
        a = self.build(node[1])
        self.text += ")"
        if kind == "^":
            self.text += "^%d" % node[2]
            degree = max((max(c.num.degree(), c.den.degree())
                          for c in a.terms.values()), default=0) * node[2]
            if degree > 1000:
                self.fail(NotApplicable("a power of t-degree %d is over the limit "
                                        "of 1000" % degree))
            return a ** node[2]
        column = len(self.text) + 1
        self.text += kind + "("
        b = self.build(node[2])
        self.text += ")"
        if kind == "+":
            return a + b
        if kind == "-":
            return a - b
        if kind == "*":
            return a * b
        if b.variables():
            self.fail(ParseError("division by an expression containing an "
                                 "indeterminate", column))
        elif b.is_zero():
            self.fail(ZeroDivisionError("division by zero"))
        else:
            # a divisor's indeterminates count, as a factor's do in a*b
            return a * DiffPoly.const(1 / b.constant_coefficient(), b.num_indeterminates)
        return a


@settings(max_examples=300, deadline=None)
@given(_expressions)
@example(("-", ("x", None, 0), ("x", None, 0)))
@example(("*", ("int", 0), ("x", 1, 0)))
@example(("/", ("x", 1, 2), ("-", ("x", 0, 0), ("x", 0, 0))))
@example(("^", ("+", ("t",), ("int", 1)), 1001))
@example(("+", ("x", None, 101), ("x", 0, 0)))
@example(("/", ("x", 0, 0), ("^", ("x", 1, 0), 0)))
@example(("/", ("t",), ("^", ("x", 1, 0), 0)))
@example(("/", ("x", None, 0), ("*", ("x", 1, 0), ("int", 0))))
# x-free powers, zero bases and quotients of the parser's int lists
@example(("^", ("int", 0), 0))
@example(("^", ("-", ("t",), ("t",)), 0))
@example(("/", ("int", 1), ("-", ("t",), ("t",))))
@example(("^", ("+", ("*", ("int", 6), ("t",)), ("int", 6)), 3))
@example(("/", ("neg", ("^", ("-", ("*", ("int", 2), ("t",)), ("int", 2)), 2)),
          ("+", ("t",), ("int", 1))))
def test_parser_matches_diffpoly_arithmetic(tree):
    # the parser keeps x-free values as int lists in Z[t] until a division
    # makes them field elements, and sums into one dict; the same tree
    # evaluated node by node as DiffPolys gives the same polynomial and
    # arity, or the same first error at the same column
    ref = _Reference()
    expected = ref.build(tree)
    if ref.error is None:
        got = parse_diffpoly(ref.text)
        assert got == expected and str(got) == str(expected)
        assert got.num_indeterminates == expected.num_indeterminates
        return
    with pytest.raises(type(ref.error)) as info:
        parse_diffpoly(ref.text)
    assert str(info.value) == str(ref.error)
    assert getattr(info.value, "column", None) == getattr(ref.error, "column", None)


# words of the grammar, characters outside it, and digit runs past the
# int-conversion limit, for the one-pass parser against the token parser
_LIMIT = sys.get_int_max_str_digits()
_parser_texts = st.lists(st.sampled_from(
    ["0", "1", "2", "7", "10", "t", "x", "x1", "x2", "'", "^", "(", ")", "+",
     "-", "*", "/", "^(", "^(3)", " ", "\t", "\n", "²", "#",
     "12345678901234567890", "9" * _LIMIT, "9" * (_LIMIT + 1)]),
    max_size=20).map("".join)


def _parsed(parse, text):
    """The value, its str and its arity, or the error's type, message and
    column.  A DiffPoly prints each exponent as that many sort keys, so a
    value with an exponent of 20 digits is compared unprinted, as is one
    with an integer past the int-conversion limit."""
    try:
        value = parse(text)
    except (ParseError, NotApplicable, ZeroDivisionError) as error:
        return type(error), str(error), getattr(error, "column", None)
    printed = None
    if all(e < 1000 for mono in getattr(value, "terms", ()) for _v, e in mono):
        try:
            printed = str(value)
        except ValueError:
            pass
    return value, printed, getattr(value, "num_indeterminates", None)


@settings(max_examples=400, deadline=None)
@given(_parser_texts)
@example("x^(")
@example("x'''")
@example("x^(101)")
@example("2/x")
@example("x + x1")
@example("x1 + x")
@example("t#1")
@example("x^² + \n")
@example("1 + " + "0" * (_LIMIT + 1) + "²")
@example("(x")
@example("(t+1) 2")
@example("t^x")
@example("x^(3")
@example("x^(007)*")
@example("1/(t-t)")
@example("t^1001")
@example("(x+t)^1000")
@example("(x+t)^38 - x'")
@example("-(x*x1)^2/7 + 3")
def test_one_pass_parser_matches_token_parser(text):
    # the earlier token parser, kept in tests/oracles.py, reads the same
    # value, arity and first error off every string, in both entry points
    import oracles

    for ours, theirs in ((parse_diffpoly, oracles.parse_diffpoly),
                         (parse_ratfunc, oracles.parse_ratfunc)):
        assert _parsed(ours, text) == _parsed(theirs, text)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-9, 9), max_size=4),
       st.sampled_from([1, -1, 2, -6, 9]), st.integers(0, 7))
@example([1, 1], -1, 3)
@example([0, 0, 5], 1, 4)
@example([], 1, 3)
@example([2, 3], 1, 0)
def test_int_power_matches_repeated_squaring(a, c, e):
    # parsing._int_power is Poly.__pow__ on the primitive part; the
    # earlier loop over int lists, kept in tests/oracles.py, gives the
    # same value and the same kind: ints for a content +-1 (a negative
    # lead included), a RatFunc otherwise
    import oracles
    from diffalg.parsing import _int_power

    a = [c * x for x in a[:max([k + 1 for k, x in enumerate(a) if x], default=0)]]
    got, want = _int_power(list(a), e), oracles._int_power(list(a), e)
    assert type(got) is type(want) and got == want


def test_digits_are_ascii():
    # str.isdigit accepts superscripts and other scripts' digits, which
    # int() rejects or reads as numbers; the grammar's digits are 0-9
    for text, char, column in (("x^²", "²", 3),
                               ("x^٣", "٣", 3),
                               ("x^(١٢)", "١", 4)):
        message = "unexpected character %r (column %d)" % (char, column)
        assert invoke(["order", text]) == (2, "", "error: %s\n" % message)


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


_SPACE = st.sampled_from(["", " ", "\t", "  ", "\n", "\u00a0", "\u3000"])
_DIGIT_RUN = st.text(alphabet="0123456789", min_size=1, max_size=5)
_GROUPED = st.builds(lambda head, tail: head + "".join("_" + d for d in tail),
                     _DIGIT_RUN, st.lists(_DIGIT_RUN, max_size=2))
_NUMBER = st.one_of(
    _GROUPED,
    st.builds("{}.{}".format, _GROUPED, _DIGIT_RUN),
    st.builds(".{}".format, _DIGIT_RUN),
    st.builds("{}/{}".format, _GROUPED, _GROUPED),
    st.builds("{}{}{}{}".format, _GROUPED, st.sampled_from("eE"),
              st.sampled_from(["", "+", "-"]), _DIGIT_RUN))
_ENTRY = st.one_of(
    st.builds("{}{}{}{}".format, _SPACE, st.sampled_from(["", "+", "-", "+-"]),
              _NUMBER, _SPACE),
    st.text(alphabet="0123456789+-_./eE \t\u0663\u00b2x", max_size=8))


@settings(max_examples=300, deadline=None)
@given(_ENTRY)
@example("")
@example(" -0 ")
@example("+007")
@example("1__0")
@example("_1")
@example("1/0")
@example("9" * 5000)
@example("-" + "9" * 4300)
@example("\u0663")  # an Arabic-Indic three: int and Fraction read it
@example("\u00b2")  # a superscript two: isdigit() holds, both refuse it
def test_matrix_entry_reads_as_fraction_reads_it(text):
    # an entry that int() reads skips Fraction; the value, or the error,
    # is the one Fraction gives
    try:
        expected = Fraction(text.strip())
    except ValueError:
        with pytest.raises(ParseError, match="expected a rational number"):
            parse_matrix(text)
        return
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            parse_matrix(text)
        return
    m = parse_matrix(text)
    assert m.entries == ((expected,),)
    assert m.rows == ((expected.numerator,),) and m.dens == (expected.denominator,)


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
    # sparse rows of high degree stay in Z[t]: packed into Z at t = 2^s,
    # each entry would cost about 1000*s bits, and this took over 300 s
    result, elapsed = _timed(["wronskian"] + ["t^%d" % (1000 - 97 * j)
                                              for j in range(8)])
    assert result[0] == 0 and result[2] == "" and elapsed < 1.0
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


_SIZE_MESSAGE = ("a power's estimated size (terms x (t-degree + 1) x "
                 "coefficient bits) is over the limit of 2097152")


def test_size_budgets():
    # each ran for 17-90 s and exited 0 before the budgets
    for argv, message in [
            (["order", "(1+t)^3000"],
             "a power of t-degree 3000 is over the limit of 1000"),
            (["order", "t^2000000"],
             "a power of t-degree 2000000 is over the limit of 1000"),
            (["reduce", "x^(800)", "--mod", "x'-x"],
             "derivative order 800 is over the limit of 100"),
            (["order", "(123456789*t+987654321)^1000"], _SIZE_MESSAGE),
            (["order", "(x+t)^1000"], _SIZE_MESSAGE)]:
        result, elapsed = _timed(argv)
        assert result == (1, "", "error: %s\n" % message)
        assert elapsed < 1
    # the limits themselves are accepted, and the budget reads the base's
    # t-degree: a power of a constant is not refused
    assert invoke(["order", "(1+t)^1000"]) == (0, "-1\n", "")
    assert invoke(["order", "(1+2*t)^1000"]) == (0, "-1\n", "")
    assert invoke(["order", "(t^2+1)^501"])[0] == 1
    assert invoke(["order", "x^(100) + 2^2000"]) == (0, "100\n", "")
    code, out, _ = invoke(["order", "x^(101)", "--format", "json"])
    assert code == 1 and json.loads(out)["error"] == "domain"


def test_power_budget_counts_the_last_squaring():
    # a sum of m terms is sized by its last squaring, C(m+h-1, h)^2 pairs
    # of terms of p^h, h = ceil(e/2), not by C(m+e-1, e)^2: these took
    # 0.02-0.5 s and were refused
    for text in ("(x+t)^38", "(x+x'+t)^12", "(x+t)^40", "(x+x'+t)^18"):
        result, elapsed = _timed(["order", text])
        assert result[0] == 0 and elapsed < 1
    # (x+1)^700 took 4.5 s
    for text in ("(x+1)^700", "(x+t)^1000", "(x+t)^53"):
        result, elapsed = _timed(["order", text])
        assert result == (1, "", "error: %s\n" % _SIZE_MESSAGE)
        assert elapsed < 1


def test_single_term_power_is_sized_by_its_coefficient():
    # a unit term, as in x^2, is sized 0 at once; any other single term
    # as the power of its coefficient alone
    for text in ("x", "x^(3)", "x*x'", "x^5*x'"):
        for e in (2, 7, 10 ** 6):
            assert _power_size(parse_diffpoly(text), e) == (0, 0) \
                == _power_size(RatFunc(1), e)
    rng = Random(23)
    for _ in range(40):
        c = random_ratfunc(rng, nonzero=True)
        term = DiffPoly.from_var(var(rng.randint(0, 2), 0)) * DiffPoly.const(c)
        for e in (2, 5, 40):
            assert _power_size(term, e) == _power_size(c, e)


def test_huge_exponents_print_without_expanding():
    # printing sorted the terms by a key that repeated each variable by
    # its exponent: this raised OverflowError out of cli.run
    result, elapsed = _timed(["derive", "x^12345678901234567890"])
    assert result == (0, "12345678901234567890*x^12345678901234567889*x'\n", "")
    assert elapsed < 1


def test_nesting_limit():
    # 400 levels raised RecursionError out of cli.run; the limit is a
    # domain error, in batch mode too, which stops at its line
    message = "error: parentheses nested deeper than 100\n"
    deep = "(" * 400 + "t" + ")" * 400
    assert invoke(["order", "(" * 100 + "t" + ")" * 100]) == (0, "-1\n", "")
    assert invoke(["order", "(" * 101 + "t" + ")" * 101]) == (1, "", message)
    assert invoke(["order", deep]) == (1, "", message)
    out, err = io.StringIO(), io.StringIO()
    code = cli._batch(io.StringIO('order t\norder "%s"\norder t\n' % deep),
                      out, err)
    assert (code, out.getvalue()) == (1, "-1\n")
    assert err.getvalue() == message + "error: batch stopped at line 2\n"


def test_series_command_builds_fractions_per_initial_value(monkeypatch):
    # the series run on int pairs from the parsed input to the printed
    # coefficient: the Fractions left are the parser's and the n^2 initial
    # values y_i^(j)(t0)/j!, none per coefficient
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)
    argv = ["solve-series", "(t+1)/(2-3*t)", "t/3", "-2", "--precision", "40",
            "--base-point", "-1/2"]
    invoke(argv)
    monkeypatch.setattr(Fraction, "__new__", counting)
    code, out, _ = invoke(argv)
    monkeypatch.undo()
    assert code == 0 and len(out.splitlines()) == 3
    n = 3
    assert len(made) <= 4 * n * n


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


_SHLEX_ALPHABET = ["a", "b", "'", '"', "\\", " ", "\t", "\n", "\r", "\x0b",
                   "#"]


def _words(split, line):
    try:
        return split(line)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_SHLEX_ALPHABET), max_size=16).map("".join))
@example("'a b'\\ \"\\\"\\\\\\x\"")
@example("a\\")
@example('"a\\')
@example('"a\\\\')
@example("''")
@example("a\x0bb\rb")
def test_batch_splitter_against_shlex(line):
    import shlex

    # the words, or the error message: "No closing quotation" or "No
    # escaped character"
    assert _words(cli._split, line) == _words(shlex.split, line)


def test_module_entry_point():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "diffalg.cli", "separant", "(x')^2-2*x"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0
    assert proc.stdout == "2*x'\n"


def test_cli_import_loads_no_dataclasses():
    # the records are plain classes: dataclasses imports inspect, which
    # pulls in ast, dis and tokenize (0.75 MB of the 3.4 MB peak that
    # importing diffalg.cli added); residues is imported on the first
    # residue, as compiling it at start cost every command 0.45 MB of peak,
    # and hermite on the first Hermite reduction
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, diffalg.cli; print(sorted("
         "{'dataclasses', 'inspect', 'diffalg.cli', 'diffalg.residues',"
         " 'diffalg.hermite'} & set(sys.modules)))"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout == "['diffalg.cli']\n"


def test_ritt_command_loads_no_verb_module():
    # the other verbs' modules stay unrun (only entered in sys.modules, for
    # a LazyLoader to run them on first use), and random and shlex are
    # imported by the verbs that use them; -S keeps site's imports out
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import io, sys, types, diffalg.cli\n"
         "diffalg.cli.run(['reduce', \"x''-1\", '--mod', \"(x')^2-2*x\"],"
         " io.StringIO(), io.StringIO())\n"
         "names = ['diffalg.' + m for m in ('galois', 'matgroup', 'odeseries',"
         " 'wronskian', 'diffpoly')] + ['random', 'shlex']\n"
         "print([n for n in names if type(sys.modules.get(n)) is types.ModuleType])"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout == "['diffalg.diffpoly']\n"


def test_lazy_exports_keep_their_objects():
    import diffalg
    import diffalg.wronskian as module
    from diffalg import wronskian as function

    # the function keeps the name that its module shares
    assert function is diffalg.wronskian is sys.modules["diffalg.wronskian"].wronskian
    assert module is function
    assert diffalg.galois is sys.modules["diffalg.galois"]
    assert "wronskian" in dir(diffalg)
    with pytest.raises(AttributeError):
        diffalg.no_such_name


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


def test_bench_tracer_spans_commands_and_restores(monkeypatch):
    # bench/tracer.py patches each span by module and attribute name, so
    # install() fails here when a refactor moves or removes a spanned name
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__),
                                             os.pardir, "bench"))
    import tracer

    argvs = (["classify-exp", "(3/4)/(2*t+1) + (3/4)/(2*t-1)"],
             ["gl-witness", "3", "--seed", "1"])
    untraced = [invoke(argv) for argv in argvs]
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = [invoke(argv) for argv in argvs]
    finally:
        tr.uninstall()
    assert tr.restored()
    assert traced == untraced
    for span, calls in (("cli.run", 2), ("cli.handler", 2),
                        ("galois.classify_exponential_extension", 1),
                        ("matgroup.gl_invariance_witness", 1)):
        assert tr.stats[span].calls == calls
