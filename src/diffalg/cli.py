"""Command-line front end.

Every library operation is exposed as a verb.  Output is deterministic:
the same invocation with the same --seed produces byte-identical output.

Exit codes: 0 success, 1 domain error (the input is well formed but the
operation does not apply), 2 syntax or usage error.
"""

import json
import re
import sys
from fractions import Fraction

from .basefield import Poly, RatFunc
from .diffpoly import DerivVar, DiffPoly, ritt_reduce, in_general_ideal
from .errors import DiffAlgError, NotApplicable, ParseError
from .parsing import (parse_diffpoly, parse_fraction, parse_matrix,
                      parse_ratfunc)

_USAGE = """\
usage: diffalg VERB [ARGS] [--format text|json] [--seed N]
               [--precision N] [--base-point Q] [--mod POLY] [--matrix M]

verbs:
  derive EXPR               derivative of a differential polynomial
  order EXPR                largest derivative order present (-1 if none)
  separant EXPR             partial derivative with respect to the leader
  reduce EXPR --mod P       Ritt reduction with certificate
  member EXPR --mod P       membership in the general-solution ideal of P
  wronskian F1 [F2 ...]     Wronskian determinant of rational functions
  depend F1 [F2 ...]        linear dependence over the constants
  ode-from F1 [F2 ...]      monic linear ODE with the given solution basis
  solve-series A1 [A2 ...]  series fundamental system of y^(n)+a1*y^(n-1)+...
  classify-int A            Galois group of an antiderivative of A
  classify-exp A            Galois group of an exponential of A
  group-check GROUP MATRIX  membership in a catalog matrix group
  gl-witness N              invariance of Wronskian coefficient ratios, N <= 8

GROUP is one of gl<n>, sl<n>, unipotent, gm, mu<k>.  MATRIX literals use
commas between entries and semicolons between rows, e.g. "1,0;0,1".
With no arguments, commands are read one per line from standard input.
"""


class UsageError(Exception):
    pass


_FLAGS = ("--format", "--seed", "--precision", "--base-point", "--mod",
          "--matrix")


def _split_argv(argv):
    positionals = []
    flags = {}
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg.startswith("--"):
            name, eq, value = arg.partition("=")
            if name not in _FLAGS:
                raise UsageError("unknown option %s" % name)
            if not eq:
                if i + 1 >= len(argv):
                    raise UsageError("option %s needs a value" % name)
                i += 1
                value = argv[i]
            flags[name] = value
        else:
            positionals.append(arg)
        i += 1
    return positionals, flags


def _format_of(argv) -> str:
    """The value of the last --format in argv, read before the options are
    checked, so that their errors are reported in a valid format."""
    fmt = "text"
    for i, arg in enumerate(argv):
        if arg.startswith("--format="):
            fmt = arg[len("--format="):]
        elif arg == "--format" and i + 1 < len(argv):
            fmt = argv[i + 1]
    return fmt


class _Options:
    def __init__(self, flags: dict):
        self.format = flags.get("--format", "text")
        if self.format not in ("text", "json"):
            raise UsageError("--format must be text or json")
        try:
            self.seed = int(flags.get("--seed", "0"))
            self.precision = int(flags.get("--precision", "16"))
        except ValueError:
            raise UsageError("--seed and --precision take integers") from None
        self.base_point = parse_fraction(flags.get("--base-point", "0"))
        self.mod = flags.get("--mod")
        self.matrix = flags.get("--matrix")


def _need(positionals, count, usage):
    if len(positionals) != count:
        raise UsageError("usage: diffalg %s" % usage)


def _need_some(positionals, usage):
    if not positionals:
        raise UsageError("usage: diffalg %s" % usage)


def _single_indeterminate(p: DiffPoly, verb: str) -> DiffPoly:
    if p.num_indeterminates > 1:
        raise NotApplicable("%s needs a single-indeterminate polynomial"
                            % verb)
    return p


def _modulus(opts) -> DiffPoly:
    if opts.mod is None:
        raise UsageError("this verb needs --mod POLY")
    return _single_indeterminate(parse_diffpoly(opts.mod), "--mod")


def _cmd_derive(pos, opts):
    _need(pos, 1, "derive EXPR")
    d = str(parse_diffpoly(pos[0]).derive())
    return d, {"kind": "diffpoly", "result": d}


def _cmd_order(pos, opts):
    _need(pos, 1, "order EXPR")
    p = parse_diffpoly(pos[0])
    if p.is_zero():
        raise NotApplicable("the zero polynomial has no order")
    vs = p.variables()
    n = max(v.order for v in vs) if vs else -1
    return str(n), {"kind": "int", "result": n}


def _cmd_separant(pos, opts):
    _need(pos, 1, "separant EXPR")
    s = str(_single_indeterminate(parse_diffpoly(pos[0]), "separant").separant())
    return s, {"kind": "diffpoly", "result": s}


def _cmd_reduce(pos, opts):
    _need(pos, 1, "reduce EXPR --mod P")
    q = _single_indeterminate(parse_diffpoly(pos[0]), "reduce")
    res = ritt_reduce(q, _modulus(opts))
    rem = str(res.remainder)
    lines = ["remainder: %s" % rem,
             "separant_power: %d" % res.sep_power,
             "initial_power: %d" % res.init_power]
    cert = []
    for idx, (k, cof) in enumerate(res.certificate):
        cof = str(cof)
        lines.append("certificate[%d]: derivative %d, cofactor %s"
                     % (idx, k, cof))
        cert.append({"derivative": k, "cofactor": cof})
    payload = {"kind": "reduction", "result": rem,
               "separant_power": res.sep_power,
               "initial_power": res.init_power, "certificate": cert}
    return "\n".join(lines), payload


def _cmd_member(pos, opts):
    _need(pos, 1, "member EXPR --mod P")
    q = _single_indeterminate(parse_diffpoly(pos[0]), "member")
    ok = in_general_ideal(q, _modulus(opts))
    return ("true" if ok else "false"), {"kind": "bool", "result": ok}


def _cmd_wronskian(pos, opts):
    from .wronskian import wronskian

    _need_some(pos, "wronskian F1 [F2 ...]")
    w = str(wronskian([parse_ratfunc(f) for f in pos]))
    return w, {"kind": "ratfunc", "result": w}


def _cmd_depend(pos, opts):
    from .wronskian import dependence_certificate

    _need_some(pos, "depend F1 [F2 ...]")
    cert = dependence_certificate([parse_ratfunc(f) for f in pos])
    if cert is None:
        return "false", {"kind": "bool", "result": False}
    cert = [str(c) for c in cert]
    return ("true\ncertificate: %s" % " ".join(cert),
            {"kind": "bool", "result": True, "certificate": cert})


def _cmd_ode_from(pos, opts):
    from .wronskian import FundamentalSystem, ode_from_fundamental_system

    _need_some(pos, "ode-from F1 [F2 ...]")
    fs = FundamentalSystem([parse_ratfunc(f) for f in pos])
    ode = ode_from_fundamental_system(fs)
    text = str(ode)
    payload = {"kind": "ode", "result": text}
    if opts.format == "json":
        payload["coefficients"] = [str(a) for a in ode.coeffs]
    return text, payload


# order 4 at precision 512 takes 0.09-0.17 s on a 2-core x86-64 host (the
# 40 order-4 equations of the series-batch corpus, seed 1)
_SERIES_PRECISION_MAX = 512


def _cmd_solve_series(pos, opts):
    from .odeseries import fundamental_system_series
    from .wronskian import LinearODE

    _need_some(pos, "solve-series A1 [A2 ...] [--precision N] "
               "[--base-point Q]")
    if opts.precision > _SERIES_PRECISION_MAX:
        raise NotApplicable("precision must be at most %d"
                            % _SERIES_PRECISION_MAX)
    ode = LinearODE(len(pos), [parse_ratfunc(a) for a in pos])
    sols = [str(s) for s in
            fundamental_system_series(ode, opts.base_point, opts.precision)]
    return "\n".join(sols), {"kind": "series", "result": sols}


def _descriptor_output(d):
    from .galois import descriptor_dimension, GroupKind

    payload = {"group": d.kind.value}
    if d.kind is GroupKind.CYCLIC:
        payload["n"] = d.n
        payload["beta"] = str(d.witness)
        payload["minimal_polynomial"] = d.minimal_polynomial()
    elif d.witness is not None:
        payload["witness"] = str(d.witness)
    payload["dimension"] = descriptor_dimension(d)
    text_keys = ("n", "beta", "dimension", "minimal_polynomial", "witness")
    parts = ["%s=%s" % (key, payload[key]) for key in text_keys if key in payload]
    return " ".join([d.kind.value] + parts), payload


def _cmd_classify_int(pos, opts):
    from .galois import classify_antiderivative_extension

    _need(pos, 1, "classify-int A")
    return _descriptor_output(
        classify_antiderivative_extension(parse_ratfunc(pos[0])))


def _cmd_classify_exp(pos, opts):
    from .galois import classify_exponential_extension

    _need(pos, 1, "classify-exp A")
    return _descriptor_output(
        classify_exponential_extension(parse_ratfunc(pos[0])))


_GROUP_PATTERN = re.compile(r"^(gl|sl|mu)([0-9]+)$")


def _named_group(label: str):
    from .matgroup import catalog_group, GroupLabel

    if label == "unipotent":
        return catalog_group(GroupLabel.UNIPOTENT_ADDITIVE, 2)
    if label == "gm":
        return catalog_group(GroupLabel.DIAGONAL_MULTIPLICATIVE, 1)
    m = _GROUP_PATTERN.match(label)
    if m is None:
        raise UsageError("unknown group %r; use gl<n>, sl<n>, unipotent, "
                         "gm, or mu<k>" % label)
    family = m.group(1)
    try:
        number = int(m.group(2))
    except ValueError:
        raise UsageError("the number in group %s<...> has more than %d digits"
                         % (family, sys.get_int_max_str_digits())) from None
    if family == "gl":
        return catalog_group(GroupLabel.GENERAL_LINEAR, number)
    if family == "sl":
        return catalog_group(GroupLabel.SPECIAL_LINEAR, number)
    return catalog_group(GroupLabel.ROOTS_OF_UNITY, 1, unity_order=number)


def _cmd_group_check(pos, opts):
    from .matgroup import group_contains

    _need(pos, 2, "group-check GROUP MATRIX")
    group = _named_group(pos[0])
    ok = group_contains(group, parse_matrix(pos[1]))
    return ("true" if ok else "false"), {"kind": "bool", "result": ok}


def _random_invertible(rng, n: int):
    from .matgroup import ConstMatrix

    while True:
        m = ConstMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(n)]
             for _ in range(n)])
        if m.det() != 0:
            return m


def _generic_point(rng, n: int) -> dict:
    # degree-i polynomial for slot i: distinct degrees keep the point
    # off the Wronskian hypersurface
    point = {}
    for i in range(n):
        coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(i)]
        coeffs.append(Fraction(rng.randint(1, 5)))
        f = RatFunc(Poly(coeffs))
        for order in range(n + 1):
            point[DerivVar(order, i)] = f
            f = f.derive()
    return point


# gl-witness 8 takes 3-6 ms in process on a 2-core x86-64 host, gl-witness 4 about 1 ms
_GL_WITNESS_MAX = 8


def _cmd_gl_witness(pos, opts):
    import random

    from .matgroup import gl_invariance_witness

    _need(pos, 1, "gl-witness N [--seed S] [--matrix M]")
    try:
        n = int(pos[0])
    except ValueError:
        raise UsageError("gl-witness needs an integer size") from None
    if not 1 <= n <= _GL_WITNESS_MAX:
        raise NotApplicable("matrix size must be between 1 and %d"
                            % _GL_WITNESS_MAX)
    rng = random.Random(opts.seed)
    if opts.matrix is not None:
        transform = parse_matrix(opts.matrix)
    else:
        transform = _random_invertible(rng, n)
    ok = gl_invariance_witness(n, transform, _generic_point(rng, n))
    return ("true" if ok else "false"), {"kind": "bool", "result": ok}


_HANDLERS = {
    "derive": _cmd_derive,
    "order": _cmd_order,
    "separant": _cmd_separant,
    "reduce": _cmd_reduce,
    "member": _cmd_member,
    "wronskian": _cmd_wronskian,
    "depend": _cmd_depend,
    "ode-from": _cmd_ode_from,
    "solve-series": _cmd_solve_series,
    "classify-int": _cmd_classify_int,
    "classify-exp": _cmd_classify_exp,
    "group-check": _cmd_group_check,
    "gl-witness": _cmd_gl_witness,
}


def __getattr__(name: str):
    """The package's exported names read through cli too (PEP 562), without
    cli importing the modules that define them."""
    package = sys.modules[__package__]
    if name in package.__all__:
        return getattr(package, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__() -> list:
    return sorted(set(globals()) | set(sys.modules[__package__].__all__))


def _emit_error(category: str, message: str, fmt: str, stdout, stderr,
                column: int | None = None):
    if fmt == "json":
        payload = {"error": category, "message": message}
        if column is not None:
            payload["column"] = column
        print(json.dumps(payload, separators=(",", ":")), file=stdout)
    else:
        suffix = "" if column is None else " (column %d)" % column
        print("error: %s%s" % (message, suffix), file=stderr)


def run(argv, stdout=sys.stdout, stderr=sys.stderr) -> int:
    """Execute one command line (without the program name)."""
    fmt = _format_of(argv)
    try:
        positionals, flags = _split_argv(argv)
        opts = _Options(flags)
        if not positionals:
            raise UsageError("missing verb")
        verb = positionals[0]
        handler = _HANDLERS.get(verb)
        if handler is None:
            raise UsageError("unknown verb %r" % verb)
        text, payload = handler(positionals[1:], opts)
        if fmt == "json":
            text = json.dumps(payload, separators=(",", ":"))
    except UsageError as exc:
        _emit_error("usage", str(exc), fmt, stdout, stderr)
        return 2
    except ParseError as exc:
        _emit_error("syntax", exc.message, fmt, stdout, stderr,
                    column=exc.column)
        return 2
    except (ZeroDivisionError, DiffAlgError) as exc:
        _emit_error("domain", str(exc) or "division by zero", fmt, stdout,
                    stderr)
        return 1
    except ValueError as exc:
        # an answer too long to print: str(int) past the interpreter's limit
        if "integer string conversion" not in str(exc):
            raise
        _emit_error("domain", "the answer has an integer of more than %d "
                    "digits" % sys.get_int_max_str_digits(), fmt, stdout,
                    stderr)
        return 1
    print(text, file=stdout)
    return 0


# One piece of a batch line per match, as shlex.split reads it (POSIX
# rules, no comments): a run of whitespace, which ends a word; unquoted
# text; an escaped character; a single-quoted or a double-quoted string;
# or, where none of these matches, the unterminated rest of the line.
_PIECE = re.compile(r"""([ \t\r\n]+)|([^ \t\r\n'"\\]+)|\\(.)"""
                    r"""|('[^']*')|("(?:[^"\\]|\\.)*")|(.+)""", re.S)


def _split(line: str) -> list:
    """The words of line, as shlex.split(line) gives them; its two errors
    are ValueErrors with shlex's messages."""
    words, word = [], None
    for space, plain, escaped, single, double, rest in _PIECE.findall(line):
        if space:
            if word is not None:
                words.append("".join(word))
                word = None
            continue
        if word is None:
            word = []
        if plain or escaped:
            word.append(plain or escaped)
        elif single:
            word.append(single[1:-1])
        elif double:
            # a backslash escapes only " and itself there; splitting at the
            # escaped backslashes first pairs them from the left, as read
            word.append("\\".join([part.replace('\\"', '"')
                                   for part in double[1:-1].split("\\\\")]))
        # the rest opens a quote it never closes, or ends in a backslash
        # that escapes nothing: bare, or after an odd run inside "
        elif rest[0] == "\\" or (rest[0] == '"' and
                                  (len(rest) - len(rest.rstrip("\\"))) % 2):
            raise ValueError("No escaped character")
        else:
            raise ValueError("No closing quotation")
    if word is not None:
        words.append("".join(word))
    return words


def _batch(stdin, stdout, stderr) -> int:
    for number, line in enumerate(stdin, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            parts = _split(line)
        except ValueError as exc:
            print("error: %s" % exc, file=stderr)
            code = 2
        else:
            code = run(parts, stdout, stderr)
        if code != 0:
            print("error: batch stopped at line %d" % number, file=stderr)
            return code
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in ("-h", "--help"):
        print(_USAGE, end="")
        return 0
    if not argv:
        return _batch(sys.stdin, sys.stdout, sys.stderr)
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
