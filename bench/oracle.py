"""Independent checks of every command's output.

Nothing here calls diffalg: inputs are re-read from the command line into
sympy (see dtext) and each answer is checked there, or against what the
corpus construction guarantees.  check() returns None for a correct
answer and a short reason otherwise.
"""

import json
import re
from fractions import Fraction
from math import factorial

from sympy import Matrix, Rational
from sympy.polys.domains import QQ, FractionField
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import ring

from dtext import FIELD, NUMBER, RING, T, X, derive, order, parse

_K = FractionField(FIELD)


def _ground(text):
    """A rational function of t given as diffalg text -> element of FIELD."""
    p = parse(text)
    if order(p) >= 0:
        raise ValueError("not a rational function: %r" % text)
    return p.coeff(1) if p else FIELD(0)


def _nth(f, k):
    for _ in range(k):
        f = f.diff(T)
    return f


# -- ritt ------------------------------------------------------------------

def _leader_data(p):
    n = order(p)
    lead = X[n]
    d = p.degree(lead)
    init = RING({m[:n] + (0,) + m[n + 1:]: c for m, c in p.terms() if m[n] == d})
    return n, lead, d, p.diff(lead), init


def _check_reduce(cmd, out):
    payload = json.loads(out)
    q, p = parse(cmd.argv[1]), parse(cmd.argv[3])
    n, lead, d, sep, init = _leader_data(p)
    rem = parse(payload["result"])
    lhs = sep ** payload["separant_power"] * init ** payload["initial_power"] * q
    rhs, pk, k = rem, p, 0
    for entry in payload["certificate"]:
        while k < entry["derivative"]:
            pk, k = derive(pk), k + 1
        rhs += parse(entry["cofactor"]) * pk
    if lhs != rhs:
        return "certificate identity fails"
    if rem and (order(rem) > n or (order(rem) == n and rem.degree(lead) >= d)):
        return "remainder is not reduced"
    if bool(rem) == cmd.expect["member"]:
        return "remainder %s zero for a %smember" % (
            "is not" if rem else "is", "" if cmd.expect["member"] else "non-")
    return None


def _check_member(cmd, out):
    want = "true" if cmd.expect["member"] else "false"
    return None if out == want + "\n" else "expected %s" % want


def _check_derive(cmd, out):
    return None if parse(out.strip()) == derive(parse(cmd.argv[1])) else "wrong derivative"


def _check_separant(cmd, out):
    p = parse(cmd.argv[1])
    return None if parse(out.strip()) == p.diff(X[order(p)]) else "wrong separant"


def _check_order(cmd, out):
    return None if out.strip() == str(order(parse(cmd.argv[1]))) else "wrong order"


# -- linalg-galois -----------------------------------------------------------

def _functions(cmd):
    args = cmd.argv[1:]
    if "--format" in args:
        args = args[:args.index("--format")]
    return [_ground(a) for a in args]


def _wronskian(fs):
    rows = [[_nth(f, j) for f in fs] for j in range(len(fs))]
    return DomainMatrix(rows, (len(fs), len(fs)), _K).det()


def _check_wronskian(cmd, out):
    return None if _ground(out.strip()) == _wronskian(_functions(cmd)) else "wrong Wronskian"


def _check_depend(cmd, out):
    lines = out.splitlines()
    if not cmd.expect["dependent"]:
        return None if lines == ["false"] else "expected false"
    if len(lines) != 2 or lines[0] != "true" or not lines[1].startswith("certificate: "):
        return "expected true with a certificate"
    cs = [Fraction(c) for c in lines[1].split()[1:]]
    fs = _functions(cmd)
    if len(cs) != len(fs) or not any(cs) or next(c for c in cs if c) != 1:
        return "malformed certificate"
    total = FIELD(0)
    for c, f in zip(cs, fs):
        total += FIELD(c.numerator) / c.denominator * f
    return None if not total else "certificate does not vanish"


def _check_ode_from(cmd, out):
    payload = json.loads(out)
    fs = _functions(cmd)
    coeffs = [_ground(a) for a in payload["coefficients"]]
    n = len(fs)
    if len(coeffs) != n:
        return "wrong order"
    for f in fs:
        derivs = [_nth(f, j) for j in range(n + 1)]
        if derivs[n] + sum(a * derivs[n - i] for i, a in enumerate(coeffs, 1)):
            return "operator does not annihilate an input"
    return None


_GROUP = re.compile(r"^(gl|sl|mu)([0-9]+)$")


def _check_group(cmd, out):
    label = cmd.argv[1]
    rows = [[Rational(v) for v in r.split(",")] for r in cmd.argv[2].split(";")]
    m = Matrix(rows)
    det = m.det()
    g = _GROUP.match(label)
    if label == "unipotent":
        want = m[0, 0] == 1 and m[1, 1] == 1 and m[1, 0] == 0
    elif g.group(1) == "gl":
        want = det != 0
    elif g.group(1) == "sl":
        want = det == 1
    else:
        want = m[0, 0] ** int(g.group(2)) == 1
    return None if out == ("true\n" if want else "false\n") else "expected %s" % want


def _check_witness(cmd, out):
    # invariance of the coefficient ratios under GL(n) is a theorem
    return None if out == "true\n" else "expected true"


def _check_classify_int(cmd, out):
    payload = json.loads(out)
    want = cmd.expect["group"]
    if payload["group"] != want:
        return "expected %s" % want
    if want == "trivial":
        if payload["dimension"] != 0:
            return "wrong dimension"
        return None if _ground(payload["witness"]).diff(T) == _ground(cmd.argv[1]) \
            else "witness is not an antiderivative"
    return None if payload["dimension"] == 1 else "wrong dimension"


def _check_classify_exp(cmd, out):
    payload = json.loads(out)
    want = cmd.expect["group"]
    if payload["group"] != want:
        return "expected %s" % want
    if want == "multiplicative":
        return None if payload["dimension"] == 1 else "wrong dimension"
    n = payload.get("n", 1)
    if n != cmd.expect["n"] or payload["dimension"] != 0:
        return "wrong order or dimension"
    beta = _ground(payload["beta" if want == "cyclic" else "witness"])
    if want == "cyclic":
        head = "X^%d - c*" % n
        poly = payload["minimal_polynomial"]
        if not poly.startswith(head) or _ground(poly[len(head):]) != beta:
            return "minimal polynomial is not X^n - c*beta"
    a = _ground(cmd.argv[1])
    return None if beta.diff(T) == n * a * beta else "witness fails beta'/beta = n*a"


# -- series-batch ------------------------------------------------------------

SERIES_RING, S = ring("s", QQ)
_O_TERM = re.compile(r"^(.*?)(?: \+ )?O\((.*)\^(\d+)\)$")
_SERIES_NAMES = {"s": S, "_Q": lambda n: SERIES_RING(n)}


def _series(line, base):
    """One printed series -> (polynomial in s = t - base, precision)."""
    m = _O_TERM.match(line)
    if m is None:
        raise ValueError("no O-term in %r" % line)
    body, sym, prec = m.group(1), m.group(2), int(m.group(3)) - 1
    want = "t" if base == 0 else "(t %s %s)" % ("-" if base > 0 else "+", abs(base))
    if sym != want:
        raise ValueError("series not centred at %s" % base)
    body = body.replace(sym, "s").replace("^", "**")
    if not re.fullmatch(r"[0-9s*/+\- ]*", body):
        raise ValueError("unexpected series text %r" % line)
    body = NUMBER.sub(r"_Q(\1)", body) or "_Q(0)"
    return eval(body, {"__builtins__": {}}, _SERIES_NAMES), prec


def _shifted(poly_t, base):
    """p(s + base) for p in Q[t]."""
    acc = SERIES_RING(0)
    if not poly_t:
        return acc
    coeffs = dict(poly_t.terms())
    for k in range(poly_t.degree(), -1, -1):
        c = coeffs.get((k,), 0)
        acc = acc * (S + base) + SERIES_RING(QQ(int(c.numerator), int(c.denominator)))
    return acc


def _truncate(p, n):
    return SERIES_RING({m: c for m, c in p.terms() if m[0] < n})


def _check_series(cmd, out):
    args = cmd.argv
    prec_arg = int(args[args.index("--precision") + 1])
    base = Fraction(args[args.index("--base-point") + 1])
    base_q = QQ(base.numerator, base.denominator)
    coeffs = [_ground(a) for a in args[1:args.index("--precision")]]
    n = len(coeffs)
    lines = out.splitlines()
    if len(lines) != n:
        return "expected %d series" % n
    nums = [_shifted(a.numer, base_q) for a in coeffs]
    dens = [_shifted(a.denom, base_q) for a in coeffs]
    for i, line in enumerate(lines):
        u, prec = _series(line, base)
        if prec != prec_arg or u.degree() > prec:
            return "wrong precision"
        terms = dict(u.terms())
        for j in range(n):
            if terms.get((j,), 0) != (QQ(1, factorial(j)) if i == j else 0):
                return "wrong initial data"
        # prod(den) * (u^(n) + sum a_i u^(n-i)) vanishes to order prec - n
        derivs = [u]
        for _ in range(n):
            derivs.append(derivs[-1].diff(S))
        total = derivs[n]
        for d in dens:
            total *= d
        for i, (num, _den) in enumerate(zip(nums, dens), 1):
            term = num * derivs[n - i]
            for j, d in enumerate(dens, 1):
                if j != i:
                    term *= d
            total += term
        if _truncate(total, prec - n + 1):
            return "series does not satisfy the equation"
    return None


_CHECKS = {
    "reduce": _check_reduce, "member": _check_member, "derive": _check_derive,
    "separant": _check_separant, "order": _check_order,
    "wronskian": _check_wronskian, "depend": _check_depend,
    "ode-from": _check_ode_from, "group-check": _check_group,
    "gl-witness": _check_witness, "classify-int": _check_classify_int,
    "classify-exp": _check_classify_exp, "solve-series": _check_series,
}


def check(cmd, code, out, err):
    """None when the command's exit code and output are right, else why not."""
    if code != 0:
        return "exit code %d: %s" % (code, err.strip()[:200])
    try:
        return _CHECKS[cmd.verb](cmd, out)
    except (ValueError, KeyError, TypeError, SyntaxError, ZeroDivisionError,
            AttributeError, NameError, IndexError, ArithmeticError) as exc:
        return "unreadable output: %s: %s" % (type(exc).__name__, exc)
