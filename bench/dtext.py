"""Differential polynomials in sympy for building and checking corpora.

The benchmark never uses diffalg as its own reference.  Inputs are built,
and outputs checked, in sympy's sparse polynomial ring Q(t)[x0, x1, ...],
where xk stands for the k-th derivative of the indeterminate x.  This
module converts between that ring and diffalg's text syntax.
"""

import re
from fractions import Fraction

from sympy.polys.domains import QQ
from sympy.polys.fields import field
from sympy.polys.rings import ring

MAX_ORDER = 12
FIELD, T = field("t", QQ)
RING, *X = ring(",".join("x%d" % k for k in range(MAX_ORDER + 1)), FIELD)

NUMBER = re.compile(r"(?<![\w.])(?<!\*\*)(\d+)")
_DERIV = re.compile(r"x\^\((\d+)\)")
_ALLOWED = re.compile(r"^[0-9tx_'()^*/+\- ]*$")
_NAMES = {"t": RING(T), "_Q": lambda n: RING(FIELD(n))}
_NAMES.update(("x_%d" % k, x) for k, x in enumerate(X))


def parse(text):
    """diffalg text (x, x', x'', x^(k), t, ^) -> element of RING."""
    if not _ALLOWED.match(text):
        raise ValueError("unexpected character in %r" % text)
    s = _DERIV.sub(lambda m: "x_" + m.group(1), text)
    s = s.replace("x''", "x_2").replace("x'", "x_1")
    s = re.sub(r"x(?!_)", "x_0", s)
    s = NUMBER.sub(r"_Q(\1)", s.replace("^", "**"))
    return eval(s, {"__builtins__": {}}, _NAMES)


def var_text(k):
    if k == 0:
        return "x"
    if k <= 2:
        return "x" + "'" * k
    return "x^(%d)" % k


def field_text(c):
    """An element of Q(t) in diffalg syntax, parenthesised."""
    return "(%s)" % str(c.as_expr()).replace("**", "^").replace(" ", "")


def text(p):
    """Element of RING -> diffalg text."""
    if not p:
        return "0"
    parts = []
    for monom, c in sorted(p.terms(), reverse=True):
        factors = [] if c == 1 and any(monom) else [field_text(c)]
        for k, e in enumerate(monom):
            if e == 1:
                factors.append(var_text(k))
            elif e > 1:
                factors.append("(%s)^%d" % (var_text(k), e))
        parts.append("*".join(factors))
    return " + ".join(parts)


def derive(p):
    """Total derivative: d/dt on coefficients, xk -> x(k+1)."""
    out = RING({m: c.diff(T) for m, c in p.terms()}) if p else RING(0)
    for k in range(MAX_ORDER):
        if p.degree(X[k]) > 0:
            out += X[k + 1] * p.diff(X[k])
    return out


def order(p):
    """Largest k with xk present; -1 for a nonzero constant."""
    present = [k for k in range(MAX_ORDER + 1) if p.degree(X[k]) > 0]
    return max(present) if present else -1


def _fraction(q):
    return Fraction(int(q.numerator), int(q.denominator))


def value_at(f, t0):
    """Value of an element of FIELD at the rational t0, as a Fraction."""
    return _fraction(f.numer(t0)) / _fraction(f.denom(t0))
