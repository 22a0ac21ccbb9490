"""Earlier implementations kept as test oracles.

The token-based recursive-descent parser that diffalg.parsing replaced,
with two changes that the library made at the same time: an integer is a
run of ASCII digits 0-9, and a power is sized by parsing._power_size.  It
evaluates every node in DiffPoly and RatFunc arithmetic, keeping x-free
values as int lists until a division.

_cancel is the gcd-based cancellation that the coprime base of
diffalg.cleared replaced.

poly_shift is the Fraction Taylor shift p(t + a) that the integer shift
of diffalg.odeseries replaced.  inverse, matmul and
group_closure_sample_check are the Fraction matrix arithmetic and the
closure check that no command reaches, kept to check the catalog groups;
the check raises NonMemberSample on a sample outside the group.
"""

import math
import sys
from fractions import Fraction

from diffalg.basefield import (_ONE_F, _ONE_POLY, Poly, RatFunc, _add_ints, _conv,
                               _exact_quotient, _gcd_parts, _primitive, _ratfunc)
from diffalg.diffpoly import DiffPoly, _diffpoly, var
from diffalg.errors import (DiffAlgError, MixedArity, NotApplicable, ParseError,
                            ShapeError, SingularTransform)
from diffalg.matgroup import ConstMatrix, group_contains
from diffalg.parsing import (_DERIVATIVE_ORDER_MAX, _POWER_DEGREE_MAX,
                             _POWER_SIZE_MAX, _power_size)
from diffalg.wronskian import _solve

_DIGITS = "0123456789"

# token kinds
_INT = "int"
_T = "t"
_INDET = "indet"
_PRIME = "prime"
_CARET = "^"
_LPAREN = "("
_RPAREN = ")"
_PLUS = "+"
_MINUS = "-"
_STAR = "*"
_SLASH = "/"
_END = "end"

_SINGLE = {
    "'": _PRIME,
    "^": _CARET,
    "(": _LPAREN,
    ")": _RPAREN,
    "+": _PLUS,
    "-": _MINUS,
    "*": _STAR,
    "/": _SLASH,
}


def _tokenize(text: str) -> list:
    """Return (kind, value, 1-based column) triples, ending with an
    end-of-input marker."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        col = i + 1
        if c in " \t":
            i += 1
        elif c in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:
                raise ParseError("integer literal longer than %d digits"
                                 % sys.get_int_max_str_digits(), col) from None
            tokens.append((_INT, value, col))
            i = j
        elif c == "t":
            tokens.append((_T, None, col))
            i += 1
        elif c == "x":
            if i + 1 < n and text[i + 1] in "123456789":
                tokens.append((_INDET, int(text[i + 1]) - 1, col))
                i += 2
            else:
                tokens.append((_INDET, None, col))
                i += 1
        elif c in _SINGLE:
            tokens.append((_SINGLE[c], None, col))
            i += 1
        else:
            raise ParseError("unexpected character %r" % c, col)
    tokens.append((_END, None, n + 1))
    return tokens


class _Parser:
    """Recursive descent over the tokens.  A value free of indeterminates
    is an ascending int list, an element of Z[t], until a division makes
    it a RatFunc; a value with an indeterminate is a DiffPoly.  Scalars
    multiply and divide in the field, scale a polynomial's terms, and each
    sum is gathered into one dict."""

    def __init__(self, tokens, allow_indeterminates: bool):
        self.tokens = tokens
        self.pos = 0
        self.allow_indeterminates = allow_indeterminates
        self.bare_seen = False
        self.indexed_seen = False
        self.arity = 1

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError("expected %s" % what, tok[2])
        return tok

    def expr(self):
        negate = False
        if self.peek()[0] == _MINUS:
            self.advance()
            negate = True
        value = self.term()
        if self.peek()[0] not in (_PLUS, _MINUS):
            return _neg(value) if negate else value
        acc = {}
        _add_to(acc, value, negate)
        polynomial = isinstance(value, DiffPoly)
        while self.peek()[0] in (_PLUS, _MINUS):
            op = self.advance()
            value = self.term()
            _add_to(acc, value, op[0] == _MINUS)
            polynomial = polynomial or isinstance(value, DiffPoly)
        if not polynomial:
            return acc.get((), [])
        return _diffpoly({m: _field(c) for m, c in acc.items() if c}, self.arity)

    def term(self):
        value = self.factor()
        while self.peek()[0] in (_STAR, _SLASH):
            op = self.advance()
            rhs = self.factor()
            if op[0] == _STAR:
                value = _product(value, rhs)
            else:
                if isinstance(rhs, DiffPoly):
                    if rhs.variables():
                        raise ParseError(
                            "division by an expression containing an indeterminate",
                            op[2])
                    rhs = rhs.constant_coefficient()
                if not rhs:
                    raise ZeroDivisionError("division by zero")
                if isinstance(value, DiffPoly):
                    value = _product(value, 1 / _field(rhs))
                else:
                    value = _quotient(value, rhs)
        return value

    def factor(self):
        value = self.atom()
        while self.peek()[0] == _CARET:
            self.advance()
            tok = self.peek()
            if tok[0] != _INT:
                raise ParseError("expected integer exponent", tok[2])
            self.advance()
            degree, size = _power_size(value, tok[1])
            if degree > _POWER_DEGREE_MAX:
                raise NotApplicable("a power of t-degree %d is over the limit "
                                    "of %d" % (degree, _POWER_DEGREE_MAX))
            if size > _POWER_SIZE_MAX:
                raise NotApplicable("a power's estimated size (terms x "
                                    "(t-degree + 1) x coefficient bits) is "
                                    "over the limit of %d" % _POWER_SIZE_MAX)
            if isinstance(value, list):
                value = _int_power(value, tok[1])
            else:
                value = value ** tok[1]
        return value

    def atom(self):
        tok = self.advance()
        kind, value, col = tok
        if kind == _INT:
            return [value] if value else []
        if kind == _T:
            return [0, 1]
        if kind == _INDET:
            if not self.allow_indeterminates:
                raise ParseError("indeterminates are not allowed here", col)
            if value is None:
                if self.indexed_seen:
                    raise MixedArity(
                        "cannot mix bare x with indexed indeterminates", col)
                self.bare_seen = True
                index = 0
            else:
                if self.bare_seen:
                    raise MixedArity(
                        "cannot mix bare x with indexed indeterminates", col)
                self.indexed_seen = True
                index = value
            self.arity = max(self.arity, index + 1)
            return self.indet_tail(index)
        if kind == _LPAREN:
            inner = self.expr()
            self.expect(_RPAREN, "')'")
            return inner
        raise ParseError("unexpected %s" % _describe(tok), col)

    def indet_tail(self, index: int) -> DiffPoly:
        order = 0
        while self.peek()[0] == _PRIME:
            tok = self.advance()
            order += 1
            if order > 2:
                raise ParseError(
                    "at most two primes; use ^(k) for higher derivatives",
                    tok[2])
        if order == 0 and self.peek()[0] == _CARET \
                and self.tokens[self.pos + 1][0] == _LPAREN:
            self.advance()
            self.advance()
            tok = self.expect(_INT, "derivative order")
            self.expect(_RPAREN, "')'")
            order = tok[1]
            if order > _DERIVATIVE_ORDER_MAX:
                raise NotApplicable("derivative order %d is over the limit "
                                    "of %d" % (order, _DERIVATIVE_ORDER_MAX))
        return DiffPoly.from_var(var(index, order))


def _field(value) -> RatFunc:
    """A scalar as a RatFunc: an int list is an element of Z[t]."""
    if isinstance(value, list):
        return _ratfunc(_primitive(_ONE_F, value), _ONE_POLY)
    return value


def _neg(value):
    return [-x for x in value] if isinstance(value, list) else -value


def _add_to(acc: dict, value, negative: bool) -> None:
    """acc += value (or -= it): a scalar goes to the monomial ()."""
    terms = value.terms.items() if isinstance(value, DiffPoly) else (((), value),)
    for mono, c in terms:
        if negative:
            c = _neg(c)
        old = acc.get(mono)
        if old is None:
            acc[mono] = c
        elif isinstance(old, list) and isinstance(c, list):
            acc[mono] = _add_ints(old, c)
        else:
            acc[mono] = _field(old) + _field(c)


def _product(a, b):
    """a*b for scalars and polynomials: a scalar scales the other's terms."""
    if isinstance(a, DiffPoly):
        if isinstance(b, DiffPoly):
            return a * b
        a, b = b, a
    elif not isinstance(b, DiffPoly):
        if isinstance(a, list) and isinstance(b, list):
            return _conv(a, b) if a and b else []
        return _field(a) * _field(b)
    a = _field(a)
    terms = {m: a * c for m, c in b.terms.items()} if a else {}
    return _diffpoly(terms, b.num_indeterminates)


def _quotient(a, b) -> RatFunc:
    """a/b for scalars, b nonzero."""
    if isinstance(a, list) and isinstance(b, list):
        return RatFunc(_primitive(_ONE_F, a), _primitive(_ONE_F, b))
    return _field(a) / _field(b)


def _int_power(a: list, e: int):
    """a^e for an int list a, by repeated squaring of its primitive part.
    With a content c other than 1 the result is the RatFunc c^e times that
    power, as Poly.__pow__ keeps it: putting c^e back into every
    coefficient would cost a multiplication, and making it a RatFunc
    later an integer gcd, per coefficient."""
    if not e:
        return [1]
    if not a:
        return []
    if not any(a[:-1]):
        # a monomial c*t^k, the usual base: (c*t^k)^e = c^e*t^(k*e)
        return [0] * ((len(a) - 1) * e) + [a[-1] ** e]
    c = math.gcd(*a)
    if c != 1:
        a = [x // c for x in a]
    acc = None
    n = e
    while n:
        if n & 1:
            acc = a if acc is None else _conv(acc, a)
        n >>= 1
        if n:
            a = _conv(a, a)
    if c == 1:
        return acc
    return _ratfunc(_primitive(Fraction(c ** e), acc), _ONE_POLY)



def _describe(tok) -> str:
    kind, value, _ = tok
    if kind == _END:
        return "end of input"
    if kind == _INT:
        return "'%d'" % value
    if kind == _T:
        return "'t'"
    if kind == _INDET:
        return "'x'" if value is None else "'x%d'" % (value + 1)
    return "'%s'" % kind if kind != _PRIME else "\"'\""


def _parse(text: str, allow_indeterminates: bool):
    """The RatFunc or DiffPoly that text denotes, and the parser's arity."""
    parser = _Parser(_tokenize(text), allow_indeterminates)
    value = parser.expr()
    tok = parser.peek()
    if tok[0] != _END:
        raise ParseError("unexpected %s" % _describe(tok), tok[2])
    return value, parser.arity


def parse_diffpoly(text: str) -> DiffPoly:
    """Parse a differential polynomial in x (or x1..x9) over Q(t)."""
    value, arity = _parse(text, allow_indeterminates=True)
    if isinstance(value, DiffPoly):
        return _diffpoly(value.terms, arity)
    return _diffpoly({(): _field(value)} if value else {}, arity)


def parse_ratfunc(text: str) -> RatFunc:
    """Parse a rational function of t with exact rational coefficients."""
    return _field(_parse(text, allow_indeterminates=False)[0])


def _primitive_ints(a: list) -> list:
    c = math.gcd(*a)
    return a if c == 1 else [x // c for x in a]


def _cancel(num: dict, den: list) -> tuple[dict, list]:
    """num/den with the gcd in Z[t] of den and every numerator divided out:
    the primitive gcd first, then the integer content."""
    if not num:
        return num, [1]
    g = _primitive_ints(den)
    for a in num.values():
        if len(g) == 1:
            break
        g = [1] if len(a) == 1 else _gcd_parts(g, _primitive_ints(a))[0]
    if len(g) > 1:
        den = _exact_quotient(den, g)
        num = {mono: _exact_quotient(a, g) for mono, a in num.items()}
    c = math.gcd(*den)
    for a in num.values():
        if c == 1:
            break
        c = math.gcd(c, *a)
    if c > 1:
        den = [x // c for x in den]
        num = {mono: [x // c for x in a] for mono, a in num.items()}
    return num, den


def poly_shift(p: Poly, a) -> Poly:
    """p(t + a), exact binomial expansion."""
    a = Fraction(a)
    if a == 0 or p.is_zero():
        return p
    # with a = u/v: v^n p(t + u/v) = sum_k p_k sum_j C(k, j) u^(k-j)
    # v^(n-k+j) t^j, all in Z
    u, v = a.numerator, a.denominator
    n = p.degree()
    u_pw = [1]
    v_pw = [1]
    for _ in range(n):
        u_pw.append(u_pw[-1] * u)
        v_pw.append(v_pw[-1] * v)
    out = [0] * (n + 1)
    for k, x in enumerate(p.prim):
        if x:
            for j in range(k + 1):
                out[j] += x * math.comb(k, j) * u_pw[k - j] * v_pw[n - k + j]
    return _primitive(p.content / v_pw[n], out)


def inverse(m: ConstMatrix) -> ConstMatrix:
    """m^-1 from one solve of [m | I] over Q."""
    n = m.n
    solved = _solve([list(row) + [Fraction(int(i == j)) for j in range(n)]
                     for i, row in enumerate(m.entries)])
    if solved is None:
        raise SingularTransform("matrix is singular")
    d, y = solved
    return ConstMatrix.from_rows([[v / d for v in row] for row in y])


def matmul(a: ConstMatrix, b: ConstMatrix) -> ConstMatrix:
    if a.n != b.n:
        raise ShapeError("size mismatch")
    n = a.n
    x, y = a.entries, b.entries
    return ConstMatrix.from_rows(
        [[sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)]
         for i in range(n)])


class NonMemberSample(DiffAlgError):
    """Closure check received a sample outside the group."""


def group_closure_sample_check(group, samples) -> bool:
    """Products and inverses of member samples stay members."""
    for s in samples:
        if not group_contains(group, s):
            raise NonMemberSample("sample outside the group")
    for a in samples:
        if not group_contains(group, inverse(a)):
            return False
        for b in samples:
            if not group_contains(group, matmul(a, b)):
                return False
    return True
