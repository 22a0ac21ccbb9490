"""Text parsing for rational functions, differential polynomials, and
matrix literals.

The grammar accepted here is exactly what the pretty-printers in
:mod:`diffalg.basefield` and :mod:`diffalg.diffpoly` emit, so parse/print
round trips are lossless:

    expr   := ["-"] term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := atom ("^" INT)*
    atom   := INT | "t" | indet | "(" expr ")"
    indet  := ("x" | "x1" .. "x9") ("'"{0,2} | "^(" INT ")")
    INT    := one or more of the ASCII digits 0-9

`^` with a bare integer is exponentiation and binds tightest.  `^(k)`
immediately after an indeterminate name is a derivative order marker, so
`x^(3)` is the third derivative while `x^3` is a cube.  At most two primes
are accepted; higher derivatives must use the `^(k)` form.  Division is
only defined by constants of the differential ring, i.e. expressions with
no indeterminate in them.

The text is read in one pass over words.  One search first finds the
leftmost character outside the alphabet (spaces and tabs aside) or integer
literal past Python's int-conversion limit, and reports it at its column;
other digits, such as superscripts, are characters outside the alphabet.
Then one compiled pattern splits the text into words: a digit run, x or
x1..x9, or one character, without the spaces and tabs.  The descent reads
a word's kind off its first character.  No column is stored per word: an
error maps the index of its word back to a column (_column).

An x-free value is an ascending int list, an element of Z[t], until a
division makes it a RatFunc; a value with an indeterminate is a DiffPoly.
An indeterminate's term is DiffPoly.from_var's, whose coefficient is the
unit RatFunc that products and powers pass over (basefield._ONE_RF), so
a scalar times it takes the scalar as its coefficient and a power of it
scales the exponents.  Each (order, index) has one such term, built on
first use and shared by the values of every parse (_TERMS); the library
edits no DiffPoly's terms in place, and parse_diffpoly returns a copy of
the terms, so that a caller's edit reaches no later parse.

Four budgets are checked before any work: a power may have t-degree at
most _POWER_DEGREE_MAX (the t-degree of the base times the exponent) and
an estimated size at most _POWER_SIZE_MAX (_power_size), a derivative
order may be at most _DERIVATIVE_ORDER_MAX, and parentheses may nest at
most _NESTING_MAX deep.  Past any of them the parser raises
NotApplicable, a domain error.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from .basefield import (_ONE_F, _ONE_POLY, _ONE_RF, RatFunc, _add_ints, _conv,
                        _primitive, _ratfunc)
from .diffpoly import DerivVar, DiffPoly, _acc_term, _diffpoly
from .errors import MixedArity, NotApplicable, ParseError

# (1+t)^1000 takes 0.2 s and (1+2*t)^1000 0.35 s on a 2-core x86-64 host
_POWER_DEGREE_MAX = 1000
# (1+2*t)^1000 has size 2002000; at the limit the slowest power found,
# (100*t+99)^511, takes 0.67 s on the same host
_POWER_SIZE_MAX = 2**21
# reduce "x^(100)" --mod "x'-x" takes 0.01-0.02 s on the same host
_DERIVATIVE_ORDER_MAX = 100
# each level of parentheses is three frames of the descent, far inside
# the interpreter's recursion limit
_NESTING_MAX = 100
# (order, index) -> the term of x_index^(order), at most 9 * 101 of them
_TERMS: dict = {}

# a digit run, x or x1..x9, or one other character; spaces and tabs part words
_WORD = re.compile(r"[^ \t0-9x]|[0-9]+|x[1-9]?")
_DIGITS = "0123456789"
# the word after the last, a character outside the alphabet
_END = "$"
# a character outside the alphabet
_REFUSED = re.compile(r"[^0-9tx'^()+*/ \t-]")
# or an integer literal longer than a limit, matched at its first digit: a
# digit run that starts after a character other than a digit or x, after
# x with a 0, or after x and the index digit 1-9 that x takes
_TOO_LONG = r"|(?:(?<![0-9x])|(?<=x)(?=0)|(?<=x[1-9]))[0-9]{%d}"


def _column(text: str, index: int) -> int:
    """The 1-based column of word number index of text; past the last
    word, the end of input."""
    for i, word in enumerate(_WORD.finditer(text)):
        if i == index:
            return word.start() + 1
    return len(text) + 1


class _Parser:
    """One descent over the words of text.  Its state is plain data, so a
    parse leaves no reference cycle for the garbage collector."""

    __slots__ = ("text", "words", "pos", "allow_indeterminates", "arity",
                 "bare", "indexed", "depth")

    def __init__(self, text: str, allow_indeterminates: bool):
        limit = sys.get_int_max_str_digits()
        # a literal past the limit needs a text longer than the limit; re
        # caches the pattern compiled for it
        if 0 < limit < len(text):
            bad = re.search(_REFUSED.pattern + _TOO_LONG % (limit + 1), text)
        else:
            bad = _REFUSED.search(text)
        if bad:
            if bad.group()[0] in _DIGITS:
                raise ParseError("integer literal longer than %d digits"
                                 % limit, bad.start() + 1)
            raise ParseError("unexpected character %r" % bad.group(),
                             bad.start() + 1)
        self.text = text
        self.words = _WORD.findall(text)
        self.words.append(_END)
        self.pos = 0
        self.allow_indeterminates = allow_indeterminates
        self.arity, self.depth = 1, 0
        self.bare = self.indexed = False

    def fail(self, message: str, at: int, error=ParseError):
        raise error(message, _column(self.text, at))

    def expr(self):
        words = self.words
        negate = words[self.pos] == "-"
        if negate:
            self.pos += 1
        value = self.term()
        if negate:
            value = _neg(value)
        op = words[self.pos]
        acc = None        # the sum's own terms, once a polynomial occurs
        while op == "+" or op == "-":
            self.pos += 1
            rhs = self.term()
            if op == "-":
                rhs = _neg(rhs)
            if acc is not None:
                _add_to(acc, rhs)
            elif type(value) is DiffPoly or type(rhs) is DiffPoly:
                acc = {}
                _add_to(acc, value)
                _add_to(acc, rhs)
            else:
                value = _plus(value, rhs)
            op = words[self.pos]
        return value if acc is None else _diffpoly(acc, 1)

    def term(self):
        words = self.words
        value = self.factor()
        op = words[self.pos]
        while op == "*" or op == "/":
            at = self.pos
            self.pos += 1
            rhs = self.factor()
            if op == "*":
                value = _product(value, rhs)
            else:
                if type(rhs) is DiffPoly:
                    if any(rhs.terms):
                        self.fail("division by an expression containing an "
                                  "indeterminate", at)
                    rhs = rhs.constant_coefficient()
                if not rhs:
                    raise ZeroDivisionError("division by zero")
                value = _quotient(value, rhs)
            op = words[self.pos]
        return value

    def factor(self):
        words = self.words
        pos = self.pos
        word = words[pos]
        pos += 1
        kind = word[0]
        if kind in _DIGITS:
            value = int(word)
            value = [value] if value else []
        elif kind == "t":
            value = [0, 1]
        elif kind == "x":
            value, pos = self.indeterminate(word, pos)
        elif kind == "(":
            if self.depth == _NESTING_MAX:
                raise NotApplicable("parentheses nested deeper than %d"
                                    % _NESTING_MAX)
            self.depth += 1
            self.pos = pos
            value = self.expr()
            self.depth -= 1
            pos = self.pos
            if words[pos] != ")":
                self.fail("expected ')'", pos)
            pos += 1
        else:
            self.fail("unexpected %s" % _describe(word), pos - 1)
        while words[pos] == "^":
            word = words[pos + 1]
            if word[0] not in _DIGITS:
                self.fail("expected integer exponent", pos + 1)
            pos += 2
            value = _power(value, int(word))
        self.pos = pos
        return value

    def indeterminate(self, word: str, pos: int) -> tuple:
        """The term of the indeterminate word and the position after its
        primes or ^(k) marker."""
        words = self.words
        if not self.allow_indeterminates:
            self.fail("indeterminates are not allowed here", pos - 1)
        if len(word) == 1:
            if self.indexed:
                self.fail("cannot mix bare x with indexed indeterminates",
                          pos - 1, MixedArity)
            self.bare = True
            index = 0
        else:
            if self.bare:
                self.fail("cannot mix bare x with indexed indeterminates",
                          pos - 1, MixedArity)
            self.indexed = True
            index = int(word[1]) - 1
            if index >= self.arity:
                self.arity = index + 1
        order = 0
        while words[pos] == "'":
            if order == 2:
                self.fail("at most two primes; use ^(k) for higher derivatives",
                          pos)
            order += 1
            pos += 1
        if not order and words[pos] == "^" and words[pos + 1] == "(":
            word = words[pos + 2]
            if word[0] not in _DIGITS:
                self.fail("expected derivative order", pos + 2)
            if words[pos + 3] != ")":
                self.fail("expected ')'", pos + 3)
            pos += 4
            order = int(word)
            if order > _DERIVATIVE_ORDER_MAX:
                raise NotApplicable(
                    "derivative order %d is over the limit of %d"
                    % (order, _DERIVATIVE_ORDER_MAX))
        term = _TERMS.get((order, index))
        if term is None:
            term = _TERMS[order, index] = DiffPoly.from_var(DerivVar(order, index))
        return term, pos


def _parse(text: str, allow_indeterminates: bool):
    """The value that text denotes (an int list, a RatFunc or a DiffPoly)
    and its arity."""
    parser = _Parser(text, allow_indeterminates)
    value = parser.expr()
    word = parser.words[parser.pos]
    if word != _END:
        parser.fail("unexpected %s" % _describe(word), parser.pos)
    return value, parser.arity


def _describe(word: str) -> str:
    if word == _END:
        return "end of input"
    if word[0] in _DIGITS:
        return "'%d'" % int(word)
    return "\"'\"" if word == "'" else "'%s'" % word


def _field(value) -> RatFunc:
    """A scalar as a RatFunc: an int list is an element of Z[t]."""
    if type(value) is list:
        return _ratfunc(_primitive(_ONE_F, value), _ONE_POLY)
    return value


def _neg(value):
    return [-x for x in value] if type(value) is list else -value


def _times(a, b):
    """a*b for scalars."""
    if type(a) is list and type(b) is list:
        return _conv(a, b) if a and b else []
    return _field(a) * _field(b)


def _plus(a, b):
    """a + b for scalars."""
    if type(a) is list and type(b) is list:
        return _add_ints(a, b)
    return _field(a) + _field(b)


def _add_to(acc: dict, value) -> None:
    """acc += value for a dict of RatFunc terms, a scalar at the monomial
    ()."""
    if type(value) is DiffPoly:
        for mono, c in value.terms.items():
            if mono in acc:
                _acc_term(acc, mono, c)
            else:
                acc[mono] = c
    else:
        _acc_term(acc, (), _field(value))


def _product(a, b):
    """a*b: scalars multiply in Z[t] or in the field, and a scalar scales
    each coefficient of a polynomial."""
    if type(a) is DiffPoly:
        if type(b) is DiffPoly:
            return a * b
        a, b = b, a
    elif type(b) is not DiffPoly:
        return _times(a, b)
    a = _field(a)
    if not a:
        return _diffpoly({}, 1)
    return _diffpoly({m: a * c for m, c in b.terms.items()},
                     b.num_indeterminates)


def _quotient(a, b):
    """a/b for a nonzero scalar b."""
    if type(a) is DiffPoly:
        return _product(1 / _field(b), a)
    if type(a) is list and type(b) is list:
        return RatFunc(_primitive(_ONE_F, a), _primitive(_ONE_F, b))
    return _field(a) / _field(b)


def _power(value, e: int):
    """value^e, refused past the budgets."""
    degree, size = _power_size(value, e)
    if degree > _POWER_DEGREE_MAX:
        raise NotApplicable("a power of t-degree %d is over the limit "
                            "of %d" % (degree, _POWER_DEGREE_MAX))
    if size > _POWER_SIZE_MAX:
        raise NotApplicable("a power's estimated size (terms x "
                            "(t-degree + 1) x coefficient bits) is "
                            "over the limit of %d" % _POWER_SIZE_MAX)
    if type(value) is list:
        return _int_power(value, e)
    return value ** e


def _int_power(a: list, e: int):
    """a^e for an int list a, Poly.__pow__ on its primitive part.  With a
    content c other than +-1 the result is that power as a RatFunc, c^e
    kept apart: putting c^e back into every coefficient would cost a
    multiplication, and making it a RatFunc later an integer gcd, per
    coefficient."""
    if not e:
        return [1]
    if not a:
        return []
    if not any(a[:-1]):
        # a monomial c*t^k, the usual base: (c*t^k)^e = c^e*t^(k*e)
        return [0] * ((len(a) - 1) * e) + [a[-1] ** e]
    p = _primitive(_ONE_F, a) ** e
    c = p.content
    if c == 1:
        return list(p.prim)
    if c == -1:
        return [-x for x in p.prim]
    return _ratfunc(p, _ONE_POLY)


def _power_size(value, e: int) -> tuple:
    """(t-degree, size) of value^e, estimated in one pass over the base:
    the t-degree is the largest degree of a numerator or denominator in
    the base times e, and the size (t-degree + 1) x coefficient bits, times
    the work of the last squaring for a base of several terms.

    Each coefficient of p^e is at most |p|^e in absolute value, |p| the sum
    of the absolute values of p's coefficients, so it has at most
    e*ceil(log2 |p|) bits; a base over Q(t) adds as many for its largest
    denominator.  A base of m terms in the indeterminates has at most
    C(m+h-1, h) terms in its power p^h, h = ceil(e/2), and the last
    squaring multiplies every pair of them, each pair a product of
    coefficients: (x+t)^40 takes 0.02 s, while (x+1)^700, whose output has
    only 701 terms, took 4.5 s."""
    if isinstance(value, list):
        m, top, num, den = 1, len(value), sum(map(abs, value)), 1
    else:
        coeffs = value.terms.values() if isinstance(value, DiffPoly) else (value,)
        # a single term's power is sized as its coefficient's: the unit's,
        # as in x^2 or (x^(3))^2, is 0 at once
        if len(coeffs) == 1 and next(iter(coeffs)) is _ONE_RF:
            return 0, 0
        m, top, num, den = len(coeffs), 0, 0, 1
        for c in coeffs:
            content, a, b = c.num.content, c.num.prim, c.den.prim
            # a primitive int list of one entry is (1,)
            if len(a) > 1:
                num += abs(content.numerator) * sum(map(abs, a))
                top = max(top, len(a))
            else:
                num += abs(content.numerator)
            if len(b) > 1:
                den = max(den, content.denominator * sum(map(abs, b)))
                top = max(top, len(b))
            elif content.denominator > den:
                den = content.denominator
    degree = max(top - 1, 0) * e
    size = (degree + 1) * e * (max(num - 1, 0).bit_length() + (den - 1).bit_length())
    # with m > 1 the bits are at least 1, so past this test e is small
    if m > 1 and size <= _POWER_SIZE_MAX:
        half = e - e // 2
        size *= math.comb(m + half - 1, half) ** 2
    return degree, size


def parse_diffpoly(text: str) -> DiffPoly:
    """Parse a differential polynomial in x (or x1..x9) over Q(t)."""
    value, arity = _parse(text, allow_indeterminates=True)
    if type(value) is DiffPoly:
        return _diffpoly(dict(value.terms), arity)
    return _diffpoly({(): _field(value)} if value else {}, arity)


def parse_ratfunc(text: str) -> RatFunc:
    """Parse a rational function of t with exact rational coefficients."""
    return _field(_parse(text, allow_indeterminates=False)[0])


def parse_fraction(text: str) -> Fraction:
    """Parse a plain rational number such as '3', '-1/2'."""
    try:
        return Fraction(text.strip())
    except ValueError:
        raise ParseError("expected a rational number", 1) from None
    except ZeroDivisionError:
        raise ZeroDivisionError("division by zero") from None


def _matrix_entry(text: str):
    """An int when int() reads the text, which is then an integer literal
    that Fraction reads to the same value; parse_fraction's answer or
    error otherwise."""
    try:
        return int(text)
    except ValueError:
        return parse_fraction(text)


def parse_matrix(text: str) -> ConstMatrix:
    """Parse a matrix literal: rows separated by ';', entries by ','.

    Example: "1,0;0,1" is the 2x2 identity.
    """
    from .matgroup import ConstMatrix

    return ConstMatrix.from_rows([[_matrix_entry(e) for e in row.split(",")]
                                  for row in text.split(";")])
