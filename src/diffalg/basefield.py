"""Exact arithmetic in the differential field Q(t), d/dt its derivation.

Elements are rational functions of t over Q, kept in lowest terms with
monic denominator; the constants Q are the elements free of t.  The
coefficient arithmetic runs on integers: a polynomial is one rational
content times a primitive integer polynomial (Geddes, Czapor, Labahn,
*Algorithms for Computer Algebra*, ch. 2).  By Gauss's lemma a product
of primitive polynomials is primitive, so a product multiplies the
contents and convolves the ints without a gcd.  A polynomial gcd runs on
the stored ints as the heuristic gcd of Char, Geddes and Gonnet: one
integer gcd of two values at a point, and an exact-division check of the
candidate read off its digits.  Collins's primitive remainder sequence
is the fallback.
On top of the field arithmetic this module decides two questions exactly:

* does a given element have an antiderivative inside the field (Mack's
  linear Hermite reduction, as in Bronstein, *Symbolic Integration I*,
  2nd ed., sec. 2.2, in the hermite module), and
* is it a Q-linear combination of logarithmic derivatives, and if so
  with which rational residues (Lazard-Rioboo-Trager, Bronstein, sec.
  2.5, in the residues module: the residues are the rational roots of a
  resultant, found p-adically, so nothing is factored over Q).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected an integer or Fraction, got %r" % (x,))


class _Record:
    """A plain value record: == and hash read the attributes named in
    _fields, so a record that holds a list is unhashable."""

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._fields))


def _signed_sum(terms) -> str:
    """Join (negative, body) pairs as "a - b + c"; "" for no terms."""
    parts = []
    for negative, body in terms:
        if parts:
            parts.append(("- " if negative else "+ ") + body)
        else:
            parts.append("-" + body if negative else body)
    return " ".join(parts)


def _power_term(num: int, den: int, k: int, sym: str) -> tuple:
    """(num/den)*sym^k, num/den in lowest terms with den > 0, as a
    (negative, body) pair for _signed_sum."""
    mag = str(abs(num)) if den == 1 else "%d/%d" % (abs(num), den)
    if k == 0:
        return num < 0, mag
    pw = sym if k == 1 else "%s^%d" % (sym, k)
    return num < 0, pw if mag == "1" else "%s*%s" % (mag, pw)


def _int_terms(n: int, d: int, prim) -> list:
    """The (negative, body) terms of (n/d)*prim in t, prim an ascending int
    sequence, highest power first; one gcd brings each coefficient n*x/d
    to lowest terms, so no Fraction is built."""
    terms = []
    for k in range(len(prim) - 1, -1, -1):
        x = prim[k]
        if x:
            x *= n
            g = math.gcd(x, d)
            terms.append(_power_term(x // g, d // g, k, "t"))
    return terms


def _quotient_str(n: int, d: int, num, den, factor: bool = False) -> str:
    """(n/d)*num/den as RatFunc prints it, for int sequences num and den,
    den primitive with a positive lead and printed made monic.  A quotient
    is printed over the lcm d of the numerator's coefficient denominators
    (num has gcd 1), its denominator in parentheses unless it is a power of
    t.  With factor, a sum is put in parentheses as a factor of a product."""
    if len(den) == 1:
        terms = _int_terms(n, d, num)
        s = _signed_sum(terms) or "0"
        return "(%s)" % s if factor and len(terms) > 1 else s
    top, bottom = _int_terms(n, 1, num), _int_terms(d, den[-1], den)
    num_s, den_s = _signed_sum(top), _signed_sum(bottom)
    if len(top) > 1:
        num_s = "(%s)" % num_s
    if len(bottom) > 1 or d != 1:
        den_s = "(%s)" % den_s
    s = "%s/%s" % (num_s, den_s)
    return "(%s)" % s if factor and (len(top) > 1 or len(bottom) > 1) else s


def _signed_factor(c: RatFunc, rest: str) -> tuple:
    """c*rest as a (negative, body) pair for _signed_sum: |c| is a factor
    of the product, left out when it is 1 and rest is not empty."""
    cn = c.num.content
    n, d = cn.numerator, cn.denominator
    num, den = c.num.prim, c.den.prim
    if rest and d == 1 and (n == 1 or n == -1) and len(num) == 1 and len(den) == 1:
        return n < 0, rest
    mag = _quotient_str(abs(n), d, num, den, True)
    return n < 0, "%s*%s" % (mag, rest) if rest else mag


def _derivative_name(name: str, order: int) -> str:
    """name, name', name'', name^(3), ... as the printers write derivatives."""
    if order == 0:
        return name
    if order <= 2:
        return name + "'" * order
    return "%s^(%d)" % (name, order)


def _power(base, e: int, mul=operator.mul):
    """base^e for e >= 1 by left-to-right binary powering (Knuth, TAOCP
    vol. 2, sec. 4.6.3): one square per bit of e below the top one, then
    one product by base where the bit is set."""
    acc = base
    for bit in bin(e)[3:]:
        acc = mul(acc, acc)
        if bit == "1":
            acc = mul(acc, base)
    return acc


class Poly:
    """Dense univariate polynomial in t over Q.

    Stored as content * prim: content is a nonzero Fraction and prim an
    ascending tuple of ints with gcd 1, a positive last entry and no
    trailing zero.  The zero polynomial has prim () (content 0) and degree
    -1.  The pair is unique, so equality and hashing read it directly.
    Gauss's lemma keeps a product of primitive polynomials primitive, so
    __mul__ convolves the ints and runs no gcd; sums, quotients and
    derivatives take one integer gcd to restore the invariant.

    coeffs, the ascending tuple of Fraction coefficients, is computed on
    each read; neither the arithmetic nor the printers go through it.
    """

    __slots__ = ("content", "prim")

    def __init__(self, coeffs=()):
        cs = [_as_fraction(c) for c in coeffs]
        den = math.lcm(*[c.denominator for c in cs])
        p = _primitive(Fraction(1, den), [c.numerator * (den // c.denominator) for c in cs])
        self.content, self.prim = p.content, p.prim

    @classmethod
    def const(cls, c) -> "Poly":
        return _poly(_as_fraction(c), (1,)) if c else _ZERO_POLY

    @classmethod
    def t(cls) -> "Poly":
        return cls((0, 1))

    @property
    def coeffs(self) -> tuple:
        c = self.content
        return tuple([c * x for x in self.prim])

    def is_zero(self) -> bool:
        return not self.prim

    def __bool__(self) -> bool:
        return bool(self.prim)

    def degree(self) -> int:
        return len(self.prim) - 1

    def lead(self) -> Fraction:
        if not self.prim:
            return _ZERO_F
        return self.content * self.prim[-1]

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        return self.prim == other.prim and self.content == other.content

    def __hash__(self):
        return hash((self.content, self.prim))

    def __neg__(self) -> "Poly":
        return _poly(-self.content, self.prim)

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly((other,))
        a, b = self.prim, other.prim
        if not a:
            return other
        if not b:
            return self
        ca, cb = self.content, other.content
        if ca == cb:
            c, ma, mb = ca, 1, 1
        else:
            # ca*a + cb*b = (h/l) * (ma*a + mb*b), l the lcm of the
            # denominators and h the gcd of the scaled numerators
            l = math.lcm(ca.denominator, cb.denominator)
            ma = ca.numerator * (l // ca.denominator)
            mb = cb.numerator * (l // cb.denominator)
            h = math.gcd(ma, mb)
            c, ma, mb = Fraction(h, l), ma // h, mb // h
        if len(a) < len(b):
            a, b, ma, mb = b, a, mb, ma
        out = [ma * x for x in a]
        for i, y in enumerate(b):
            out[i] += mb * y
        return _primitive(c, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not other or not self.prim:
                return _ZERO_POLY
            return _poly(self.content * other, self.prim)
        a, b = self.prim, other.prim
        if not a or not b:
            return _ZERO_POLY
        ca, cb = self.content, other.content
        c = cb if ca == 1 else ca if cb == 1 else ca * cb
        if len(a) == 1:
            return _poly(c, b)
        if len(b) == 1:
            return _poly(c, a)
        # Gauss's lemma: the convolution of primitive a and b is primitive
        return _poly(c, tuple(_conv(a, b)))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, e) if e else _ONE_POLY

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Euclidean division, other nonzero."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if len(self.prim) < len(other.prim):
            return _ZERO_POLY, self
        # m*a = q*b + r over Z, so self = (ca/(cb*m))*q * other + (ca/m)*r
        m, q, r = _pseudo_divmod(self.prim, other.prim)
        ca = self.content
        return (_primitive(ca / (other.content * m), q),
                _primitive(ca / m, r))

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ArithmeticError("division was not exact")
        return q

    def derivative(self) -> "Poly":
        return _primitive(self.content, _derivative_ints(self.prim))

    def monic(self) -> "Poly":
        a = self.prim
        if not a:
            return self
        c = self.content
        if c.numerator == 1 and c.denominator == a[-1]:
            return self
        return _poly(Fraction(1, a[-1]), a)

    def __call__(self, x) -> Fraction:
        x = _as_fraction(x)
        if not self.prim:
            return _ZERO_F
        # homogeneous Horner: acc = v^n p(u/v) in Z
        u, v = x.numerator, x.denominator
        acc = 0
        pw = 1
        for c in reversed(self.prim):
            acc = acc * u + c * pw
            pw *= v
        return self.content * Fraction(acc, pw // v)

    def __str__(self) -> str:
        c = self.content
        return _quotient_str(c.numerator, c.denominator, self.prim, (1,))

    def __repr__(self) -> str:
        return "Poly(%s)" % (str(self),)


_ZERO_F = Fraction(0)
_ONE_F = Fraction(1)
_new = object.__new__


def _poly(content: Fraction, prim: tuple) -> Poly:
    """The Poly content * prim, prim already primitive (or ())."""
    p = _new(Poly)
    p.content = content
    p.prim = prim
    return p


_ZERO_POLY = _poly(_ZERO_F, ())
_ONE_POLY = _poly(_ONE_F, (1,))


def _primitive(content: Fraction, cs: list) -> Poly:
    """content * cs for an int list cs, brought to content * primitive."""
    while cs and not cs[-1]:
        cs.pop()
    if not cs:
        return _ZERO_POLY
    g = math.gcd(*cs)
    if cs[-1] < 0:
        g = -g
    if g != 1:
        cs = [x // g for x in cs]
        # a product of Fractions runs two gcds
        content = Fraction(g) if content is _ONE_F else content * g
    return _poly(content, tuple(cs))


def _conv(a, b) -> list:
    """The product of two nonempty int coefficient sequences; the shorter
    one runs the outer loop."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        x = a[0]
        return [x * y for y in b]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _add_ints(a: list, b: list) -> list:
    """a + b for ascending int lists, without trailing zeros."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    while out and not out[-1]:
        out.pop()
    return out


def _derivative_ints(a) -> list:
    return [k * x for k, x in enumerate(a) if k]


def _pseudo_divmod(a: tuple, b: tuple) -> tuple[int, list, list]:
    """(m, q, r) with m*a = q*b + r over Z, deg r < deg b, m >= 1.

    Each step scales the remainder only by lead(b)/gcd(lead(b), lead(r)),
    so m is 1 when b is monic or every step divides exactly.
    """
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    q = [0] * (len(r) - db)
    m = 1
    while len(r) > db:
        dr = len(r) - 1
        c = r[-1]
        g = math.gcd(c, lb)
        s, c = lb // g, c // g
        if s != 1:
            r = [s * x for x in r]
            q = [s * x for x in q]
            m *= s
        q[dr - db] = c
        for j, y in enumerate(b, dr - db):
            r[j] -= c * y
        r.pop()
        while r and not r[-1]:
            r.pop()
    return m, q, r


# evaluation points GCDHEU tries before poly_gcd runs the remainder sequence
_HEU_TRIES = 6


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd of a and b; 1 at once for a nonzero constant.

    It runs on the stored primitive parts, first by the heuristic gcd
    GCDHEU (Char, Geddes, Gonnet, *J. Symbolic Comput.* 7 (1989);
    Geddes, Czapor, Labahn, ch. 7), which turns the polynomial gcd into
    one integer gcd: with gamma = gcd(a(xi), b(xi)) at an integer xi, the
    candidate h is the primitive part of the polynomial whose coefficients
    are the symmetric xi-adic digits of gamma (each in (-xi/2, xi/2]).  h
    is accepted only when it divides both a and b exactly; after
    _HEU_TRIES growing xi, Collins's primitive remainder sequence decides.

    Why an accepted h is the gcd g, for xi >= 2*min(floor(|a|/lc(a)),
    floor(|b|/lc(b))) + 4 (|.| the largest coefficient in absolute value,
    lc the leading one): h divides g, say g = h*k with k in Z[t].  g(xi)
    divides a(xi) and b(xi), hence gamma, and gamma = c*h(xi) for the
    content c of the digit polynomial, so k(xi) divides c, and 0 < |c| <=
    xi/2 (gamma is not 0: xi is above a root bound of a or of b).  Every
    root z of k is a common root of a and b, so by Cauchy's bound |z| <
    B = min(1 + |a|/lc(a), 1 + |b|/lc(b)), and xi > 2*B.  If k had a
    root, |k(xi)| >= prod |xi - z| > (xi - B)^deg(k) >= xi - B > xi/2 >=
    |c|, which k(xi) | c forbids; so k is the constant 1 (g and h are
    primitive with positive leading coefficients) and h = g.
    """
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    ra, rb = a.prim, b.prim
    if len(ra) == 1 or len(rb) == 1:
        return _ONE_POLY
    g = _gcd_parts(ra, rb)[0]
    return _poly(Fraction(1, g[-1]), tuple(g))


def _gcd_parts(a, b) -> tuple:
    """(g, a/g, b/g) for primitive int sequences a, b of degree >= 1, g
    their primitive gcd, with a positive lead.  A b of degree 1 is
    irreducible, so g is +-b when b divides a and 1 otherwise; so for an a
    of degree 1.  Otherwise GCDHEU's check already divides, so its
    quotients are kept; after the remainder sequence they cost two more
    divisions."""
    if len(a) == 2 or len(b) == 2:
        # the linear one is l, the other o
        l, o = (b, a) if len(b) == 2 else (a, b)
        unit = 1 if l[-1] > 0 else -1
        g = l if unit == 1 else [-x for x in l]
        q = _linear_quotient(o, g)
        if q is None:
            return (1,), a, b
        return (g, q, [unit]) if l is b else (g, [unit], q)
    found = _heuristic_gcd(a, b)
    if found:
        return found
    g = _primitive(_ONE_F, list(_prs_gcd(a, b)[0])).prim
    return g, _exact_quotient(a, g), _exact_quotient(b, g)


def _linear_quotient(a, b) -> list | None:
    """a/b for an int sequence a and a primitive b = b1*t + b0, or None
    when b does not divide a.  It divides from the top by Horner's scheme:
    each quotient digit is the running remainder over b1, exact when b
    divides a (Gauss's lemma), and the last remainder is 0."""
    if len(a) < 2:
        return None if a else []
    b0, b1 = b
    q = [0] * (len(a) - 1)
    r = a[-1]
    for i in range(len(a) - 2, -1, -1):
        if b1 != 1:
            r, rest = divmod(r, b1)
            if rest:
                return None
        q[i] = r
        r = a[i] - r * b0
    return None if r else q


def _exact_quotient(a, b) -> list | None:
    """a/b for int sequences with b primitive, or None when b does not
    divide a.  A linear b divides by Horner's scheme (_linear_quotient).
    Otherwise, by Gauss's lemma a quotient in Q[t] of a by primitive b lies
    in Z[t], so the pseudo-quotient q of m*a = q*b is m times it."""
    if len(b) == 2:
        return _linear_quotient(a, b)
    m, q, r = _pseudo_divmod(a, b)
    if r:
        return None
    return q if m == 1 else [x // m for x in q]


def _heuristic_gcd(a, b) -> tuple | None:
    """GCDHEU on primitive int sequences of degree >= 1 (see poly_gcd):
    (g, a/g, b/g) with g the primitive gcd, or None when no xi tried gave
    a candidate dividing both."""
    # at least poly_gcd's bound on xi, leading coefficients being >= 1
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 4
    top = min(len(a), len(b))
    for _ in range(_HEU_TRIES):
        va = vb = 0
        for x in reversed(a):
            va = va * xi + x
        for x in reversed(b):
            vb = vb * xi + x
        gamma = math.gcd(va, vb)
        half = xi // 2
        digits = []
        while gamma:
            x = gamma % xi
            if x > half:
                x -= xi
            digits.append(x)
            gamma = (gamma - x) // xi
        if len(digits) == 1:
            return (1,), a, b
        if len(digits) <= top:
            h = _primitive(_ONE_F, digits).prim
            qa = _exact_quotient(a, h)
            if qa is not None:
                qb = _exact_quotient(b, h)
                if qb is not None:
                    return h, qa, qb
        # the multiplier of Geddes, Czapor, Labahn keeps xi off powers of 2
        xi = xi * 73794 // 27011
    return None


def _prs_gcd(a, b) -> tuple:
    """(r, s) for int sequences a and b, not both zero: r a nonzero
    multiple of gcd(a, b) in Z[t] and s*a = r mod b, by Collins's
    primitive remainder sequence with cofactors (J. ACM 14 (1967); Brown,
    J. ACM 18 (1971)).  Each pseudo-remainder m*r0 - q*r1 carries its
    a-cofactor m*s0 - q*s1, and the pair is divided by its joint integer
    content, so each is a rational multiple of Euclid's over Q and the
    b-cofactor is never formed.  For coprime a and b, r is a constant and
    s/r the inverse of a mod b."""
    r0, s0, r1, s1 = a, [1], b, []
    while len(r1) > 1:
        m, q, r = _pseudo_divmod(r0, r1)
        s = [m * x for x in s0]
        if q and s1:
            s = _add_ints(s, [-x for x in _conv(q, s1)])
        if r:
            h = math.gcd(*r, *s)
            if h != 1:
                r = [x // h for x in r]
                s = [x // h for x in s]
        r0, s0, r1, s1 = r1, s1, r, s
    # a nonzero constant r1 divides everything: the next remainder is 0
    return (r1, s1) if r1 else (r0, s0)


def poly_xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, u, v) with u*a + v*b = g, g monic (or zero): the cofactors of
    Euclid's algorithm.

    _prs_gcd runs on the primitive ints A, B of a and b and gives r and s
    with s*A = r mod B, r a multiple of the gcd; g is r made monic, u is s
    over lead(r)*content(a), and v is (g - u*a)/b, one exact division.
    """
    A, B = a.prim, b.prim
    if not A and not B:
        return _ZERO_POLY, _ONE_POLY, _ZERO_POLY
    r0, s0 = _prs_gcd(A, B)
    lead = r0[-1]
    ca, cb = a.content, b.content
    u = _primitive(Fraction(ca.denominator, ca.numerator * lead), s0) if s0 \
        else _ZERO_POLY
    # r0 - s0*A = t0*B, and t0 is in Z[t] by Gauss's lemma (0 when b is)
    rest = _add_ints(list(r0), [-x for x in _conv(s0, A)]) if s0 else list(r0)
    v = _primitive(Fraction(cb.denominator, cb.numerator * lead),
                   _exact_quotient(rest, B)) if rest else _ZERO_POLY
    if len(r0) == 1:
        return _ONE_POLY, u, v
    h = math.gcd(*r0)
    g = tuple([x // (h if lead > 0 else -h) for x in r0])
    return _poly(Fraction(1, g[-1]), g), u, v


class RatFunc:
    """Rational function num/den over Q, den monic, gcd(num, den) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if isinstance(num, (int, Fraction)):
            num = Poly.const(num)
        if isinstance(den, (int, Fraction)):
            den = Poly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = _ONE_POLY
        else:
            # a constant on either side has no common factor to cancel
            if len(num.prim) > 1 and len(den.prim) > 1:
                g, a, b = _gcd_parts(num.prim, den.prim)
                if len(g) > 1:
                    # a and b are primitive with positive leads (Gauss)
                    num = _poly(num.content, tuple(a))
                    den = _poly(den.content, tuple(b))
            # monic den: its content is 1/lead(den.prim), num takes the rest
            c, lead = den.content, den.prim[-1]
            if c.numerator != 1 or c.denominator != lead:
                num = _poly(num.content / (c * lead), num.prim)
                den = _poly(Fraction(1, lead), den.prim)
        self.num = num
        self.den = den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self) -> "RatFunc":
        return _ratfunc(-self.num, self.den)

    def __add__(self, other) -> "RatFunc":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = (self, other) if self.den.degree() <= other.den.degree() else (other, self)
        if a.den.degree() == 0:
            # a is a polynomial: a*den(b) + num(b) stays prime to den(b)
            return _ratfunc(a.num * b.den + b.num, b.den)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "RatFunc":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self is _ONE_RF:
            return other
        if other is _ONE_RF:
            return self
        a, b = self, other
        if len(b.num.prim) < 2 and len(b.den.prim) == 1:
            a, b = b, a
        if len(a.den.prim) == 1 and (len(a.num.prim) < 2 or len(b.den.prim) == 1):
            # a constant, or both polynomials: no factor to cancel appears
            num = a.num * b.num
            return _ratfunc(num, b.den if num.prim else _ONE_POLY)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        if len(other.num.prim) == 1 and len(other.den.prim) == 1:
            return _ratfunc(self.num * (1 / other.num.content), self.den)
        if len(self.num.prim) < 2 and len(self.den.prim) == 1:
            # a constant c over n/d is c*d/n, in lowest terms already
            if not self.num.prim:
                return self
            n = other.num
            return _ratfunc(other.den * (self.num.content / n.lead()), n.monic())
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, e: int) -> "RatFunc":
        if e < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return RatFunc(self.den**(-e), self.num**(-e))
        if self is _ONE_RF:
            return self
        # powers of coprime polynomials stay coprime, of monic ones monic
        return _ratfunc(self.num**e, self.den**e)

    def derive(self) -> "RatFunc":
        """Apply the field derivation d/dt."""
        n, d = self.num, self.den
        if d.degree() == 0:
            return _ratfunc(n.derivative(), d)
        return RatFunc(n.derivative() * d - n * d.derivative(), d * d)

    def __call__(self, x) -> Fraction:
        x = _as_fraction(x)
        dv = self.den(x)
        if dv == 0:
            raise ZeroDivisionError("pole at %s" % x)
        return self.num(x) / dv

    def __str__(self) -> str:
        c = self.num.content
        return _quotient_str(c.numerator, c.denominator, self.num.prim, self.den.prim)

    def __repr__(self) -> str:
        return "RatFunc(%s)" % (str(self),)


def _ratfunc(num: Poly, den: Poly) -> RatFunc:
    """num/den, already coprime with den monic (or num zero and den 1)."""
    f = _new(RatFunc)
    f.num = num
    f.den = den
    return f


# the coefficient of an indeterminate's term: a product by it is the other
# factor and a power of it is itself, so neither builds a RatFunc
_ONE_RF = _ratfunc(_ONE_POLY, _ONE_POLY)


def _coerce(x):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (int, Fraction)):
        return _ratfunc(Poly.const(x), _ONE_POLY)
    if isinstance(x, Poly):
        return RatFunc(x)
    return None


def hermite_reduce(f: RatFunc) -> tuple[RatFunc, RatFunc]:
    """Write f = g' + h with h proper and squarefree-denominator, by
    Mack's linear Hermite reduction; f has an antiderivative in Q(t) iff
    h = 0.  hermite.hermite_reduce, whose module is imported on first use,
    so a command that integrates nothing never compiles it."""
    from . import hermite

    return hermite.hermite_reduce(f)


def antiderivative_in_field(a: RatFunc) -> RatFunc | None:
    """An element b of Q(t) with b' = a, or None if there is none."""
    g, h = hermite_reduce(a)
    return g if h.is_zero() else None


def _residue_groups(num: Poly, den: Poly) -> list[tuple[Poly, Fraction]] | None:
    """residues.residue_groups(num, den).  The module is imported on first
    use, so a command that asks for no residue never compiles it."""
    from .residues import residue_groups

    return residue_groups(num, den)


# kept under its old name, which bench/tracer.py patches
_irreducible_factors = _residue_groups


def log_derivative_decompose(a: RatFunc) -> list[tuple[Poly, Fraction]] | None:
    """Write a as sum of c * p_c'/p_c over distinct rational residues c.

    Each p_c = gcd(den, num - c*den') is monic and squarefree, and the p_c
    are pairwise coprime with product den; they are not factored into
    irreducibles.  The list is sorted by (degree, coefficients) of p_c.
    Such an expression exists iff a is proper with squarefree denominator
    and every residue of a is rational.  a = 0 gives the empty
    decomposition; None means no such expression exists in the field.
    """
    if a.is_zero():
        return []
    if a.num.degree() >= a.den.degree():
        return None
    if poly_gcd(a.den, a.den.derivative()).degree() > 0:
        return None
    return _residue_groups(a.num, a.den)


def smallest_exponential_index(a: RatFunc) -> tuple[int, RatFunc] | None:
    """Least n >= 1 with f'/f = n*a solvable for f in the field, plus one f.

    Writes a = sum c * p_c'/p_c (log_derivative_decompose); n is the lcm
    of the residue denominators and f = prod p_c^(n c), the same f however
    the poles are grouped.  For a = 0 the answer is (1, 1).  None when a
    is not a combination of logarithmic derivatives with rational residues,
    in which case no multiple of a is one either.
    """
    dec = log_derivative_decompose(a)
    if dec is None:
        return None
    if not dec:
        return 1, _ONE_RF
    n = 1
    for _p, c in dec:
        n = math.lcm(n, c.denominator)
    num = den = _ONE_POLY
    for p, c in dec:
        e = c * n
        assert e.denominator == 1
        e = e.numerator
        if e > 0:
            num = num * p**e
        elif e < 0:
            den = den * p**(-e)
    # the p_c are monic and pairwise coprime, so num/den is in lowest terms
    return n, _ratfunc(num, den)
