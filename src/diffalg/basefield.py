"""Exact arithmetic in the differential field Q(t), d/dt its derivation.

Elements are rational functions of t over Q, kept in lowest terms with
monic denominator; the constants Q are the elements free of t.  The
coefficient arithmetic runs on integers: a polynomial is one rational
content times a primitive integer polynomial (Geddes, Czapor, Labahn,
*Algorithms for Computer Algebra*, ch. 2).  By Gauss's lemma a product
of primitive polynomials is primitive, so a product multiplies the
contents and convolves the ints without a gcd, and gcds run Collins's
primitive remainder sequence on the stored ints.
On top of the field arithmetic this module decides two questions exactly:

* does a given element have an antiderivative inside the field (Mack's
  linear Hermite reduction, as in Bronstein, *Symbolic Integration I*,
  2nd ed., sec. 2.2), and
* is it a Q-linear combination of logarithmic derivatives, and if so
  with which rational residues (Lazard-Rioboo-Trager, Bronstein, sec.
  2.5, in the residues module: the residues are the rational roots of a
  resultant, found p-adically, so nothing is factored over Q).
"""

from __future__ import annotations

import math
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
        return tuple(getattr(self, f) for f in self._fields)

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


def _power_term(c: Fraction, k: int, sym: str) -> tuple:
    """c*sym^k as a (negative, body) pair for _signed_sum."""
    num, den = c.numerator, c.denominator
    mag = str(abs(num)) if den == 1 else "%d/%d" % (abs(num), den)
    if k == 0:
        return num < 0, mag
    pw = sym if k == 1 else "%s^%d" % (sym, k)
    return num < 0, pw if mag == "1" else "%s*%s" % (mag, pw)


def _grouped(s: str) -> str:
    """s as a factor of a product: in parentheses when it is a sum."""
    return "(%s)" % s if " + " in s or " - " in s else s


def _derivative_name(name: str, order: int) -> str:
    """name, name', name'', name^(3), ... as the printers write derivatives."""
    if order == 0:
        return name
    if order <= 2:
        return name + "'" * order
    return "%s^(%d)" % (name, order)


def _power(acc, base, e: int):
    """acc * base^e, e >= 0, by repeated squaring (no square past the
    top bit of e)."""
    while e:
        if e & 1:
            acc = acc * base
        e >>= 1
        if e:
            base = base * base
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
    each read; the arithmetic never goes through it.
    """

    __slots__ = ("content", "prim")

    def __init__(self, coeffs=()):
        cs = [_as_fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
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
        return tuple(c * x for x in self.prim)

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
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
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
        if isinstance(other, (int, Fraction)):
            if not other or not self.prim:
                return _ZERO_POLY
            return _poly(self.content * other, self.prim)
        if not isinstance(other, Poly):
            return NotImplemented
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
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return _poly(c, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        return _power(_ONE_POLY, self, e)

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
        return _primitive(self.content, [k * x for k, x in enumerate(self.prim) if k])

    def monic(self) -> "Poly":
        a = self.prim
        if not a:
            return self
        c = self.content
        if c.numerator == 1 and c.denominator == a[-1]:
            return self
        return _poly(Fraction(1, a[-1]), a)

    def shift(self, a) -> "Poly":
        """p(t + a), exact binomial expansion."""
        a = _as_fraction(a)
        if a == 0 or self.is_zero():
            return self
        # with a = u/v: v^n p(t + u/v) = sum_k p_k sum_j C(k, j) u^(k-j)
        # v^(n-k+j) t^j, all in Z
        u, v = a.numerator, a.denominator
        n = self.degree()
        u_pw = [1]
        v_pw = [1]
        for _ in range(n):
            u_pw.append(u_pw[-1] * u)
            v_pw.append(v_pw[-1] * v)
        out = [0] * (n + 1)
        for k, x in enumerate(self.prim):
            if x:
                for j in range(k + 1):
                    out[j] += x * math.comb(k, j) * u_pw[k - j] * v_pw[n - k + j]
        return _primitive(self.content / v_pw[n], out)

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
        coeffs = self.coeffs
        terms = [_power_term(coeffs[k], k, "t")
                 for k in range(self.degree(), -1, -1) if coeffs[k]]
        return _signed_sum(terms) or "0"

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
        content = content * g
    return _poly(content, tuple(cs))


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


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via the primitive polynomial remainder sequence, run on
    the stored primitive parts; 1 at once for a nonzero constant."""
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    ra, rb = a.prim, b.prim
    if len(ra) == 1 or len(rb) == 1:
        return _ONE_POLY
    while rb:
        ra, rb = rb, _primitive(_ONE_F, _pseudo_divmod(ra, rb)[2]).prim
    return _poly(Fraction(1, ra[-1]), ra)


def poly_xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, u, v) with u*a + v*b = g, g monic (or zero)."""
    r0, r1 = a, b
    s0, s1 = Poly((1,)), Poly()
    t0, t1 = Poly(), Poly((1,))
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    inv = 1 / r0.lead()
    return r0 * inv, s0 * inv, t0 * inv


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero() or b.is_zero():
        return Poly()
    return a.exact_div(poly_gcd(a, b)) * b


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
                g = poly_gcd(num, den)
                if g.degree() > 0:
                    num = num.exact_div(g)
                    den = den.exact_div(g)
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
        if self.den.degree() == 0 and other.den.degree() == 0:
            return _ratfunc(self.num * other.num, _ONE_POLY)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
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
        if self.den == Poly((1,)):
            return str(self.num)
        # the lcm of num's coefficient denominators: prim has gcd 1
        scale = self.num.content.denominator
        num = self.num * scale
        den = self.den * scale
        num_s = _grouped(str(num))
        den_s = str(den)
        monomial = sum(1 for c in den.coeffs if c) == 1 and den.lead() == 1
        if not monomial:
            den_s = "(%s)" % den_s
        return "%s/%s" % (num_s, den_s)

    def __repr__(self) -> str:
        return "RatFunc(%s)" % (str(self),)


def _ratfunc(num: Poly, den: Poly) -> RatFunc:
    """num/den, already coprime with den monic (or num zero and den 1)."""
    f = _new(RatFunc)
    f.num = num
    f.den = den
    return f


def _coerce(x):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (int, Fraction)):
        return _ratfunc(Poly.const(x), _ONE_POLY)
    if isinstance(x, Poly):
        return RatFunc(x)
    return None


def hermite_reduce(f: RatFunc) -> tuple[RatFunc, RatFunc]:
    """Write f = g' + h with h proper and squarefree-denominator.

    The polynomial part of f integrates termwise into g.  The proper part
    A/D goes through Mack's linear Hermite reduction (Bronstein, *Symbolic
    Integration I*, sec. 2.2, HermiteReduce): with D- = gcd(D, D') and
    D* = D/D-, each pass removes one level of multiplicity from D- by one
    extended Euclidean solve, and what survives in h = A/D* has only
    simple poles.  f has an antiderivative in Q(t) iff h = 0.
    """
    quo, num = f.num.divmod(f.den)
    g = RatFunc(Poly([Fraction(0)] + [c / (k + 1) for k, c in enumerate(quo.coeffs)]))
    d_minus = poly_gcd(f.den, f.den.derivative())
    d_star = f.den.exact_div(d_minus)
    while d_minus.degree() > 0:
        d_minus2 = poly_gcd(d_minus, d_minus.derivative())
        d_minus_star = d_minus.exact_div(d_minus2)
        # a is prime to d_minus_star: solve b*a + c*d_minus_star = num
        # with deg b < deg d_minus_star
        a = -(d_star * d_minus.derivative()).exact_div(d_minus)
        _, u, _ = poly_xgcd(a, d_minus_star)
        b = (num * u).divmod(d_minus_star)[1]
        c = (num - b * a).exact_div(d_minus_star)
        num = c - b.derivative() * d_star.exact_div(d_minus_star)
        g = g + RatFunc(b, d_minus)
        d_minus = d_minus2
    return g, RatFunc(num, d_star)


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
        return 1, RatFunc(Poly((1,)))
    n = 1
    for _p, c in dec:
        n = math.lcm(n, c.denominator)
    num = Poly((1,))
    den = Poly((1,))
    for p, c in dec:
        e = c * n
        assert e.denominator == 1
        e = e.numerator
        if e > 0:
            num = num * p**e
        elif e < 0:
            den = den * p**(-e)
    return n, RatFunc(num, den)
