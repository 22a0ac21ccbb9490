"""Power-series fundamental systems at an ordinary point.

Exact truncated Taylor series with Fraction coefficients stand in for the
abstract solutions of a monic linear ODE.  The system produced here has
identity initial data, so its Wronskian is a unit (constant term 1), which
is the fundamental-system criterion.

One recurrence, _taylor, gives every series, in ints over one common
denominator: a fundamental system solves the ODE cleared of denominators,
and series_expand is the order-0 case den * y = num.  ode_residual
expands through series_expand, so the tests check both against sympy.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .basefield import (_ONE_F, Poly, RatFunc, _as_fraction, _power_term,
                        _primitive, _signed_sum)
from .cleared import _clear
from .errors import PoleAtBasePoint, ShapeError
from .wronskian import LinearODE, _cofactor_det, wronsky_matrix


class TruncatedSeries:
    """sum of c_k (t - t0)^k for k = 0..N, plus O((t-t0)^(N+1)).

    precision is N, the index of the last retained coefficient; binary
    arithmetic truncates to the smaller precision of the operands.
    """

    __slots__ = ("base_point", "coeffs")

    def __init__(self, base_point, coeffs):
        cs = tuple([_as_fraction(c) for c in coeffs])
        if not cs:
            raise ShapeError("series needs at least the constant coefficient")
        self.base_point = _as_fraction(base_point)
        self.coeffs = cs

    @property
    def precision(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.base_point == other.base_point and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.base_point, self.coeffs))

    def truncate(self, n: int) -> "TruncatedSeries":
        if n < 0:
            raise ShapeError("negative precision")
        if n >= self.precision:
            return self
        return TruncatedSeries(self.base_point, self.coeffs[: n + 1])

    def _align(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries(self.base_point,
                                    [_as_fraction(other)] + [0] * self.precision)
        if other.base_point != self.base_point:
            raise ShapeError("series have different base points")
        n = min(self.precision, other.precision)
        return self.truncate(n), other.truncate(n)

    def __add__(self, other) -> "TruncatedSeries":
        a, b = self._align(other)
        return TruncatedSeries(a.base_point,
                               [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.base_point, [-c for c in self.coeffs])

    def __sub__(self, other):
        a, b = self._align(other)
        return TruncatedSeries(a.base_point,
                               [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries(self.base_point,
                                   [c * other for c in self.coeffs])
        a, b = self._align(other)
        n = a.precision
        out = [Fraction(0)] * (n + 1)
        for i, x in enumerate(a.coeffs):
            if x == 0:
                continue
            for j in range(n + 1 - i):
                y = b.coeffs[j]
                if y:
                    out[i + j] += x * y
        return TruncatedSeries(a.base_point, out)

    __rmul__ = __mul__

    def derive(self) -> "TruncatedSeries":
        if self.precision == 0:
            raise ShapeError("no precision left to differentiate")
        return TruncatedSeries(self.base_point,
                               [k * c for k, c in enumerate(self.coeffs)][1:])

    def __str__(self) -> str:
        if self.base_point == 0:
            sym = "t"
        elif self.base_point > 0:
            sym = "(t - %s)" % self.base_point
        else:
            sym = "(t + %s)" % (-self.base_point)
        terms = [_power_term(c.numerator, c.denominator, k, sym)
                 for k, c in enumerate(self.coeffs) if c]
        tail = "O(%s^%d)" % (sym, self.precision + 1)
        body = _signed_sum(terms)
        return body + " + " + tail if body else tail

    def __repr__(self) -> str:
        return "TruncatedSeries(%s)" % (str(self),)


def _taylor(q: list, rhs: Poly, t0: Fraction, inits: list,
            precision: int) -> list:
    """The series at t0 of y with q_0 y^(n) + ... + q_n y = rhs (Poly q_i
    and rhs, n = len(q) - 1), one per block (y^(j)(t0)/j!, j < n) in inits.
    In y = sum c_m s^m, s = t - t0, the coefficient of s^k reads
    q_0(t0) (k+n)!/k! c_{k+n} = rhs_k - sum of q_i[l] (k-l+n-i)!/(k-l)!
    c_{k-l+n-i} over (i, l) != (0, 0) with l <= k.

    The equation is scaled to Z once; the last n + max deg q_i coefficients
    are ints over one denominator, and one int gcd per step rescales them."""
    q = [p.shift(t0) for p in q] + [rhs.shift(t0)]
    lead = q[0].content * q[0].prim[0]
    if not lead:
        raise PoleAtBasePoint("denominator vanishes at %s" % t0)
    # the equation over Z, with q_0(t0) > 0
    scale = math.lcm(*[p.content.denominator for p in q]) * (1 if lead > 0 else -1)
    *q, r = [[x * (p.content * scale).numerator for x in p.prim] for p in q]
    lead, n = q[0][0], len(q) - 1
    # at step k the window holds c_{k+n-width}, ..., c_{k+n-1}: term
    # (l, i) reads c_{k-l+n-i} at width - l - i
    width = n + max(map(len, q)) - 1
    terms = sorted((l, n - i, a, width - l - i) for i, qi in enumerate(q)
                   for l, a in enumerate(qi) if a and (i or l))
    out = []
    for init in inits:
        den = math.lcm(*[c.denominator for c in init])
        window = [0] * (width - n) + [c.numerator * den // c.denominator for c in init]
        c = list(init)
        for k in range(precision - n + 1):
            total = r[k] * den if k < len(r) else 0
            for l, d, a, at in terms:
                if l > k:
                    break
                total -= a * window[at] * math.perm(k - l + d, d)
            # c_{k+n} = total / (den * step); step / gcd joins den
            step = lead * math.perm(k + n, n)
            g = math.gcd(total, step)
            del window[:1]
            if g != step:
                den *= step // g
                window = [x * (step // g) for x in window]
            window.append(total // g)
            c.append(Fraction(window[-1], den))
        out.append(TruncatedSeries(t0, c))
    return out


def series_expand(f: RatFunc, base_point, precision: int) -> TruncatedSeries:
    """Taylor expansion of a rational function at an ordinary value: the
    order-0 equation den * y = num."""
    t0 = _as_fraction(base_point)
    if precision < 0:
        raise ShapeError("negative precision")
    return _taylor([f.den], f.num, t0, [()], precision)[0]


def fundamental_system_series(ode: LinearODE, base_point, precision: int = 16) -> list:
    """n series solutions with u_i^(j)(t0) = delta_ij, i, j < n, of the
    cleared equation D y^(n) + D a_1 y^(n-1) + ... = 0, D the lcm of the
    denominators: D(t0) = 0 iff some a_i has a pole at t0."""
    n = ode.order
    t0 = _as_fraction(base_point)
    if precision < n:
        raise ShapeError("precision must be at least the order")
    num, den = _clear(dict(enumerate(ode.coeffs)))
    inits = [[Fraction(int(i == j), math.factorial(j)) for j in range(n)]
             for i in range(n)]
    q = [_primitive(_ONE_F, c) for c in [den, *num.values()]]
    return _taylor(q, Poly(), t0, inits, precision)


def series_wronskian(series: list) -> TruncatedSeries:
    """Wronskian determinant of truncated series, cofactor expansion."""
    if not series:
        raise ShapeError("need at least one series")
    t0 = series[0].base_point
    if any(s.base_point != t0 for s in series):
        raise ShapeError("series have different base points")
    n = len(series)
    if min(s.precision for s in series) < n - 1:
        raise ShapeError("not enough precision for %d derivatives" % (n - 1))
    return _cofactor_det(wronsky_matrix(series))


def ode_residual(ode: LinearODE, s: TruncatedSeries) -> TruncatedSeries:
    """Left-hand side of the equation applied to a series, precision N - n."""
    n = ode.order
    if s.precision < n:
        raise ShapeError("series precision below the equation order")
    derivs = [s]
    for _ in range(n):
        derivs.append(derivs[-1].derive())
    acc = derivs[n]
    target = s.precision - n
    for i, a in enumerate(ode.coeffs, start=1):
        expanded = series_expand(a, s.base_point, target)
        acc = acc + expanded * derivs[n - i]
    return acc
