"""Power-series fundamental systems at an ordinary point.

Exact truncated Taylor series with Fraction coefficients stand in for the
abstract solutions of a monic linear ODE.  The system produced here has
identity initial data, so its Wronskian is a unit (constant term 1), which
is the fundamental-system criterion.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .basefield import RatFunc, _as_fraction, _signed_sum
from .errors import PoleAtBasePoint, ShapeError
from .wronskian import LinearODE, _cofactor_det, wronsky_matrix


class TruncatedSeries:
    """sum of c_k (t - t0)^k for k = 0..N, plus O((t-t0)^(N+1)).

    precision is N, the index of the last retained coefficient; binary
    arithmetic truncates to the smaller precision of the operands.
    """

    __slots__ = ("base_point", "coeffs")

    def __init__(self, base_point, coeffs):
        cs = tuple(_as_fraction(c) for c in coeffs)
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

    def integrate(self, constant=0) -> "TruncatedSeries":
        out = [_as_fraction(constant)]
        out.extend(c / (k + 1) for k, c in enumerate(self.coeffs))
        return TruncatedSeries(self.base_point, out)

    def __str__(self) -> str:
        if self.base_point == 0:
            sym = "t"
        elif self.base_point > 0:
            sym = "(t - %s)" % self.base_point
        else:
            sym = "(t + %s)" % (-self.base_point)
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                pw = sym if k == 1 else "%s^%d" % (sym, k)
                body = pw if mag == 1 else "%s*%s" % (mag, pw)
            terms.append((c < 0, body))
        tail = "O(%s^%d)" % (sym, self.precision + 1)
        body = _signed_sum(terms)
        return body + " + " + tail if body else tail

    def __repr__(self) -> str:
        return "TruncatedSeries(%s)" % (str(self),)


def series_expand(f: RatFunc, base_point, precision: int) -> TruncatedSeries:
    """Taylor expansion of a rational function at an ordinary value."""
    t0 = _as_fraction(base_point)
    if precision < 0:
        raise ShapeError("negative precision")
    den = f.den.shift(t0)
    if den.coeffs and den.coeffs[0] == 0:
        raise PoleAtBasePoint("denominator vanishes at %s" % t0)
    num = f.num.shift(t0)
    n_c = list(num.coeffs) + [Fraction(0)] * (precision + 1)
    d_c = list(den.coeffs) + [Fraction(0)] * (precision + 1)
    inv0 = 1 / d_c[0]
    out = []
    for k in range(precision + 1):
        acc = n_c[k]
        for j in range(1, k + 1):
            acc -= d_c[j] * out[k - j]
        out.append(acc * inv0)
    return TruncatedSeries(t0, out)


def fundamental_system_series(ode: LinearODE, base_point, precision: int = 16) -> list:
    """n series solutions with u_i^(j)(t0) = delta_ij, i, j < n.

    Coefficients beyond the initial block come from the recurrence read
    off the equation: the k-th Taylor coefficient of y^(n) must cancel
    the corresponding coefficient of sum a_i y^(n-i).
    """
    n = ode.order
    t0 = _as_fraction(base_point)
    if precision < n:
        raise ShapeError("precision must be at least the order")
    a_series = [series_expand(a, t0, precision) for a in ode.coeffs]
    out = []
    for i in range(n):
        c = [Fraction(0)] * (precision + 1)
        c[i] = Fraction(1, math.factorial(i))
        for k in range(precision - n + 1):
            total = Fraction(0)
            for idx, a in enumerate(a_series, start=1):
                d = n - idx
                for l in range(k + 1):
                    al = a.coeffs[l]
                    if al:
                        total += al * c[k - l + d] * math.perm(k - l + d, d)
            c[k + n] = -total / math.perm(k + n, n)
        out.append(TruncatedSeries(t0, c))
    return out


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
