"""Power-series fundamental systems at an ordinary point.

Exact truncated Taylor series stand in for the abstract solutions of a
monic linear ODE.  A series keeps each coefficient as a pair of ints, its
numerator and positive denominator in lowest terms, and its arithmetic
runs on them; the Fractions are built only when coeffs is read.  The
system produced here has identity initial data, so its Wronskian is a
unit (constant term 1), which is the fundamental-system criterion.

One recurrence, _taylor, gives every series, in ints over one common
denominator per series.  Its equation comes as int lists from
cleared._clear, the one clearing of denominators: a fundamental system
solves the ODE cleared, and series_expand is the order-0 case E * y = N
of f = N/E cleared.  ode_residual expands through series_expand, so the
tests check both against sympy.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .basefield import RatFunc, _as_fraction, _new, _power_term, _signed_sum
from .cleared import _clear
from .errors import PoleAtBasePoint, ShapeError
from .wronskian import LinearODE, _cofactor_det, wronsky_matrix


def _pair(c) -> tuple:
    """An int or Fraction as (numerator, denominator), in lowest terms."""
    if isinstance(c, int):
        return int(c), 1
    c = _as_fraction(c)
    return c.numerator, c.denominator


class TruncatedSeries:
    """sum of c_k (t - t0)^k for k = 0..N, plus O((t-t0)^(N+1)).

    precision is N, the index of the last retained coefficient; binary
    arithmetic truncates to the smaller precision of the operands.

    c_k is stored as num[k]/den[k], in lowest terms with den[k] > 0, so
    equality and hashing read the ints.  The arithmetic runs on them, one
    gcd per coefficient; coeffs, the tuple of Fraction coefficients, is
    built on each read, and no method reads it.
    """

    __slots__ = ("base_point", "num", "den")

    def __init__(self, base_point, coeffs):
        pairs = [_pair(c) for c in coeffs]
        if not pairs:
            raise ShapeError("series needs at least the constant coefficient")
        self.base_point = _as_fraction(base_point)
        self.num = tuple([n for n, _ in pairs])
        self.den = tuple([d for _, d in pairs])

    @property
    def coeffs(self) -> tuple:
        return tuple([Fraction(n, d) for n, d in zip(self.num, self.den)])

    @property
    def precision(self) -> int:
        return len(self.num) - 1

    def is_zero(self) -> bool:
        return not any(self.num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.base_point == other.base_point and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.base_point, self.num, self.den))

    def truncate(self, n: int) -> "TruncatedSeries":
        if n < 0:
            raise ShapeError("negative precision")
        if n >= self.precision:
            return self
        return _series(self.base_point, self.num[:n + 1], self.den[:n + 1])

    def _align(self, other):
        if not isinstance(other, TruncatedSeries):
            c, d = _pair(other)
            zeros = (0,) * self.precision
            other = _series(self.base_point, (c,) + zeros, (d,) + (1,) * len(zeros))
        if other.base_point != self.base_point:
            raise ShapeError("series have different base points")
        n = min(self.precision, other.precision)
        return self.truncate(n), other.truncate(n)

    def __add__(self, other) -> "TruncatedSeries":
        a, b = self._align(other)
        return _plus(a, b.num, b.den)

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return _series(self.base_point, tuple([-x for x in self.num]), self.den)

    def __sub__(self, other):
        a, b = self._align(other)
        return _plus(a, [-x for x in b.num], b.den)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            c, d = _pair(other)
            return _reduced(self.base_point, [x * c for x in self.num],
                            [y * d for y in self.den])
        a, b = self._align(other)
        # both over common denominators la and lb: one convolution of ints
        la, lb = math.lcm(*a.den), math.lcm(*b.den)
        xs = [x * (la // y) for x, y in zip(a.num, a.den)]
        ys = [x * (lb // y) for x, y in zip(b.num, b.den)]
        n = len(xs)
        out = [0] * n
        for i, x in enumerate(xs):
            if x:
                for j, y in enumerate(ys[:n - i], i):
                    out[j] += x * y
        return _reduced(a.base_point, out, [la * lb] * n)

    __rmul__ = __mul__

    def derive(self) -> "TruncatedSeries":
        if self.precision == 0:
            raise ShapeError("no precision left to differentiate")
        num, den = [], []
        for k in range(1, len(self.num)):
            # num/den is in lowest terms, so gcd(k*num, den) = gcd(k, den)
            g = math.gcd(k, self.den[k])
            num.append(k // g * self.num[k])
            den.append(self.den[k] // g)
        return _series(self.base_point, tuple(num), tuple(den))

    def __str__(self) -> str:
        if self.base_point == 0:
            sym = "t"
        elif self.base_point > 0:
            sym = "(t - %s)" % self.base_point
        else:
            sym = "(t + %s)" % (-self.base_point)
        terms = [_power_term(n, d, k, sym)
                 for k, (n, d) in enumerate(zip(self.num, self.den)) if n]
        tail = "O(%s^%d)" % (sym, self.precision + 1)
        body = _signed_sum(terms)
        return body + " + " + tail if body else tail

    def __repr__(self) -> str:
        return "TruncatedSeries(%s)" % (str(self),)


def _series(base_point: Fraction, num: tuple, den: tuple) -> TruncatedSeries:
    """The series with coefficients num[k]/den[k], already in lowest terms
    with positive denominators."""
    s = _new(TruncatedSeries)
    s.base_point, s.num, s.den = base_point, num, den
    return s


def _reduced(base_point: Fraction, num: list, den: list) -> TruncatedSeries:
    """The series num[k]/den[k], den[k] > 0, each brought to lowest terms."""
    out_num, out_den = [], []
    for x, y in zip(num, den):
        g = math.gcd(x, y)
        out_num.append(x // g)
        out_den.append(y // g)
    return _series(base_point, tuple(out_num), tuple(out_den))


def _plus(a: TruncatedSeries, num, den) -> TruncatedSeries:
    """a + the coefficients num[k]/den[k], of a's precision."""
    sums, dens = [], []
    for x, y, bx, by in zip(a.num, a.den, num, den):
        if y == by:
            sums.append(x + bx)
            dens.append(y)
        else:
            sums.append(x * by + bx * y)
            dens.append(y * by)
    return _reduced(a.base_point, sums, dens)


def _shift_ints(p, u: int, v: int, e: int) -> list:
    """v^e p(t + u/v) for an ascending int list p of degree at most e, by
    Horner's rule on v*t + u: the coefficient p_k is brought in times
    v^(e-k), and v^(e-k) (v*t + u)^k = v^e (t + u/v)^k."""
    if not p or not u:
        # at u = 0 the lowest terms give v = 1
        return list(p)
    vk = v ** (e - len(p) + 1)
    acc = [p[-1] * vk]
    for x in reversed(p[:-1]):
        vk *= v
        # acc * (v*t + u) + x * v^(e-k)
        nxt = [y * u for y in acc]
        nxt.append(0)
        for j, y in enumerate(acc, 1):
            nxt[j] += y * v
        nxt[0] += x * vk
        acc = nxt
    return acc


def _taylor(q: list, rhs: list, t0: Fraction, inits: list,
            precision: int) -> list:
    """The series at t0 of y with q_0 y^(n) + ... + q_n y = rhs (ascending
    int lists q_i and rhs, n = len(q) - 1), one per block (y^(j)(t0)/j!,
    j < n) in inits.  In y = sum c_m s^m, s = t - t0, the coefficient of
    s^k reads
    q_0(t0) (k+n)!/k! c_{k+n} = rhs_k - sum of q_i[l] (k-l+n-i)!/(k-l)!
    c_{k-l+n-i} over (i, l) != (0, 0) with l <= k.

    The equation comes cleared (cleared._clear) and is shifted once: with
    t0 = u/v and D the largest degree, each p becomes v^D p(t0 + s), still
    over Z, and the signs are set so that q_0(t0) > 0.  The blocks run in
    lockstep over k, sharing each step's weights.  A block keeps its last
    n + max deg q_i coefficients as ints over one denominator; one int gcd
    per step rescales them, and one more brings the new coefficient to
    lowest terms."""
    u, v = t0.numerator, t0.denominator
    polys = [*q, rhs]
    top = max(map(len, polys)) - 1
    eq = [_shift_ints(p, u, v, top) for p in polys]
    lead = eq[0][0] if eq[0] else 0
    if not lead:
        raise PoleAtBasePoint("denominator vanishes at %s" % t0)
    # the equation over Z, with q_0(t0) > 0
    if lead < 0:
        eq = [[-x for x in p] for p in eq]
    *q, r = eq
    lead, n = q[0][0], len(q) - 1
    # at step k the window holds c_{k+n-width}, ..., c_{k+n-1}: term
    # (l, i) reads c_{k-l+n-i} at width - l - i
    width = n + max(map(len, q)) - 1
    terms = sorted((l, n - i, a, width - l - i) for i, qi in enumerate(q)
                   for l, a in enumerate(qi) if a and (i or l))
    # per block: [common denominator, window, numerators, denominators]
    blocks = []
    for init in inits:
        den = math.lcm(*[c.denominator for c in init])
        blocks.append([den, [0] * (width - n)
                       + [c.numerator * (den // c.denominator) for c in init],
                       [c.numerator for c in init],
                       [c.denominator for c in init]])
    for k in range(precision - n + 1):
        rk = r[k] if k < len(r) else 0
        weights = []
        for l, d, a, at in terms:
            if l > k:
                break
            weights.append((a * math.perm(k - l + d, d), at))
        # c_{k+n} = total / (den * step); step / gcd joins den
        step = lead * math.perm(k + n, n)
        for block in blocks:
            den, window = block[0], block[1]
            total = rk * den
            for w, at in weights:
                total -= w * window[at]
            g = math.gcd(total, step)
            del window[:1]
            if g != step:
                m = step // g
                den *= m
                window = [x * m for x in window]
                block[0], block[1] = den, window
            x = total // g
            window.append(x)
            h = math.gcd(x, den)
            block[2].append(x // h)
            block[3].append(den // h)
    return [_series(t0, tuple(num), tuple(den)) for _, _, num, den in blocks]


def series_expand(f: RatFunc, base_point, precision: int) -> TruncatedSeries:
    """Taylor expansion of a rational function at an ordinary value: the
    order-0 equation E * y = N for f = N/E cleared."""
    t0 = _as_fraction(base_point)
    if precision < 0:
        raise ShapeError("negative precision")
    num, den = _clear({0: f})
    return _taylor([den], num[0], t0, [()], precision)[0]


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
    return _taylor([den, *num.values()], [], t0, inits, precision)


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
