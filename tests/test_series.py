import math
from fractions import Fraction
from random import Random

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from conftest import random_poly, random_ratfunc
from oracles import poly_shift
from diffalg.basefield import Poly, RatFunc
from diffalg.cleared import _clear
from diffalg.errors import PoleAtBasePoint, ShapeError
from diffalg import odeseries
from diffalg.odeseries import (
    TruncatedSeries,
    fundamental_system_series,
    ode_residual,
    series_expand,
    series_wronskian,
)
from diffalg.wronskian import LinearODE

ZERO = RatFunc(0)


def test_series_expand_examples():
    s = series_expand(RatFunc(1, Poly((1, -1))), 0, 3)
    assert s.coeffs == (1, 1, 1, 1)
    s = series_expand(RatFunc(Poly((0, 0, 1))), 0, 4)
    assert s.coeffs == (0, 0, 1, 0, 0)
    with pytest.raises(PoleAtBasePoint):
        series_expand(RatFunc(1, Poly.t()), 0, 3)


def test_series_expand_matches_evaluation():
    # p(t) expanded at t0 has coefficients whose partial sums evaluate back
    rng = Random(40)
    for _ in range(50):
        f = random_ratfunc(rng, 3, 5)
        t0 = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if f.den(t0) == 0:
            continue
        s = series_expand(f, t0, 8)
        assert s.coeffs[0] == f(t0)
        # derivative of the expansion is the expansion of the derivative
        ds = series_expand(f.derive(), t0, 7)
        assert s.derive() == ds


def test_series_arithmetic_truncates_consistently():
    rng = Random(41)
    for _ in range(40):
        f = random_ratfunc(rng, 2, 4)
        g = random_ratfunc(rng, 2, 4)
        if f.den(0) == 0 or g.den(0) == 0:
            continue
        sf = series_expand(f, 0, 9)
        sg = series_expand(g, 0, 7)
        prod = sf * sg
        assert prod.precision == 7
        assert prod == series_expand(f * g, 0, 7)
        assert (sf + sg) == series_expand(f + g, 0, 7)


def test_fundamental_system_examples():
    ode = LinearODE(2, [ZERO, ZERO])
    u0, u1 = fundamental_system_series(ode, 0, 5)
    assert u0.coeffs == (1, 0, 0, 0, 0, 0)
    assert u1.coeffs == (0, 1, 0, 0, 0, 0)

    cosh_sinh = fundamental_system_series(LinearODE(2, [ZERO, RatFunc(-1)]), 0, 5)
    assert cosh_sinh[0].coeffs == (1, 0, Fraction(1, 2), 0, Fraction(1, 24), 0)
    assert cosh_sinh[1].coeffs == (0, 1, 0, Fraction(1, 6), 0, Fraction(1, 120))

    airy = fundamental_system_series(LinearODE(2, [ZERO, RatFunc(Poly((0, -1)))]), 0, 6)
    assert airy[0].coeffs == (1, 0, 0, Fraction(1, 6), 0, 0, Fraction(1, 180))
    assert airy[1].coeffs == (0, 1, 0, 0, Fraction(1, 12), 0, 0)


def test_series_wronskian():
    one = TruncatedSeries(0, [1, 0, 0])
    t = TruncatedSeries(0, [0, 1, 0])
    assert series_wronskian([one, t]).coeffs == (1, 0)
    assert series_wronskian([t, t * 2]).is_zero()
    with pytest.raises(ShapeError):
        series_wronskian([])
    shifted = TruncatedSeries(1, [1, 1])
    with pytest.raises(ShapeError):
        series_wronskian([one, shifted])


def test_ode_residual_examples():
    ode = LinearODE(2, [ZERO, ZERO])
    assert ode_residual(ode, TruncatedSeries(0, [0, 1, 0, 0])).is_zero()
    hyper = LinearODE(2, [ZERO, RatFunc(-1)])
    cosh = fundamental_system_series(hyper, 0, 8)[0]
    assert ode_residual(hyper, cosh).is_zero()
    res = ode_residual(hyper, series_expand(RatFunc(Poly((0, 0, 1))), 0, 6))
    assert res.coeffs == (2, 0, -1, 0, 0)


def _random_ordinary_ode(rng: Random, t0: Fraction, max_order: int = 4) -> LinearODE:
    n = rng.randint(1, max_order)
    coeffs = []
    for _ in range(n):
        while True:
            f = random_ratfunc(rng, 3, 5)
            if f.den(t0) != 0:
                coeffs.append(f)
                break
    return LinearODE(n, coeffs)


def test_fundamental_system_properties():
    rng = Random(42)
    for _ in range(25):
        t0 = Fraction(rng.randint(-2, 2))
        ode = _random_ordinary_ode(rng, t0, 3)
        sys = fundamental_system_series(ode, t0, 12)
        for s in sys:
            assert ode_residual(ode, s).is_zero()
        w = series_wronskian(sys)
        assert w.coeffs[0] == 1


def test_abel_identity():
    # W' = -a1 W through the valid precision
    rng = Random(43)
    for _ in range(20):
        t0 = Fraction(rng.randint(-2, 2))
        ode = _random_ordinary_ode(rng, t0, 3)
        sys = fundamental_system_series(ode, t0, 12)
        w = series_wronskian(sys)
        lhs = w.derive()
        a1 = series_expand(ode.coeffs[0], t0, lhs.precision)
        rhs = -(a1 * w)
        n = min(lhs.precision, rhs.precision)
        assert lhs.truncate(n) == rhs.truncate(n)


def test_pole_rejection_and_precision_guards():
    ode = LinearODE(1, [RatFunc(1, Poly.t())])
    with pytest.raises(PoleAtBasePoint):
        fundamental_system_series(ode, 0, 8)
    # (6t^2 + 7t - 5)/7 = (2t - 1)(3t + 5)/7 vanishes at 1/2
    pole = RatFunc(1, Poly((Fraction(-5, 7), 1, Fraction(6, 7))))
    with pytest.raises(PoleAtBasePoint):
        fundamental_system_series(LinearODE(1, [pole]), Fraction(1, 2), 8)
    # fine at a different base point
    sys = fundamental_system_series(ode, 1, 8)
    assert ode_residual(ode, sys[0]).is_zero()
    with pytest.raises(ShapeError):
        fundamental_system_series(LinearODE(2, [ZERO, ZERO]), 0, 1)
    with pytest.raises(ShapeError):
        ode_residual(LinearODE(2, [ZERO, ZERO]), TruncatedSeries(0, [1, 1]))


def test_series_str():
    s = series_expand(RatFunc(1, Poly((1, -1))), 0, 3)
    assert str(s) == "1 + t + t^2 + t^3 + O(t^4)"
    cosh = fundamental_system_series(LinearODE(2, [ZERO, RatFunc(-1)]), 0, 4)[0]
    assert str(cosh) == "1 + 1/2*t^2 + 1/24*t^4 + O(t^5)"
    assert str(TruncatedSeries(Fraction(1, 2), [0, -1])) == "-(t - 1/2) + O((t - 1/2)^2)"


# sympy oracles: series_expand and fundamental_system_series share one
# recurrence, and ode_residual expands through series_expand, so these
# tests take every expansion from sympy instead

_T, _S = sympy.symbols("t s")

base_points = st.fractions(min_value=-3, max_value=3, max_denominator=3)
polys = st.lists(st.integers(-4, 4), max_size=4).map(Poly)
ratfuncs = st.builds(RatFunc, polys, polys.filter(bool))


def _sympy_taylor(f: RatFunc, t0: Fraction, precision: int) -> TruncatedSeries:
    def expr(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * _T**k
                   for k, c in enumerate(p.coeffs))
    r0 = sympy.Rational(t0.numerator, t0.denominator)
    ser = sympy.series(expr(f.num) / expr(f.den), _T, r0, precision + 1)
    shifted = sympy.expand(ser.removeO().subs(_T, _S + r0))
    coeffs = [shifted.coeff(_S, k) for k in range(precision + 1)]
    return TruncatedSeries(t0, [Fraction(int(c.p), int(c.q)) for c in coeffs])


@settings(max_examples=30, deadline=None)
@given(ratfuncs, base_points, st.integers(0, 12))
def test_series_expand_against_sympy(f, t0, precision):
    assume(f.den(t0) != 0)
    assert series_expand(f, t0, precision) == _sympy_taylor(f, t0, precision)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4).flatmap(
           lambda n: st.lists(ratfuncs, min_size=n, max_size=n)),
       base_points, st.integers(0, 12))
def test_fundamental_system_against_sympy(coeffs, t0, extra):
    assume(all(a.den(t0) != 0 for a in coeffs))
    n = len(coeffs)
    precision = n + extra
    ode = LinearODE(n, coeffs)
    expanded = [_sympy_taylor(a, t0, precision - n) for a in coeffs]
    system = fundamental_system_series(ode, t0, precision)
    assert len(system) == n
    for i, u in enumerate(system):
        assert u.precision == precision
        # u_i^(j)(t0) = delta_ij for j < n
        assert [u.coeffs[j] * math.factorial(j) for j in range(n)] \
            == [int(i == j) for j in range(n)]
        derivs = [u]
        for _ in range(n):
            derivs.append(derivs[-1].derive())
        residual = derivs[n]
        for k, a in enumerate(expanded, start=1):
            residual = residual + a * derivs[n - k]
        assert residual.precision == precision - n and residual.is_zero()


# the Fraction recurrence that the integer _taylor replaced, as its oracle


def _fraction_taylor(q, rhs, t0, inits, precision):
    q = [poly_shift(p, t0).coeffs for p in q]
    lead = q[0][0]
    if lead == 0:
        raise PoleAtBasePoint("denominator vanishes at %s" % t0)
    rhs = poly_shift(rhs, t0).coeffs
    n = len(q) - 1
    terms = sorted((l, n - i, a) for i, qi in enumerate(q)
                   for l, a in enumerate(qi) if a and (i or l))
    out = []
    for init in inits:
        c = list(init)
        for k in range(precision - n + 1):
            total = rhs[k] if k < len(rhs) else 0
            for l, d, a in terms:
                if l > k:
                    break
                total -= a * c[k - l + d] * math.perm(k - l + d, d)
            c.append(total / (lead * math.perm(k + n, n)))
        out.append(TruncatedSeries(t0, c))
    return out


_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=5)
_rational_polys = st.lists(_fractions, max_size=4).map(Poly)


@st.composite
def _taylor_problems(draw):
    n = draw(st.integers(0, 4))
    t0 = draw(st.fractions(min_value=-3, max_value=3, max_denominator=7))
    # any sign and scale of q_0, including negative and non-monic ones
    q = draw(st.lists(_rational_polys, min_size=n + 1, max_size=n + 1))
    assume(q[0] and q[0](t0) != 0)
    rhs = draw(_rational_polys.filter(bool) if n == 0 else _rational_polys)
    inits = draw(st.lists(st.lists(_fractions, min_size=n, max_size=n),
                          min_size=1, max_size=3))
    precision = draw(st.integers(n, 96))
    return q, rhs, t0, inits, precision


@settings(max_examples=60, deadline=None)
@given(_taylor_problems())
# t0 = 0, where the shift is the identity
@example(([Poly((Fraction(3, 2), 1)), Poly((0, Fraction(-2, 5))), Poly((1,))],
          Poly((1, 2)), Fraction(0),
          [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1, 3)]], 30))
# q_0(t0) = -19/7 < 0 at t0 = -5/7
@example(([Poly((-2, 1)), Poly((Fraction(1, 3), 0, 5)), Poly((0, 7))], Poly(),
          Fraction(-5, 7), [[Fraction(1), Fraction(2, 9)], [0, 1]], 40))
# rhs of degree 4 over q_i of degree at most 1
@example(([Poly((3,)), Poly((1, -1))], Poly((1, 0, 0, Fraction(2, 5), -4)),
          Fraction(2, 3), [[Fraction(1, 2)]], 20))
def test_taylor_against_fraction_recurrence(problem):
    # _taylor takes the equation cleared to int lists, one integer
    # multiple of the rational one
    q, rhs, t0, inits, precision = problem
    cleared, _den = _clear(dict(enumerate(RatFunc(p) for p in [*q, rhs])))
    *q_ints, rhs_ints = cleared.values()
    assert odeseries._taylor(q_ints, rhs_ints, t0, inits, precision) \
        == _fraction_taylor(q, rhs, t0, inits, precision)


def test_fundamental_system_builds_one_fraction_per_coefficient(monkeypatch):
    # the recurrence runs on ints over one common denominator; the only
    # Fraction built per step is the coefficient itself
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)
    ode = LinearODE(3, [RatFunc(Poly((1, 1)), Poly((2, -3))),
                        RatFunc(Poly((0, Fraction(1, 3)))), RatFunc(-2)])
    precision = 40
    monkeypatch.setattr(Fraction, "__new__", counting)
    system = fundamental_system_series(ode, Fraction(-1, 2), precision)
    monkeypatch.undo()
    assert len(system) == 3
    assert len(made) <= 3 * (precision + 1 + 20)


def test_fundamental_system_expands_no_coefficient(monkeypatch):
    # the equation is cleared of denominators and solved by one
    # recurrence; no coefficient a_i is expanded into a series first
    calls = []
    expand = odeseries.series_expand
    monkeypatch.setattr(odeseries, "series_expand",
                        lambda *args: calls.append(args) or expand(*args))
    ode = LinearODE(3, [RatFunc(1, Poly((1, 1))), RatFunc(Poly((0, 1))),
                        RatFunc(2)])
    system = fundamental_system_series(ode, 1, 10)
    assert calls == []
    assert all(ode_residual(ode, u).is_zero() for u in system)


def test_series_keeps_int_pairs_in_lowest_terms():
    s = TruncatedSeries(Fraction(1, 2),
                        [Fraction(2, 4), -3, Fraction(0, 5), Fraction(-6, 8)])
    assert (s.num, s.den) == ((1, -3, 0, -3), (2, 1, 1, 4))
    assert s.coeffs == (Fraction(1, 2), -3, 0, Fraction(-3, 4))
    again = TruncatedSeries(Fraction(2, 4), s.coeffs)
    assert again == s and hash(again) == hash(s)
    d = s.derive()
    assert (d.num, d.den) == ((-3, 0, -9), (1, 1, 4))
    assert (s * Fraction(2, 3)).coeffs == (Fraction(1, 3), -2, 0, Fraction(-1, 2))
    assert (s - s).is_zero() and (s - s).den == (1, 1, 1, 1)
    assert (s + 1).coeffs == (Fraction(3, 2), -3, 0, Fraction(-3, 4))
    assert str(s) == "1/2 - 3*(t - 1/2) - 3/4*(t - 1/2)^3 + O((t - 1/2)^4)"


def test_series_product_builds_each_operands_fractions_once(monkeypatch):
    # the product runs on the int pairs: at most each operand's 51
    # coefficients are ever made Fractions
    rng = Random(44)
    a, b = [TruncatedSeries(Fraction(-2, 3), [
        Fraction(rng.randint(-99, 99), rng.randint(1, 30)) for _ in range(51)])
        for _ in range(2)]
    xs, ys = a.coeffs, b.coeffs
    expected = tuple([sum((xs[i] * ys[k - i] for i in range(k + 1)), Fraction(0))
                      for k in range(51)])
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)
    monkeypatch.setattr(Fraction, "__new__", counting)
    product = a * b
    monkeypatch.undo()
    assert product.precision == 50
    assert len(made) <= 2 * 51
    assert product.coeffs == expected
