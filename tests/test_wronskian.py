from fractions import Fraction
from random import Random

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy import QQ
from sympy.polys.fields import field
from sympy.polys.matrices import DomainMatrix

from conftest import random_ratfunc
from diffalg.basefield import Poly, RatFunc
from diffalg.errors import NotFundamental, ShapeError
from diffalg.wronskian import (
    FundamentalSystem,
    LinearODE,
    apply_constant_matrix,
    dependence_certificate,
    dependent_over_constants,
    ode_from_fundamental_system,
    wronsky_matrix,
    wronskian,
)

ONE = RatFunc(1)
T = RatFunc(Poly.t())


def test_wronsky_matrix():
    assert wronsky_matrix([ONE, T]) == [[ONE, T], [RatFunc(0), ONE]]
    assert wronsky_matrix([T]) == [[T]]
    assert wronsky_matrix([T, T * T]) == [[T, T * T], [ONE, 2 * T]]
    with pytest.raises(ShapeError):
        wronsky_matrix([])


def test_wronskian_values():
    assert wronskian([ONE, T]) == ONE
    assert wronskian([T, 2 * T]).is_zero()
    assert wronskian([ONE, T, T * T]) == RatFunc(2)


def test_wronskian_multilinear():
    rng = Random(30)
    for _ in range(40):
        elems = [random_ratfunc(rng, 3, 5) for _ in range(rng.randint(1, 3))]
        lam = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        w = wronskian(elems)
        scaled = list(elems)
        scaled[0] = scaled[0] * lam
        assert wronskian(scaled) == w * lam


def test_dependence():
    assert dependent_over_constants([T, 2 * T])
    assert not dependent_over_constants([ONE, T])
    assert dependent_over_constants([ONE + T, ONE - T, RatFunc(2)])


def test_dependence_certificate():
    cert = dependence_certificate([T, 2 * T])
    assert cert is not None and cert[0] == 1 and cert == [Fraction(1), Fraction(-1, 2)]
    assert dependence_certificate([ONE, T]) is None
    cert = dependence_certificate([ONE + T, ONE - T, RatFunc(2)])
    assert cert == [Fraction(1), Fraction(1), Fraction(-1)]


def _certified_zero(elems, cert) -> bool:
    acc = RatFunc(0)
    for c, f in zip(cert, elems):
        acc = acc + f * c
    return acc.is_zero()


def test_dependence_oracle_equivalence():
    # small-scale version of the acceptance sweep
    rng = Random(31)
    for _ in range(80):
        n = rng.randint(1, 4)
        if rng.random() < 0.5:
            elems = [random_ratfunc(rng, 3, 6) for _ in range(n)]
        else:
            # force a dependent tuple when n > 1
            elems = [random_ratfunc(rng, 3, 6) for _ in range(max(n - 1, 1))]
            mix = RatFunc(0)
            for f in elems:
                mix = mix + f * Fraction(rng.randint(-3, 3))
            elems.append(mix)
        cert = dependence_certificate(elems)
        vanishes = wronskian(elems).is_zero()
        assert (cert is not None) == vanishes
        if cert is not None:
            assert any(cert)
            assert next(c for c in cert if c) == 1
            assert _certified_zero(elems, cert)


def test_apply_constant_matrix():
    assert apply_constant_matrix([ONE, T], [[1, 0], [0, 1]]) == [ONE, T]
    assert apply_constant_matrix([ONE, T], [[0, 1], [1, 0]]) == [T, ONE]
    assert apply_constant_matrix([ONE, T], [[2, 0], [0, 3]]) == [RatFunc(2), 3 * T]
    with pytest.raises(ShapeError):
        apply_constant_matrix([ONE, T], [[1, 0]])


def test_transform_law():
    # W(C u) = det(C) W(u) for random C and tuples
    rng = Random(32)
    for _ in range(40):
        n = rng.randint(1, 3)
        elems = [random_ratfunc(rng, 3, 5) for _ in range(n)]
        c = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        det = _det_fraction(c)
        assert wronskian(apply_constant_matrix(elems, c)) == wronskian(elems) * det


def _det_fraction(m):
    m = [row[:] for row in m]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] * inv
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


def test_fundamental_system_validation():
    with pytest.raises(NotFundamental):
        FundamentalSystem([T, 2 * T])
    fs = FundamentalSystem([ONE, T])
    assert fs.wronskian == ONE


def test_ode_from_fundamental_system():
    ode = ode_from_fundamental_system(FundamentalSystem([ONE, T]))
    assert ode.order == 2 and ode.coeffs == [RatFunc(0), RatFunc(0)]

    ode = ode_from_fundamental_system(FundamentalSystem([ONE, T * T]))
    assert ode.coeffs == [RatFunc(Poly((-1,)), Poly.t()), RatFunc(0)]
    # matches the companion form y'' - (a'/a) y' = 0 with a = (t^2)' = 2t
    a = (T * T).derive()
    assert ode.coeffs[0] == -(a.derive() / a)

    ode = ode_from_fundamental_system(FundamentalSystem([T, T * T]))
    assert ode.coeffs == [RatFunc(Poly((-2,)), Poly.t()),
                          RatFunc(Poly((2,)), Poly.t() ** 2)]


def test_ode_annihilates_system_and_transforms():
    rng = Random(33)
    done = 0
    for _ in range(30):
        n = rng.randint(1, 3)
        elems = [random_ratfunc(rng, 2, 4) for _ in range(n)]
        if wronskian(elems).is_zero():
            continue
        fs = FundamentalSystem(elems)
        ode = ode_from_fundamental_system(fs)
        for u in elems:
            assert ode.apply(u).is_zero()
        # an invertible constant mix solves the same equation
        while True:
            c = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            if _det_fraction(c):
                break
        for u in apply_constant_matrix(elems, c):
            assert ode.apply(u).is_zero()
        done += 1
    assert done >= 20


def test_ode_str():
    assert str(ode_from_fundamental_system(FundamentalSystem([ONE, T]))) == "y'' = 0"
    assert str(ode_from_fundamental_system(FundamentalSystem([ONE, T * T]))) == "y'' - 1/t*y' = 0"
    assert str(LinearODE(1, [T])) == "y' + t*y = 0"


_t = sympy.Symbol("t")
_K, _KT = field("t", QQ)
_polys = st.lists(st.integers(-4, 4), max_size=3).map(Poly)
_ratfuncs = st.builds(RatFunc, _polys, _polys.filter(bool))


def _expr(p: Poly):
    return sum((sympy.Rational(c.numerator, c.denominator) * _t**k
                for k, c in enumerate(p.coeffs)), sympy.Integer(0))


def _k(p: Poly):
    """p in sympy's field QQ(t)."""
    return _K.from_expr(_expr(p))


@settings(max_examples=30, deadline=None)
@given(st.lists(_ratfuncs, min_size=1, max_size=4))
def test_wronskian_against_sympy(elems):
    # sympy's determinant of the Wronsky matrix built in its field QQ(t)
    rows = [[_k(f.num) / _k(f.den) for f in elems]]
    while len(rows) < len(elems):
        rows.append([x.diff(_KT) for x in rows[-1]])
    expected = DomainMatrix(rows, (len(elems),) * 2, _K.to_domain()).det()
    w = wronskian(elems)
    assert _k(w.num) == expected * _k(w.den)
