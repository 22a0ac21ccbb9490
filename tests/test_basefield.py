import io
import math
import time
from fractions import Fraction
from random import Random

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st
from sympy import QQ
from sympy.integrals.rationaltools import ratint, ratint_ratpart
from sympy.polys.fields import field

from conftest import random_poly, random_ratfunc
from diffalg import basefield, cli
from diffalg.basefield import (
    Poly,
    RatFunc,
    antiderivative_in_field,
    hermite_reduce,
    log_derivative_decompose,
    poly_gcd,
    poly_xgcd,
    smallest_exponential_index,
)
from diffalg.parsing import parse_ratfunc
from diffalg.residues import _rational_roots

T = Poly.t()
ONE = Poly((1,))


def rf(num, den=1):
    return RatFunc(num, den)


def test_normalization():
    f = rf(Poly((-1, 0, 1)), Poly((-1, 1)))        # (t^2-1)/(t-1)
    assert f == rf(Poly((1, 1)))                   # t+1
    g = rf(Poly((0, 2)), Poly((4,)))               # 2t/4
    assert g.num == Poly((0, Fraction(1, 2))) and g.den == ONE
    with pytest.raises(ZeroDivisionError):
        rf(ONE, Poly())


def test_normalization_random():
    rng = Random(1)
    for _ in range(200):
        f = random_ratfunc(rng)
        assert f.den.lead() == 1
        assert poly_gcd(f.num, f.den).degree() <= 0
        if f.num.is_zero():
            assert f.den == ONE


def test_derive_examples():
    assert rf(T * T).derive() == rf(Poly((0, 2)))
    assert rf(ONE, T).derive() == rf(Poly((-1,)), T * T)
    assert rf(Poly((Fraction(7, 3),))).derive().is_zero()


def test_derive_leibniz_additive():
    rng = Random(2)
    for _ in range(150):
        f = random_ratfunc(rng)
        g = random_ratfunc(rng)
        assert (f * g).derive() == f.derive() * g + f * g.derive()
        assert (f + g).derive() == f.derive() + g.derive()


def test_constants_have_zero_derivative():
    rng = Random(3)
    for _ in range(100):
        f = random_ratfunc(rng)
        if f.derive().is_zero():
            assert f.num.degree() <= 0 and f.den.degree() <= 0
    # and conversely on constants
    assert rf(Poly((Fraction(-5, 7),))).derive().is_zero()


def test_poly_gcd_xgcd():
    rng = Random(4)
    for _ in range(120):
        a = random_poly(rng, 5)
        b = random_poly(rng, 5)
        g = poly_gcd(a, b)
        if a.is_zero() and b.is_zero():
            assert g.is_zero()
            continue
        assert g.lead() == 1
        assert a.divmod(g)[1].is_zero()
        assert b.divmod(g)[1].is_zero()
        g2, u, v = poly_xgcd(a, b)
        assert g2 == g
        assert u * a + v * b == g


def test_poly_shift_matches_evaluation():
    rng = Random(5)
    for _ in range(80):
        p = random_poly(rng, 5)
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        x = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        assert p.shift(a)(x) == p(x + a)


def test_hermite_reduce_identity():
    rng = Random(7)
    for _ in range(80):
        a = random_ratfunc(rng, max_deg=3, bound=5)
        g, h = hermite_reduce(a)
        assert g.derive() + h == a
        # remainder is proper with squarefree denominator
        assert h.is_zero() or h.num.degree() < h.den.degree()
        assert poly_gcd(h.den, h.den.derivative()).degree() <= 0


def test_antiderivative_examples():
    assert antiderivative_in_field(rf(Poly((0, 2)))) == rf(T * T)
    assert antiderivative_in_field(rf(ONE, T * T)) == rf(Poly((-1,)), T)
    # poles of multiplicity 5 and 3: four passes of the reduction loop
    b = rf(T + 2, (T - 1) ** 4 * Poly((1, 0, 1)) ** 2)
    assert antiderivative_in_field(b.derive()) == b
    # 1/t: the Hermite remainder survives with an irreducible simple pole
    g, h = hermite_reduce(rf(ONE, T))
    assert h == rf(ONE, T) and h.den.degree() == 1
    assert antiderivative_in_field(rf(ONE, T)) is None


def test_antiderivative_roundtrip():
    rng = Random(8)
    hits = 0
    for _ in range(120):
        c = random_ratfunc(rng, max_deg=3, bound=5)
        a = c.derive()
        b = antiderivative_in_field(a)
        assert b is not None
        assert b.derive() == a
        hits += 1
    assert hits == 120


def test_antiderivative_none_is_honest():
    rng = Random(9)
    for _ in range(80):
        a = random_ratfunc(rng, max_deg=3, bound=5)
        b = antiderivative_in_field(a)
        if b is not None:
            assert b.derive() == a


def test_log_derivative_examples():
    assert log_derivative_decompose(rf(ONE, T)) == [(T, Fraction(1))]
    assert log_derivative_decompose(rf(ONE, Poly((0, 2)))) == [(T, Fraction(1, 2))]
    assert log_derivative_decompose(rf(ONE)) is None


def test_log_derivative_reconstruction():
    rng = Random(10)
    for _ in range(60):
        # build a from a known combination, decompose, reconstruct
        parts = []
        seen = set()
        for _ in range(rng.randint(1, 3)):
            p = random_poly(rng, 1, 6, nonzero=True).monic()
            if p.degree() == 0 or p in seen:
                continue
            seen.add(p)
            parts.append((p, Fraction(rng.randint(-4, 4), rng.randint(1, 4))))
        a = rf(Poly())
        for p, c in parts:
            a = a + rf(p.derivative() * c, p)
        dec = log_derivative_decompose(a)
        assert dec is not None
        # one squarefree p_c per distinct residue, pairwise coprime, with
        # product the denominator
        assert len({c for _p, c in dec}) == len(dec)
        back = rf(Poly())
        prod = ONE
        for i, (p, c) in enumerate(dec):
            assert p.lead() == 1 and poly_gcd(p, p.derivative()).degree() == 0
            assert all(poly_gcd(p, q).degree() == 0 for q, _c in dec[:i])
            back = back + rf(p.derivative() * c, p)
            prod = prod * p
        assert back == a
        assert prod == a.den


def test_log_derivative_rejects_double_pole():
    assert log_derivative_decompose(rf(ONE, T * T)) is None
    assert log_derivative_decompose(rf(T * T)) is None


def test_log_derivative_irrational_residue():
    # 1/(t^2 - 2): residues live in Q(sqrt 2), not Q
    assert log_derivative_decompose(rf(ONE, Poly((-2, 0, 1)))) is None
    # but t/(t^2 - 2) = (1/2) * (t^2-2)'/(t^2-2) works
    dec = log_derivative_decompose(rf(T, Poly((-2, 0, 1))))
    assert dec == [(Poly((-2, 0, 1)), Fraction(1, 2))]


def test_log_derivative_early_exit_on_high_degree():
    # every residue is irrational; modulo a small prime the residue
    # polynomial does not split, so no exact resultant is formed
    for text in ("1/(t^60+t+1)", "t^39/(t^40+3*t+7)"):
        assert log_derivative_decompose(parse_ratfunc(text)) is None
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        assert cli.run(["classify-exp", text], out, err) == 0
        assert time.perf_counter() - start < 1.0
        assert out.getvalue() == "multiplicative dimension=1\n"


def test_smallest_exponential_index_examples():
    n, beta = smallest_exponential_index(rf(ONE, Poly((0, 2))))
    assert (n, beta) == (2, rf(T))
    n, beta = smallest_exponential_index(rf(ONE, T))
    assert (n, beta) == (1, rf(T))
    assert smallest_exponential_index(rf(ONE)) is None
    assert smallest_exponential_index(rf(Poly())) == (1, rf(ONE))


def test_smallest_exponential_index_properties():
    rng = Random(11)
    found = 0
    for _ in range(60):
        parts = []
        seen = set()
        for _ in range(rng.randint(1, 2)):
            p = random_poly(rng, 1, 5, nonzero=True).monic()
            if p.degree() == 0 or p in seen:
                continue
            seen.add(p)
            parts.append((p, Fraction(rng.randint(-3, 3), rng.randint(1, 5))))
        if not parts:
            continue
        a = rf(Poly())
        for p, c in parts:
            a = a + rf(p.derivative() * c, p)
        res = smallest_exponential_index(a)
        assert res is not None
        n, beta = res
        assert beta.derive() == a * n * beta
        dec = log_derivative_decompose(a)
        for m in range(1, n):
            assert any((c * m).denominator != 1 for _p, c in dec)
        found += 1
    assert found > 20


# sympy oracles: Poly and RatFunc against sympy's polynomials over QQ

_t = sympy.Symbol("t")
_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
_polys = st.lists(_fractions, max_size=6).map(Poly)
_small_polys = st.lists(_fractions, max_size=4).map(Poly)
_nonzero_polys = _polys.filter(bool)


def _sp(p: Poly) -> sympy.Poly:
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(p.coeffs)] or [0], _t, domain="QQ")


def _frac(q) -> Fraction:
    q = sympy.Rational(q)
    return Fraction(int(q.p), int(q.q))


def _canonical(p: Poly) -> Poly:
    """p, after checking the content * primitive invariant."""
    if not p.prim:
        assert p.content == 0 and p.coeffs == ()
    else:
        assert p.content != 0 and isinstance(p.content, Fraction)
        assert all(type(x) is int for x in p.prim)
        assert math.gcd(*p.prim) == 1 and p.prim[-1] > 0
    return p


@settings(max_examples=150, deadline=None)
@given(_polys, _polys)
def test_poly_arithmetic_against_sympy(a, b):
    sa, sb = _sp(a), _sp(b)
    assert _sp(_canonical(a + b)) == sa + sb
    assert _sp(_canonical(a - b)) == sa - sb
    assert _sp(_canonical(a * b)) == sa * sb
    assert _sp(_canonical(-a)) == -sa
    assert _sp(_canonical(a.derivative())) == sa.diff(_t)
    if a:
        assert _sp(_canonical(a.monic())) == sa.monic()
    if b:
        q, r = a.divmod(b)
        assert (_sp(_canonical(q)), _sp(_canonical(r))) == sa.div(sb)
        assert _canonical((a * b).exact_div(b)) == a
        if r:
            with pytest.raises(ArithmeticError):
                a.exact_div(b)


@settings(max_examples=60, deadline=None)
@given(_small_polys, st.integers(0, 5))
def test_poly_power_against_sympy(a, e):
    assert _sp(_canonical(a ** e)) == _sp(a) ** e


@settings(max_examples=100, deadline=None)
@given(_polys, _fractions)
def test_poly_shift_and_value_against_sympy(a, x):
    sa = _sp(a)
    assert _sp(_canonical(a.shift(x))) == sa.shift(sympy.Rational(x.numerator, x.denominator))
    value = a(x)
    assert isinstance(value, Fraction)
    assert value == _frac(sa.eval(sympy.Rational(x.numerator, x.denominator)))


@settings(max_examples=100, deadline=None)
@given(_polys, _nonzero_polys, _fractions.filter(bool))
def test_poly_equality_and_hash_agree(a, b, k):
    # the same value built from Fractions and built by arithmetic
    built = [(a * b + a) - a * b, Poly(list(a.coeffs)), (a * k) * (1 / k),
             Poly([c * k for c in a.coeffs]) * (1 / k), a * b.exact_div(b)]
    for p in built:
        assert p == a and hash(p) == hash(a)
    assert len({a, *built}) == 1
    assert (a == Poly((k,))) == (a.degree() == 0 and a.lead() == k)
    assert (a == b) == (_sp(a) == _sp(b))


@settings(max_examples=100, deadline=None)
@given(_polys, _nonzero_polys)
def test_ratfunc_normalisation_against_sympy(num, den):
    f = RatFunc(num, den)
    # monic denominator, gcd 1, and the same value
    assert f.den.lead() == 1
    assert sympy.gcd(_sp(f.num), _sp(f.den)).degree() <= 0
    assert _sp(f.num) * _sp(den) == _sp(num) * _sp(f.den)
    if num.is_zero():
        assert f.den == Poly((1,))


def _normal(f: RatFunc):
    """(num, den) of f as sympy polynomials, after checking that f is in
    lowest terms with a monic denominator."""
    n, d = _sp(_canonical(f.num)), _sp(_canonical(f.den))
    assert d.LC() == 1 and sympy.gcd(n, d) == 1
    if n.is_zero:
        assert d == 1
    return n, d


_ratfuncs = st.builds(RatFunc, _small_polys, _small_polys.filter(bool))


@settings(max_examples=100, deadline=None)
@given(_ratfuncs, _ratfuncs, st.integers(-3, 3))
def test_ratfunc_arithmetic_against_sympy(f, g, e):
    (fn, fd), (gn, gd) = _normal(f), _normal(g)
    n, d = _normal(f + g)
    assert n * fd * gd == (fn * gd + gn * fd) * d
    n, d = _normal(f * g)
    assert n * fd * gd == fn * gn * d
    n, d = _normal(-f)
    assert n * fd == -fn * d
    n, d = _normal(f.derive())
    assert n * fd ** 2 == (fn.diff(_t) * fd - fn * fd.diff(_t)) * d
    if e >= 0 or f:
        n, d = _normal(f ** e)
        if e >= 0:
            assert n * fd ** e == fn ** e * d
        else:
            assert n * fn ** -e == fd ** -e * d


def test_constant_denominator_runs_no_gcd(monkeypatch):
    calls = []
    gcd = basefield.poly_gcd
    monkeypatch.setattr(basefield, "poly_gcd",
                        lambda a, b: calls.append((a, b)) or gcd(a, b))
    p, q = Poly((1, 2, 3)), Poly((Fraction(1, 2), 0, 5))
    f = RatFunc(p, Poly((4,)))
    assert f.num == p * Fraction(1, 4) and f.den == Poly((1,))
    g = RatFunc(q)
    f * g + g - f
    (f * g).derive()
    assert calls == []
    RatFunc(p, q)
    assert len(calls) == 1


def test_poly_product_builds_no_fraction(monkeypatch):
    # Gauss's lemma: the product convolves the primitive ints and builds no
    # Fraction per coefficient; only contents other than 1 on both sides
    # cost one, their product
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)
    a, b = Poly((3, -1, 4, 1, 5)), Poly((2, 7, 1, 8))
    c, d = Poly((Fraction(1, 3), 2)), Poly((Fraction(-2, 5), 0, 7))
    monkeypatch.setattr(Fraction, "__new__", counting)
    a * b
    a * c * a
    assert made == []
    c * d
    assert len(made) == 1


# step 0 of the integer core: the algorithms on top of Poly against sympy


@settings(max_examples=100, deadline=None)
@given(_polys, _polys)
def test_gcd_and_xgcd_against_sympy(a, b):
    sa, sb = _sp(a), _sp(b)
    g = poly_gcd(a, b)
    assert _sp(g) == sympy.gcd(sa, sb)
    g2, u, v = poly_xgcd(a, b)
    assert g2 == g
    assert _sp(u) * sa + _sp(v) * sb == _sp(g)
    if a.degree() > 0 and b.degree() > 0:
        s, t, h = sympy.gcdex(sa, sb)
        assert (_sp(u), _sp(v), _sp(g)) == (s, t, h)


_factors = st.lists(st.lists(st.integers(-4, 4), min_size=2, max_size=3)
                    .map(Poly).filter(lambda p: p.degree() > 0),
                    min_size=1, max_size=3)


_K, _KT = field("t", QQ)


def _k(f: RatFunc):
    """f in sympy's field QQ(t)."""
    n, d = (sum((QQ(c.numerator, c.denominator) * _KT**k
                 for k, c in enumerate(p.coeffs)), _K.zero) for p in (f.num, f.den))
    return n / d


@settings(max_examples=30, deadline=None)
@given(_small_polys, _factors, st.lists(st.integers(1, 5), min_size=3, max_size=3))
@example(Poly((1, -2, 3)), [T, Poly((1, 0, 1)), Poly((-2, 0, 1))], [5, 4, 3])
@example(Poly((0, 1)), [T - 1, T - 1, Poly((1, 1, 1))], [5, 4, 5])
def test_hermite_reduce_against_ratint(num, factors, mults):
    den = Poly((1,))
    for f, m in zip(factors, mults):
        den = den * f ** m
    a = RatFunc(num, den)
    g, h = hermite_reduce(a)
    # sympy's ratint splits off the same rational part (up to a constant)
    # and the same remainder, whose integral is logarithms alone
    quo, rem = a.num.divmod(a.den)
    ratpart, logpart = ratint_ratpart(_sp(rem).as_expr(), _sp(a.den).as_expr(), _t)
    polypart = _K.from_expr(sympy.integrate(_sp(quo).as_expr(), _t))
    assert (_k(g) - polypart - _K.from_expr(ratpart)).diff(_KT) == 0
    assert _k(h) == _K.from_expr(logpart)
    b = antiderivative_in_field(a)
    assert (b is None) == (logpart != 0)
    if b is not None:
        assert (_k(b) - _K.from_expr(ratint(_sym_rf(a), _t))).diff(_KT) == 0


_root_factors = st.lists(st.tuples(st.one_of(st.integers(-30, 30),
                                             st.integers(-2**62, 2**62)),
                                   st.integers(1, 12)), max_size=5)
_IRREDUCIBLE = (None, (-2, 0, 1), (1, 0, 1), (-1, -1, 0, 1), (3, 0, 0, 0, 5))


@settings(max_examples=60, deadline=None)
@given(_root_factors, st.sampled_from(_IRREDUCIBLE), st.integers(1, 10**6))
@example([(0, 1)], None, 1)
@example([(1, 3), (2, 5), (-3, 7)], None, 1)
@example([(2**60 + 1, 2**60 - 1), (-(2**60 - 3), 2**59 + 5)], (-2, 0, 1), 1)
@example([], None, 7)
def test_rational_roots_against_sympy(factors, extra, scale):
    # products of (v*z - u), repeats allowed, times an optional
    # irreducible factor with no rational root
    f = Poly((scale,))
    for u, v in factors:
        f = f * Poly((-u, v))
    if extra is not None:
        f = f * Poly(extra)
    want = sorted(_frac(r) for r in _sp(f).ground_roots())
    assert _rational_roots(f) == want


def _sym_rf(f: RatFunc):
    return _sp(f.num).as_expr() / _sp(f.den).as_expr()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=3)
                .map(lambda cs: Poly(cs + [1])), min_size=1, max_size=3),
       st.lists(_fractions, min_size=3, max_size=3), _small_polys)
def test_log_derivative_residues_against_rothstein_trager(bases, residues, extra):
    # a = sum c_i p_i'/p_i plus a proper part over the same denominator,
    # which may bring residues outside Q
    a = RatFunc(Poly())
    for p, c in zip(bases, residues):
        a = a + RatFunc(p.derivative() * c, p)
    if a.den.degree() > 0:
        a = a + RatFunc(extra.divmod(a.den)[1], a.den)
    assume(a and a.num.degree() < a.den.degree())
    assume(poly_gcd(a.den, a.den.derivative()).degree() == 0)
    dec = log_derivative_decompose(a)
    # residues are the roots of R(z) = res_t(den, num - z den')
    z = sympy.Symbol("z")
    n, d = _sp(a.num).as_expr(), _sp(a.den).as_expr()
    res = sympy.Poly(sympy.resultant(d, n - z * sympy.diff(d, _t), _t), z)
    roots = sympy.roots(res, filter="Q")
    rational = sum(roots.values()) == res.degree()
    assert (dec is not None) == rational
    if dec is not None:
        assert {c for _p, c in dec} == {_frac(r) for r in roots}
        for r in roots:
            c = _frac(r)
            prod = Poly((1,))
            for p, ci in dec:
                if ci == c:
                    prod = prod * p
            rt = sympy.gcd(_sp(a.den), _sp(a.num) - _sp(Poly((c,))) * _sp(a.den).diff(_t))
            assert _sp(prod) == rt.monic()
