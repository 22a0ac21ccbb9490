import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import QQ
from sympy.polys.rings import ring

from conftest import random_diffpoly, random_poly
from diffalg import basefield, cleared, diffpoly
from diffalg.basefield import Poly, RatFunc, _conv, _exact_quotient
from diffalg.cleared import _clear, _tower
from diffalg.diffpoly import (
    DerivVar,
    DiffPoly,
    _derivatives,
    _unpack,
    certificate_checks,
    in_general_ideal,
    ritt_reduce,
    var,
)
from diffalg.errors import IncompleteAssignment, NotApplicable, ShapeError
from diffalg.parsing import parse_diffpoly

X = DiffPoly.from_var(var(0, 0))
X1 = DiffPoly.from_var(var(0, 1))
X2 = DiffPoly.from_var(var(0, 2))
X3 = DiffPoly.from_var(var(0, 3))
EXAMPLE_P = X1 * X1 - 2 * X


def test_derive():
    assert EXAMPLE_P.derive() == 2 * X1 * X2 - 2 * X1
    assert DiffPoly.const(5).derive().is_zero()
    assert (X * X1).derive() == X1 * X1 + X * X2


def test_init_coerces_coefficients_and_widens_indeterminates():
    u, w = var(0, 1), var(2, 0)
    p = DiffPoly({((u, 1),): 2, ((u, 2),): Fraction(1, 3),
                  ((w, 1),): Poly((0, 1)), (): 0, ((w, 2),): RatFunc(0)})
    assert p.terms == {((u, 1),): RatFunc(2), ((u, 2),): RatFunc(Fraction(1, 3)),
                       ((w, 1),): RatFunc(Poly((0, 1)))}
    assert all(type(c) is RatFunc for c in p.terms.values())
    assert p.num_indeterminates == 3
    assert DiffPoly({((w, 1),): 1}, 5).num_indeterminates == 5
    assert DiffPoly({(): Poly()}, 2).terms == {}


def test_derive_leibniz():
    rng = Random(20)
    for _ in range(60):
        p = random_diffpoly(rng)
        q = random_diffpoly(rng)
        assert (p * q).derive() == p.derive() * q + p * q.derive()


def test_order():
    assert EXAMPLE_P.order() == 1
    assert DiffPoly.const(5).order() == -1
    assert DiffPoly({}).order() is None


def test_order_of_derivative():
    rng = Random(21)
    for _ in range(60):
        p = random_diffpoly(rng)
        n = p.order()
        if n is not None and n >= 0:
            assert p.derive().order() == n + 1


def test_separant():
    assert EXAMPLE_P.separant() == 2 * X1
    assert (X3 + X).separant() == DiffPoly.const(1)
    assert (X * X).separant() == 2 * X
    with pytest.raises(NotApplicable):
        DiffPoly.const(3).separant()
    with pytest.raises(NotApplicable):
        DiffPoly({}).separant()


def test_separant_rank_drop():
    rng = Random(22)
    for _ in range(60):
        p = random_diffpoly(rng)
        n = p.order()
        if n is None or n < 0:
            continue
        s = p.separant()
        assert not s.is_zero()
        m = s.order()
        assert m is None or m <= n
        if m == n:
            assert s.degree_in(p.leader()) < p.leader_degree()


def test_leader_initial_degree():
    assert EXAMPLE_P.leader() == var(0, 1)
    assert EXAMPLE_P.initial() == DiffPoly.const(1)
    assert EXAMPLE_P.leader_degree() == 2
    t = RatFunc(Poly.t())
    p2 = DiffPoly({((var(0, 2), 1),): t}) + X
    assert p2.leader() == var(0, 2)
    assert p2.initial() == DiffPoly.const(t)
    assert p2.leader_degree() == 1
    with pytest.raises(NotApplicable):
        DiffPoly.const(3).leader()


def test_ritt_reduce_membership_examples():
    r = ritt_reduce(X2 - 1, EXAMPLE_P)
    assert r.remainder.is_zero()
    assert (r.sep_power, r.init_power) == (1, 0)
    # 2x' * (x''-1) = 1 * dP:  frozen certificate
    assert r.certificate == [(1, DiffPoly.const(1))]
    assert certificate_checks(X2 - 1, EXAMPLE_P, r)

    r = ritt_reduce(X, EXAMPLE_P)
    assert r.remainder == X
    assert (r.sep_power, r.init_power) == (0, 0)
    assert r.certificate == []

    r = ritt_reduce(EXAMPLE_P, EXAMPLE_P)
    assert r.remainder.is_zero()

    assert in_general_ideal(X2 - 1, EXAMPLE_P)
    assert not in_general_ideal(X, EXAMPLE_P)
    assert not in_general_ideal(EXAMPLE_P.separant(), EXAMPLE_P)
    with pytest.raises(NotApplicable):
        ritt_reduce(X, DiffPoly.const(3))


def _random_reducer(rng: Random) -> DiffPoly:
    # order <= 2 and leader present, small leader degree
    n = rng.randint(0, 2)
    lead = DiffPoly.from_var(var(0, n))
    p = lead ** rng.randint(1, 3)
    low = random_diffpoly(rng, max_order=max(n - 1, 0), max_terms=3, max_exp=2)
    if n == 0:
        low = DiffPoly.const(RatFunc(random_poly(rng, 1, 5)))
    return p + low


def test_certificate_identity_random():
    rng = Random(23)
    done = 0
    for _ in range(60):
        p = _random_reducer(rng)
        if p.order() is None or p.order() < 0:
            continue
        q = random_diffpoly(rng, max_order=min(p.order() + 2, 4), max_terms=3)
        r = ritt_reduce(q, p)
        assert certificate_checks(q, p, r)
        rem = r.remainder
        m = rem.order()
        if m is not None and m >= 0:
            n = p.order()
            assert m < n or (m == n and rem.degree_in(p.leader()) < p.leader_degree())
        done += 1
    assert done >= 40


def test_ideal_is_differential():
    # dp_derive(P) lies in I(P) for irreducible samples
    rng = Random(24)
    for _ in range(20):
        n = rng.randint(1, 2)
        low = random_diffpoly(rng, max_order=n - 1, max_terms=2)
        p = DiffPoly.from_var(var(0, n)) + low             # monic linear leader
        assert in_general_ideal(p.derive(), p)
        assert not in_general_ideal(p.separant(), p)
        a = random_poly(rng, 1, 4, nonzero=True)
        q = DiffPoly.from_var(var(0, n)) ** 2 - RatFunc(a) * X - 1
        assert in_general_ideal(q.derive(), q)
        assert not in_general_ideal(q.separant(), q)


def test_substitute_linear():
    x1 = DiffPoly.from_var(var(0, 1), 2)
    x2 = DiffPoly.from_var(var(1, 1), 2)
    y1 = DiffPoly.from_var(var(0, 0), 2)
    y2 = DiffPoly.from_var(var(1, 0), 2)
    ident = [[1, 0], [0, 1]]
    p = y1 * x2 + random_scale_free()
    assert p.substitute_linear(ident) == p
    assert x1.substitute_linear([[2, 0], [0, 1]]) == 2 * x1
    assert (y1 * x2).substitute_linear([[0, 1], [1, 0]]) == y2 * x1
    with pytest.raises(ShapeError):
        x1.substitute_linear([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def random_scale_free():
    return DiffPoly.const(Fraction(3, 7), 2)


def test_evaluate():
    t = RatFunc(Poly.t())
    val = EXAMPLE_P.evaluate({var(0, 0): t * t, var(0, 1): RatFunc(Poly((0, 2)))})
    assert val == 2 * t * t
    rng = Random(25)
    for _ in range(20):
        p = random_diffpoly(rng)
        zeros = {v: RatFunc(0) for v in p.variables()}
        assert p.evaluate(zeros) == p.constant_coefficient()
    with pytest.raises(IncompleteAssignment):
        X2.evaluate({var(0, 0): RatFunc(1)})
    with pytest.raises(IncompleteAssignment, match="no value for x''$"):
        EXAMPLE_P.derive().evaluate({var(0, 0): RatFunc(1), var(0, 1): RatFunc(1)})


def test_str_forms():
    assert str(EXAMPLE_P) == "(x')^2 - 2*x"
    assert str(EXAMPLE_P.derive()) == "2*x'*x'' - 2*x'"
    assert str(EXAMPLE_P.separant()) == "2*x'"
    assert str(DiffPoly({})) == "0"
    t = RatFunc(Poly.t())
    assert str(DiffPoly({((var(0, 2), 1),): t}) + X) == "t*x'' + x"


def test_ritt_reduce_reads_multiplier_off_remainder(monkeypatch):
    # each step takes its multiplier from the remainder's top terms; no
    # power of the leader is built
    q = X3 * X + X1 * X1 * X1
    calls = []
    for name in ("__pow__",):
        method = getattr(DiffPoly, name)
        monkeypatch.setattr(DiffPoly, name, lambda self, *args, _m=method, _n=name:
                            calls.append(_n) or _m(self, *args))
    r = ritt_reduce(q, EXAMPLE_P)
    assert r.sep_power > 0 and r.init_power > 0
    assert calls == []


def test_ritt_step_normalises_each_output_once(monkeypatch):
    # the step runs on cleared int numerators: the only RatFunc built is
    # one normalisation per term of the remainder and of each cofactor
    p = parse_diffpoly("(1/(t + 1))*(x')^2 - t*x")
    q = parse_diffpoly("(2/(t + 2))*x^(4) + (t/(t - 1))*x*x' + x^2")
    calls = []
    init = RatFunc.__init__
    monkeypatch.setattr(RatFunc, "__init__",
                        lambda self, *args: calls.append(args) or init(self, *args))
    r = ritt_reduce(q, p)
    assert q.order() - p.order() == 3 and (r.sep_power, r.init_power) == (5, 5)
    outputs = [r.remainder] + [c for _k, c in r.certificate]
    assert len(calls) == sum(len(c.terms) for c in outputs) > 0
    assert all(c.den.degree() > 0 for out in outputs for c in out.terms.values())


def test_powered_denominator_runs_no_gcd_per_step(monkeypatch):
    # the step cancels by trial division over the coprime base: the only
    # gcds are the one that splits (t+1)^2 into its base element t+1 and
    # at most one per output term whose numerator and denominator both
    # have degree >= 1 (the gcd-based cancellation ran 73)
    p = parse_diffpoly("(1/(t+1)^2)*(x')^2 - t*x")
    q = parse_diffpoly("x^(4)")
    calls = []
    gcd = basefield._gcd_parts
    for module in (basefield, cleared):
        monkeypatch.setattr(module, "_gcd_parts",
                            lambda a, b: calls.append((a, b)) or gcd(a, b))
    r = ritt_reduce(q, p)
    assert (r.sep_power, r.init_power) == (5, 4)
    outputs = [r.remainder] + [c for _k, c in r.certificate]
    both = sum(1 for out in outputs for c in out.terms.values()
               if c.num.degree() > 0 and c.den.degree() > 0)
    assert 0 < len(calls) <= both + 1


# pairwise coprime irreducible factors: b1*t + b0 primitive with b1 > 0,
# and t^2 + a*t + b with a^2 < 4b
_linear_factors = st.tuples(st.integers(-5, 5), st.integers(1, 3)).filter(
    lambda f: math.gcd(*f) == 1).map(list)
_quadratic_factors = st.tuples(st.integers(-3, 3), st.integers(1, 9)).filter(
    lambda f: f[0] ** 2 < 4 * f[1]).map(lambda f: [f[1], f[0], 1])


@st.composite
def _cancel_cases(draw):
    """(elements, the factors of a reducible element or None, numerators,
    denominator): numerators over powers of the elements, and, with a
    reducible element f*g, numerators divisible by f alone."""
    factors = draw(st.lists(st.one_of(_linear_factors, _quadratic_factors),
                            min_size=1, max_size=4, unique_by=tuple))
    split = None
    elems = factors
    if draw(st.booleans()) and len(factors) >= 2 and \
            len(factors[0]) == len(factors[1]) == 2:
        # one element f*g, and every numerator divisible by f
        split = factors[:2]
        elems = [_conv(*split)] + factors[2:]
    num = {}
    for k in range(draw(st.integers(0, 3))):
        a = [draw(st.integers(-6, 6).filter(bool))]
        for f in factors if split is None else [split[0]] + factors:
            for _ in range(draw(st.integers(0, 2))):
                a = _conv(a, f)
        a = _conv(a, draw(st.lists(st.integers(-3, 3), min_size=1, max_size=2)
                          .filter(any)))
        while not a[-1]:
            a.pop()
        num[((var(0, k), 1),)] = a
    exps = tuple(draw(st.integers(0, 3)) for _ in elems)
    return elems, split, num, (draw(st.integers(1, 12)), exps)


@settings(max_examples=150, deadline=None)
@given(_cancel_cases())
@example(([[1, 1]], None, {((var(0, 0), 1),): [1, 2, 1]}, (4, (3,))))
@example(([[2, 3, 1]], [[1, 1], [2, 1]],
          {((var(0, 0), 1),): [3, 3], ((var(0, 1), 1),): [2, 4, 2]}, (6, (2,))))
def test_coprime_base_cancel_matches_gcd_cancel(case):
    # over irreducible elements, trial division by each element is
    # division by the gcd: the pair equals the earlier gcd-based
    # cancellation (kept in tests/oracles.py); over a reducible element
    # f*g it divides out only whole powers of f*g, so f may stay, and the
    # terms keep their values
    import oracles

    elems, split, num, den = case
    base = cleared._Base({i: RatFunc(1, Poly(b)) for i, b in enumerate(elems)})
    assert base.elems == elems
    got, (c, exps) = base.cancel(dict(num), den)
    got_den = base.expand(c, exps)
    want, want_den = oracles._cancel(dict(num), base.expand(*den))
    if split is None:
        assert (got, got_den) == (want, want_den)
        return
    assert got.keys() == want.keys()
    for mono, a in got.items():
        assert RatFunc(Poly(a), Poly(got_den)) == \
            RatFunc(Poly(want[mono]), Poly(want_den))
    assert _exact_quotient(got_den, want_den) is not None


def test_ritt_reduce_names_the_indeterminates_of_p():
    # a remainder that p's x2 entered prints x1 and x2 apart, as does a
    # cofactor once a second step multiplied it by p's separant or initial
    r = ritt_reduce(parse_diffpoly("x1'' + x1"), parse_diffpoly("x1' - x2*x1"))
    assert str(r.remainder) == "x1*x2' + x1*x2^2 + x1"
    assert [(k, str(c)) for k, c in r.certificate] == [(0, "x2"), (1, "1")]
    r = ritt_reduce(parse_diffpoly("x1'"), parse_diffpoly("x1 - x2"))
    assert str(r.remainder) == "x2'"
    assert r.certificate == [(1, DiffPoly.const(1))]
    assert r.certificate[0][1].num_indeterminates == 1


def _termwise_derivative(p: DiffPoly) -> DiffPoly:
    """The derivation term by term in RatFunc arithmetic, as a reference."""
    total = DiffPoly({}, p.num_indeterminates)
    for mono, c in p.terms.items():
        total = total + DiffPoly({mono: c.derive()}, p.num_indeterminates)
        for v, e in mono:
            lowered = dict(mono)
            lowered[v] -= 1
            lowered[v.derived()] = lowered.get(v.derived(), 0) + 1
            mono2 = tuple(sorted((w, f) for w, f in lowered.items() if f))
            total = total + DiffPoly({mono2: c * e}, p.num_indeterminates)
    return total


_tower_dens = st.lists(st.tuples(st.sampled_from([(1, 1), (-2, 1), (1, 0, 1), (0, 1)]),
                                 st.integers(1, 3)), max_size=2).map(
    lambda fs: _product(Poly(f) ** e for f, e in fs))
_tower_coeffs = st.one_of(
    st.just(RatFunc(0)),
    st.builds(lambda n, c, d: RatFunc(n * c, d),
              st.lists(st.integers(-4, 4), max_size=3).map(Poly),
              st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 6)),
              _tower_dens))
_tower_polys = st.dictionaries(
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 1)), st.integers(1, 2),
                    max_size=2).map(lambda d: tuple(sorted((var(i, j), e)
                                                           for (j, i), e in d.items()))),
    _tower_coeffs, max_size=4).map(lambda t: DiffPoly(t, 2))


_power_terms = st.dictionaries(
    st.dictionaries(st.tuples(st.integers(0, 1), st.integers(0, 2)), st.integers(1, 2),
                    max_size=2).map(lambda d: tuple(sorted((var(i, j), e)
                                                           for (j, i), e in d.items()))),
    _tower_coeffs, max_size=3)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), _power_terms, st.booleans(), st.integers(0, 5))
@example(1, {}, False, 3)
@example(1, {(): RatFunc(1)}, True, 4)
@example(2, {((var(0, 0), 1),): RatFunc(Poly((0, 1)), Poly((1, 1)))}, True, 3)
def test_power_is_repeated_product(m, terms, unit, e):
    # DiffPoly.__pow__ squares a sum on its cleared numerators; e products
    # in RatFunc arithmetic give the same polynomial, with t-denominators,
    # 1-3 indeterminates, the zero polynomial and a term of unit coefficient
    terms = {mono: c for mono, c in terms.items()
             if all(v.indeterminate < m for v, _e in mono)}
    p = DiffPoly(terms, m)
    if unit:
        p = p + DiffPoly.from_var(var(m - 1, 1))
    expected = DiffPoly({(): RatFunc(1)}, p.num_indeterminates)
    for _ in range(e):
        expected = expected * p
    got = p ** e
    assert got == expected
    assert got.num_indeterminates == p.num_indeterminates


def _product(polys) -> Poly:
    acc = Poly((1,))
    for f in polys:
        acc = acc * f
    return acc


@settings(max_examples=80, deadline=None)
@given(_tower_polys)
@example(DiffPoly({}))
@example(parse_diffpoly("(1/(t + 1)^2)*x' - (3/(2*(t + 1)))*x^2 + (1/2)*x*x''"))
def test_cleared_tower_is_repeated_derive(p):
    # p^(k) = P_k/E^(k+1) with P_(k+1) = D(P_k)*E - (k+1)*P_k*E', against
    # k derivations done term by term in the field and k calls of derive;
    # the tower holds the P_k alone (the powers E^(k+1) are checked with
    # the Wronsky rows' scale)
    deriv = _derivatives(p)
    num, den = _clear(p.terms)
    m, w = p.num_indeterminates, cleared._width(4)
    tower = _tower(cleared._packed(num, m, w), den, m, w)
    expected, derived = p, p
    for k in range(4):
        assert deriv(k) == expected == derived
        assert deriv(k).num_indeterminates == p.num_indeterminates
        power = RatFunc(Poly(den) ** (k + 1))
        assert {_unpack(key, m, w): RatFunc(Poly(c)) for key, c in tower(k).items()} \
            == {mono: c * power for mono, c in expected.terms.items()}
        expected, derived = _termwise_derivative(expected), derived.derive()


# sympy oracles: ritt_reduce and certificate_checks share one derivative
# tower, so these tests take the derivation, separant, initial and the
# certificate identity from sympy.  A value is a fraction num/den with num
# in QQ[t, x0..x7] (x^(j) as the generator x<j>) and den a product of
# powers of the factors t + 1, t, t - 2 and t^2 + 1 of the strategy's
# denominators, kept as their exponents, under the total derivation d/dt + sum_j x<j+1> d/dx<j>.  Every
# denominator in these identities is such a product, so a sum takes the
# larger exponents and no gcd runs: the heuristic gcd of sympy's field
# QQ(t) fails on some of these identities, and cross-multiplying without
# cancelling grows the certificate sum with every term.

_R, _T, *_X = ring(["t"] + ["x%d" % j for j in range(8)], QQ)
_FACTORS = (_T + 1, _T, _T - 2, _T**2 + 1)


class _Frac:
    def __init__(self, num, den=(0,) * len(_FACTORS)):
        self.num, self.den = num, den

    def _over(self, den):
        """num over the exponents den, each at least self's."""
        num = self.num
        for b, e, f in zip(_FACTORS, den, self.den):
            if e > f:
                num *= b ** (e - f)
        return num

    def __add__(self, other):
        den = tuple(map(max, self.den, other.den))
        return _Frac(self._over(den) + other._over(den), den)

    def __mul__(self, other):
        return _Frac(self.num * other.num,
                     tuple([e + f for e, f in zip(self.den, other.den)]))

    def __pow__(self, e):
        return _Frac(self.num ** e, tuple([f * e for f in self.den]))

    def __eq__(self, other):
        den = tuple(map(max, self.den, other.den))
        return self._over(den) == other._over(den)


def _sym_poly(p: Poly):
    return sum((QQ(c.numerator, c.denominator) * _T**k
                for k, c in enumerate(p.coeffs)), _R.zero)


def _sym_den(p: Poly) -> tuple:
    """The exponents of _FACTORS in p, found by exact division."""
    d, den = _sym_poly(p), []
    for b in _FACTORS:
        e = 0
        while True:
            q, r = d.div(b)
            if r:
                break
            d, e = q, e + 1
        den.append(e)
    assert d == _R.one
    return tuple(den)


def _sym(p: DiffPoly) -> _Frac:
    out = _Frac(_R.zero)
    for mono, c in p.terms.items():
        term = _sym_poly(c.num)
        for v, e in mono:
            term *= _X[v.order] ** e
        out += _Frac(term, _sym_den(c.den))
    return out


def _orders(f: _Frac) -> list:
    return [j for j, x in enumerate(_X) if f.num.degree(x) > 0]


def _sym_derive(f: _Frac) -> _Frac:
    assert f.num.degree(_X[-1]) <= 0
    num = f.num.diff(_T)
    for j in _orders(f):
        num += _X[j + 1] * f.num.diff(_X[j])
    # den'/den = sum e_i*b_i'/b_i: over den*B, B the product of the b_i
    # with e_i > 0, the numerator is num'*B - num*sum e_i*b_i'*B/b_i
    whole = _R.one
    for b, e in zip(_FACTORS, f.den):
        if e:
            whole *= b
    shift = sum((e * b.diff(_T) * whole.exquo(b)
                 for b, e in zip(_FACTORS, f.den) if e), _R.zero)
    return _Frac(num * whole - f.num * shift, tuple([e + 1 if e else 0 for e in f.den]))


def _sym_leader_data(f: _Frac):
    """Leader x<n>, leader degree, separant and initial of f, by sympy."""
    lead = _X[max(_orders(f))]
    deg = f.num.degree(lead)
    return lead, deg, _Frac(f.num.diff(lead), f.den), _Frac(f.num.coeff_wrt(lead, deg), f.den)


# order <= 2, exponents <= 2, <= 4 terms; coefficients of degree <= 1 over
# 1, t + 1, t, t - 2, (t + 1)^2, (t + 1)^3, t^2 + 1 or (t + 1)*(t - 2), so
# that a remainder's top terms can be in lower terms than the remainder and
# an lcm of denominators can take an exponent above 1
_denominators = st.sampled_from([
    Poly((1,)), Poly((1, 1)), Poly((0, 1)), Poly((-2, 1)), Poly((1, 2, 1)),
    Poly((1, 3, 3, 1)), Poly((1, 0, 1)), Poly((-2, -1, 1))])
_coeffs = st.builds(RatFunc,
                    st.lists(st.integers(-3, 3), min_size=1, max_size=2)
                    .map(Poly).filter(bool), _denominators)
_monomials = st.dictionaries(st.integers(0, 2), st.integers(1, 2), max_size=2).map(
    lambda d: tuple(sorted((var(0, j), e) for j, e in d.items())))
diffpolys = st.dictionaries(_monomials, _coeffs, min_size=1, max_size=4).map(DiffPoly)
reducers = diffpolys.filter(lambda p: p.order() >= 0)


@settings(max_examples=60, deadline=None)
@given(diffpolys)
def test_derive_against_sympy(p):
    assert _sym(p.derive()) == _sym_derive(_sym(p))


@settings(max_examples=60, deadline=None)
@given(reducers)
def test_leader_data_against_sympy(p):
    lead, deg, sep, init = _sym_leader_data(_sym(p))
    assert _X[p.leader().order] == lead
    assert p.leader_degree() == deg
    assert _sym(p.separant()) == sep
    assert _sym(p.initial()) == init


@settings(max_examples=60, deadline=None)
@given(diffpolys, reducers)
# sympy's heuristic gcd in QQ(t) failed on this pair's certificate identity
@example(parse_diffpoly("(1/(t + 1))*x^2*(x'')^2 + x"),
         parse_diffpoly("-((t + 3)/t)*x^2 + (1/(t + 1))"))
def test_ritt_reduce_against_sympy(q, p):
    r = ritt_reduce(q, p)
    f = _sym(p)
    lead, deg, sep, init = _sym_leader_data(f)
    derivs = [f]
    rhs = _sym(r.remainder)
    for k, cofactor in r.certificate:
        while len(derivs) <= k:
            derivs.append(_sym_derive(derivs[-1]))
        rhs += _sym(cofactor) * derivs[k]
    assert sep ** r.sep_power * init ** r.init_power * _sym(q) == rhs
    # reduced: order below that of p, or the same order and a lower degree
    rem = _sym(r.remainder)
    m, n = max(_orders(rem), default=-1), max(_orders(f))
    assert m < n or (m == n and rem.num.degree(lead) < deg)


# the member pair of order 3, leader degree 3 and order gap 4 in the
# benchmark's seed-1 ritt corpus
_GAP4_Q = ("(-6)*(x)^2 + (6)*x*x'*(x^(3))^2 + (2*t)*x*x' + (-4/(t+1))*x*x''*x^(3)"
           " + (4)*x*(x^(3))^3 + (-6*t-6)*x'*x^(3)*x^(7) + (-24*t-24)*x'*x^(4)*x^(6)"
           " + (-18*t-18)*x'*(x^(5))^2 + (-24*t-24)*x''*x^(3)*x^(6)"
           " + (48/(t^4+4*t^3+6*t^2+4*t+1))*x''*x^(3) + (-72*t-72)*x''*x^(4)*x^(5)"
           " + (-48/(t^3+3*t^2+3*t+1))*x''*x^(4) + (24/(t^2+2*t+1))*x''*x^(5)"
           " + (-8/(t+1))*x''*x^(6) + (2)*x''*x^(7) + (-39*t-39)*(x^(3))^2*x^(5)"
           " + (-6*t-6)*(x^(3))^2*x^(7) + (-48/(t^3+3*t^2+3*t+1))*(x^(3))^2"
           " + (-60*t-60)*x^(3)*(x^(4))^2 + (-48*t-48)*x^(3)*x^(4)*x^(6)"
           " + (72/(t^2+2*t+1))*x^(3)*x^(4) + (-36*t-36)*x^(3)*(x^(5))^2"
           " + (-32/(t+1))*x^(3)*x^(5) + (10)*x^(3)*x^(6) + (-72*t-72)*(x^(4))^2*x^(5)"
           " + (-24/(t+1))*(x^(4))^2 + (20)*x^(4)*x^(5) + (-t-1)*x^(4) + (-t^2-t)*x^(5)")
_GAP4_P = "(-3)*x + (3)*x'*(x^(3))^2 + (t)*x' + (-2/(t+1))*x''*x^(3) + (2)*(x^(3))^3"


def test_ritt_step_forms_no_cancelling_products(monkeypatch):
    # the step multiplies the separant or initial into the remainder below
    # its top power and the multiplier into p^(k) below its top part, so
    # the top products, which cancel, are never formed: the int-list
    # products of the whole reduction, certificate included, sum
    # len(a)*len(b) to about 1400 (forming the top products as well sums
    # to 4782)
    q, p = parse_diffpoly(_GAP4_Q), parse_diffpoly(_GAP4_P)
    work = []
    conv = basefield._conv
    monkeypatch.setattr(diffpoly, "_conv",
                        lambda a, b: work.append(len(a) * len(b)) or conv(a, b))
    mul = cleared._mul_cleared

    def counting(out, a, b):
        work.extend(len(x) * len(y) for x in a.values() for y in b.values())
        return mul(out, a, b)
    monkeypatch.setattr(diffpoly, "_mul_cleared", counting)
    r = ritt_reduce(q, p)
    assert sum(work) <= 2000
    # exactly the products counted before the numerators were packed: a
    # product that stops passing through these two names fails here
    assert sum(work) == 1375
    monkeypatch.undo()
    assert r.remainder.is_zero()
    assert certificate_checks(q, p, r)


def test_ritt_reduce_builds_no_tuple_monomials(monkeypatch):
    # the step runs on packed keys: no tuple monomial is merged or edited
    # and no DerivVar is built, except in unpacking the outputs, one per
    # variable of each of their terms
    q, p = parse_diffpoly(_GAP4_Q), parse_diffpoly(_GAP4_P)
    built = []
    new = DerivVar.__new__
    monkeypatch.setattr(DerivVar, "__new__",
                        lambda cls, *args: built.append(args) or new(cls, *args))

    def refused(*args):
        raise AssertionError("a tuple monomial was edited")
    for name in ("_mono_exp", "_mono_set", "_mono_mul"):
        monkeypatch.setattr(diffpoly, name, refused)
    unpacked = []
    unpack = diffpoly._unpack
    monkeypatch.setattr(diffpoly, "_unpack",
                        lambda key, m, w: unpacked.append(key) or unpack(key, m, w))
    r = ritt_reduce(q, p)
    monkeypatch.undo()
    out = [mono for _k, c in r.certificate for mono in c.terms]
    assert r.remainder.is_zero() and len(out) == len(unpacked) == 6
    assert len(built) == sum(len(mono) for mono in out) == 11


def test_ritt_reduce_widens_the_slots(monkeypatch):
    # the first width, 4 bits, holds exponents below 8 (twice the largest
    # total degree, 2, and a guard bit); the exponents of x reach 13, and
    # carried across slots of 4 bits they would break the identity, so the
    # remainder and the cofactors are re-packed with slots of 8 bits
    q, p = parse_diffpoly("x^(8)"), parse_diffpoly("x*x' + t")
    widths = []
    widened = diffpoly._widened
    monkeypatch.setattr(diffpoly, "_widened", lambda terms, w, wide:
                        widths.append((w, wide)) or widened(terms, w, wide))
    r = ritt_reduce(q, p)
    assert set(widths) == {(4, 8)}
    assert max(e for mono in r.remainder.terms for _v, e in mono) == 13
    assert certificate_checks(q, p, r)
    assert in_general_ideal(q, p) == r.remainder.is_zero()


# a monomial of up to 9 indeterminates and orders up to 100, exponents
# small or up to 2^70
_packing_monos = st.integers(1, 9).flatmap(lambda m: st.tuples(
    st.just(m),
    st.lists(st.dictionaries(
        st.tuples(st.integers(0, 100), st.integers(0, m - 1)),
        st.one_of(st.integers(0, 3), st.integers(0, 2**70)), max_size=4).map(
            lambda d: tuple(sorted((DerivVar(j, i), e) for (j, i), e in d.items() if e))),
        min_size=2, max_size=6)))


@settings(max_examples=80, deadline=None)
@given(_packing_monos, st.integers(0, 2**70))
@example((1, [(), ()]), 0)
@example((2, [((var(1, 3), 2**70),), ((var(0, 0), 1), (var(1, 0), 3))]), 2**70)
def test_packed_monomials_match_tuple_monomials(case, e):
    # one key per monomial, slot j*m + i of w bits holding the exponent of
    # x_i^(j): packing inverts unpacking, a product is a sum of keys, an
    # exponent is read and set by shifts and masks, and the keys sort as
    # DiffPoly.__str__ orders its terms
    m, monos = case
    top = max([f for mono in monos for _v, f in mono] + [e])
    w = cleared._width(2 * top)
    mask = (1 << w) - 1
    keys = [cleared._pack(mono, m, w) for mono in monos]
    assert [_unpack(key, m, w) for key in keys] == monos
    a, b = monos[:2]
    assert keys[0] + keys[1] == cleared._pack(diffpoly._mono_mul(a, b), m, w)
    for v, _f in a + b:
        shift = w * (v.order * m + v.indeterminate)
        assert cleared._mono_exp(keys[0], shift, mask) == diffpoly._mono_exp(a, v)
        assert cleared._mono_set(keys[0], shift, mask, e) \
            == cleared._pack(diffpoly._mono_set(a, v, e), m, w)
    distinct = list(dict.fromkeys(monos))
    assert sorted(distinct, key=lambda mono: mono[::-1], reverse=True) \
        == sorted(distinct, key=lambda mono: cleared._pack(mono, m, w), reverse=True)


@settings(max_examples=60, deadline=None)
@given(diffpolys, reducers)
@example(X2 - 1, EXAMPLE_P)
@example(X, EXAMPLE_P)
def test_member_agrees_with_reduce_remainder(q, p):
    # member keeps no certificate; its answer is reduce's zero test.  q is
    # rarely a member, q*p + q'*p' nearly always
    for r in (q, q * p + q.derive() * p.derive()):
        assert in_general_ideal(r, p) == ritt_reduce(r, p).remainder.is_zero()
