"""The printers against a Fraction-based reference.

The printers format from a polynomial's content and primitive ints.  The
reference below formats every coefficient as a Fraction, as the printers
did before: Poly from its Fraction coefficients, a quotient over the lcm
of its numerator's coefficient denominators, and a term's sign and unit
test by RatFunc arithmetic.  Both must give the same bytes.
"""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from diffalg.basefield import Poly, RatFunc, _derivative_name, _signed_sum
from diffalg.diffpoly import DiffPoly, var
from diffalg.odeseries import TruncatedSeries
from diffalg.wronskian import LinearODE


def _ref_power_term(c: Fraction, k: int, sym: str) -> tuple:
    num, den = c.numerator, c.denominator
    mag = str(abs(num)) if den == 1 else "%d/%d" % (abs(num), den)
    if k == 0:
        return num < 0, mag
    pw = sym if k == 1 else "%s^%d" % (sym, k)
    return num < 0, pw if mag == "1" else "%s*%s" % (mag, pw)


def _ref_grouped(s: str) -> str:
    return "(%s)" % s if " + " in s or " - " in s else s


def _ref_poly(p: Poly) -> str:
    coeffs = p.coeffs
    terms = [_ref_power_term(coeffs[k], k, "t")
             for k in range(p.degree(), -1, -1) if coeffs[k]]
    return _signed_sum(terms) or "0"


def _ref_ratfunc(f: RatFunc) -> str:
    if len(f.den.prim) == 1:
        return _ref_poly(f.num)
    scale = f.num.content.denominator
    num = f.num * scale
    den = f.den * scale
    num_s = _ref_grouped(_ref_poly(num))
    den_s = _ref_poly(den)
    monomial = sum(1 for c in den.coeffs if c) == 1 and den.lead() == 1
    if not monomial:
        den_s = "(%s)" % den_s
    return "%s/%s" % (num_s, den_s)


def _mono_str_key(m) -> tuple:
    """The expanded sort key: the variables from the highest down, each
    repeated by its exponent, then the degree."""
    vars_desc = []
    for v, e in reversed(m):
        vars_desc.extend([(v.order, v.indeterminate)] * e)
    return (vars_desc, sum(e for _v, e in m))


def _ref_diffpoly(p: DiffPoly) -> str:
    items = sorted(p.terms.items(), key=lambda kv: _mono_str_key(kv[0]),
                   reverse=True)
    terms = []
    for mono, c in items:
        negative = c.num.lead() < 0
        mag = -c if negative else c
        factors = [] if mono and mag == RatFunc(1) else [_ref_grouped(_ref_ratfunc(mag))]
        for v, e in mono:
            factors.append(p._var_str(v, e))
        terms.append((negative, "*".join(factors)))
    return _signed_sum(terms) or "0"


def _ref_y_term(mag: RatFunc, order: int) -> str:
    name = _derivative_name("y", order)
    return name if mag == RatFunc(1) else "%s*%s" % (_ref_grouped(_ref_ratfunc(mag)), name)


def _ref_ode(ode: LinearODE) -> str:
    terms = [(False, _ref_y_term(RatFunc(1), ode.order))]
    for i, a in enumerate(ode.coeffs, start=1):
        if a.is_zero():
            continue
        negative = a.num.lead() < 0
        terms.append((negative, _ref_y_term(-a if negative else a, ode.order - i)))
    return _signed_sum(terms) + " = 0"


def _ref_series(s: TruncatedSeries) -> str:
    if s.base_point == 0:
        sym = "t"
    elif s.base_point > 0:
        sym = "(t - %s)" % s.base_point
    else:
        sym = "(t + %s)" % (-s.base_point)
    terms = [_ref_power_term(c, k, sym) for k, c in enumerate(s.coeffs) if c]
    tail = "O(%s^%d)" % (sym, s.precision + 1)
    body = _signed_sum(terms)
    return body + " + " + tail if body else tail


# coefficients: +-1 and 0 often, small rationals with denominators up to 6
_fractions = st.one_of(
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(0)]),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)))
_polys = st.lists(_fractions, max_size=4).map(Poly)
_contents = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 6))
# denominators: 1, a bare power of t (times a content), or any polynomial
_dens = st.one_of(
    st.just(Poly((1,))),
    st.builds(lambda k, c: Poly((0,) * k + (c,)), st.integers(1, 3), _contents),
    _polys.filter(bool))
_ratfuncs = st.builds(RatFunc, _polys, _dens)
_units = st.sampled_from([RatFunc(1), RatFunc(-1)])
_coeffs = st.one_of(_units, _ratfuncs.filter(bool))
_monomials = st.dictionaries(
    st.builds(var, st.integers(0, 1), st.integers(0, 3)), st.integers(1, 3),
    max_size=2).map(lambda d: tuple(sorted(d.items())))
_diffpolys = st.dictionaries(_monomials, _coeffs, max_size=4).map(DiffPoly)
_odes = st.integers(1, 3).flatmap(lambda n: st.builds(
    LinearODE, st.just(n), st.lists(st.one_of(_units, _ratfuncs), min_size=n, max_size=n)))
_series = st.builds(TruncatedSeries, _fractions, st.lists(_fractions, min_size=1, max_size=5))


@settings(max_examples=200, deadline=None)
@given(_polys)
@example(Poly((0, 0, Fraction(-3, 2))))
@example(Poly((-1, 1)))
def test_poly_prints_as_reference(p):
    assert str(p) == _ref_poly(p)


@settings(max_examples=300, deadline=None)
@given(_ratfuncs)
# a numerator content over a bare power of t, and over t + 1
@example(RatFunc(Poly((0, Fraction(3, 2))), Poly((0, 0, 1))))
@example(RatFunc(Poly((Fraction(-3, 4),)), Poly((1, 1))))
@example(RatFunc(Poly((-1,)), Poly((0, 0, 2))))
def test_ratfunc_prints_as_reference(f):
    assert str(f) == _ref_ratfunc(f)


@settings(max_examples=200, deadline=None)
@given(_diffpolys)
def test_diffpoly_prints_as_reference(p):
    assert str(p) == _ref_diffpoly(p)


@settings(max_examples=100, deadline=None)
@given(_odes)
def test_linear_ode_prints_as_reference(ode):
    assert str(ode) == _ref_ode(ode)


@settings(max_examples=100, deadline=None)
@given(_series)
def test_series_prints_as_reference(s):
    assert str(s) == _ref_series(s)


_wide_monomials = st.dictionaries(
    st.builds(var, st.integers(0, 2), st.integers(0, 4)), st.integers(1, 5),
    max_size=4).map(lambda d: tuple(sorted(d.items())))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_wide_monomials, _units, min_size=2, max_size=6))
# a common prefix of pairs, then a longer run of one variable or an end
@example({((var(0, 0), 1), (var(0, 2), 2)): RatFunc(1),
          ((var(0, 1), 3), (var(0, 2), 2)): RatFunc(1)})
@example({((var(0, 2), 3),): RatFunc(1),
          ((var(0, 0), 1), (var(0, 2), 2)): RatFunc(-1), (): RatFunc(1)})
def test_terms_print_in_expanded_key_order(terms):
    # the printer sorts by the (variable, exponent) pairs, unexpanded
    p = DiffPoly(terms, 3)
    assert str(p) == _ref_diffpoly(p)
