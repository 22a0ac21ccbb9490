"""Mack's linear Hermite reduction on the integer kernel.

f = g' + h with h proper and its denominator squarefree (Bronstein,
*Symbolic Integration I*, 2nd ed., sec. 2.2, HermiteReduce).  The
polynomial part of f integrates termwise into g.  For the proper part
A/D, with D- = gcd(D, D') and D* = D/D-, each pass removes one level of
multiplicity from D- by one extended Euclidean solve, with no squarefree
factorization and no partial fractions, and what survives in h = A/D*
has only simple poles.

The arithmetic runs on basefield's Z[t] int lists.  D is taken as its
primitive ints, _split gives each D- with both quotients from one gcd,
each solve inverts modulo D-* by _prs_gcd, and every other division is
_exact_quotient.  The reduction is Q-linear in A, so A is kept as ints
under one rational content that each pass only rescales.  The terms
B/D- of g are put over the first D-, and g is formed once.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .basefield import (_ONE_F, _ONE_POLY, _ZERO_POLY, RatFunc, _add_ints,
                        _conv, _derivative_ints, _exact_quotient, _gcd_parts,
                        _poly, _primitive, _prs_gcd, _pseudo_divmod,
                        _ratfunc)


def _split(d) -> tuple:
    """(k, g, d/g, d'/(k*g)) for primitive ints d of degree >= 1 with a
    positive lead: g = gcd(d, d') primitive and k the content of d'."""
    dd = _derivative_ints(d)
    k = math.gcd(*dd)
    dd = [x // k for x in dd]
    if len(d) == 2:
        return k, (1,), d, dd
    return (k, *_gcd_parts(d, dd))


def hermite_reduce(f: RatFunc) -> tuple[RatFunc, RatFunc]:
    """f = g' + h, g and h in Q(t), h proper with a squarefree
    denominator."""
    quo, rem = f.num.divmod(f.den)
    num = _ZERO_POLY
    if quo.prim:
        # the polynomial part integrates termwise, over l = lcm(1..deg+1)
        l = math.lcm(*range(1, len(quo.prim) + 1))
        num = _primitive(quo.content / l, [0] + [x * (l // k) for k, x in
                                                 enumerate(quo.prim, 1)])
    if not rem.prim:
        return _ratfunc(num, _ONE_POLY), _ratfunc(_ZERO_POLY, _ONE_POLY)
    # rem/(d/L) = L*rem/d: A = (cn/cd)*a over the primitive ints d
    d = f.den.prim
    cn, cd = rem.content.numerator * d[-1], rem.content.denominator
    a = list(rem.prim)
    _, dm, ds, _ = _split(d)
    top, scale, g = dm, (1,), _ZERO_POLY
    while len(dm) > 1 and a:
        k, dm2, dms, w = _split(dm)
        # D* D-'/D- = k*v with v prime to D-*.  Solve B*(-k*v) + C*D-* = A,
        # deg B < deg D-*: with c = cn/cd and s*v = q mod D-* for a constant
        # q, A*s/q = (c/(q*m))*r mod D-*, B = -(c/(q*k*m))*r and
        # C = (c/(q*m))*x/D-* for x = q*m*a - r*v
        v = _exact_quotient(_conv(ds, w), dms)
        (q,), s = _prs_gcd(v, dms)
        m, _, r = _pseudo_divmod(_conv(a, s), dms)
        x = [q * m * y for y in a]
        if r:
            x = _add_ints(x, [-y for y in _conv(r, v)])
        # the next A is C - B'*D*/D-* = (c/(q*k*m))*(k*x/D-* + r'*D*/D-*)
        a = [k * y for y in _exact_quotient(x, dms)]
        if len(r) > 1:
            a = _add_ints(a, _conv(_derivative_ints(r),
                                   _exact_quotient(ds, dms)))
        cd *= q * k * m
        if r:
            # B/D- over the first D-: scale is top/D-
            g = g + _primitive(Fraction(-cn, cd), _conv(r, scale))
        h = math.gcd(*a)
        if h > 1:
            a = [y // h for y in a]
            cn *= h
        h = math.gcd(cn, cd)
        cn, cd = cn // h, cd // h
        scale = _conv(scale, dms)
        dm = dm2
    if g.prim:
        den = _poly(_ONE_F, tuple(top))
        g = RatFunc(g + num * den, den)
    else:
        g = _ratfunc(num, _ONE_POLY)
    if not a:
        return g, _ratfunc(_ZERO_POLY, _ONE_POLY)
    return g, RatFunc(_primitive(Fraction(cn, cd), a), _poly(_ONE_F, tuple(ds)))
