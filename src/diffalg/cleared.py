"""Differential polynomials cleared of denominators, and their monomials.

A monomial is a tuple of (DerivVar, exponent) pairs sorted by variable
rank, edited only through _mono_exp and _mono_set.  The cleared form of a
polynomial p over Q(t) is a pair (P, E): a dict {monomial: int list} of
numerators in Z[t] and one denominator E in Z[t], ascending int lists,
E with a positive lead, such that p = P/E.  With p = P_0/E, the
derivatives are p^(k) = P_k/E^(k+1) where P_(k+1) = D(P_k)*E -
(k+1)*P_k*E', D the total derivation on numerators, so no gcd runs in
the tower; the Wronsky rows are its x-free case, one element u = P_0/E
as the single term of monomial ().  Ritt reduction runs its
step on this form, cancels once per step (_cancel), and turns only its
outputs back into RatFunc terms, one normalisation each (Boulier,
Lazard, Ollivier, Petitot, ISSAC 1995, and Hubert, LNCS 2630, reduce
without fractions in the coefficients).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .basefield import (_ONE_F, _ONE_POLY, RatFunc, _conv, _exact_quotient,
                        _gcd_parts, _primitive, _ratfunc)

Monomial = tuple


def _mono_from_dict(d: dict) -> Monomial:
    return tuple(sorted((v, e) for v, e in d.items() if e))


def _mono_exp(m: Monomial, v) -> int:
    """Exponent of v in m."""
    for w, e in m:
        if w == v:
            return e
    return 0


def _mono_set(m: Monomial, v, e: int) -> Monomial:
    """m with the exponent of v set to e (v dropped when e is 0)."""
    rest = [(w, f) for w, f in m if w != v]
    return tuple(sorted(rest + [(v, e)])) if e else tuple(rest)


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return _mono_from_dict(d)


def _order(terms: dict, indeterminate: int) -> int | None:
    if not terms:
        return None
    best = -1
    for mono in terms:
        for v, _e in mono:
            if v.indeterminate == indeterminate and v.order > best:
                best = v.order
    return best


def _degree_in(terms: dict, v) -> int:
    return max((_mono_exp(mono, v) for mono in terms), default=0)


def _top(terms: dict, v, e: int, d: int) -> dict:
    """The terms of degree e in v, with the exponent of v lowered by d."""
    return {_mono_set(mono, v, e - d): c for mono, c in terms.items()
            if _mono_exp(mono, v) == e}


def _add_ints(a: list, b: list) -> list:
    """a + b for ascending int lists, without trailing zeros."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    while out and not out[-1]:
        out.pop()
    return out


def _derivative_ints(a: list) -> list:
    return [k * x for k, x in enumerate(a) if k]


def _content(a: list) -> int:
    g = 0
    for x in a:
        g = math.gcd(g, x)
        if g == 1:
            break
    return g


def _primitive_ints(a: list) -> list:
    c = _content(a)
    return a if c == 1 else [x // c for x in a]


def _lcm_ints(a: list, b: list) -> tuple[list, list, list]:
    """(l, l/a, l/b) for int lists with positive leads, l their lcm in Z[t]."""
    if a == b:
        return a, [1], [1]
    ca, cb = _content(a), _content(b)
    pa, pb = [x // ca for x in a], [x // cb for x in b]
    if len(a) > 1 and len(b) > 1:
        _g, pa, pb = _gcd_parts(pa, pb)
    g = math.gcd(ca, cb)
    ma = [cb // g * x for x in pb]
    return _conv(a, ma), ma, [ca // g * x for x in pa]


def _acc_ints(d: dict, mono: Monomial, c: list) -> None:
    acc = d.get(mono)
    if acc is None:
        d[mono] = c
    else:
        acc = _add_ints(acc, c)
        if acc:
            d[mono] = acc
        else:
            del d[mono]


def _mul_cleared(out: dict, a: dict, b: dict) -> dict:
    """out plus the product of the numerator dicts a and b."""
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            _acc_ints(out, _mono_mul(m1, m2), _conv(c1, c2))
    return out


def _clear(terms: dict) -> tuple[dict, list]:
    """(P, E) with p = P/E for p = {key: RatFunc}: E the lcm in Z[t] of the
    coefficient denominators.

    A coefficient (a/b)*n/d, n and d primitive, has the denominator b*d;
    the lcm is the int lcm L of the b times the lcm D of the d, each
    distinct d joining D once.
    """
    parts = []
    quotients = {}        # d -> D/d, once D is known
    ints, polys = 1, [1]
    for mono, c in terms.items():
        content, den = c.num.content, c.den.prim
        lead = den[-1]
        g = math.gcd(content.denominator, lead)
        a, b = content.numerator * (lead // g), content.denominator // g
        if b != 1:
            ints = ints * b // math.gcd(ints, b)
        if len(den) > 1 and den not in quotients:
            quotients[den] = None
            polys = _lcm_ints(polys, den)[0]
        parts.append((mono, a, b, c.num.prim, den))
    num = {}
    for mono, a, b, n, den in parts:
        q = quotients.get(den)
        if q is None:
            q = quotients[den] = _exact_quotient(polys, den)
        if len(q) > 1 and n:
            n = _conv(n, q)
        a *= ints // b
        num[mono] = [a * x for x in n]
    return num, [ints * x for x in polys]


def _ratfunc_terms(num: dict, den: list) -> dict:
    """num/den as {monomial: RatFunc}: one normalised RatFunc per term."""
    if len(den) == 1:
        scale = Fraction(1, den[0])
        return {mono: _ratfunc(_primitive(scale, c), _ONE_POLY)
                for mono, c in num.items()}
    d = _primitive(_ONE_F, den)
    return {mono: RatFunc(_primitive(_ONE_F, c), d) for mono, c in num.items()}


def _cancel(num: dict, den: list) -> tuple[dict, list]:
    """num/den with the gcd in Z[t] of den and every numerator divided out:
    the primitive gcd first, then the integer content."""
    if not num:
        return num, [1]
    g = _primitive_ints(den)
    for a in num.values():
        if len(g) == 1:
            break
        g = [1] if len(a) == 1 else _gcd_parts(g, _primitive_ints(a))[0]
    if len(g) > 1:
        den = _exact_quotient(den, g)
        num = {mono: _exact_quotient(a, g) for mono, a in num.items()}
    c = _content(den)
    for a in num.values():
        if c == 1:
            break
        c = math.gcd(c, _content(a))
    if c > 1:
        den = [x // c for x in den]
        num = {mono: [x // c for x in a] for mono, a in num.items()}
    return num, den


def _next_derivative(num: dict, den: list, den1: list, k: int) -> dict:
    """P_(k+1) = D(P_k)*E - (k+1)*P_k*E' for num = P_k, den = E, den1 = E'."""
    out = {}
    for mono, c in num.items():
        ce = _conv(c, den) if mono else None
        part = _derivative_ints(c)
        part = _conv(part, den) if part else []
        if den1:
            part = _add_ints(part, [-(k + 1) * x for x in _conv(c, den1)])
        if part:
            _acc_ints(out, mono, part)
        for v, e in mono:
            lowered, w = _mono_set(mono, v, e - 1), v.derived()
            _acc_ints(out, _mono_set(lowered, w, _mono_exp(lowered, w) + 1),
                      ce if e == 1 else [e * x for x in ce])
    return out


def _tower(num: dict, den: list):
    """k -> (P_k, E^(k+1)), p^(k) = P_k/E^(k+1) for p = num/den = P_0/E,
    each pair built once."""
    den1 = _derivative_ints(den)
    tower = [(num, den)]

    def deriv(k: int) -> tuple[dict, list]:
        while len(tower) <= k:
            pk, power = tower[-1]
            tower.append((_next_derivative(pk, den, den1, len(tower) - 1),
                          _conv(power, den)))
        return tower[k]
    return deriv


def _add_cleared(a, num: dict, den: list) -> tuple[dict, list]:
    """a + num/den for a cleared pair a (or None), over the lcm of the
    denominators."""
    if a is None:
        return num, den
    a_num, a_den = a
    l, ma, mb = _lcm_ints(a_den, den)
    out = {mono: _conv(c, ma) for mono, c in a_num.items()}
    for mono, c in num.items():
        _acc_ints(out, mono, _conv(c, mb))
    return out, l
