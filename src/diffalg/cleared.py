"""Differential polynomials cleared of denominators, with packed monomials.

The cleared form of a polynomial p over Q(t) is a pair (P, E): a dict
{key: int list} of numerators in Z[t] and one denominator E in Z[t],
ascending int lists, E with a positive lead, such that p = P/E.  _clear
makes it from RatFunc terms under any keys (the series and the linear
algebra clear dicts keyed by position).  With p = P_0/E, the derivatives
are p^(k) = P_k/E^(k+1) where P_(k+1) = D(P_k)*E - (k+1)*P_k*E', D the
total derivation on numerators, so no gcd runs in the tower, which holds
the P_k alone.  The form crosses into the linear algebra and the series
as int lists, with no Poly around them: the Wronsky rows are the tower's
x-free case, one element u = P_0/E as the single term of key 0, and the
Taylor recurrence reads an ODE cleared.  Ritt reduction runs its step on
this form and turns only its outputs back into RatFunc terms, one
normalisation each (Boulier, Lazard, Ollivier, Petitot, ISSAC 1995, and
Hubert, LNCS 2630, reduce without fractions in the coefficients).

The tower, the step and the products key a numerator by its packed
monomial, one int (Monagan and Pearce, "Polynomial division using
dynamic arrays, heaps, and packed exponent vectors", CASC 2007).  Among
m indeterminates, the exponent of x_i^(j) sits in slot j*m + i, bits
w*(j*m + i) up to w*(j*m + i + 1) of the key.  A product of monomials
is the sum of their keys, an exponent is read and set by a shift and a
mask (_mono_exp, _mono_set), and the derivation of x_i^(j) moves one
unit of a key up m slots.  Keys compare as DiffPoly.__str__ orders the
monomials, the highest variable first.  The width w follows the largest
exponent that a computation can form (_width): its bits and a guard bit,
the slot's top bit.  While no guard bit is set, adding two keys carries
nothing out of a slot, and keys whose guard bits are set can be
re-packed with wider slots (_widened).  The caller packs its cleared
tuple monomials once (_pack, _packed) and the outputs are unpacked once,
in ratfunc_terms; DiffPoly.terms keeps tuple monomials.

Ritt reduction's denominators are carried over a coprime base (_Base): pairwise
coprime squarefree b_1..b_r in Z[t], refined from the coefficient
denominators of its inputs, and a denominator is an integer times the
product of the b_i^(e_i).  A product of denominators adds exponents and
an lcm takes their maximum, and the step cancels by trial division by
each b_i while it divides every numerator, then by the integer content:
no gcd runs per step.  Nothing is factored, so a b_i may be reducible and
a factor of it may stay until the output's normalisation removes it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .basefield import (_ONE_F, RatFunc, _add_ints, _conv, _derivative_ints,
                        _exact_quotient, _gcd_parts, _primitive, _ratfunc)


def _width(top: int) -> int:
    """The slot width for packed exponents up to top: top's bits and a
    guard bit, the slot's top bit.  Exponents up to top leave it clear,
    and adding two keys whose guard bits are clear carries nothing out
    of a slot."""
    return top.bit_length() + 1


def _pack(mono: tuple, m: int, w: int) -> int:
    """The key of a tuple monomial of (DerivVar, exponent) pairs: the
    exponent of x_i^(j) in slot j*m + i of w bits."""
    key = 0
    for v, e in mono:
        key += e << w * (v.order * m + v.indeterminate)
    return key


def _packed(terms: dict, m: int, w: int) -> dict:
    """terms with each tuple monomial replaced by its key."""
    return {_pack(mono, m, w): c for mono, c in terms.items()}


def _slots(key: int, w: int) -> list:
    """The (slot, exponent) pairs of the nonzero slots of key, lowest
    first, found from the lowest set bit so that empty slots cost
    nothing."""
    mask = (1 << w) - 1
    out = []
    while key:
        s = ((key & -key).bit_length() - 1) // w
        e = key >> w * s & mask
        key -= e << w * s
        out.append((s, e))
    return out


def _widened(terms: dict, w: int, wide: int) -> dict:
    """terms with each key's slots moved from w bits to wide bits."""
    out = {}
    for key, c in terms.items():
        moved = 0
        for s, e in _slots(key, w):
            moved += e << wide * s
        out[moved] = c
    return out


def _mono_exp(key: int, shift: int, mask: int) -> int:
    """Exponent of the slot at bit shift of key, mask the slot's bits."""
    return key >> shift & mask


def _mono_set(key: int, shift: int, mask: int, e: int) -> int:
    """key with the exponent of the slot at bit shift set to e."""
    return key + ((e - (key >> shift & mask)) << shift)


def _union(terms: dict) -> int:
    """The or of the keys: a slot of it is nonzero exactly when some key's
    is, and its guard bit is set exactly when some key's is."""
    u = 0
    for key in terms:
        u |= key
    return u


def _guarded(union: int, w: int) -> bool:
    """Whether a guard bit, the top bit of a slot of w bits, is set in
    union."""
    slots = -(-union.bit_length() // w)
    return bool(union & ((1 << w * slots) - 1) // ((1 << w) - 1) << (w - 1))


def _order(union: int, index: int, m: int, w: int) -> int:
    """The highest derivative order of x_index in keys whose or is union,
    -1 when none holds it."""
    mask = (1 << w) - 1
    j = (union.bit_length() - 1) // (w * m) if union else -1
    while j >= 0 and not union >> w * (j * m + index) & mask:
        j -= 1
    return j


def _degree_in(terms: dict, shift: int, mask: int) -> int:
    return max([key >> shift & mask for key in terms], default=0)


def _partial(terms: dict, shift: int, mask: int) -> dict:
    """The partial derivative of terms by the variable of the slot at bit
    shift."""
    out = {}
    for key, c in terms.items():
        e = _mono_exp(key, shift, mask)
        if e:
            out[_mono_set(key, shift, mask, e - 1)] = [e * x for x in c]
    return out


def _split(terms: dict, shift: int, mask: int, e: int, d: int) -> tuple[dict, dict]:
    """(top, rest) for terms of degree e in the slot at bit shift: top the
    terms of degree e with that exponent lowered by d, rest the terms of
    lower degree."""
    top, rest = {}, {}
    lowered = d << shift
    for key, c in terms.items():
        if key >> shift & mask == e:
            top[key - lowered] = c
        else:
            rest[key] = c
    return top, rest


def _lcm_prim(a: list, b: list) -> list:
    """The lcm in Z[t] of primitive int lists with positive leads.  When
    one divides the other, as powers of one factor do, one division finds
    it and no gcd runs."""
    if a == b or len(b) == 1:
        return a
    if len(a) == 1:
        return b
    if len(a) > 2 and len(b) > 2:
        if _exact_quotient(a, b) is not None:
            return a
        if _exact_quotient(b, a) is not None:
            return b
    return _conv(a, _gcd_parts(a, b)[2])


def _acc_ints(d: dict, key, c: list) -> None:
    acc = d.get(key)
    if acc is None:
        d[key] = c
    else:
        acc = _add_ints(acc, c)
        if acc:
            d[key] = acc
        else:
            del d[key]


def _mul_cleared(out: dict, a: dict, b: dict) -> dict:
    """out plus the product of the packed numerator dicts a and b: a
    product of monomials is the sum of their keys."""
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            _acc_ints(out, m1 + m2, _conv(c1, c2))
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
            polys = _lcm_prim(polys, den)
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


def _next_derivative(num: dict, den: list, den1: list, k: int, m: int,
                     w: int) -> dict:
    """P_(k+1) = D(P_k)*E - (k+1)*P_k*E' for num = P_k packed, den = E,
    den1 = E'.  D(x_i^(j)) = x_i^(j+1) moves one unit of a key up m
    slots: it adds the slot's unit times 2^(w*m) - 1."""
    up = (1 << w * m) - 1
    out = {}
    for key, c in num.items():
        ce = _conv(c, den) if key else None
        part = _derivative_ints(c)
        part = _conv(part, den) if part else []
        if den1:
            part = _add_ints(part, [-(k + 1) * x for x in _conv(c, den1)])
        if part:
            _acc_ints(out, key, part)
        for s, e in _slots(key, w):
            _acc_ints(out, key + (up << w * s), ce if e == 1 else [e * x for x in ce])
    return out


def _tower(num: dict, den: list, m: int, w: int):
    """k -> P_k, p^(k) = P_k/E^(k+1) for p = num/den = P_0/E, num packed
    with m slots per order of w bits each, each P_k built once.  The
    derivation keeps a monomial's total degree, so slots of the width of
    the largest total degree of num hold every exponent of the tower."""
    den1 = _derivative_ints(den)
    tower = [num]

    def deriv(k: int) -> dict:
        while len(tower) <= k:
            tower.append(_next_derivative(tower[-1], den, den1, len(tower) - 1,
                                          m, w))
        return tower[k]
    return deriv


def _den_times(a: tuple, b: tuple, k: int = 1) -> tuple:
    """a*b^k for denominators (c, exps) over one base: exponents add."""
    return a[0] * b[0] ** k, tuple([x + k * y for x, y in zip(a[1], b[1])])


class _Base:
    """A coprime base b_1..b_r in Z[t], and denominators over it.

    The b_i are pairwise coprime squarefree primitive int sequences of
    degree >= 1 with positive leads.  A denominator over the base is a
    pair (c, exps): the positive int c times the product of the
    b_i^exps[i].  A product of such denominators adds exponents, and an
    lcm takes their maximum, so neither runs a gcd.  The base is refined
    from the denominators it is built from: each joins by trial division
    by the elements it shares, a gcd splits an element of degree >= 2 that
    shares only part of itself, and a gcd with its derivative splits off a
    repeated factor (Bach, Driscoll, Shallit, "Factor refinement",
    J. Algorithms 15 (1993)).  Nothing is factored into irreducibles: an
    element of degree >= 2 may be reducible.
    """

    __slots__ = ("elems", "powers")

    def __init__(self, *terms: dict):
        """The base of the distinct denominators of degree >= 1 of the
        RatFunc coefficients in the dicts terms."""
        self.elems = []
        for d in dict.fromkeys(c.den.prim for t in terms for c in t.values()):
            if len(d) > 1:
                self._refine(list(d))
        # powers[i][e] = b_i^e, each built once, on demand
        self.powers = [[[1], b] for b in self.elems]

    def _refine(self, a: list) -> None:
        """Join the primitive a to the base, splitting it and every element
        it shares a factor with until all are pairwise coprime, and an a of
        degree >= 2 that shares a factor with its derivative, so that every
        element is squarefree: (t+1)^2 joins as t+1.  A split lowers the
        total degree of what is still to join, so this ends."""
        elems = self.elems
        todo = [a]
        while todo:
            a = todo.pop()
            i = 0
            while len(a) > 1 and i < len(elems):
                b = elems[i]
                q = _exact_quotient(a, b)
                if q is not None:
                    a = q
                    continue
                if len(b) > 2:
                    g, a_g, b_g = _gcd_parts(a, b)
                    if len(g) > 1:
                        del elems[i]
                        todo += [g, b_g]
                        a = a_g
                        continue
                # b of degree 1 divides a or is prime to it
                i += 1
            if len(a) > 2:
                d = _derivative_ints(a)
                c = math.gcd(*d)
                g, a_g, _ = _gcd_parts(a, [x // c for x in d])
                if len(g) > 1:
                    todo += [g, a_g]
                    continue
            if len(a) > 1:
                elems.append(a)

    def factor(self, d: list) -> tuple:
        """(c, exps) for an int list d with a positive lead that is c times
        a product of the elements, by trial division."""
        exps = []
        for b in self.elems:
            e = 0
            while len(d) > 1:
                q = _exact_quotient(d, b)
                if q is None:
                    break
                d = q
                e += 1
            exps.append(e)
        return d[0], tuple(exps)

    def expand(self, c: int, exps) -> list:
        """c times the product of the b_i^exps[i], as an int list."""
        out = [c]
        for pw, e in zip(self.powers, exps):
            if e:
                while len(pw) <= e:
                    pw.append(_conv(pw[-1], pw[1]))
                out = _conv(out, pw[e])
        return out

    def cancel(self, num: dict, den: tuple) -> tuple[dict, tuple]:
        """num/den with each element divided out while the denominator
        holds it and it divides every numerator, then the integer content.
        With irreducible elements this is division by the gcd of the
        denominator and the numerators."""
        c, exps = den
        if not num:
            return num, (1, (0,) * len(exps))
        if c == 1 and not any(exps):
            return num, den
        exps = list(exps)
        for i, b in enumerate(self.elems):
            while exps[i]:
                out = {}
                for mono, a in num.items():
                    q = _exact_quotient(a, b)
                    if q is None:
                        break
                    out[mono] = q
                else:
                    num = out
                    exps[i] -= 1
                    continue
                break
        g = c
        for a in num.values():
            if g == 1:
                break
            g = math.gcd(g, *a)
        if g > 1:
            c //= g
            num = {mono: [x // g for x in a] for mono, a in num.items()}
        return num, (c, tuple(exps))

    def lcm(self, a: tuple, b: tuple) -> tuple[tuple, list, list]:
        """(L, L/a, L/b) for denominators a and b over the base: L their
        lcm, the integer lcm times the maximum exponents, and the two
        cofactors expanded as int lists."""
        if a == b:
            return a, [1], [1]
        (ca, ea), (cb, eb) = a, b
        c = math.lcm(ca, cb)
        exps = tuple(map(max, ea, eb))
        return ((c, exps),
                self.expand(c // ca, [x - y for x, y in zip(exps, ea)]),
                self.expand(c // cb, [x - y for x, y in zip(exps, eb)]))

    def add(self, a, num: dict, den: tuple) -> tuple[dict, tuple]:
        """a + num/den for a pair a (or None) over the base, over the lcm
        of the denominators."""
        if a is None:
            return num, den
        a_num, a_den = a
        den, ma, mb = self.lcm(a_den, den)
        out = {mono: _conv(n, ma) for mono, n in a_num.items()}
        for mono, n in num.items():
            _acc_ints(out, mono, _conv(n, mb))
        return out, den

    def ratfunc_terms(self, num: dict, den: tuple, unpack) -> dict:
        """num/den as {unpack(key): RatFunc}, one normalisation per term
        whose denominator has degree >= 1.  Each numerator is first divided by
        the elements its denominator holds, while they divide it, so that
        the normalisation's gcd finds no common factor of theirs to divide
        out; a term over a constant is in lowest terms once its integer
        gcd is out."""
        c, exps = den
        scale = Fraction(1, c)
        dens = {}         # exponents -> denominator, expanded once
        out = {}
        for key, a in num.items():
            e = list(exps)
            for i, b in enumerate(self.elems):
                while e[i]:
                    q = _exact_quotient(a, b)
                    if q is None:
                        break
                    a = q
                    e[i] -= 1
            e = tuple(e)
            d = dens.get(e)
            if d is None:
                d = dens[e] = _primitive(_ONE_F, self.expand(1, e))
            if len(d.prim) == 1:
                out[unpack(key)] = _ratfunc(_primitive(scale, a), d)
            else:
                out[unpack(key)] = RatFunc(_primitive(scale, a), d)
        return out
