"""Differential polynomials over Q(t) with Ritt reduction.

A DiffPoly is a polynomial in the derivative variables x_i^(j) of m
differential indeterminates, with RatFunc coefficients.  The module
implements the total derivation, order/separant/initial data, Ritt
pseudo-reduction with an expansion certificate, and membership in the
general-solution ideal of an irreducible polynomial (zero remainder).

Monomials are edited only through _mono_exp and _mono_set.  Ritt
reduction repeats one step (by the separant above P's order, by the
initial at it), its multiplier read off the remainder's top terms.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .basefield import (Poly, RatFunc, _derivative_name, _grouped, _power,
                        _Record, _signed_sum)
from .errors import IncompleteAssignment, NotApplicable, ShapeError


class DerivVar(namedtuple("DerivVar", "order indeterminate")):
    """The variable x_i^(j): indeterminate index i, derivative order j.

    Ranked by order first, then index: the tuple order of the fields.
    """

    __slots__ = ()

    def derived(self) -> "DerivVar":
        return DerivVar(self.order + 1, self.indeterminate)


def var(indeterminate: int = 0, order: int = 0) -> DerivVar:
    return DerivVar(order, indeterminate)


def _var_name(v: DerivVar, count: int) -> str:
    """v as the user types it among count indeterminates: x, x', x'', x^(3)
    for a single one, x1..x9 otherwise."""
    name = "x" if count == 1 else "x%d" % (v.indeterminate + 1)
    return _derivative_name(name, v.order)


# a monomial is a tuple of (DerivVar, exponent) sorted by variable rank
Monomial = tuple


def _mono_from_dict(d: dict) -> Monomial:
    return tuple(sorted((v, e) for v, e in d.items() if e))


def _mono_exp(m: Monomial, v: DerivVar) -> int:
    """Exponent of v in m."""
    for w, e in m:
        if w == v:
            return e
    return 0


def _mono_set(m: Monomial, v: DerivVar, e: int) -> Monomial:
    """m with the exponent of v set to e (v dropped when e is 0)."""
    rest = [(w, f) for w, f in m if w != v]
    return tuple(sorted(rest + [(v, e)])) if e else tuple(rest)


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return _mono_from_dict(d)


def _mono_str_key(m: Monomial):
    vars_desc = []
    for v, e in reversed(m):
        vars_desc.extend([(v.order, v.indeterminate)] * e)
    return (vars_desc, sum(e for _v, e in m))


_ZERO_RF = RatFunc(Poly())


def _coeff(x) -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (int, Fraction, Poly)):
        return RatFunc(x)
    raise TypeError("cannot use %r as a coefficient" % (x,))


class DiffPoly:
    """Sparse differential polynomial; terms maps monomials to coefficients."""

    __slots__ = ("terms", "num_indeterminates")

    def __init__(self, terms=None, num_indeterminates: int = 1):
        clean = {}
        m = num_indeterminates
        if terms:
            for mono, c in terms.items():
                c = _coeff(c)
                if c.is_zero():
                    continue
                clean[mono] = c
                for v, _e in mono:
                    m = max(m, v.indeterminate + 1)
        self.terms = clean
        self.num_indeterminates = m

    @classmethod
    def const(cls, c, num_indeterminates: int = 1) -> "DiffPoly":
        return cls({(): _coeff(c)}, num_indeterminates)

    @classmethod
    def from_var(cls, v: DerivVar, num_indeterminates: int | None = None) -> "DiffPoly":
        m = v.indeterminate + 1 if num_indeterminates is None else num_indeterminates
        return cls({((v, 1),): RatFunc(1)}, m)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def constant_coefficient(self) -> RatFunc:
        return self.terms.get((), _ZERO_RF)

    def variables(self) -> set:
        out = set()
        for mono in self.terms:
            for v, _e in mono:
                out.add(v)
        return out

    def __eq__(self, other) -> bool:
        other = _as_diffpoly(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset((m, c) for m, c in self.terms.items()))

    def __neg__(self) -> "DiffPoly":
        return DiffPoly({m: -c for m, c in self.terms.items()}, self.num_indeterminates)

    def __add__(self, other) -> "DiffPoly":
        other = _as_diffpoly(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for mono, c in other.terms.items():
            _acc_term(out, mono, c)
        return DiffPoly(out, max(self.num_indeterminates, other.num_indeterminates))

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_diffpoly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "DiffPoly":
        other = _as_diffpoly(other)
        if other is None:
            return NotImplemented
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _acc_term(out, _mono_mul(m1, m2), c1 * c2)
        return DiffPoly(out, max(self.num_indeterminates, other.num_indeterminates))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "DiffPoly":
        if e < 0:
            raise ValueError("negative power of a differential polynomial")
        return _power(DiffPoly.const(1, self.num_indeterminates), self, e)

    def derive(self) -> "DiffPoly":
        """Total derivative: coefficients via the field derivation, x_i^(j) -> x_i^(j+1)."""
        out = {}
        for mono, c in self.terms.items():
            _acc_term(out, mono, c.derive())
            for v, e in mono:
                lowered, w = _mono_set(mono, v, e - 1), v.derived()
                _acc_term(out, _mono_set(lowered, w, _mono_exp(lowered, w) + 1), c * e)
        return DiffPoly(out, self.num_indeterminates)

    def order(self, indeterminate: int = 0) -> int | None:
        """Greatest derivative order of x_i in the polynomial.

        -1 for a nonzero element of the coefficient field, None for 0.
        """
        if not self.terms:
            return None
        best = -1
        for mono in self.terms:
            for v, _e in mono:
                if v.indeterminate == indeterminate:
                    best = max(best, v.order)
        return best

    def leader(self, indeterminate: int = 0) -> DerivVar:
        n = self.order(indeterminate)
        if n is None or n < 0:
            name = _var_name(DerivVar(0, indeterminate), self.num_indeterminates)
            raise NotApplicable("polynomial has no positive-rank leader in %s" % name)
        return DerivVar(n, indeterminate)

    def separant(self, indeterminate: int = 0) -> "DiffPoly":
        """Partial derivative with respect to the leader."""
        return self.partial(self.leader(indeterminate))

    def leader_degree(self, indeterminate: int = 0) -> int:
        return self.degree_in(self.leader(indeterminate))

    def initial(self, indeterminate: int = 0) -> "DiffPoly":
        """Coefficient of the highest power of the leader."""
        lead = self.leader(indeterminate)
        deg = self.degree_in(lead)
        return _top_terms(self, lead, deg, deg)

    def partial(self, v: DerivVar) -> "DiffPoly":
        """Formal partial derivative with respect to one derivative variable."""
        out = {}
        for mono, c in self.terms.items():
            e = _mono_exp(mono, v)
            if e:
                _acc_term(out, _mono_set(mono, v, e - 1), c * e)
        return DiffPoly(out, self.num_indeterminates)

    def degree_in(self, v: DerivVar) -> int:
        return max((_mono_exp(mono, v) for mono in self.terms), default=0)

    def substitute_linear(self, matrix) -> "DiffPoly":
        """Replace x_i^(j) by sum_k T[i][k] x_k^(j) for a constant matrix T."""
        m = self.num_indeterminates
        if len(matrix) != m or any(len(row) != m for row in matrix):
            raise ShapeError("matrix must be %dx%d" % (m, m))
        cache: dict[DerivVar, DiffPoly] = {}

        def image(v: DerivVar) -> DiffPoly:
            if v not in cache:
                terms = {}
                for k in range(m):
                    c = Fraction(matrix[v.indeterminate][k])
                    if c:
                        terms[((DerivVar(v.order, k), 1),)] = RatFunc(c)
                cache[v] = DiffPoly(terms, m)
            return cache[v]

        total = DiffPoly({}, m)
        for mono, c in self.terms.items():
            prod = DiffPoly.const(c, m)
            for v, e in mono:
                prod = prod * image(v) ** e
            total = total + prod
        return total

    def evaluate(self, assignment: dict) -> RatFunc:
        """Evaluate at a point given as {DerivVar: RatFunc}."""
        total = _ZERO_RF
        for mono, c in self.terms.items():
            val = c
            for v, e in mono:
                if v not in assignment:
                    raise IncompleteAssignment(
                        "no value for %s" % _var_name(v, self.num_indeterminates))
                val = val * _coeff(assignment[v]) ** e
            total = total + val
        return total

    def __str__(self) -> str:
        items = sorted(self.terms.items(), key=lambda kv: _mono_str_key(kv[0]),
                       reverse=True)
        terms = []
        for mono, c in items:
            negative = c.num.lead() < 0
            mag = -c if negative else c
            factors = [] if mono and mag == RatFunc(1) else [_grouped(str(mag))]
            for v, e in mono:
                factors.append(self._var_str(v, e))
            terms.append((negative, "*".join(factors)))
        return _signed_sum(terms) or "0"

    def _var_str(self, v: DerivVar, e: int) -> str:
        s = _var_name(v, self.num_indeterminates)
        if e == 1:
            return s
        if v.order == 0:
            return "%s^%d" % (s, e)
        return "(%s)^%d" % (s, e)

    def __repr__(self) -> str:
        return "DiffPoly(%s)" % (str(self),)


def _acc_term(d: dict, mono: Monomial, c: RatFunc) -> None:
    if c.is_zero():
        return
    acc = d.get(mono)
    acc = c if acc is None else acc + c
    if acc.is_zero():
        d.pop(mono, None)
    else:
        d[mono] = acc


def _top_terms(p: DiffPoly, v: DerivVar, e: int, d: int) -> DiffPoly:
    """The terms of p of degree e in v, with the exponent of v lowered by d."""
    return DiffPoly({_mono_set(mono, v, e - d): c for mono, c in p.terms.items()
                     if _mono_exp(mono, v) == e}, p.num_indeterminates)


def _as_diffpoly(x):
    if isinstance(x, DiffPoly):
        return x
    if isinstance(x, (int, Fraction, Poly, RatFunc)):
        return DiffPoly.const(x)
    if isinstance(x, DerivVar):
        return DiffPoly.from_var(x)
    return None


class ReductionResult(_Record):
    """Outcome of Ritt pseudo-reduction of Q by P.

    The certificate cofactors satisfy, identically,

        S_P^sep_power * I_P^init_power * Q
            = sum_k cofactor_k * (k-th derivative of P) + remainder,

    and the remainder is reduced: order below that of P, or equal order
    with strictly smaller leader degree.
    """

    _fields = ("remainder", "sep_power", "init_power", "certificate")

    def __init__(self, remainder: DiffPoly, sep_power: int, init_power: int,
                 certificate: list):
        self.remainder, self.sep_power = remainder, sep_power
        self.init_power, self.certificate = init_power, certificate


def _derivatives(p: DiffPoly):
    """k -> p^(k), each derivative computed once."""
    tower = [p]

    def deriv(k: int) -> DiffPoly:
        while len(tower) <= k:
            tower.append(tower[-1].derive())
        return tower[k]
    return deriv


def ritt_reduce(q: DiffPoly, p: DiffPoly, indeterminate: int = 0) -> ReductionResult:
    """Pseudo-reduce q modulo p and its derivatives in one indeterminate.

    Each step removes the top power v^e of the remainder's highest
    derivative v = x^(m): for m above the order n of p by the separant
    against p^(m-n), which is linear in v with the separant as its
    coefficient, and at m = n, while e is at least the leader degree of
    p, by the initial against p itself.
    """
    n = p.order(indeterminate)
    if n is None or n < 0:
        raise NotApplicable("reduction needs a polynomial of order >= 0")
    sep = p.separant(indeterminate)
    init = p.initial(indeterminate)
    lead_deg = p.leader_degree(indeterminate)
    deriv = _derivatives(p)

    rem = q
    s_power = i_power = 0
    cofactors: dict[int, DiffPoly] = {}
    while True:
        m = rem.order(indeterminate)
        if m is None or m < n:
            break
        v = DerivVar(m, indeterminate)
        e = rem.degree_in(v)
        if m > n:
            k, h, d = m - n, sep, 1
            s_power += 1
        elif e >= lead_deg:
            k, h, d = 0, init, lead_deg
            i_power += 1
        else:
            break
        mult = _top_terms(rem, v, e, d)
        rem = h * rem - mult * deriv(k)
        for j in cofactors:
            cofactors[j] = h * cofactors[j]
        cofactors[k] = cofactors.get(k, DiffPoly({}, q.num_indeterminates)) + mult

    certificate = [(k, c) for k, c in sorted(cofactors.items()) if not c.is_zero()]
    return ReductionResult(rem, s_power, i_power, certificate)


def in_general_ideal(q: DiffPoly, p: DiffPoly, indeterminate: int = 0) -> bool:
    """Membership of q in the general-solution ideal of irreducible p.

    Equivalent to a zero Ritt remainder; irreducibility of p is the
    caller's responsibility.
    """
    return ritt_reduce(q, p, indeterminate).remainder.is_zero()


def certificate_checks(q: DiffPoly, p: DiffPoly, result: ReductionResult,
                       indeterminate: int = 0) -> bool:
    """Expand the certificate identity and compare exactly."""
    sep = p.separant(indeterminate)
    init = p.initial(indeterminate)
    lhs = sep ** result.sep_power * init ** result.init_power * q
    rhs = result.remainder
    deriv = _derivatives(p)
    for k, cofactor in result.certificate:
        rhs = rhs + cofactor * deriv(k)
    return lhs == rhs
