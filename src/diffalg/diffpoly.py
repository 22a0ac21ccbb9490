"""Differential polynomials over Q(t) with Ritt reduction.

A DiffPoly is a polynomial in the derivative variables x_i^(j) of m
differential indeterminates, with RatFunc coefficients.  The module
implements the total derivation, order/separant/initial data, Ritt
pseudo-reduction with an expansion certificate, and membership in the
general-solution ideal of an irreducible polynomial (zero remainder).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .basefield import (BaseField, Poly, RatFunc, _derivative_name, _grouped,
                        _power, _signed_sum)
from .errors import IncompleteAssignment, NotApplicable, ShapeError


@dataclass(frozen=True, order=True)
class DerivVar:
    """The variable x_i^(j): indeterminate index i, derivative order j.

    Ranked by order first, then index; field order below matches that.
    """

    order: int
    indeterminate: int

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


_ZERO_RF = RatFunc(Poly(), 1, BaseField.RATIONAL)


def _coeff(x) -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (int, Fraction, Poly)):
        return RatFunc(x, 1, BaseField.RATIONAL)
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
                mono = _mono_from_dict(dict(mono)) if not isinstance(mono, tuple) else mono
                if mono in clean:
                    c = clean[mono] + c
                    if c.is_zero():
                        del clean[mono]
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
            acc = out.get(mono, _ZERO_RF) + c
            if acc.is_zero():
                out.pop(mono, None)
            else:
                out[mono] = acc
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
            for idx, (v, e) in enumerate(mono):
                d = dict(mono)
                if e == 1:
                    del d[v]
                else:
                    d[v] = e - 1
                d[v.derived()] = d.get(v.derived(), 0) + 1
                _acc_term(out, _mono_from_dict(d), c * e)
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

    def _require_order(self, indeterminate: int) -> int:
        n = self.order(indeterminate)
        if n is None or n < 0:
            name = _var_name(DerivVar(0, indeterminate), self.num_indeterminates)
            raise NotApplicable("polynomial has no positive-rank leader in %s" % name)
        return n

    def leader(self, indeterminate: int = 0) -> DerivVar:
        return DerivVar(self._require_order(indeterminate), indeterminate)

    def separant(self, indeterminate: int = 0) -> "DiffPoly":
        """Partial derivative with respect to the leader."""
        return self.partial(self.leader(indeterminate))

    def leader_degree(self, indeterminate: int = 0) -> int:
        lead = self.leader(indeterminate)
        return max(dict(mono).get(lead, 0) for mono in self.terms)

    def initial(self, indeterminate: int = 0) -> "DiffPoly":
        """Coefficient of the highest power of the leader."""
        lead = self.leader(indeterminate)
        deg = self.leader_degree(indeterminate)
        out = {}
        for mono, c in self.terms.items():
            d = dict(mono)
            if d.get(lead, 0) == deg:
                del d[lead]
                _acc_term(out, _mono_from_dict(d), c)
        return DiffPoly(out, self.num_indeterminates)

    def partial(self, v: DerivVar) -> "DiffPoly":
        """Formal partial derivative with respect to one derivative variable."""
        out = {}
        for mono, c in self.terms.items():
            d = dict(mono)
            e = d.get(v, 0)
            if not e:
                continue
            if e == 1:
                del d[v]
            else:
                d[v] = e - 1
            _acc_term(out, _mono_from_dict(d), c * e)
        return DiffPoly(out, self.num_indeterminates)

    def coefficients_in(self, v: DerivVar) -> dict:
        """View as a univariate polynomial in v: exponent -> DiffPoly coefficient."""
        slices: dict[int, dict] = {}
        for mono, c in self.terms.items():
            d = dict(mono)
            e = d.pop(v, 0)
            _acc_term(slices.setdefault(e, {}), _mono_from_dict(d), c)
        return {
            e: DiffPoly(t, self.num_indeterminates)
            for e, t in slices.items()
            if any(not c.is_zero() for c in t.values())
        }

    def degree_in(self, v: DerivVar) -> int:
        deg = 0
        for mono in self.terms:
            deg = max(deg, dict(mono).get(v, 0))
        return deg

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


def _as_diffpoly(x):
    if isinstance(x, DiffPoly):
        return x
    if isinstance(x, (int, Fraction, Poly, RatFunc)):
        return DiffPoly.const(x)
    if isinstance(x, DerivVar):
        return DiffPoly.from_var(x)
    return None


@dataclass
class ReductionResult:
    """Outcome of Ritt pseudo-reduction of Q by P.

    The certificate cofactors satisfy, identically,

        S_P^sep_power * I_P^init_power * Q
            = sum_k cofactor_k * (k-th derivative of P) + remainder,

    and the remainder is reduced: order below that of P, or equal order
    with strictly smaller leader degree.
    """

    remainder: DiffPoly
    sep_power: int
    init_power: int
    certificate: list


def ritt_reduce(q: DiffPoly, p: DiffPoly, indeterminate: int = 0) -> ReductionResult:
    """Pseudo-reduce q modulo p and its derivatives in one indeterminate.

    Derivatives of p are linear in their leaders with the separant as
    leading coefficient, so the order drops first; the final stretch
    divides by p itself using the initial.
    """
    n = p.order(indeterminate)
    if n is None or n < 0:
        raise NotApplicable("reduction needs a polynomial of order >= 0")
    sep = p.separant(indeterminate)
    init = p.initial(indeterminate)
    lead_deg = p.leader_degree(indeterminate)

    rem = q
    s_power = 0
    i_power = 0
    cofactors: dict[int, DiffPoly] = {}
    derivs = {0: p}

    def deriv(k: int) -> DiffPoly:
        while k not in derivs:
            top = max(derivs)
            derivs[top + 1] = derivs[top].derive()
        return derivs[k]

    while True:
        m = rem.order(indeterminate)
        if m is None or m <= n:
            break
        k = m - n
        v = DerivVar(m, indeterminate)
        dpk = deriv(k)
        slices = rem.coefficients_in(v)
        e = max(slices)
        top = slices[e]
        multiplier = DiffPoly.from_var(v, rem.num_indeterminates) ** (e - 1) * top
        rem = sep * rem - multiplier * dpk
        s_power += 1
        for j in list(cofactors):
            cofactors[j] = sep * cofactors[j]
        cofactors[k] = cofactors.get(k, DiffPoly({}, q.num_indeterminates)) + multiplier

    lead = DerivVar(n, indeterminate)
    while True:
        m = rem.order(indeterminate)
        if m is None or m < n:
            break
        e = rem.degree_in(lead)
        if e < lead_deg:
            break
        top = rem.coefficients_in(lead)[e]
        multiplier = DiffPoly.from_var(lead, rem.num_indeterminates) ** (e - lead_deg) * top
        rem = init * rem - multiplier * p
        i_power += 1
        for j in list(cofactors):
            cofactors[j] = init * cofactors[j]
        cofactors[0] = cofactors.get(0, DiffPoly({}, q.num_indeterminates)) + multiplier

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
    derivs = {0: p}
    for k, cofactor in result.certificate:
        while k not in derivs:
            top = max(derivs)
            derivs[top + 1] = derivs[top].derive()
        rhs = rhs + cofactor * derivs[k]
    return lhs == rhs
