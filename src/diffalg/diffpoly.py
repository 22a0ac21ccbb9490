"""Differential polynomials over Q(t) with Ritt reduction.

A DiffPoly is a polynomial in the derivative variables x_i^(j) of m
differential indeterminates, with RatFunc coefficients.  The module
implements the total derivation, order/separant/initial data, Ritt
pseudo-reduction with an expansion certificate, and membership in the
general-solution ideal of an irreducible polynomial (zero remainder).

A monomial of DiffPoly.terms is a tuple of (DerivVar, exponent) pairs
sorted by variable rank, edited only through _mono_exp, _mono_set and
_mono_mul.  Ritt reduction repeats one step (by the separant above P's
order, by the initial at it), its multiplier read off the remainder's top
terms.  The step, the derivation and the power of a sum run on the
cleared form of the cleared module: int-list numerators over one
denominator in Z[t], which the step carries over a coprime base, keyed
by packed monomials, one int each.  They pack the cleared inputs once
with the slot width their exponents need (cleared._width) and unpack the
outputs once (_unpack); a reduction's remainder and cofactors may
outgrow their first width, and they are then re-packed with slots twice
as wide.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .basefield import (_ONE_RF, Poly, RatFunc, _conv, _derivative_name,
                        _new, _power, _Record, _signed_factor, _signed_sum)
from .cleared import (_Base, _clear, _degree_in, _den_times, _mul_cleared,
                      _guarded, _order, _packed, _partial, _slots, _split,
                      _tower, _union, _widened, _width)
from .errors import IncompleteAssignment, NotApplicable, ShapeError

Monomial = tuple


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
    """m1*m2, the two sorted monomials merged."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i, n = 0, len(m2)
    for v, e in m1:
        while i < n and m2[i][0] < v:
            out.append(m2[i])
            i += 1
        if i < n and m2[i][0] == v:
            e += m2[i][1]
            i += 1
        out.append((v, e))
    out += m2[i:]
    return tuple(out)


def _unpack(key: int, m: int, w: int) -> Monomial:
    """The tuple monomial of a key packed with m slots per order of w bits
    (cleared._pack): slot s holds the exponent of x_(s mod m)^(s div m)."""
    return tuple([(DerivVar(*divmod(s, m)), e) for s, e in _slots(key, w)])


def _degree(terms: dict) -> int:
    """The largest total degree of a monomial of terms."""
    return max([sum([e for _v, e in mono]) for mono in terms], default=0)


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
        m = v.indeterminate + 1
        if num_indeterminates is not None and num_indeterminates > m:
            m = num_indeterminates
        return _diffpoly({((v, 1),): _ONE_RF}, m)

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
        return _diffpoly({m: -c for m, c in self.terms.items()}, self.num_indeterminates)

    def __add__(self, other) -> "DiffPoly":
        other = _as_diffpoly(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for mono, c in other.terms.items():
            _acc_term(out, mono, c)
        return _diffpoly(out, max(self.num_indeterminates, other.num_indeterminates))

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
        m = max(self.num_indeterminates, other.num_indeterminates)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _acc_term(out, _mono_mul(m1, m2), c1 * c2)
        return _diffpoly(out, m)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "DiffPoly":
        """A term's power is the power of its coefficient and exponents;
        a sum p = P/E cleared has P^e squared on int lists, over E^e."""
        if e < 0:
            raise ValueError("negative power of a differential polynomial")
        m = self.num_indeterminates
        if len(self.terms) == 1:
            (mono, c), = self.terms.items()
            mono = tuple([(v, k * e) for v, k in mono]) if e else ()
            return _diffpoly({mono: c ** e}, m)
        if not e:
            return _diffpoly({(): _ONE_RF}, m)
        if not self.terms:
            return self
        num, den = _clear(self.terms)
        # no exponent of P^e is above e times the largest of P's
        w = _width(e * max([k for mono in num for _v, k in mono], default=0))
        acc = _power(_packed(num, m, w), e, lambda f, g: _mul_cleared({}, f, g))
        base = _Base(self.terms)
        c, exps = base.factor(den)
        power = c ** e, tuple([k * e for k in exps])
        return _diffpoly(base.ratfunc_terms(acc, power,
                                            lambda key: _unpack(key, m, w)), m)

    def derive(self) -> "DiffPoly":
        """Total derivative: coefficients via the field derivation, x_i^(j) -> x_i^(j+1).

        p = P/E cleared gives p' = (D(P)*E - P*E')/E^2, the tower's first step.
        """
        return _derivatives(self)(1)

    def order(self, indeterminate: int = 0) -> int | None:
        """Greatest derivative order of x_i in the polynomial.

        -1 for a nonzero element of the coefficient field, None for 0.
        """
        if not self.terms:
            return None
        best = -1
        for mono in self.terms:
            for v, _e in mono:
                if v.indeterminate == indeterminate and v.order > best:
                    best = v.order
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
        return _diffpoly({_mono_set(mono, lead, 0): c
                          for mono, c in self.terms.items()
                          if _mono_exp(mono, lead) == deg},
                         self.num_indeterminates)

    def partial(self, v: DerivVar) -> "DiffPoly":
        """Formal partial derivative with respect to one derivative variable."""
        out = {}
        for mono, c in self.terms.items():
            e = _mono_exp(mono, v)
            if e:
                _acc_term(out, _mono_set(mono, v, e - 1), c * e)
        return _diffpoly(out, self.num_indeterminates)

    def degree_in(self, v: DerivVar) -> int:
        return max([_mono_exp(mono, v) for mono in self.terms], default=0)

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
        # the (variable, exponent) pairs from the highest variable down order
        # the terms as the variables repeated by their exponents would
        items = sorted(self.terms.items(), key=lambda kv: kv[0][::-1],
                       reverse=True)
        terms = [_signed_factor(c, "*".join([self._var_str(v, e) for v, e in mono]))
                 for mono, c in items]
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


def _diffpoly(terms: dict, num_indeterminates: int) -> DiffPoly:
    """The DiffPoly of terms, already free of zero coefficients, whose
    monomials use indeterminates below num_indeterminates."""
    p = _new(DiffPoly)
    p.terms = terms
    p.num_indeterminates = num_indeterminates
    return p


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
    """k -> p^(k) as a DiffPoly, from the cleared tower: P_k over E^(k+1),
    E factored over the coprime base of p's denominators."""
    num, den = _clear(p.terms)
    base = _Base(p.terms)
    c, exps = base.factor(den)
    m = p.num_indeterminates
    w = _width(_degree(num))
    tower = _tower(_packed(num, m, w), den, m, w)

    def unpack(key: int) -> Monomial:
        return _unpack(key, m, w)

    def deriv(k: int) -> DiffPoly:
        power = c ** (k + 1), tuple([(k + 1) * e for e in exps])
        return _diffpoly(base.ratfunc_terms(tower(k), power, unpack), m)
    return deriv


def ritt_reduce(q: DiffPoly, p: DiffPoly, indeterminate: int = 0,
                certificate: bool = True) -> ReductionResult:
    """Pseudo-reduce q modulo p and its derivatives in one indeterminate.

    Each step removes the top power v^e of the remainder's highest
    derivative v = x^(m): for m above the order n of p by the separant
    against p^(m-n), which is linear in v with the separant as its
    coefficient, and at m = n, while e is at least the leader degree of
    p, by the initial against p itself.

    On the cleared form, with p = P_0/E, the multiplier h = H/E (the
    separant or the initial) and the remainder R/A, the step splits R at
    v^e into M*v^e + B and p^(k) = P_k/E^(k+1) at v^d into
    H*E^k*v^d + T_k.  That split is exact: for k >= 1, p^(k) is linear in
    x^(n+k) with the separant as its coefficient, so P_k holds
    H*E^k*x^(n+k), and at k = 0 the initial is P_0's top part.  So

        h*R/A - (M/A)*v^(e-d)*p^(k) = H*B/(E*A) - M'*v^(e-d)*T_k/(A'*E^(k+1)),

    the top products H*E^k*M*v^e cancelling unformed, M'/A' being M/A
    cancelled over the base.  Both sides are scaled to the lcm of E*A and
    A'*E^(k+1), whose cofactors multiply H and M' before the products, and
    the difference is cancelled.  A, E and each cofactor's denominator
    are carried over the coprime base of p's and q's denominators, so a
    product adds exponents, an lcm takes their maximum, and cancelling is
    trial division by the base's elements.

    The numerators are keyed by packed monomials (cleared._pack), packed
    once from the cleared inputs and unpacked once in the outputs.  The
    first width holds twice the largest total degree of p's and q's
    monomials.  Once a remainder that a step multiplies, or a cofactor,
    has a guard bit set, a further product could carry out of its slot:
    the remainder and the cofactors are re-packed with slots twice as
    wide, and p's data is packed again at that width.

    With certificate false only the remainder is wanted: no cofactor is
    kept, the certificate is left empty and the remainder cleared, as the
    dict of numerators R of R/A, empty exactly when the remainder is 0.
    """
    n = p.order(indeterminate)
    if n is None or n < 0:
        raise NotApplicable("reduction needs a polynomial of order >= 0")
    num, den = _clear(p.terms)
    rem, rem_den = _clear(q.terms)
    base = _Base(p.terms, q.terms)
    wide = max(q.num_indeterminates, p.num_indeterminates)
    w = _width(2 * max(_degree(num), _degree(rem)))
    rem, rem_den, s_power, i_power, cofactors, w = _reduce(
        num, den, base.factor(den), _packed(rem, wide, w), base.factor(rem_den),
        base, n, indeterminate, wide, w, certificate)
    if not certificate:
        return ReductionResult(rem, s_power, i_power, [])

    def unpack(key: int) -> Monomial:
        return _unpack(key, wide, w)
    # a result multiplied by something of p counts p's indeterminates: the
    # remainder after any step, the cofactors after a second one
    steps = s_power + i_power
    m = wide if steps > 1 else q.num_indeterminates
    certificate = [(k, _diffpoly(base.ratfunc_terms(c, c_den, unpack), m))
                   for k, (c, c_den) in sorted(cofactors.items()) if c]
    m = wide if steps else q.num_indeterminates
    return ReductionResult(
        _diffpoly(base.ratfunc_terms(rem, rem_den, unpack), m),
        s_power, i_power, certificate)


def _reduce(num: dict, den: list, den_f: tuple, rem: dict, rem_den: tuple,
            base: _Base, n: int, index: int, m: int, w: int,
            certificate: bool):
    """The steps of ritt_reduce for p = num/den, num cleared with tuple
    monomials, on the remainder rem/rem_den packed with m slots per order
    of w bits: (R, A, separant power, initial power, {k: cofactor}, the
    final width)."""
    s_power = i_power = 0
    cofactors: dict[int, tuple] = {}
    grown = 0             # the or of the keys of the cofactors last multiplied
    while True:
        # p's data at the width w
        mask = (1 << w) - 1
        packed = _packed(num, m, w)
        lead = w * (n * m + index)
        lead_deg = _degree_in(packed, lead, mask)
        sep = _partial(packed, lead, mask)
        init, tail = _split(packed, lead, mask, lead_deg, lead_deg)
        tower = _tower(packed, den, m, w)
        tails = {0: _negated(tail)}   # k -> -T_k, P_k without its top part
        while True:
            union = _union(rem)
            top = _order(union, index, m, w)
            if top < n:
                return rem, rem_den, s_power, i_power, cofactors, w
            v = w * (top * m + index)
            e = _degree_in(rem, v, mask)
            if top > n:
                k, h, d = top - n, sep, 1
            elif e >= lead_deg:
                k, h, d = 0, init, lead_deg
            else:
                return rem, rem_den, s_power, i_power, cofactors, w
            if _guarded(union | grown, w):
                break
            if k:
                s_power += 1
            else:
                i_power += 1
            if k not in tails:
                tails[k] = _negated(_split(tower(k), v, mask, 1, 1)[1])
            mult, rest = _split(rem, v, mask, e, d)
            # at k = 0 the lcm is E*A whatever M/A cancels to
            mult, mult_den = base.cancel(mult, rem_den) if k else (mult, rem_den)
            den_l, scale_h, scale_m = base.lcm(_den_times(rem_den, den_f),
                                               _den_times(mult_den, den_f, k + 1))
            step = _mul_cleared({}, _scaled(h, scale_h), rest)
            _mul_cleared(step, _scaled(mult, scale_m), tails[k])
            if certificate:
                grown = 0
                for j, (c, c_den) in cofactors.items():
                    c = _mul_cleared({}, h, c)
                    grown |= _union(c)
                    cofactors[j] = c, _den_times(c_den, den_f)
                cofactors[k] = base.add(cofactors.get(k), mult, mult_den)
            rem, rem_den = base.cancel(step, den_l)
        # no carry has happened yet: every exponent fits the wider slots
        # with their guard bits clear
        rem = _widened(rem, w, 2 * w)
        cofactors = {k: (_widened(c, w, 2 * w), c_den)
                     for k, (c, c_den) in cofactors.items()}
        grown = 0
        w *= 2


def _negated(num: dict) -> dict:
    return {mono: [-x for x in a] for mono, a in num.items()}


def _scaled(num: dict, c: list) -> dict:
    """num times the int list c."""
    if c == [1]:
        return num
    return {mono: _conv(a, c) for mono, a in num.items()}


def in_general_ideal(q: DiffPoly, p: DiffPoly, indeterminate: int = 0) -> bool:
    """Membership of q in the general-solution ideal of irreducible p.

    Equivalent to a zero Ritt remainder; irreducibility of p is the
    caller's responsibility.
    """
    return not ritt_reduce(q, p, indeterminate, certificate=False).remainder


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
