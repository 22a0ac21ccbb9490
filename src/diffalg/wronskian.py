"""Wronsky matrices over Q(t), dependence tests, and ODE reconstruction.

The dependence test is the classical one: n elements of the field are
linearly dependent over the constants iff their Wronskian vanishes.  The
certificate direction never touches the Wronskian; it solves for the
constants directly on cleared polynomial coefficients, which is what makes
it usable as an independent oracle.  Determinants, solves and kernel
vectors of evaluated matrices come from one fraction-free elimination,
_bareiss (one solve gives a fundamental system's W and monic ODE);
expanded determinants come from one cofactor expansion, _cofactor_det.

The Wronskian and the fundamental system eliminate over Z[t], on rows
that are the x-free case of the cleared module's derivative tower: u =
P_0/E cleared, u^(k) = P_k/E^(k+1) with P_(k+1) = P_k'*E - (k+1)*P_k*E',
so no derivative and no common denominator runs a polynomial gcd.  The
rows stay the cleared module's int lists; a Poly is built only for the
elimination over Z[t], for the outputs read back and for the scale, and
each output is normalised once.

They eliminate over Z, not Z[t], when that is cheaper: every entry p
becomes one int p(2^s) (Kronecker substitution, done once per matrix,
_z_image), _bareiss runs on the ints, and only the outputs (the
determinant, the Cramer numerators) are read back, slot by slot.  Every
pivot, entry, determinant and numerator the elimination forms is a minor
of the input, of degree at most D, the sum of the row degrees, with
coefficients at most the product B of the rows' coefficient 1-norms; with
2^(s-2) > B a minor is zero iff its image is, and its slots read back
exactly.  Evaluation is a ring map, so each division exact in Z[t] is
exact in Z.  Packing is chosen by size: only when s is at most
_SLOT_BITS_MAX and the packed result, s*(D+1) bits, is at most
_PACKED_BITS_MAX and at most _PACKED_BITS_PER_INPUT_BIT times the bits of
the entries' coefficients; sparse rows of high degree and wide slots stay
in Z[t].  The dependence certificate eliminates its cleared integer
coefficients over Z directly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .basefield import (_ONE_F, Poly, RatFunc, _conv, _derivative_name,
                        _primitive, _Record, _signed_factor, _signed_sum)
from .cleared import _clear, _tower
from .errors import NotFundamental, ShapeError


def wronsky_matrix(elems) -> list:
    """Row j holds the j-th derivatives: entry (j, i) = elems[i]^(j)."""
    if not elems:
        raise ShapeError("need at least one element")
    n = len(elems)
    rows = [list(elems)]
    for _ in range(n - 1):
        rows.append([f.derive() for f in rows[-1]])
    return rows


def _exact_div(a, b):
    # Z and Poly are rings with exact division; Fraction and RatFunc are fields
    if type(a) is int:
        return a // b
    return a.exact_div(b) if isinstance(a, Poly) else a / b


def _bareiss(m: list, width: int) -> tuple[list, int]:
    """Fraction-free elimination (Bareiss 1968) over an exact ring.

    Columns 0, 1, ... (up to width) become pivots until one has no nonzero
    entry left.  Returns (rows, rank): rows[k][k] (k < rank) and the
    entries right of it are minors of the input with rows swapped, each
    swap negating its incoming row so that no minor changes sign; every
    division is exact, and entries below a pivot are stale.

    The ring is Z (ints), Z[t] (Poly), Q (Fraction) or Q(t) (RatFunc).  A
    matrix over Z[t] comes as int lists and runs over Z as its image at
    t = 2^s (_z_image), exact when 2^(s-2) exceeds the product of the
    rows' coefficient 1-norms, which bounds every minor; it is packed only
    when s <= _SLOT_BITS_MAX and the packed result s*(D+1), D the sum of
    the row degrees, is at most _PACKED_BITS_MAX and
    _PACKED_BITS_PER_INPUT_BIT times the bits of the entries'
    coefficients, and runs over Poly entries otherwise.
    """
    rows = [list(row) for row in m]
    prev = None
    for k in range(min(width, len(rows))):
        if not rows[k][k]:
            hit = next((i for i in range(k + 1, len(rows)) if rows[i][k]), None)
            if hit is None:
                return rows, k
            rows[k], rows[hit] = [-v for v in rows[hit]], rows[k]
        piv = rows[k]
        for i in range(k + 1, len(rows)):
            row = rows[i]
            lead = row[k]
            for j in range(k + 1, len(row)):
                v = row[j] * piv[k] - lead * piv[j]
                row[j] = v if prev is None else _exact_div(v, prev)
        prev = piv[k]
    return rows, min(width, len(rows))


def _cofactor_det(rows: list):
    """Expansion along the first row, n! products, over any ring with *, +
    and unary -: for truncated series, where exact division is unsafe, and
    where the expanded polynomial is itself the answer."""
    def expand(r, cols):
        if len(cols) == 1:
            return rows[r][cols[0]]
        acc = None
        for pos, c in enumerate(cols):
            term = rows[r][c] * expand(r + 1, cols[:pos] + cols[pos + 1:])
            if pos % 2:
                term = -term
            acc = term if acc is None else acc + term
        return acc
    return expand(0, list(range(len(rows))))


def _back_substitute(rows: list, rank: int, col: int) -> tuple:
    """(d, y): d = rows[rank-1][rank-1] and y = d*x, where x solves the
    leading rank x rank triangle against column col (Cramer numerators)."""
    d = rows[rank - 1][rank - 1]
    y = [None] * rank
    y[-1] = rows[rank - 1][col]
    for i in range(rank - 2, -1, -1):
        acc = d * rows[i][col]
        for k in range(i + 1, rank):
            acc = acc - rows[i][k] * y[k]
        y[i] = _exact_div(acc, rows[i][i])
    return d, y


def _det(m: list):
    """Determinant of a square matrix over an exact ring."""
    rows, rank = _bareiss(m, len(m))
    # below full rank, elimination stopped at a zero rows[rank][rank]
    k = min(rank, len(m) - 1)
    return rows[k][k]


# Packing pays while the packed result, s*(D+1) bits, stays small both in
# bits and against the bits of the entries as stored, and while the
# slots are narrow: a packed t^281 costs 281*s bits, CPython divides big
# ints in quadratic time, and the early minors fill only part of a slot,
# which costs more than the per-coefficient overhead of Poly saves once
# coefficients run to hundreds of bits (sweep in CHANGES.md).
_PACKED_BITS_MAX = 1 << 17
_PACKED_BITS_PER_INPUT_BIT = 32
_SLOT_BITS_MAX = 384


def _same(v):
    return v


def _z_image(m: list) -> tuple:
    """(rows, read) for a matrix m of int-list entries in Z[t]: rows its
    image in Z under t -> 2^s and read taking an output entry back to a
    Poly, when packing pays; else m as Poly entries and the identity."""
    s, slots, bits = _sizes(m)
    if s > _SLOT_BITS_MAX or s * slots > _PACKED_BITS_MAX \
            or s * slots > _PACKED_BITS_PER_INPUT_BIT * bits:
        return [[_primitive(_ONE_F, e) for e in row] for row in m], _same
    return _kronecker(m, s, slots)


def _sizes(m: list) -> tuple:
    """(s, slots, bits) for a matrix of int-list entries: s a multiple of 8
    with 2^(s-2) above the coefficients of every minor (of an augmented
    matrix too) in absolute value, slots above the degree of every minor,
    and bits those of the entries' coefficients.

    A minor's degree is at most D, the sum of the row degrees, and its
    coefficients are at most the product of the rows' coefficient 1-norms.
    """
    bound, degree, bits = 1, 0, 0
    for row in m:
        norm, top = 0, 1
        for e in row:
            norm += sum(map(abs, e))
            bits += sum(map(int.bit_length, e))
            top = max(top, len(e))
        bound *= max(1, norm)
        degree += top - 1
    return (bound.bit_length() + 9) // 8 * 8, degree + 1, bits


def _kronecker(m: list, s: int, slots: int) -> tuple:
    """(rows, read) as in _z_image for a matrix of int-list entries whose
    minors have degree below slots and coefficients below 2^(s-2) in
    absolute value, s a multiple of 8 (Kronecker 1882).

    An entry p becomes p(2^s); read takes v = p(2^s) back to p, slot by
    slot, each slot shifted by 2^(s-1) so that none borrows.
    """
    width, half = s // 8, 1 << (s - 1)
    offset = int.from_bytes(half.to_bytes(width, "little") * slots, "little")

    def pack(e):
        v = 0
        for x in reversed(e):
            v = (v << s) + x
        return v

    def read(v):
        data = (v + offset).to_bytes(width * slots, "little")
        return _primitive(_ONE_F, [int.from_bytes(data[i:i + width], "little")
                                   - half for i in range(0, len(data), width)])
    return [[pack(e) for e in row] for row in m], read


def _poly_det_bareiss(m: list) -> Poly:
    """Fraction-free determinant of a square matrix of int-list entries,
    eliminated over Z when packing pays (_z_image)."""
    rows, read = _z_image(m)
    return read(_det(rows))


def _solve(aug: list) -> tuple | None:
    """(det(a), y) with a*y = det(a)*b over the entries' ring, for
    aug = [a | b] with a square; None when a is singular."""
    n = len(aug)
    rows, rank = _bareiss(aug, n)
    if rank < n:
        return None
    cols = [_back_substitute(rows, n, c)[1] for c in range(n, len(aug[0]))]
    return rows[n - 1][n - 1], [list(ys) for ys in zip(*cols)]


def _wronsky_rows(elems, m: int) -> tuple[list, Poly]:
    """(rows, scale): row i holds u^(k)*E^(m+1) for k = 0..m, u = P_0/E the
    i-th element cleared, and scale is the product of the E^(m+1).

    The x-free case of the cleared tower, u^(k) = P_k/E^(k+1): entry k is
    P_k*E^(m-k), an int list built over Z[t] with no gcd ([] for zero).
    """
    if not elems:
        raise ShapeError("need at least one element")
    rows = []
    scale = [1]
    for u in elems:
        # one term, with no variable: key 0 under any packing
        num, den = _clear({0: u})
        tower = _tower(num, den, 1, 1)
        powers = [[1]]                  # E^j
        for _ in range(m + 1):
            powers.append(_conv(powers[-1], den))
        pks = [tower(k).get(0) for k in range(m + 1)]
        rows.append([_conv(pk, powers[m - k]) if pk else []
                     for k, pk in enumerate(pks)])
        scale = _conv(scale, powers[m + 1])
    return rows, _primitive(_ONE_F, scale)


def _monic_solve(cleared: list) -> tuple | None:
    """(d, [c_0, ..., c_{n-1}]): W = d/scale, and y^(n) + c_{n-1} y^(n-1)
    + ... + c_0 y kills each u_i, row i holding u_i, ..., u_i^(n) times a
    polynomial as int lists, scale being the product of those.  By
    Cramer's rule c_j = (-1)^(n-j) minor_j / W, minor_j being the bordered
    Wronskian without order j; None when W = 0."""
    rows, read = _z_image(cleared)
    solved = _solve(rows)
    if solved is None:
        return None
    d = read(solved[0])
    return d, [RatFunc(-read(yj[0]), d) for yj in solved[1]]


def wronskian(elems) -> RatFunc:
    """Exact Wronskian determinant."""
    # det of the transpose: one common denominator per element
    cleared, scale = _wronsky_rows(elems, len(elems) - 1)
    return RatFunc(_poly_det_bareiss(cleared), scale)


def dependence_certificate(elems) -> list | None:
    """Constants c with sum c_i elems_i = 0, or None when independent.

    Solved by exact Gaussian elimination on the cleared polynomial
    coefficients; no Wronskian involved.  The first nonzero constant is
    normalized to 1.
    """
    if not elems:
        raise ShapeError("need at least one element")
    polys = _clear(dict(enumerate(elems)))[0].values()
    # rows: coefficient of t^k in sum c_i polys_i = 0
    a = [[p[k] if k < len(p) else 0 for p in polys]
         for k in range(max(map(len, polys)))]
    kernel = _kernel_vector(a, len(elems))
    if kernel is None:
        return None
    lead = next(c for c in kernel if c)
    return [c / lead for c in kernel]


def _kernel_vector(a: list, width: int) -> list | None:
    """One nonzero kernel vector of a (rows x width) integer or rational
    matrix, or None.

    The first non-pivot column gets 1 and later columns 0, which fixes
    the vector.
    """
    rows, rank = _bareiss(a, width)
    if rank == width:
        return None
    vec = [Fraction(0)] * width
    vec[rank] = Fraction(1)
    if rank:
        d, y = _back_substitute(rows, rank, rank)
        vec[:rank] = [Fraction(-v, d) for v in y]
    return vec


def apply_constant_matrix(elems, matrix) -> list:
    """C acting on the tuple: result_i = sum_j C[i][j] elems[j]."""
    n = len(elems)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ShapeError("matrix must be %dx%d" % (n, n))
    out = []
    for row in matrix:
        acc = RatFunc(0)
        for c, f in zip(row, elems):
            acc = acc + f * Fraction(c)
        out.append(acc)
    return out


class LinearODE(_Record):
    """Monic linear ODE y^(n) + a1 y^(n-1) + ... + an y = 0."""

    _fields = ("order", "coeffs")

    def __init__(self, order: int, coeffs: list):
        if order < 1 or len(coeffs) != order:
            raise ShapeError("order must match the coefficient count")
        self.order, self.coeffs = order, coeffs  # [a1, ..., an]

    def apply(self, f: RatFunc) -> RatFunc:
        """Left-hand side evaluated at a field element."""
        derivs = [f]
        for _ in range(self.order):
            derivs.append(derivs[-1].derive())
        acc = derivs[self.order]
        for i, a in enumerate(self.coeffs, start=1):
            acc = acc + a * derivs[self.order - i]
        return acc

    def __str__(self) -> str:
        terms = [(False, _derivative_name("y", self.order))]
        for i, a in enumerate(self.coeffs, start=1):
            if a:
                terms.append(_signed_factor(a, _derivative_name("y", self.order - i)))
        return _signed_sum(terms) + " = 0"


class FundamentalSystem(_Record):
    """Tuple of field elements with nonvanishing Wronskian; one solve on
    the rows f, f', ..., f^(n) gives W (its determinant) and the ODE.  W
    is normalised on first read: the ODE does not read it."""

    _fields = ("elems", "wronskian")

    def __init__(self, elems: list):
        self.elems = elems
        rows, scale = _wronsky_rows(elems, len(elems))
        solved = _monic_solve(rows)
        if solved is None:
            raise NotFundamental("Wronskian vanishes")
        d, self._coefficients = solved
        self._det = d, scale

    @cached_property
    def wronskian(self) -> RatFunc:
        return RatFunc(*self._det)


def ode_from_fundamental_system(fs: FundamentalSystem) -> LinearODE:
    """The monic ODE annihilating every element of the system.

    The coefficients c_j of y^(j) solve sum_j f^(j) c_j = -f^(n) over the
    elements f; the system solved for them when it was built.
    """
    return LinearODE(len(fs._coefficients), fs._coefficients[::-1])
