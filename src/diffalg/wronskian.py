"""Wronsky matrices over Q(t), dependence tests, and ODE reconstruction.

The dependence test is the classical one: n elements of the field are
linearly dependent over the constants iff their Wronskian vanishes.  The
certificate direction never touches the Wronskian; it solves for the
constants directly on cleared polynomial coefficients, which is what makes
it usable as an independent oracle.  Determinants, solves and kernel
vectors all come from one fraction-free elimination, _bareiss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .basefield import Poly, RatFunc, _signed_sum, poly_lcm
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
    # Poly is a ring with exact division; Fraction and RatFunc are fields
    return a.exact_div(b) if isinstance(a, Poly) else a / b


def _bareiss(m: list, width: int) -> tuple[list, int, int]:
    """Fraction-free elimination (Bareiss 1968) over an exact ring.

    Columns 0, 1, ... (up to width) become pivots until one has no nonzero
    entry left.  Returns (rows, rank, sign): rows[k][k] (k < rank) and the
    entries right of it are minors of the row-swapped input, so every
    division is exact; entries below a pivot are stale.
    """
    rows = [row[:] for row in m]
    sign = 1
    prev = None
    for k in range(min(width, len(rows))):
        if not rows[k][k]:
            hit = next((i for i in range(k + 1, len(rows)) if rows[i][k]), None)
            if hit is None:
                return rows, k, sign
            rows[k], rows[hit] = rows[hit], rows[k]
            sign = -sign
        piv = rows[k]
        for i in range(k + 1, len(rows)):
            row = rows[i]
            lead = row[k]
            for j in range(k + 1, len(row)):
                v = row[j] * piv[k] - lead * piv[j]
                row[j] = v if prev is None else _exact_div(v, prev)
        prev = piv[k]
    return rows, min(width, len(rows)), sign


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
    rows, rank, sign = _bareiss(m, len(m))
    # below full rank, elimination stopped at a zero rows[rank][rank]
    k = min(rank, len(m) - 1)
    return -rows[k][k] if sign < 0 else rows[k][k]


def _poly_det_bareiss(m: list) -> Poly:
    """Fraction-free determinant of a square Poly matrix."""
    return _det(m)


def _solve(aug: list) -> tuple | None:
    """(d, y) with a*y = d*b over the entries' ring, for aug = [a | b] with
    a square; None when a is singular."""
    n = len(aug)
    rows, rank, _sign = _bareiss(aug, n)
    if rank < n:
        return None
    cols = [_back_substitute(rows, n, c)[1] for c in range(n, len(aug[0]))]
    return rows[n - 1][n - 1], [list(ys) for ys in zip(*cols)]


def _clear_rows(rows: list) -> tuple[list, Poly]:
    """Each RatFunc row times the lcm of its denominators, and their product."""
    cleared = []
    scale = Poly((1,))
    for row in rows:
        den = Poly((1,))
        for f in row:
            den = poly_lcm(den, f.den)
        cleared.append([f.num * den.exact_div(f.den) for f in row])
        scale = scale * den
    return cleared, scale


def _monic_coefficients(rows: list) -> list | None:
    """[c_0, ..., c_{n-1}]: y^(n) + c_{n-1} y^(n-1) + ... + c_0 y kills each u_i.

    Row i holds u_i, u_i', ..., u_i^(n) (RatFunc).  By Cramer's rule
    c_j = (-1)^(n-j) minor_j / W, minor_j being the bordered Wronskian
    without order j; None when W = 0.
    """
    solved = _solve(_clear_rows(rows)[0])
    if solved is None:
        return None
    d, y = solved
    return [RatFunc(-yj[0], d) for yj in y]


def wronskian(elems) -> RatFunc:
    """Exact Wronskian determinant."""
    # det of the transpose: one common denominator per element
    cleared, scale = _clear_rows([list(col) for col in zip(*wronsky_matrix(elems))])
    return RatFunc(_poly_det_bareiss(cleared), scale)


def dependent_over_constants(elems) -> bool:
    """Linear dependence over Q, decided through the Wronskian."""
    return wronskian(elems).is_zero()


def dependence_certificate(elems) -> list | None:
    """Constants c with sum c_i elems_i = 0, or None when independent.

    Solved by exact Gaussian elimination on the cleared polynomial
    coefficients; no Wronskian involved.  The first nonzero constant is
    normalized to 1.
    """
    if not elems:
        raise ShapeError("need at least one element")
    common = Poly((1,))
    for f in elems:
        common = poly_lcm(common, f.den)
    polys = [f.num * common.exact_div(f.den) for f in elems]
    width = len(elems)
    height = max((p.degree() for p in polys), default=-1) + 1
    # rows: coefficient of t^k in sum c_i polys_i = 0
    a = [[Fraction(0)] * width for _ in range(height)]
    for i, p in enumerate(polys):
        for k, c in enumerate(p.coeffs):
            a[k][i] = c
    kernel = _kernel_vector(a, width)
    if kernel is None:
        return None
    lead = next(c for c in kernel if c)
    return [c / lead for c in kernel]


def _kernel_vector(a: list, width: int) -> list | None:
    """One nonzero kernel vector of a (rows x width) rational matrix, or None.

    The first non-pivot column gets 1 and later columns 0, which fixes
    the vector.
    """
    rows, rank, _sign = _bareiss(a, width)
    if rank == width:
        return None
    vec = [Fraction(0)] * width
    vec[rank] = Fraction(1)
    if rank:
        d, y = _back_substitute(rows, rank, rank)
        vec[:rank] = [-v / d for v in y]
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


@dataclass
class LinearODE:
    """Monic linear ODE y^(n) + a1 y^(n-1) + ... + an y = 0."""

    order: int
    coeffs: list  # [a1, ..., an]

    def __post_init__(self):
        if self.order < 1 or len(self.coeffs) != self.order:
            raise ShapeError("order must match the coefficient count")

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
        terms = [(False, _y_term(RatFunc(1), self.order))]
        for i, a in enumerate(self.coeffs, start=1):
            if a.is_zero():
                continue
            negative = a.num.lead() < 0
            terms.append((negative, _y_term(-a if negative else a, self.order - i)))
        return _signed_sum(terms) + " = 0"


def _y_term(mag: RatFunc, order: int) -> str:
    if order == 0:
        name = "y"
    elif order <= 2:
        name = "y" + "'" * order
    else:
        name = "y^(%d)" % order
    if mag == RatFunc(1):
        return name
    s = str(mag)
    if " + " in s or " - " in s:
        s = "(%s)" % s
    return "%s*%s" % (s, name)


@dataclass
class FundamentalSystem:
    """Tuple of field elements with nonvanishing Wronskian."""

    elems: list
    wronskian: RatFunc = field(init=False)

    def __post_init__(self):
        w = wronskian(self.elems)
        if w.is_zero():
            raise NotFundamental("Wronskian vanishes")
        self.wronskian = w


def ode_from_fundamental_system(fs: FundamentalSystem) -> LinearODE:
    """The monic ODE annihilating every element of the system.

    The coefficients c_j of y^(j) solve sum_j f^(j) c_j = -f^(n) over the
    elements f, one fraction-free solve on the transposed Wronsky matrix.
    """
    if fs.wronskian.is_zero():
        raise NotFundamental("Wronskian vanishes")
    rows = [list(col) + [col[-1].derive()] for col in zip(*wronsky_matrix(fs.elems))]
    return LinearODE(len(rows), _monic_coefficients(rows)[::-1])
