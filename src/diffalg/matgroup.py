"""Algebraic matrix groups over Q and the GL(n) invariance witness.

A group of the catalog (the five groups the classification can produce)
is its label: membership tests the label's defining property exactly.
The defining set, polynomials in the n^2 entries (order-0 differential
polynomials, entry (i, j) being indeterminate i*n + j), is built from the
label only when it is read.

The invariance witness evaluates the coefficient ratios of the bordered
Wronskian operator in n differential indeterminates at a generic point,
before and after a constant linear substitution: each minor picks up the
same det(T) factor, so the ratios must agree.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cached_property, reduce
from fractions import Fraction

from .basefield import _add_ints, _Record
from .cleared import _clear
from .diffpoly import DerivVar, DiffPoly, _coeff, _var_name
from .errors import (
    DegeneratePoint,
    IncompleteAssignment,
    NotInCatalog,
    ShapeError,
    SingularTransform,
)
from .galois import GaloisDescriptor, GroupKind
from .wronskian import _cofactor_det, _det, _monic_solve


class ConstMatrix(_Record):
    """Square matrix of rationals.

    Row i is stored as ints over one positive denominator, rows[i] /
    dens[i], dens[i] the lcm of the row's entry denominators.  The pair is
    unique, so equality and hashing read it, and det eliminates the ints.
    entries, the rows of Fraction entries, is built on each read.
    """

    _fields = ("rows", "dens")

    def __init__(self, rows: tuple, dens: tuple):
        self.rows, self.dens = rows, dens

    @classmethod
    def from_rows(cls, rows) -> "ConstMatrix":
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ShapeError("matrix must be square and nonempty")
        ints, dens = [], []
        for r in rows:
            r = [v if type(v) is int else Fraction(v) for v in r]
            den = math.lcm(*[v.denominator for v in r])
            ints.append(tuple([v.numerator * (den // v.denominator) for v in r]))
            dens.append(den)
        return cls(tuple(ints), tuple(dens))

    @classmethod
    def identity(cls, n: int) -> "ConstMatrix":
        return cls.from_rows([[1 if i == j else 0 for j in range(n)]
                              for i in range(n)])

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def entries(self) -> tuple:
        return tuple([tuple([Fraction(v, d) for v in row])
                      for row, d in zip(self.rows, self.dens)])

    def det(self) -> Fraction:
        """det of the int rows over Z, divided by the product of dens."""
        return Fraction(_det(self.rows), math.prod(self.dens))


class GroupLabel(Enum):
    GENERAL_LINEAR = "general_linear"
    SPECIAL_LINEAR = "special_linear"
    UNIPOTENT_ADDITIVE = "unipotent_additive"
    DIAGONAL_MULTIPLICATIVE = "diagonal_multiplicative"
    ROOTS_OF_UNITY = "roots_of_unity"


class AlgebraicMatrixGroup(_Record):
    """A catalog group, described by its label (and the order k of mu<k>).

    defining_set is built only when read: det - 1 has n! terms, and k may
    have thousands of digits.  Membership never reads it.
    """

    _fields = ("n", "label", "unity_order")

    def __init__(self, n: int, label: GroupLabel | None, unity_order: int | None = None):
        self.n, self.label, self.unity_order = n, label, unity_order

    @cached_property
    def defining_set(self) -> tuple:
        if self.label in (GroupLabel.GENERAL_LINEAR, GroupLabel.DIAGONAL_MULTIPLICATIVE):
            return ()
        n = self.n
        x = [[DiffPoly.from_var(DerivVar(0, i * n + j), n * n) for j in range(n)]
             for i in range(n)]
        one = DiffPoly.const(1, n * n)
        if self.label is GroupLabel.SPECIAL_LINEAR:
            return (_cofactor_det(x) - one,)
        if self.label is GroupLabel.UNIPOTENT_ADDITIVE:
            return (x[0][0] - one, x[1][1] - one, x[1][0])
        if self.label is GroupLabel.ROOTS_OF_UNITY:
            return (x[0][0] ** self.unity_order - one,)
        raise NotInCatalog("no defining set for label %r" % (self.label,))


def catalog_group(label: GroupLabel, n: int, unity_order: int | None = None) -> AlgebraicMatrixGroup:
    """The five stock groups; sizes outside each embedding are rejected."""
    if n < 1:
        raise NotInCatalog("size must be positive")
    if label is GroupLabel.UNIPOTENT_ADDITIVE and n != 2:
        raise NotInCatalog("the unipotent embedding is 2x2")
    if label is GroupLabel.DIAGONAL_MULTIPLICATIVE and n != 1:
        raise NotInCatalog("the multiplicative torus here is 1x1")
    if label is GroupLabel.ROOTS_OF_UNITY:
        if n != 1:
            raise NotInCatalog("roots of unity embed as 1x1")
        if unity_order is None or unity_order < 1:
            raise NotInCatalog("roots of unity need a positive order")
        return AlgebraicMatrixGroup(1, label, unity_order)
    if not isinstance(label, GroupLabel):
        raise NotInCatalog("unknown label %r" % (label,))
    return AlgebraicMatrixGroup(n, label)


def group_contains(group: AlgebraicMatrixGroup, m: ConstMatrix) -> bool:
    """The defining property of the group's label holds at m."""
    if m.n != group.n:
        raise ShapeError("matrix size %d, group size %d" % (m.n, group.n))
    if group.label is GroupLabel.UNIPOTENT_ADDITIVE:
        (a, _), (c, d) = m.rows
        return a == m.dens[0] and d == m.dens[1] and c == 0
    det = m.det()
    if group.label is GroupLabel.ROOTS_OF_UNITY:
        # z^k = 1 over Q only for z = 1, or z = -1 with k even: no z^k
        return det == 1 or (det == -1 and group.unity_order % 2 == 0)
    if group.label is GroupLabel.SPECIAL_LINEAR:
        return det == 1
    if group.label in (GroupLabel.GENERAL_LINEAR, GroupLabel.DIAGONAL_MULTIPLICATIVE):
        return det != 0
    raise NotInCatalog("membership is only decided for catalog groups")


def identity_component_dimension(group: AlgebraicMatrixGroup) -> int:
    """Dimension of the connected component of the identity, catalog only."""
    if group.label is GroupLabel.GENERAL_LINEAR:
        return group.n * group.n
    if group.label is GroupLabel.SPECIAL_LINEAR:
        return group.n * group.n - 1
    if group.label is GroupLabel.UNIPOTENT_ADDITIVE:
        return 1
    if group.label is GroupLabel.DIAGONAL_MULTIPLICATIVE:
        return 1
    if group.label is GroupLabel.ROOTS_OF_UNITY:
        return 0
    raise NotInCatalog("dimension is only tabulated for catalog groups")


def descriptor_to_matrix_group(d: GaloisDescriptor) -> AlgebraicMatrixGroup:
    """Catalog realization of a classification outcome."""
    if d.kind is GroupKind.TRIVIAL:
        return catalog_group(GroupLabel.ROOTS_OF_UNITY, 1, 1)
    if d.kind is GroupKind.ADDITIVE:
        return catalog_group(GroupLabel.UNIPOTENT_ADDITIVE, 2)
    if d.kind is GroupKind.MULTIPLICATIVE:
        return catalog_group(GroupLabel.DIAGONAL_MULTIPLICATIVE, 1)
    if d.kind is GroupKind.CYCLIC:
        return catalog_group(GroupLabel.ROOTS_OF_UNITY, 1, d.n)
    return catalog_group(GroupLabel.GENERAL_LINEAR, d.n)


def wronskian_minor_polynomials(n: int) -> list:
    """Minors of the bordered Wronskian in n differential indeterminates.

    Rows are derivative orders 0..n of x_1..x_n; minor j deletes order j.
    Entry j = n is the plain Wronskian.  Coefficient of y^(j) in the
    bordered determinant is (up to sign) minor j.
    """
    rows = [[DiffPoly.from_var(DerivVar(order, i), n) for i in range(n)]
            for order in range(n + 1)]
    return [_cofactor_det([rows[r] for r in range(n + 1) if r != j])
            for j in range(n + 1)]


def gl_invariance_witness(n: int, transform: ConstMatrix, generic_point: dict) -> bool:
    """Coefficient ratios of the bordered Wronskian survive the substitution.

    generic_point maps DerivVar(order, indeterminate) to RatFunc for orders
    0..n; it must keep the Wronskian nonzero.  Substituting T and then
    evaluating at p equals evaluating at p'_i = sum_k T[i][k] p_k, so the
    ratios minor_j / W are read (up to sign) off one solve at p and one
    at p', with no polynomial expanded.  The point is cleared once over
    Z[t] and T's int rows act on the numerators: scaling an equation, as
    by a row's denominator, leaves a solve unchanged.
    """
    if transform.n != n:
        raise ShapeError("transform size %d, expected %d" % (transform.n, n))
    if transform.det() == 0:
        raise SingularTransform("transform must be invertible")
    try:
        point = {(i, order): _coeff(generic_point[DerivVar(order, i)])
                 for i in range(n) for order in range(n + 1)}
    except KeyError as exc:
        raise IncompleteAssignment("no value for %s" % _var_name(exc.args[0], n)) from None
    cleared = _clear(point)[0]
    rows = [[cleared[i, order] for order in range(n + 1)] for i in range(n)]
    moved = [[reduce(_add_ints, [[c * x for x in row[order]]
                                 for c, row in zip(t_row, rows) if c], [])
              for order in range(n + 1)] for t_row in transform.rows]
    before = _monic_solve(rows)
    if before is None:
        raise DegeneratePoint("Wronskian vanishes at the generic point")
    after = _monic_solve(moved)
    if after is None:
        raise DegeneratePoint("transformed Wronskian vanishes at the generic point")
    return before[1] == after[1]
