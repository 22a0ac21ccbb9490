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

from enum import Enum
from functools import cached_property
from fractions import Fraction

from .basefield import _Record
from .diffpoly import DerivVar, DiffPoly, _coeff, _var_name
from .errors import (
    DegeneratePoint,
    IncompleteAssignment,
    NonMemberSample,
    NotInCatalog,
    ShapeError,
    SingularTransform,
)
from .galois import GaloisDescriptor, GroupKind
from .wronskian import (_cofactor_det, _det, _monic_coefficients, _solve,
                        apply_constant_matrix)


class ConstMatrix(_Record):
    """Square matrix of rationals."""

    _fields = ("entries",)

    def __init__(self, entries: tuple):
        self.entries = entries

    @classmethod
    def from_rows(cls, rows) -> "ConstMatrix":
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ShapeError("matrix must be square and nonempty")
        return cls(tuple([tuple([Fraction(v) for v in r]) for r in rows]))

    @classmethod
    def identity(cls, n: int) -> "ConstMatrix":
        return cls.from_rows([[1 if i == j else 0 for j in range(n)]
                              for i in range(n)])

    @property
    def n(self) -> int:
        return len(self.entries)

    def det(self) -> Fraction:
        return _det([list(row) for row in self.entries])

    def inverse(self) -> "ConstMatrix":
        n = self.n
        solved = _solve([list(row) + [Fraction(int(i == j)) for j in range(n)]
                         for i, row in enumerate(self.entries)])
        if solved is None:
            raise SingularTransform("matrix is singular")
        d, y = solved
        return ConstMatrix.from_rows([[v / d for v in row] for row in y])

    def __matmul__(self, other: "ConstMatrix") -> "ConstMatrix":
        if self.n != other.n:
            raise ShapeError("size mismatch")
        n = self.n
        return ConstMatrix.from_rows(
            [[sum(self.entries[i][k] * other.entries[k][j] for k in range(n))
              for j in range(n)] for i in range(n)])


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
        (a, _), (c, d) = m.entries
        return a == d == 1 and c == 0
    det = m.det()
    if group.label is GroupLabel.ROOTS_OF_UNITY:
        # z^k = 1 over Q only for z = 1, or z = -1 with k even: no z^k
        return det == 1 or (det == -1 and group.unity_order % 2 == 0)
    if group.label is GroupLabel.SPECIAL_LINEAR:
        return det == 1
    if group.label in (GroupLabel.GENERAL_LINEAR, GroupLabel.DIAGONAL_MULTIPLICATIVE):
        return det != 0
    raise NotInCatalog("membership is only decided for catalog groups")


def group_closure_sample_check(group: AlgebraicMatrixGroup, samples) -> bool:
    """Products and inverses of member samples stay members."""
    for s in samples:
        if not group_contains(group, s):
            raise NonMemberSample("sample outside the group")
    for a in samples:
        if not group_contains(group, a.inverse()):
            return False
        for b in samples:
            if not group_contains(group, a @ b):
                return False
    return True


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
    at p', with no polynomial expanded.
    """
    if transform.n != n:
        raise ShapeError("transform size %d, expected %d" % (transform.n, n))
    if transform.det() == 0:
        raise SingularTransform("transform must be invertible")
    try:
        rows = [[_coeff(generic_point[DerivVar(order, i)]) for order in range(n + 1)]
                for i in range(n)]
    except KeyError as exc:
        raise IncompleteAssignment("no value for %s" % _var_name(exc.args[0], n)) from None
    moved = [apply_constant_matrix(col, transform.entries) for col in zip(*rows)]
    before = _monic_coefficients(rows)
    if before is None:
        raise DegeneratePoint("Wronskian vanishes at the generic point")
    after = _monic_coefficients([list(row) for row in zip(*moved)])
    if after is None:
        raise DegeneratePoint("transformed Wronskian vanishes at the generic point")
    return before == after
