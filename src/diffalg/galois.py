"""Differential Galois groups of first-order extensions of Q(t).

Two classifiers: one for u' = a (the group is trivial when a has an
antiderivative in the field, the full additive group of constants when
not), one for u' = a*u (full multiplicative group when no power of the
extension collapses into the field; cyclic of order n when n is the least
exponent with f' = n a f solvable; trivial at n = 1).  Dimension (from the
kind) and transcendence degree (from the witness and size) agree, which
is the consistency statement the acceptance checks pin down.
"""

from __future__ import annotations

from enum import Enum

from .basefield import (RatFunc, _Record, antiderivative_in_field,
                        smallest_exponential_index)


class GroupKind(Enum):
    TRIVIAL = "trivial"
    ADDITIVE = "additive"
    MULTIPLICATIVE = "multiplicative"
    CYCLIC = "cyclic"
    FULL_GL = "general_linear"


class GaloisDescriptor(_Record):
    """Classification outcome.

    witness: antiderivative b (trivial integral case) or beta with
    beta' = n*a*beta (trivial exponential / cyclic cases).  n is the cyclic
    order, or the matrix size for the full general linear variant.
    """

    _fields = ("kind", "witness", "n")

    def __init__(self, kind: GroupKind, witness: RatFunc | None = None,
                 n: int | None = None):
        self.kind, self.witness, self.n = kind, witness, n

    @classmethod
    def trivial(cls, witness: RatFunc) -> "GaloisDescriptor":
        return cls(GroupKind.TRIVIAL, witness=witness)

    @classmethod
    def additive(cls) -> "GaloisDescriptor":
        return cls(GroupKind.ADDITIVE)

    @classmethod
    def multiplicative(cls) -> "GaloisDescriptor":
        return cls(GroupKind.MULTIPLICATIVE)

    @classmethod
    def cyclic(cls, n: int, beta: RatFunc) -> "GaloisDescriptor":
        if n < 2:
            raise ValueError("cyclic order must be at least 2")
        return cls(GroupKind.CYCLIC, witness=beta, n=n)

    @classmethod
    def full_general_linear(cls, n: int) -> "GaloisDescriptor":
        return cls(GroupKind.FULL_GL, n=n)

    def minimal_polynomial(self) -> str | None:
        """Symbolic minimal polynomial X^n - c*beta of the cyclic generator."""
        if self.kind is not GroupKind.CYCLIC:
            return None
        beta = str(self.witness)
        if " + " in beta or " - " in beta or "/" in beta:
            beta = "(%s)" % beta
        return "X^%d - c*%s" % (self.n, beta)


def classify_antiderivative_extension(a: RatFunc) -> GaloisDescriptor:
    """Group of K(u)/K for u' = a."""
    b = antiderivative_in_field(a)
    if b is not None:
        return GaloisDescriptor.trivial(b)
    return GaloisDescriptor.additive()


def classify_exponential_extension(a: RatFunc) -> GaloisDescriptor:
    """Group of K(u)/K for u' = a*u."""
    res = smallest_exponential_index(a)
    if res is None:
        return GaloisDescriptor.multiplicative()
    n, beta = res
    if n == 1:
        return GaloisDescriptor.trivial(beta)
    return GaloisDescriptor.cyclic(n, beta)


def descriptor_dimension(d: GaloisDescriptor) -> int:
    """Dimension of the identity component of the classified group."""
    if d.kind is GroupKind.TRIVIAL or d.kind is GroupKind.CYCLIC:
        return 0
    if d.kind is GroupKind.ADDITIVE or d.kind is GroupKind.MULTIPLICATIVE:
        return 1
    return d.n * d.n


def descriptor_trdeg(d: GaloisDescriptor) -> int:
    """Transcendence degree, read off the extension's data, not its kind:
    0 with an algebraic witness, n^2 for the generic GL(n) fundamental
    matrix, 1 for a first-order extension with no witness."""
    if d.witness is not None:
        return 0
    if d.n is not None:
        return d.n * d.n
    return 1
