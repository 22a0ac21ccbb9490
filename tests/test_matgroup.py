import io
import math
from fractions import Fraction
from random import Random

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from conftest import generic_wronskian_point, random_invertible, random_ratfunc
from oracles import NonMemberSample, group_closure_sample_check, inverse, matmul
from diffalg import cli
from diffalg.basefield import Poly, RatFunc
from diffalg.diffpoly import DerivVar, DiffPoly
from diffalg.errors import (
    DegeneratePoint,
    IncompleteAssignment,
    NotInCatalog,
    ShapeError,
    SingularTransform,
)
from diffalg.galois import GaloisDescriptor
from diffalg.matgroup import (
    AlgebraicMatrixGroup,
    ConstMatrix,
    GroupLabel,
    catalog_group,
    descriptor_to_matrix_group,
    gl_invariance_witness,
    group_contains,
    identity_component_dimension,
    wronskian_minor_polynomials,
)
from diffalg.parsing import parse_matrix
from diffalg.wronskian import _det, apply_constant_matrix, wronskian

M = ConstMatrix.from_rows


def test_const_matrix_basics():
    a = M([[1, 2], [3, 4]])
    assert a.det() == -2
    assert matmul(inverse(a), a) == ConstMatrix.identity(2)
    assert M([[0, 1], [1, 0]]).det() == -1
    with pytest.raises(SingularTransform):
        inverse(M([[1, 2], [2, 4]]))
    with pytest.raises(ShapeError):
        M([[1, 2]])


def test_catalog_defining_sets():
    assert catalog_group(GroupLabel.GENERAL_LINEAR, 3).defining_set == ()
    e = [DiffPoly.from_var(DerivVar(0, k), 4) for k in range(4)]  # m00, m01, m10, m11
    one = DiffPoly.const(1, 4)
    assert catalog_group(GroupLabel.SPECIAL_LINEAR, 2).defining_set == \
        (e[0] * e[3] - e[1] * e[2] - one,)
    assert catalog_group(GroupLabel.UNIPOTENT_ADDITIVE, 2).defining_set == \
        (e[0] - one, e[3] - one, e[2])
    assert catalog_group(GroupLabel.DIAGONAL_MULTIPLICATIVE, 1).defining_set == ()
    x = DiffPoly.from_var(DerivVar(0, 0), 1)
    assert catalog_group(GroupLabel.ROOTS_OF_UNITY, 1, 4).defining_set == \
        (x ** 4 - DiffPoly.const(1, 1),)
    with pytest.raises(NotInCatalog):
        catalog_group(GroupLabel.UNIPOTENT_ADDITIVE, 3)
    with pytest.raises(NotInCatalog):
        catalog_group(GroupLabel.DIAGONAL_MULTIPLICATIVE, 2)
    with pytest.raises(NotInCatalog):
        catalog_group(GroupLabel.ROOTS_OF_UNITY, 1)


def test_membership():
    gl2 = catalog_group(GroupLabel.GENERAL_LINEAR, 2)
    assert group_contains(gl2, M([[1, 1], [0, 1]]))
    assert not group_contains(gl2, M([[1, 1], [1, 1]]))  # singular

    mu2 = catalog_group(GroupLabel.ROOTS_OF_UNITY, 1, 2)
    assert group_contains(mu2, M([[-1]]))
    assert not group_contains(mu2, M([[2]]))
    mu3 = catalog_group(GroupLabel.ROOTS_OF_UNITY, 1, 3)
    assert group_contains(mu3, M([[1]]))
    assert not group_contains(mu3, M([[-1]]))

    sl2 = catalog_group(GroupLabel.SPECIAL_LINEAR, 2)
    assert not group_contains(sl2, M([[2, 0], [0, 1]]))
    assert group_contains(sl2, M([[0, 1], [-1, 0]]))

    ga = catalog_group(GroupLabel.UNIPOTENT_ADDITIVE, 2)
    assert group_contains(ga, M([[1, 5], [0, 1]]))
    assert not group_contains(ga, M([[1, 0], [5, 1]]))
    with pytest.raises(ShapeError):
        group_contains(ga, M([[1]]))

    # each label is decided from its defining property; the defining set
    # is the oracle: invertible and every polynomial vanishes at the entries
    rng = Random(64)
    groups = ([catalog_group(GroupLabel.GENERAL_LINEAR, n) for n in (1, 2, 3)]
              + [catalog_group(GroupLabel.SPECIAL_LINEAR, n) for n in (2, 3)]
              + [ga, catalog_group(GroupLabel.DIAGONAL_MULTIPLICATIVE, 1)]
              + [catalog_group(GroupLabel.ROOTS_OF_UNITY, 1, k) for k in range(1, 7)])
    for group in groups:
        for m in _boundary_shapes(rng, group.n) + [_random_matrix(rng, group.n)
                                                   for _ in range(20)]:
            assert group_contains(group, m) == _by_equations(group, m), (group, m)


def _by_equations(group: AlgebraicMatrixGroup, m: ConstMatrix) -> bool:
    n = m.n
    point = {DerivVar(0, i * n + j): RatFunc(m.entries[i][j])
             for i in range(n) for j in range(n)}
    return m.det() != 0 and all(p.evaluate(point).is_zero() for p in group.defining_set)


def _random_matrix(rng: Random, n: int) -> ConstMatrix:
    return M([[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
              for _ in range(n)])


def _boundary_shapes(rng: Random, n: int) -> list:
    """Matrices on and next to each label's defining condition."""
    if n == 1:
        return [M([[z]]) for z in (-2, -1, Fraction(-1, 2), 0, Fraction(1, 2), 1,
                                   Fraction(3, 2))]
    out = [ConstMatrix.identity(n), M([[1] * n] * n)]  # the second is singular
    for _ in range(3):
        g = _random_sl(rng, n)
        out.append(g)
        for scale in (-1, 2, Fraction(1, 3)):
            out.append(M([[v * scale for v in g.entries[0]]] + list(g.entries[1:])))
    if n == 2:
        for a, b, c, d in [(1, Fraction(5, 2), 0, 1), (1, 0, 3, 1), (2, 0, 0, Fraction(1, 2)),
                           (1, 0, 0, 2), (-1, 4, 0, -1), (1, 1, 0, -1), (1, 2, 2, 4)]:
            out.append(M([[a, b], [c, d]]))
    return out


def test_membership_builds_no_equation(monkeypatch):
    # every label is decided from the matrix alone, in the library and the CLI
    def refuse(*args, **kwargs):
        raise AssertionError("a defining polynomial was built or evaluated")
    for name in ("evaluate", "__pow__", "from_var"):
        monkeypatch.setattr(DiffPoly, name, refuse)
    cases = [(catalog_group(GroupLabel.GENERAL_LINEAR, 2), "gl2", "1,1;0,1", True),
             (catalog_group(GroupLabel.SPECIAL_LINEAR, 3), "sl3",
              "1,0,0;0,1,0;0,0,-1", False),
             (catalog_group(GroupLabel.UNIPOTENT_ADDITIVE, 2), "unipotent",
              "1,5/2;0,1", True),
             (catalog_group(GroupLabel.UNIPOTENT_ADDITIVE, 2), "unipotent",
              "1,0;3,1", False),
             (catalog_group(GroupLabel.DIAGONAL_MULTIPLICATIVE, 1), "gm", "-2/3", True),
             (catalog_group(GroupLabel.ROOTS_OF_UNITY, 1, 4), "mu4", "-1", True)]
    for group, name, literal, member in cases:
        assert group_contains(group, parse_matrix(literal)) is member
        out, err = io.StringIO(), io.StringIO()
        assert cli.run(["group-check", name, literal], out, err) == 0
        assert (out.getvalue(), err.getvalue()) == ("%s\n" % str(member).lower(), "")


def test_roots_of_unity_membership_builds_no_power(monkeypatch):
    # x^k - 1 is built only when defining_set is read, so an order of
    # 4001 digits is decided at once
    def no_power(self, e):
        raise AssertionError("x^k was built")
    monkeypatch.setattr(DiffPoly, "__pow__", no_power)
    k = 10 ** 4000
    mu = catalog_group(GroupLabel.ROOTS_OF_UNITY, 1, k)
    assert group_contains(mu, M([[-1]]))
    assert not group_contains(mu, M([[Fraction(3, 2)]]))
    odd = catalog_group(GroupLabel.ROOTS_OF_UNITY, 1, k + 1)
    assert group_contains(odd, M([[1]])) and not group_contains(odd, M([[-1]]))
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(["group-check", "mu%d" % k, "-1"], out, err) == 0
    assert out.getvalue() == "true\n"
    with pytest.raises(AssertionError):
        mu.defining_set


def test_closure_examples():
    ga = catalog_group(GroupLabel.UNIPOTENT_ADDITIVE, 2)
    assert group_closure_sample_check(ga, [M([[1, 2], [0, 1]]), M([[1, 3], [0, 1]])])
    mu2 = catalog_group(GroupLabel.ROOTS_OF_UNITY, 1, 2)
    assert group_closure_sample_check(mu2, [M([[1]]), M([[-1]])])
    sl2 = catalog_group(GroupLabel.SPECIAL_LINEAR, 2)
    assert group_closure_sample_check(sl2, [M([[0, 1], [-1, 0]])])
    with pytest.raises(NonMemberSample):
        group_closure_sample_check(sl2, [M([[2, 0], [0, 1]])])


def _random_sl(rng: Random, n: int) -> ConstMatrix:
    # product of elementary shears keeps determinant 1
    out = ConstMatrix.identity(n)
    for _ in range(4):
        i, j = rng.randint(0, n - 1), rng.randint(0, n - 1)
        if i == j:
            continue
        rows = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
        rows[i][j] = Fraction(rng.randint(-4, 4))
        out = matmul(out, M(rows))
    return out


def test_closure_random_samples():
    rng = Random(60)
    gl2 = catalog_group(GroupLabel.GENERAL_LINEAR, 2)
    samples = [random_invertible(rng, 2) for _ in range(8)]
    assert group_closure_sample_check(gl2, samples)

    sl3 = catalog_group(GroupLabel.SPECIAL_LINEAR, 3)
    assert group_closure_sample_check(sl3, [_random_sl(rng, 3) for _ in range(6)])

    ga = catalog_group(GroupLabel.UNIPOTENT_ADDITIVE, 2)
    shears = [M([[1, Fraction(rng.randint(-9, 9), rng.randint(1, 3))], [0, 1]])
              for _ in range(8)]
    assert group_closure_sample_check(ga, shears)

    gm = catalog_group(GroupLabel.DIAGONAL_MULTIPLICATIVE, 1)
    units = [M([[Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))]])
             for _ in range(8)]
    assert group_closure_sample_check(gm, units)

    mu4 = catalog_group(GroupLabel.ROOTS_OF_UNITY, 1, 4)
    assert group_closure_sample_check(mu4, [M([[1]]), M([[-1]])])


def test_identity_component_dimensions():
    assert identity_component_dimension(catalog_group(GroupLabel.GENERAL_LINEAR, 2)) == 4
    assert identity_component_dimension(catalog_group(GroupLabel.SPECIAL_LINEAR, 2)) == 3
    assert identity_component_dimension(catalog_group(GroupLabel.UNIPOTENT_ADDITIVE, 2)) == 1
    assert identity_component_dimension(catalog_group(GroupLabel.DIAGONAL_MULTIPLICATIVE, 1)) == 1
    assert identity_component_dimension(catalog_group(GroupLabel.ROOTS_OF_UNITY, 1, 6)) == 0
    adhoc = AlgebraicMatrixGroup(2, None)
    with pytest.raises(NotInCatalog):
        identity_component_dimension(adhoc)


def test_descriptor_mapping():
    t = RatFunc(Poly.t())
    pairs = [
        (GaloisDescriptor.trivial(t), GroupLabel.ROOTS_OF_UNITY, 1),
        (GaloisDescriptor.additive(), GroupLabel.UNIPOTENT_ADDITIVE, None),
        (GaloisDescriptor.multiplicative(), GroupLabel.DIAGONAL_MULTIPLICATIVE, None),
        (GaloisDescriptor.cyclic(4, t), GroupLabel.ROOTS_OF_UNITY, 4),
        (GaloisDescriptor.full_general_linear(3), GroupLabel.GENERAL_LINEAR, None),
    ]
    for d, label, unity in pairs:
        g = descriptor_to_matrix_group(d)
        assert g.label is label
        if unity is not None:
            assert g.unity_order == unity


def test_special_linear_wronskian_bridge():
    # det 1 preserves the Wronskian, anything else rescales it
    rng = Random(61)
    sl2 = catalog_group(GroupLabel.SPECIAL_LINEAR, 2)
    for _ in range(20):
        elems = [random_ratfunc(rng, 2, 4) for _ in range(2)]
        w = wronskian(elems)
        if w.is_zero():
            continue
        c = _random_sl(rng, 2)
        assert group_contains(sl2, c)
        assert wronskian(apply_constant_matrix(elems, c.entries)) == w
        c2 = random_invertible(rng, 2)
        scaled = wronskian(apply_constant_matrix(elems, c2.entries))
        assert (scaled == w) == (c2.det() == 1)


def test_gl_witness_examples():
    pt = {}
    from diffalg.diffpoly import DerivVar

    for i, f in enumerate([RatFunc(Poly.t()), RatFunc(Poly((0, 0, 1)))]):
        cur = f
        for order in range(3):
            pt[DerivVar(order, i)] = cur
            cur = cur.derive()
    assert gl_invariance_witness(2, ConstMatrix.identity(2), pt)
    assert gl_invariance_witness(2, M([[1, 1], [0, 1]]), pt)
    assert gl_invariance_witness(2, M([[2, 0], [0, 3]]), pt)
    with pytest.raises(SingularTransform):
        gl_invariance_witness(2, M([[1, 1], [1, 1]]), pt)
    degenerate = {k: RatFunc(1) if k.order == 0 else RatFunc(0) for k in pt}
    with pytest.raises(DegeneratePoint):
        gl_invariance_witness(2, ConstMatrix.identity(2), degenerate)
    partial = {k: v for k, v in pt.items() if k != DerivVar(2, 1)}
    with pytest.raises(IncompleteAssignment, match="no value for x2''$"):
        gl_invariance_witness(2, ConstMatrix.identity(2), partial)


def test_gl_witness_random_trials():
    rng = Random(62)
    for n in (2, 3):
        for _ in range(6):
            t = random_invertible(rng, n)
            pt = generic_wronskian_point(rng, n)
            assert gl_invariance_witness(n, t, pt)


def test_minors_transform_symbolically():
    # every bordered minor picks up exactly det(T) under the substitution
    rng = Random(63)
    for n in (2, 3):
        minors = wronskian_minor_polynomials(n)
        for _ in range(3):
            t = random_invertible(rng, n)
            det = t.det()
            rows = [list(r) for r in t.entries]
            for m in minors:
                assert m.substitute_linear(rows) == m * RatFunc(det)


# integer rows: det and membership against the Fraction elimination,
# sympy and the defining equations

_BIG = 2 ** 70
_entries = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
    st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, _BIG)))


@st.composite
def _matrices(draw, sizes=st.integers(1, 8)):
    """Square rows of ints and Fractions, some with a zero or a repeated
    row."""
    n = draw(sizes)
    rows = draw(st.lists(st.lists(_entries, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    kind = draw(st.sampled_from(("plain", "zero", "repeated")))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if kind == "zero":
        rows[i] = [0] * n
    elif kind == "repeated":
        rows[i] = list(rows[j])
    return rows


def _rational(v) -> sympy.Rational:
    v = Fraction(v)
    return sympy.Rational(v.numerator, v.denominator)


@settings(max_examples=60, deadline=None)
@given(_matrices())
@example([[Fraction(_BIG + 1, _BIG), -_BIG], [Fraction(1, _BIG), 1]])
@example([[0] * 8] * 8)
def test_det_on_integer_rows_against_fraction_elimination_and_sympy(rows):
    m = M(rows)
    det = m.det()
    assert type(det) is Fraction
    # the elimination the integer rows replaced, over Q
    assert det == _det([[Fraction(v) for v in r] for r in rows])
    expected = sympy.Matrix([[_rational(v) for v in r] for r in rows]).det()
    assert det == Fraction(int(expected.p), int(expected.q))
    # each row is stored over the lcm of its denominators
    for r, ints, den in zip(rows, m.rows, m.dens):
        assert all(type(v) is int for v in ints)
        assert den == math.lcm(*[Fraction(v).denominator for v in r])
        assert [Fraction(v, den) for v in ints] == [Fraction(v) for v in r]
    assert m.entries == tuple([tuple([Fraction(v) for v in r]) for r in rows])


def test_integer_det_builds_one_fraction():
    literal = ";".join(",".join(str((7 * i + 3 * j * j) % 11 - 5) for j in range(6))
                       for i in range(6))
    made = []
    new = Fraction.__dict__["__new__"]

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new.__func__(cls, *args, **kwargs)
    Fraction.__new__ = staticmethod(counting)
    try:
        m = parse_matrix(literal)
        det = m.det()
    finally:
        Fraction.__new__ = new
    # the parse builds none, the determinant only its value
    assert len(made) <= 1
    assert det == sympy.Matrix([[int(v) for v in r.split(",")]
                                for r in literal.split(";")]).det()


_GROUPS = ([catalog_group(GroupLabel.GENERAL_LINEAR, n) for n in (1, 2, 3)]
           + [catalog_group(GroupLabel.SPECIAL_LINEAR, n) for n in (1, 2, 3)]
           + [catalog_group(GroupLabel.UNIPOTENT_ADDITIVE, 2),
              catalog_group(GroupLabel.DIAGONAL_MULTIPLICATIVE, 1)]
           + [catalog_group(GroupLabel.ROOTS_OF_UNITY, 1, k) for k in (1, 2, 3, 4)])


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_GROUPS).flatmap(lambda g: st.tuples(
    st.just(g), _matrices(st.just(g.n)),
    st.sampled_from(("as drawn", "det 1", "unipotent", "negated")))))
def test_membership_with_fractional_entries_against_equations(case):
    group, rows, shape = case
    n = group.n
    if shape == "det 1":
        # dividing one row by the determinant makes a member of sl<n>
        det = M(rows).det()
        if det:
            rows[0] = [Fraction(v) / det for v in rows[0]]
    elif shape == "unipotent" and n == 2:
        rows = [[1, rows[0][1]], [0, 1]]
    elif shape == "negated" and n == 1:
        rows = [[-1]] if rows[0][0] else [[1]]
    m = M(rows)
    assert group_contains(group, m) == _by_equations(group, m), (group, rows)
