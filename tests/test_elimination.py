"""Differential tests of the fraction-free elimination kernel.

Each quantity the kernel computes is checked against an independent
route: sympy's determinant, the Leibniz expansion, the symbolic
substitute-then-evaluate path, and Gauss-Jordan elimination over Q.
"""

import importlib
from fractions import Fraction
from itertools import permutations

import sympy
from hypothesis import assume, example, given, settings, strategies as st

from oracles import inverse, matmul
from diffalg.basefield import Poly, RatFunc, poly_gcd
from diffalg.cleared import _clear
from diffalg.diffpoly import DerivVar
from diffalg.matgroup import (
    ConstMatrix,
    GroupLabel,
    catalog_group,
    gl_invariance_witness,
    group_contains,
    wronskian_minor_polynomials,
)
from diffalg.parsing import parse_ratfunc
from diffalg.wronskian import (
    FundamentalSystem,
    _bareiss,
    _cofactor_det,
    _det,
    _kernel_vector,
    _kronecker,
    _monic_solve,
    _poly_det_bareiss,
    _same,
    _sizes,
    _solve,
    _wronsky_rows,
    _z_image,
    dependence_certificate,
    ode_from_fundamental_system,
    wronskian,
)

_T = sympy.Symbol("t")

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)
small_ints = st.integers(-3, 3).map(Fraction)
polys = st.lists(st.integers(-4, 4), max_size=3).map(Poly)
nonzero_polys = polys.filter(bool)
ratfuncs = st.builds(RatFunc, polys, nonzero_polys)


def _square(entries, lo, hi):
    return st.integers(lo, hi).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                           min_size=n, max_size=n))


def _sympy_poly(p: Poly):
    return sum(sympy.Rational(c.numerator, c.denominator) * _T**k
               for k, c in enumerate(p.coeffs))


@settings(max_examples=80, deadline=None)
@given(st.one_of(_square(rationals, 1, 6), _square(small_ints, 1, 6)))
def test_fraction_det_and_inverse_against_sympy(rows):
    m = ConstMatrix.from_rows(rows)
    expected = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                              for v in r] for r in rows]).det()
    det = m.det()
    assert det == Fraction(int(expected.p), int(expected.q))
    if det:
        assert matmul(inverse(m), m) == ConstMatrix.identity(m.n)
        # the solve's determinant carries the sign of its row swaps
        assert _solve([list(r) + [Fraction(1)] for r in rows])[0] == det


@settings(max_examples=60, deadline=None)
@given(_square(rationals, 1, 5))
def test_cofactor_det_against_sympy(rows):
    expected = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                              for v in r] for r in rows]).det()
    assert _cofactor_det(rows) == Fraction(int(expected.p), int(expected.q))


@settings(max_examples=40, deadline=None)
@given(_square(polys, 1, 4))
def test_poly_det_against_sympy(rows):
    expected = sympy.Matrix([[_sympy_poly(p) for p in r] for r in rows]).det()
    got = _det(rows)
    assert sympy.expand(_sympy_poly(got) - expected) == 0


# integer polynomials for the elimination over Z: zero entries, negative
# leads, coefficients up to 2^200, and entries B*(1 + t + ... + t^d) whose
# coefficients all share a sign, so that minors come near their bound
_big = st.integers(-2**200, 2**200)
_int_polys = st.one_of(
    st.just(Poly()),
    st.lists(st.one_of(st.integers(-9, 9), _big), min_size=1, max_size=5).map(Poly),
    st.builds(lambda b, d: Poly([b] * (d + 1)), _big.filter(bool), st.integers(0, 4)))


@st.composite
def _deficient(draw, entries):
    """An n x (n+1) matrix, n <= 6; some have a zero row or a row that is
    a multiple of another, so that their left n x n part is singular."""
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entries, min_size=n + 1, max_size=n + 1),
                         min_size=n, max_size=n))
    kind = draw(st.sampled_from(["full", "zero", "multiple"]))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if kind == "zero":
        rows[i] = [Poly()] * (n + 1)
    elif kind == "multiple" and i != j:
        c = draw(entries)
        rows[i] = [c * v for v in rows[j]]
    return rows


_HADAMARD = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]


@settings(max_examples=80, deadline=None)
@given(_deficient(_int_polys))
# det = 16 * 2^800 * (1 + t + ... + t^4)^4: its largest coefficient,
# 1360 * 2^800, is within 7 bits of the bound 20^4 * 2^800
@example([[Poly([h << 200] * 5) for h in row] + [Poly([1 << 200] * 5)]
          for row in _HADAMARD])
def test_packed_elimination_against_poly_elimination(aug):
    # elimination over Z at t = 2^s, on the entries as int lists, reads
    # back what _bareiss gives over Z[t] (Poly), the reference: the
    # determinant, and the solve's determinant and Cramer numerators
    # (None when singular)
    n = len(aug)
    square = [row[:n] for row in aug]
    eliminated, rank = _bareiss(square, n)
    det = eliminated[min(rank, n - 1)][min(rank, n - 1)]
    ints = [[[int(c) for c in p.coeffs] for p in row] for row in aug]
    square_ints = [row[:n] for row in ints]
    rows, read = _kronecker(square_ints, *_sizes(square_ints)[:2])
    assert read(_det(rows)) == det == _poly_det_bareiss(square_ints)
    rows, read = _kronecker(ints, *_sizes(ints)[:2])
    solved, expected = _solve(rows), _solve(aug)
    if expected is None:
        assert solved is None and not det
    else:
        d, y = solved
        assert (read(d), [[read(v) for v in ys] for ys in y]) == expected


def test_sparse_high_degree_rows_stay_in_poly():
    # packed, t^281 would cost 281*s bits per entry
    elems = [RatFunc(Poly.t())] + [RatFunc(Poly([0] * (41 + 40 * j) + [1]))
                                    for j in range(7)]
    rows, _scale = _wronsky_rows(elems, 7)
    assert _z_image(rows)[1] is _same


_SL = {n: catalog_group(GroupLabel.SPECIAL_LINEAR, n) for n in range(1, 5)}


@settings(max_examples=60, deadline=None)
@given(_square(small_ints, 1, 4), st.booleans())
def test_special_linear_against_defining_polynomial(rows, rescale):
    m = ConstMatrix.from_rows(rows)
    det = m.det()
    if rescale and det:
        # dividing one row by the determinant makes a member
        m = ConstMatrix.from_rows([[v / det for v in rows[0]]] + rows[1:])
    group = _SL[m.n]
    point = {DerivVar(0, i * m.n + j): RatFunc(m.entries[i][j])
             for i in range(m.n) for j in range(m.n)}
    (poly,) = group.defining_set
    expected = m.det() != 0 and poly.evaluate(point).is_zero()
    assert group_contains(group, m) == expected


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(st.lists(ratfuncs, min_size=n + 1, max_size=n + 1),
             min_size=n, max_size=n),
    st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
             min_size=n, max_size=n))))
def test_witness_ratios_against_substitution(data):
    rows, transform = data
    n = len(rows)
    t = ConstMatrix.from_rows(transform)
    assume(t.det() != 0)
    point = {DerivVar(order, i): rows[i][order]
             for i in range(n) for order in range(n + 1)}
    moved = [[sum((c * r[order] for c, r in zip(t_row, rows)), RatFunc(0))
              for order in range(n + 1)] for t_row in t.entries]
    minors = wronskian_minor_polynomials(n)
    matrix = [list(r) for r in t.entries]
    for at, subst in ((rows, None), (moved, matrix)):
        values = [m.evaluate(point) if subst is None
                  else m.substitute_linear(subst).evaluate(point) for m in minors]
        solved = _monic_solve([list(_clear(dict(enumerate(row)))[0].values())
                               for row in at])
        if values[n].is_zero():
            assert solved is None
            continue
        assert solved[1] == [values[j] / values[n] * (-1) ** (n - j)
                             for j in range(n)]
    if not minors[n].evaluate(point).is_zero():
        assert gl_invariance_witness(n, t, point)


def _leibniz(rows):
    total = RatFunc(0)
    for perm in permutations(range(len(rows))):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(len(perm))
                           for j in range(i + 1, len(perm)))
        prod = RatFunc(sign)
        for i, j in enumerate(perm):
            prod = prod * rows[i][j]
        total = total + prod
    return total


@settings(max_examples=25, deadline=None)
@given(st.lists(ratfuncs, min_size=1, max_size=4))
def test_ode_from_against_cofactor_formula(elems):
    assume(not wronskian(elems).is_zero())
    n = len(elems)
    rows = [list(elems)]
    for _ in range(n):
        rows.append([f.derive() for f in rows[-1]])
    w = _leibniz(rows[:n])
    expected = [_leibniz([rows[r] for r in range(n + 1) if r != n - i])
                * (-1) ** i / w for i in range(1, n + 1)]
    assert ode_from_fundamental_system(FundamentalSystem(elems)).coeffs == expected
    assert FundamentalSystem(elems).wronskian == w


def test_ode_from_eliminates_once(monkeypatch):
    # the Wronskian and the ODE come from the same solve
    module = importlib.import_module("diffalg.wronskian")
    original = module._bareiss
    calls = []

    def counted(m, width):
        calls.append(width)
        return original(m, width)

    monkeypatch.setattr(module, "_bareiss", counted)
    t = RatFunc(Poly.t())
    elems = [RatFunc(1), t, 1 / (t + 1), t * t * t]
    ode = ode_from_fundamental_system(FundamentalSystem(elems))
    assert calls == [len(elems)]
    assert all(ode.apply(f).is_zero() for f in elems)


def test_wronsky_elimination_runs_over_z(monkeypatch):
    # the elimination of a corpus-size Wronskian and fundamental system
    # multiplies and divides ints, not Poly entries
    module = importlib.import_module("diffalg.wronskian")
    original = module._bareiss
    inside, calls = [], []

    def eliminate(m, width):
        inside.append(True)
        try:
            return original(m, width)
        finally:
            inside.pop()

    def counted(name):
        method = getattr(Poly, name)

        def call(*args):
            if inside:
                calls.append(name)
            return method(*args)
        return call

    monkeypatch.setattr(module, "_bareiss", eliminate)
    for name in ("__mul__", "exact_div"):
        monkeypatch.setattr(Poly, name, counted(name))
    elems = [parse_ratfunc(f) for f in
             ("((-2*t^2+3*t+3)/(t+3))", "(-t/(t-3))", "((2*t+3)/(t+3))",
              "(-3/t)", "((t-3)/(t-2))")]
    assert not wronskian(elems).is_zero()
    FundamentalSystem(elems)
    assert calls == []


def _rref_kernel_vector(a, width):
    # Gauss-Jordan over Q: the elimination the kernel replaced
    rows = [row[:] for row in a]
    pivots = []
    r = 0
    for col in range(width):
        hit = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    free = [c for c in range(width) if c not in pivots]
    if not free:
        return None
    vec = [Fraction(0)] * width
    vec[free[0]] = Fraction(1)
    for i, col in enumerate(pivots):
        vec[col] = -rows[i][free[0]]
    return vec


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.integers(0, 5), st.data())
def test_kernel_vector_against_gauss_jordan(width, height, data):
    a = data.draw(st.lists(st.lists(st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2)])
                                    .map(Fraction), min_size=width, max_size=width),
                           min_size=height, max_size=height))
    assert _kernel_vector(a, width) == _rref_kernel_vector(a, width)


@settings(max_examples=30, deadline=None)
@given(st.lists(ratfuncs, min_size=1, max_size=3),
       st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                min_size=2, max_size=3))
def test_dependence_certificate_with_wide_kernel(base, mixes):
    # two or more constant mixes of the base give a kernel of dimension >= 2
    elems = list(base) + [sum((c * f for c, f in zip(mix, base)), RatFunc(0))
                          for mix in mixes]
    common = Poly((1,))
    for f in elems:
        common = common.exact_div(poly_gcd(common, f.den)) * f.den
    cleared = [f.num * common.exact_div(f.den) for f in elems]
    height = max((p.degree() for p in cleared), default=-1) + 1
    a = [[p.coeffs[k] if k <= p.degree() else Fraction(0) for p in cleared]
         for k in range(height)]
    kernel = _rref_kernel_vector(a, len(elems))
    lead = next(c for c in kernel if c)
    assert dependence_certificate(elems) == [c / lead for c in kernel]
