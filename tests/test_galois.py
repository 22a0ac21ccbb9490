import io
import time
from fractions import Fraction
from random import Random

import pytest

from conftest import random_ratfunc
from diffalg import cli
from diffalg.basefield import Poly, RatFunc, log_derivative_decompose
from diffalg.galois import (
    GaloisDescriptor,
    GroupKind,
    classify_antiderivative_extension,
    classify_exponential_extension,
    descriptor_dimension,
    descriptor_trdeg,
)
from diffalg.odeseries import TruncatedSeries, ode_residual, series_expand
from diffalg.wronskian import LinearODE

T = Poly.t()


def test_antiderivative_classification():
    d = classify_antiderivative_extension(RatFunc(Poly((0, 2))))
    assert d.kind is GroupKind.TRIVIAL and d.witness == RatFunc(T * T)
    d = classify_antiderivative_extension(RatFunc(1, T))
    assert d.kind is GroupKind.ADDITIVE and d.witness is None
    d = classify_antiderivative_extension(RatFunc(0))
    assert d.kind is GroupKind.TRIVIAL and d.witness == RatFunc(0)


def test_exponential_classification():
    d = classify_exponential_extension(RatFunc(1))
    assert d.kind is GroupKind.MULTIPLICATIVE
    d = classify_exponential_extension(RatFunc(1, Poly((0, 2))))
    assert d.kind is GroupKind.CYCLIC and d.n == 2 and d.witness == RatFunc(T)
    assert d.minimal_polynomial() == "X^2 - c*t"
    d = classify_exponential_extension(RatFunc(1, T))
    assert d.kind is GroupKind.TRIVIAL and d.witness == RatFunc(T)
    d = classify_exponential_extension(RatFunc(0))
    assert d.kind is GroupKind.TRIVIAL and d.witness == RatFunc(1)


def test_trivial_witness_differentiates_back():
    rng = Random(50)
    for _ in range(60):
        f = random_ratfunc(rng, 3, 5)
        a = f.derive()
        d = classify_antiderivative_extension(a)
        assert d.kind is GroupKind.TRIVIAL
        assert d.witness.derive() == a


def test_cyclic_witness_identity():
    rng = Random(51)
    found = 0
    for _ in range(80):
        p = Poly([Fraction(rng.randint(-5, 5)), 1])  # monic linear
        c = Fraction(rng.randint(-5, 5), rng.randint(2, 6))
        if c == 0 or c.denominator == 1:
            continue
        a = RatFunc(p.derivative() * c, p)
        d = classify_exponential_extension(a)
        assert d.kind is GroupKind.CYCLIC
        beta = d.witness
        assert beta.derive() == a * d.n * beta
        dec = log_derivative_decompose(a)
        for m in range(1, d.n):
            assert any((ci * m).denominator != 1 for _p, ci in dec)
        found += 1
    assert found >= 30


def test_minimal_polynomial_only_for_cyclic():
    assert classify_exponential_extension(RatFunc(1)).minimal_polynomial() is None
    d = classify_exponential_extension(RatFunc(3, Poly((0, 2))))
    assert d.kind is GroupKind.CYCLIC and d.n == 2
    assert d.minimal_polynomial() == "X^2 - c*t^3"
    with pytest.raises(ValueError):
        GaloisDescriptor.cyclic(1, RatFunc(1))


def test_dimension_trdeg_tables():
    cases = [
        (GaloisDescriptor.trivial(RatFunc(1)), 0),
        (GaloisDescriptor.additive(), 1),
        (GaloisDescriptor.multiplicative(), 1),
        (GaloisDescriptor.cyclic(5, RatFunc(Poly.t())), 0),
        (GaloisDescriptor.full_general_linear(3), 9),
        (GaloisDescriptor.full_general_linear(2), 4),
    ]
    for d, expected in cases:
        assert descriptor_dimension(d) == expected
        assert descriptor_trdeg(d) == expected


def test_dimension_equals_trdeg_everywhere():
    rng = Random(52)
    produced = []
    for _ in range(40):
        a = random_ratfunc(rng, 2, 4)
        produced.append(classify_antiderivative_extension(a))
        produced.append(classify_exponential_extension(a))
    produced.extend(GaloisDescriptor.full_general_linear(n) for n in range(1, 5))
    for d in produced:
        assert descriptor_dimension(d) == descriptor_trdeg(d)


def test_trdeg_reads_extension_data():
    # the kind alone does not fix the transcendence degree: without its
    # algebraic witness a "trivial" extension is transcendental, so
    # criterion 7 can tell the two tables apart
    bare = GaloisDescriptor(GroupKind.TRIVIAL)
    assert descriptor_dimension(bare) == 0 and descriptor_trdeg(bare) == 1
    assert descriptor_trdeg(GaloisDescriptor(GroupKind.ADDITIVE, RatFunc(1))) == 0
    assert descriptor_trdeg(GaloisDescriptor(GroupKind.CYCLIC, n=3)) == 9


def test_additive_case_series_cross_check():
    # u' = a with no antiderivative: (1, u) solves y'' - (a'/a) y' = 0
    a = RatFunc(1, T)
    assert classify_antiderivative_extension(a).kind is GroupKind.ADDITIVE
    t0 = Fraction(1)
    ratio = a.derive() / a
    ode = LinearODE(2, [-ratio, RatFunc(0)])
    n = 12
    one = series_expand(RatFunc(1), t0, n)
    # u = integral of a from t0, termwise
    u = TruncatedSeries(t0, [0] + [c / (k + 1) for k, c in
                                   enumerate(series_expand(a, t0, n - 1).coeffs)])
    assert ode_residual(ode, one).is_zero()
    assert ode_residual(ode, u).is_zero()


def _run(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(argv, out, err) == 0
    return out.getvalue()


# the Fractions each command builds, parsing and printing included; Hermite
# reduction, the residue test and the witness build their few on integer
# contents.  Each budget is the count measured, 33, 23, 29 and 25, plus
# about 10%
_FRACTION_BUDGET = (
    (["classify-exp", "(3/4)/(2*t+1) + (3/4)/(2*t-1)"], 36),
    (["classify-int", "(1/3)/(2*t+1)^3 + 5/(7*(t^2+3))"], 25),
    (["classify-int", "(1/3)/(2*t+1)^3 - 3/(2*t+1)^2"], 32),
    (["gl-witness", "3", "--seed", "1"], 27),
)


@pytest.mark.parametrize("argv, budget", _FRACTION_BUDGET)
def test_classify_builds_few_fractions(monkeypatch, argv, budget):
    _run(argv)
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)
    monkeypatch.setattr(Fraction, "__new__", counting)
    _run(argv)
    monkeypatch.undo()
    assert len(made) <= budget


def test_classify_scales_past_twenty_poles():
    # 24 simple poles, residues +-1, +-2, +-3 over 1 or 2: the exact R has
    # degree 24; 24 double poles and 12 quadratics: three Hermite passes
    # over degree 72.  A determinant in either place takes seconds here
    exp = " + ".join("(%d/%d)/(t-%d)" % ((-1) ** i * (i % 3 + 1), i % 2 + 1, i)
                     for i in range(1, 25))
    int_ = (" + ".join("%d/(t-%d)^2" % (i, i) for i in range(1, 25)) + " + "
            + " + ".join("1/(t^2+%d)" % i for i in range(1, 13)))
    for argv, want in ((["classify-exp", exp], "cyclic n=2 "),
                       (["classify-int", int_], "additive dimension=1\n")):
        start = time.perf_counter()
        assert _run(argv).startswith(want)
        assert time.perf_counter() - start < 1.0
