"""Acceptance gate: one test per shipping criterion.

Each test prints a single pass/fail line (visible with -v/-s) and enforces
its runtime budget. All arithmetic is exact, so every comparison below is
equality, not approximation.
"""

import io
import time
from fractions import Fraction
from random import Random

from conftest import (generic_wronskian_point, random_diffpoly, random_poly,
                      random_invertible, random_ratfunc)
from diffalg import cli
from diffalg.basefield import (Poly, RatFunc,
                               antiderivative_in_field,
                               log_derivative_decompose)
from diffalg.diffpoly import (DiffPoly, certificate_checks, in_general_ideal,
                              ritt_reduce, var)
from diffalg.galois import (classify_antiderivative_extension,
                            classify_exponential_extension,
                            descriptor_dimension, descriptor_trdeg,
                            GaloisDescriptor, GroupKind)
from diffalg.matgroup import (descriptor_to_matrix_group,
                              gl_invariance_witness,
                              identity_component_dimension)
from diffalg.odeseries import (fundamental_system_series, ode_residual,
                               series_wronskian)
from diffalg.parsing import parse_diffpoly, parse_ratfunc
from diffalg.wronskian import dependence_certificate, LinearODE, wronskian

_X = DiffPoly.from_var(var(0, 0))
_X1 = DiffPoly.from_var(var(0, 1))
_X2 = DiffPoly.from_var(var(0, 2))


def _report(number: int, label: str, failures: list, started: float,
            budget: float):
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures and elapsed < budget else "FAIL"
    print("criterion %d %s (%.2fs, budget %.0fs): %s"
          % (number, status, elapsed, budget, label))
    assert not failures, failures[:5]
    assert elapsed < budget, "budget exceeded: %.2fs" % elapsed


def _rf_poly(p: Poly) -> RatFunc:
    return RatFunc(p)


def test_acceptance_01_membership_example():
    started = time.perf_counter()
    failures = []
    p = _X1 ** 2 - 2 * _X
    if p.separant() != 2 * _X1:
        failures.append("separant")
    if p.derive() != 2 * _X1 * _X2 - 2 * _X1:
        failures.append("derivative")
    if not in_general_ideal(_X2 - 1, p):
        failures.append("x''-1 should be a member")
    if in_general_ideal(_X, p):
        failures.append("x should not be a member")
    if in_general_ideal(p.separant(), p):
        failures.append("the separant should not be a member")
    _report(1, "quadratic first-order example, exact", failures, started, 1.0)


def test_acceptance_02_wronskian_dependence_oracle():
    started = time.perf_counter()
    failures = []
    rng = Random(20260201)
    for trial in range(500):
        n = rng.randint(1, 4)
        if rng.random() < 0.5 and n >= 2:
            # forced dependence: last element is a constant combination
            elems = [_rf_poly(random_poly(rng, max_deg=4, bound=9))
                     for _ in range(n - 1)]
            combo = sum((random_poly(rng, max_deg=0, bound=4).lead()
                         * e for e in elems),
                        _rf_poly(Poly((0,))))
            elems.append(combo)
            rng.shuffle(elems)
        else:
            elems = [_rf_poly(random_poly(rng, max_deg=4, bound=9))
                     for _ in range(n)]
        w = wronskian(elems)
        cert = dependence_certificate(elems)
        if w.is_zero() != (cert is not None):
            failures.append("oracle mismatch at trial %d" % trial)
            continue
        if cert is not None:
            total = sum((c * e for c, e in zip(cert, elems)),
                        _rf_poly(Poly((0,))))
            if not total.is_zero():
                failures.append("certificate not a relation at %d" % trial)
    _report(2, "dependence test equals kernel oracle, 500 tuples",
            failures, started, 30.0)


def test_acceptance_03_wronskian_transform_law():
    started = time.perf_counter()
    failures = []
    rng = Random(20260301)
    for trial in range(200):
        n = rng.randint(1, 4)
        elems = [random_ratfunc(rng, max_deg=2, bound=5) for _ in range(n)]
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(n)]
                for _ in range(n)]
        mixed = [sum((rows[i][j] * elems[j] for j in range(n)),
                     _rf_poly(Poly((0,)))) for i in range(n)]
        det = _det(rows)
        if wronskian(mixed) != det * wronskian(elems):
            failures.append("transform law failed at trial %d" % trial)
    _report(3, "constant transforms scale the Wronskian by det, 200 pairs",
            failures, started, 30.0)


def _det(rows) -> Fraction:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _det(minor)
        total += term if j % 2 == 0 else -term
    return total


def _is_reduced(rem: DiffPoly, p: DiffPoly) -> bool:
    if rem.is_zero() or not rem.variables():
        return True
    lead = p.leader()
    top = max(v.order for v in rem.variables())
    if top > lead.order:
        return False
    return rem.degree_in(lead) < p.leader_degree()


def test_acceptance_04_reduction_certificate_identity():
    started = time.perf_counter()
    failures = []
    rng = Random(20260401)
    for trial in range(300):
        p = random_diffpoly(rng, max_order=2, max_terms=3, max_exp=3)
        while not p.variables():
            p = random_diffpoly(rng, max_order=2, max_terms=3, max_exp=3)
        q = random_diffpoly(rng, max_order=3, max_terms=3, max_exp=2)
        res = ritt_reduce(q, p)
        if not certificate_checks(q, p, res):
            failures.append("identity failed at trial %d" % trial)
        if not _is_reduced(res.remainder, p):
            failures.append("remainder not reduced at trial %d" % trial)
    _report(4, "reduction certificates expand exactly, 300 pairs",
            failures, started, 60.0)


def test_acceptance_05_series_fundamental_systems():
    started = time.perf_counter()
    failures = []
    rng = Random(20260501)
    precision = 16
    for trial in range(100):
        n = rng.randint(1, 4)
        coeffs = []
        while len(coeffs) < n:
            a = random_ratfunc(rng, max_deg=2, bound=4)
            if a.den(Fraction(0)) != 0:
                coeffs.append(a)
        ode = LinearODE(n, coeffs)
        sols = fundamental_system_series(ode, Fraction(0), precision)
        for s in sols:
            residual = ode_residual(ode, s)
            if any(c != 0 for c in residual.coeffs):
                failures.append("nonzero residual at trial %d" % trial)
                break
        w = series_wronskian(sols)
        if w.coeffs[0] != 1:
            failures.append("Wronskian constant term at trial %d" % trial)
    _report(5, "series systems solve 100 random ODEs to order 16",
            failures, started, 60.0)


def test_acceptance_06_first_order_classification():
    started = time.perf_counter()
    failures = []
    two_t = parse_ratfunc("2*t")
    one_over_t = parse_ratfunc("1/t")
    one = parse_ratfunc("1")
    half_over_t = parse_ratfunc("1/(2*t)")

    d = classify_antiderivative_extension(two_t)
    if d.kind is not GroupKind.TRIVIAL or d.witness.derive() != two_t:
        failures.append("antiderivative of 2t")
    if antiderivative_in_field(two_t) is None:
        failures.append("2t oracle")

    d = classify_antiderivative_extension(one_over_t)
    if d.kind is not GroupKind.ADDITIVE:
        failures.append("antiderivative of 1/t")
    if antiderivative_in_field(one_over_t) is not None:
        failures.append("1/t oracle")

    d = classify_exponential_extension(one)
    if d.kind is not GroupKind.MULTIPLICATIVE:
        failures.append("exponential of 1")
    if log_derivative_decompose(one) is not None:
        failures.append("1 has no logarithmic-derivative form")

    d = classify_exponential_extension(half_over_t)
    if (d.kind is not GroupKind.CYCLIC or d.n != 2
            or d.witness != parse_ratfunc("t")):
        failures.append("exponential of 1/(2t)")
    elif d.witness.derive() != 2 * half_over_t * d.witness:
        failures.append("beta' = 2a*beta")

    d = classify_exponential_extension(one_over_t)
    if d.kind is not GroupKind.TRIVIAL or d.witness != parse_ratfunc("t"):
        failures.append("exponential of 1/t")
    elif d.witness.derive() != one_over_t * d.witness:
        failures.append("beta' = a*beta")
    _report(6, "first-order classification fixtures with exact witnesses",
            failures, started, 1.0)


def _criterion_descriptors() -> list:
    return [
        classify_antiderivative_extension(parse_ratfunc("2*t")),
        classify_antiderivative_extension(parse_ratfunc("1/t")),
        classify_exponential_extension(parse_ratfunc("1")),
        classify_exponential_extension(parse_ratfunc("1/(2*t)")),
        classify_exponential_extension(parse_ratfunc("1/t")),
    ]


def test_acceptance_07_dimension_transcendence_consistency():
    started = time.perf_counter()
    failures = []
    descriptors = _criterion_descriptors()
    descriptors += [GaloisDescriptor.full_general_linear(n)
                    for n in range(1, 5)]
    for d in descriptors:
        dim = descriptor_dimension(d)
        if dim != descriptor_trdeg(d):
            failures.append("dimension vs trdeg for %s" % d.kind.value)
        group = descriptor_to_matrix_group(d)
        if identity_component_dimension(group) != dim:
            failures.append("matrix group dimension for %s" % d.kind.value)
    _report(7, "group dimension equals transcendence degree",
            failures, started, 1.0)


def test_acceptance_08_gl_invariance_witness():
    started = time.perf_counter()
    failures = []
    rng = Random(20260801)
    for n, trials in ((2, 50), (3, 20)):
        for trial in range(trials):
            transform = random_invertible(rng, n)
            point = generic_wronskian_point(rng, n)
            if not gl_invariance_witness(n, transform, point):
                failures.append("witness failed at n=%d trial %d"
                                % (n, trial))
    _report(8, "Wronskian coefficient ratios are transform-invariant",
            failures, started, 60.0)


def test_acceptance_09_cli_round_trip_and_examples():
    started = time.perf_counter()
    failures = []
    rng = Random(20260901)
    for trial in range(500):
        f = random_ratfunc(rng)
        if parse_ratfunc(str(f)) != f:
            failures.append("ratfunc round trip at trial %d" % trial)
    for trial in range(500):
        p = random_diffpoly(rng, num_indeterminates=rng.randint(1, 3),
                            max_order=4)
        if parse_diffpoly(str(p)) != p:
            failures.append("diffpoly round trip at trial %d" % trial)

    documented = [
        (["separant", "(x')^2-2*x"], "2*x'\n"),
        (["member", "x''-1", "--mod", "(x')^2-2*x"], "true\n"),
        (["classify-exp", "1/(2*t)", "--format", "json"],
         '{"group":"cyclic","n":2,"beta":"t",'
         '"minimal_polynomial":"X^2 - c*t","dimension":0}\n'),
    ]
    for args, expected in documented:
        out = io.StringIO()
        err = io.StringIO()
        code = cli.run(args, out, err)
        if code != 0 or out.getvalue() != expected or err.getvalue():
            failures.append("documented invocation %r" % " ".join(args))
    _report(9, "print/parse round trips and documented CLI outputs",
            failures, started, 30.0)
