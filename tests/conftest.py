"""Shared random generators for the property tests.

Everything is driven by an explicit random.Random instance so failures
reproduce; tests pass their own seeds.
"""

from fractions import Fraction
from random import Random

from diffalg.basefield import Poly, RatFunc


def random_fraction(rng: Random, bound: int = 9, denom: int = 1) -> Fraction:
    num = rng.randint(-bound, bound)
    den = rng.randint(1, denom) if denom > 1 else 1
    return Fraction(num, den)


def random_poly(rng: Random, max_deg: int = 4, bound: int = 9, nonzero: bool = False) -> Poly:
    while True:
        deg = rng.randint(0, max_deg)
        p = Poly([random_fraction(rng, bound) for _ in range(deg + 1)])
        if p or not nonzero:
            return p


def random_ratfunc(rng: Random, max_deg: int = 4, bound: int = 9,
                   nonzero: bool = False) -> RatFunc:
    num = random_poly(rng, max_deg, bound, nonzero=nonzero)
    den = random_poly(rng, max_deg, bound, nonzero=True)
    return RatFunc(num, den)


def random_diffpoly(rng: Random, num_indeterminates: int = 1, max_order: int = 2,
                    max_terms: int = 4, max_exp: int = 2, coeff_deg: int = 1):
    from diffalg.diffpoly import DerivVar, DiffPoly

    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = {}
        for _ in range(rng.randint(0, 2)):
            v = DerivVar(rng.randint(0, max_order), rng.randint(0, num_indeterminates - 1))
            mono[v] = rng.randint(1, max_exp)
        num = random_poly(rng, coeff_deg, 5)
        if num.is_zero():
            continue
        mono = tuple(sorted(mono.items()))
        terms[mono] = RatFunc(num)
    return DiffPoly(terms, num_indeterminates)


def random_invertible(rng: Random, n: int):
    from diffalg.matgroup import ConstMatrix

    while True:
        m = ConstMatrix.from_rows(
            [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)])
        if m.det() != 0:
            return m


def generic_wronskian_point(rng: Random, n: int) -> dict:
    # polynomials of pairwise distinct degrees are independent, so the
    # evaluated Wronskian cannot vanish
    from diffalg.diffpoly import DerivVar

    point = {}
    for i in range(n):
        coeffs = [random_fraction(rng, 5) for _ in range(i)]
        coeffs.append(Fraction(rng.randint(1, 5)))
        f = RatFunc(Poly(coeffs))
        cur = f
        for order in range(n + 1):
            point[DerivVar(order, i)] = cur
            cur = cur.derive()
    return point
