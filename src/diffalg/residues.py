"""Rational residues of a rational function, without factoring over Q.

For a = num/den, den monic and squarefree and deg num < deg den, a is a
Q-combination of logarithmic derivatives iff every residue num(x)/den'(x)
at a root x of den is rational.  Lazard-Rioboo-Trager (Bronstein,
*Symbolic Integration I*, 2nd ed., sec. 2.5) groups the poles by residue
with no factorization: the residues are the roots of the Rothstein-Trager
resultant R(z) = res_t(den, num - z*den'), and the poles with residue c
are the roots of p_c = gcd(den, num - c*den').  Up to a constant, R is
the characteristic polynomial of w = num/den' on Q[t]/(den), so Newton's
identities give it from the traces of w, ..., w^n, with no determinant.
Its rational roots are found p-adically (Loos, SIAM J. Comput. 12
(1983)).  Modulo a prime p that keeps den squarefree, F_p[t]/(den) is a
product of fields and R mod p = prod (z - w(r)) over the roots r of den,
so R splits over F_p iff every w(r)^p = w(r), that is iff w^p = w in
F_p[t]/(den) (Frobenius).  The arithmetic modulo p runs on lists of ints;
over Q it is basefield's Poly.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .basefield import (_ONE_POLY, Poly, _conv, _derivative_ints, _power,
                        poly_gcd, poly_xgcd)


def _primes_from(n: int):
    """The primes >= n, n >= 2, ascending."""
    while True:
        if all(n % k for k in range(2, math.isqrt(n) + 1)):
            yield n
        n += 1


def _eval_mod(f: list, x: int, m: int) -> int:
    """f(x) mod m for an ascending int list f."""
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % m
    return acc


def _mod_p(f: Poly, p: int) -> list | None:
    """The ascending coefficients of f mod p, None when p divides the
    denominator of its content."""
    c = f.content
    if c.denominator % p == 0:
        return None
    c = c.numerator * pow(c.denominator, -1, p)
    return [c * x % p for x in f.prim]


def _mulmod(f: list, g: list, d: list, p: int) -> list:
    """f*g mod the monic d over F_p, f and g of degree < deg d."""
    n = len(d) - 1
    out = _conv(f, g)
    for k in range(len(out) - 1, n - 1, -1):
        c = out[k] % p
        if c:
            for j, y in enumerate(d[:n], k - n):
                out[j] -= c * y
    return [x % p for x in out[:n]]


def _inverse_mod(f: list, d: list, p: int) -> list | None:
    """f^-1 mod d over F_p by the extended Euclidean algorithm, None
    unless gcd(f, d) = 1."""
    r0, r1, s0, s1 = list(d), list(f), [], [1]
    while r1 and not r1[-1]:
        r1.pop()
    while len(r1) > 1:
        # r0 = q*r1 + r and s = s0 - q*s1, one quotient term at a time
        c = pow(r1[-1], -1, p)
        s = list(s0)
        while len(r0) >= len(r1):
            k = len(r0) - len(r1)
            q = r0.pop() * c % p
            for j, y in enumerate(r1[:-1], k):
                r0[j] = (r0[j] - q * y) % p
            while r0 and not r0[-1]:
                r0.pop()
            s += [0] * (k + len(s1) - len(s))
            for j, y in enumerate(s1, k):
                s[j] = (s[j] - q * y) % p
        r0, r1, s0, s1 = r1, r0, s1, s
    if not r1:
        return None
    c = pow(r1[0], -1, p)
    return [c * x % p for x in s1]


def _from_power_sums(traces: list) -> list:
    """The monic polynomial over Q whose roots have power sums
    traces[k - 1], k = 1..n (Newton's identities), ascending."""
    n = len(traces)
    e = [1]
    for k in range(1, n + 1):
        # k*e_k = sum_i (-1)^(i-1) e_(k-i) tr(w^i)
        x = sum(e[k - i] * traces[i - 1] * (1 if i % 2 else -1)
                for i in range(1, k + 1))
        e.append(Fraction(x, k))
    return [e[n - j] * (-1 if (n - j) % 2 else 1) for j in range(n + 1)]


def _power_sums(d: list) -> list:
    """tr(t^j) on Q[t]/(d) for j < deg d, d monic: the power sums of the
    roots of d, by Newton's identities."""
    n = len(d) - 1
    s = [n]
    for k in range(1, n):
        x = -k * d[n - k] - sum(d[n - i] * s[k - i] for i in range(1, k))
        s.append(x)
    return s


def _rational_roots(f: Poly) -> list[Fraction]:
    """The distinct rational roots of a nonzero polynomial, ascending.

    p-adic, as in Loos, SIAM J. Comput. 12 (1983): take a prime p that
    keeps the squarefree part s of f squarefree and of full degree, find
    the roots of s mod p by evaluation, and lift each by Newton's
    iteration past 2*B*lead(s), B the largest |coefficient| of s.  A root
    u/v of s has |u| <= B and 0 < v <= lead(s), so rational
    reconstruction recovers it; each candidate is checked exactly.
    """
    s = f.exact_div(poly_gcd(f, f.derivative())).prim
    if len(s) < 2:
        return []
    ds = _derivative_ints(s)
    height = max(abs(x) for x in s)
    for p in _primes_from(2):
        if s[-1] % p and _inverse_mod([x % p for x in ds],
                                      [x % p for x in s], p) is not None:
            break
    roots = []
    for r in range(p):
        if _eval_mod(s, r, p):
            continue
        m = p
        while m <= 2 * height * s[-1]:
            m *= m
            r = (r - _eval_mod(s, r, m) * pow(_eval_mod(ds, r, m), -1, m)) % m
        c = _rational_reconstruction(r, m, height)
        if f(c) == 0:
            roots.append(c)
    return sorted(roots)


def _rational_reconstruction(r: int, m: int, bound: int) -> Fraction:
    """u/v = r mod m with |u| <= bound, from the extended Euclidean
    algorithm on (m, r) stopped at the first remainder <= bound (Wang):
    the only such fraction with 0 < v <= m/(2*bound), if there is one."""
    r0, r1, t0, t1 = m, r, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return Fraction(r1, t1)


def residue_groups(num: Poly, den: Poly) -> list[tuple[Poly, Fraction]] | None:
    """(p_c, c) for the distinct residues c of num/den, p_c = gcd(den,
    num - c*den'), sorted by (degree, coefficients); None when a residue is
    irrational.  den is monic and squarefree, deg num < deg den.

    Modulo a prime p > deg den that keeps den squarefree, the residues
    are the w(r), w = num/den' and r a root of den, and a rational one is
    p-integral and lies in F_p.  So when w^p != w in F_p[t]/(den), some
    residue is irrational and the exact R is never formed.  Otherwise R
    is formed over Q and _rational_roots gives its rational roots c; the
    residues are all rational iff the degrees of the p_c add up to deg den.
    """
    n = den.degree()
    for p in _primes_from(n + 1):
        a, d = _mod_p(num, p), _mod_p(den, p)
        if a is None or d is None:
            continue
        u = _inverse_mod([x % p for x in _derivative_ints(d)], d, p)
        if u is not None:
            break
    # R mod p splits over F_p iff w^p = w on F_p[t]/(den), w = num/den'
    w = _mulmod(a, u, d, p)
    wp = _power(w, p, lambda f, g: _mulmod(f, g, d, p))
    if (wp + [0] * n)[:n] != (w + [0] * n)[:n]:
        return None
    # tr(w^k) over Q, k = 1..n
    d_prime = den.derivative()
    w = (num * poly_xgcd(d_prime, den)[1]).divmod(den)[1]
    wk, s, traces = _ONE_POLY, _power_sums(list(den.coeffs)), []
    for _ in range(n):
        wk = (wk * w).divmod(den)[1]
        traces.append(sum(x * y for x, y in zip(wk.coeffs, s)))
    r = Poly(_from_power_sums(traces))
    out = [(poly_gcd(den, num - d_prime * c), c) for c in _rational_roots(r)]
    if sum(p.degree() for p, _c in out) != n:
        return None
    out.sort(key=lambda pc: (pc[0].degree(), pc[0].coeffs))
    return out
