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
F_p[t]/(den) (Frobenius).  The arithmetic modulo p runs on lists of ints,
and so does the rest: the traces and Newton's identities run over Z on
den's primitive ints, so R arrives as one primitive int list, and its
rational roots and the p_c are found on int lists too.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .basefield import (_ONE_F, Poly, _add_ints, _conv, _derivative_ints,
                        _gcd_parts, _linear_quotient, _power, _primitive,
                        _prs_gcd, _pseudo_divmod, poly_gcd)


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


def _resultant_ints(num: Poly, d: tuple, dd: list) -> list:
    """R(z) = res_t(den, num - z*den') up to a constant factor, as
    ascending ints, for den = D/L squarefree, D = d and D' = dd: the
    characteristic polynomial of w = num/den' on Q[t]/(den), from the
    traces of its powers by Newton's identities over Z.

    1/den' is L*u/c mod D for u*D' = c mod D (_prs_gcd; c is a constant,
    D being squarefree), and w = (a/b)*W mod D for primitive ints W.  The values of y = T*w, T = b*L^(n-1), at the roots of D are
    algebraic integers (L times a root is one, and deg W < n), so P_k =
    tr(y^k) = T^k tr(w^k) and the elementary symmetric functions E_k of
    those values are integers: k*E_k = sum_i (-1)^(i-1) E_(k-i) P_i
    divides exactly, and R is sum_j (-1)^(n-j) E_(n-j) T^j z^j.  Each
    w^k mod D is a primitive int list under an int content, and its trace
    one dot product with L^(n-1) tr(t^j), j < n: the power sums of the
    roots of D over one denominator.
    """
    n, lead = len(d) - 1, d[-1]
    lp = [1]
    for _ in range(n):
        lp.append(lp[-1] * lead)
    # S_k = L^k tr(t^k) = -k D_(n-k) L^(k-1) - sum_i D_(n-i) L^(i-1) S_(k-i)
    s = [n]
    for k in range(1, n):
        s.append(-k * d[n - k] * lp[k - 1]
                 - sum(d[n - i] * lp[i - 1] * s[k - i] for i in range(1, k)))
    s = [x * lp[n - 1 - j] for j, x in enumerate(s)]
    (c,), u = _prs_gcd(dd, d)
    m, _, w = _pseudo_divmod(_conv(num.prim, u), d)
    g = math.gcd(*w)
    w = [x // g for x in w]
    cn = num.content
    a, b = cn.numerator * lead * g, cn.denominator * c * m
    h = math.gcd(a, b)
    a, b = a // h, b // h
    t = b * lp[n - 1]
    # w^k = (kn/kd)*wk mod D, wk primitive, and P_k = t^k tr(w^k) is
    # t^k*kn*(wk . s)/(kd*L^(n-1))
    wk, kn, kd, tk, traces = [1], 1, 1, 1, []
    for _ in range(n):
        m, _, x = _pseudo_divmod(_conv(wk, w), d)
        g = math.gcd(*x)
        wk = [y // g for y in x]
        kn, kd = kn * a * g, kd * b * m
        h = math.gcd(kn, kd)
        kn, kd, tk = kn // h, kd // h, tk * t
        traces.append(tk * kn * sum(x * y for x, y in zip(wk, s))
                      // (kd * lp[n - 1]))
    e = [1]
    for k in range(1, n + 1):
        x = sum(e[k - i] * traces[i - 1] * (1 if i % 2 else -1)
                for i in range(1, k + 1))
        e.append(x // k)
    out, tj = [], 1
    for j in range(n + 1):
        out.append(-e[n - j] * tj if (n - j) % 2 else e[n - j] * tj)
        tj *= t
    return out


def _rational_roots(f: Poly) -> list[Fraction]:
    """The distinct rational roots of a nonzero polynomial, ascending.

    p-adic, as in Loos, SIAM J. Comput. 12 (1983): take a prime p that
    keeps the squarefree part s of f squarefree and of full degree, find
    the roots of s mod p by evaluation, and lift each by Newton's
    iteration past 2*B*lead(s), B the largest |coefficient| of s.  A root
    u/v of s has |u| <= B and 0 < v <= lead(s), so rational
    reconstruction recovers it; each candidate is checked exactly.
    """
    f = f.prim
    if len(f) < 2:
        return []
    df = _derivative_ints(f)
    h = math.gcd(*df)
    s = _gcd_parts(f, [x // h for x in df])[1]
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
        if _linear_quotient(s, [-c.numerator, c.denominator]) is not None:
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
    dd = _derivative_ints(den.prim)
    r = _primitive(_ONE_F, _resultant_ints(num, den.prim, dd))
    # num - c*den' = (x*N - y*c*D')/(y*L) for num = (x/y)*N and den = D/L
    x, y = num.content.numerator * den.prim[-1], num.content.denominator
    out = [(poly_gcd(den, _primitive(_ONE_F, _add_ints(
        [x * c.denominator * v for v in num.prim],
        [-y * c.numerator * v for v in dd]))), c) for c in _rational_roots(r)]
    if sum(p.degree() for p, _c in out) != n:
        return None
    out.sort(key=lambda pc: (pc[0].degree(), pc[0].coeffs))
    return out
