"""Seeded command corpora, one generator per workload.

A corpus is a list of Command: the command line exactly as the program
receives it, and what the construction knows about the answer.  The same
seed gives the same corpus.  Inputs are built in sympy (see dtext), never
with diffalg itself.
"""

import random
import shlex
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix

from dtext import FIELD, RING, T, X, derive, field_text, text, value_at


@dataclass(frozen=True)
class Command:
    line: str
    verb: str
    expect: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def argv(self):
        return shlex.split(self.line)


def _command(argv, **expect):
    return Command(shlex.join(argv), argv[0], expect)


# ---------------------------------------------------------------- ritt

RITT_REPEATS = 2


class _Coefs:
    """Coefficient source for one corpus.

    Magnitudes and structure follow a fixed cycle and only signs are drawn,
    so seeds differ in values but not in size: coefficient heights drive
    the cost of Fraction arithmetic, and a seed-dependent size mix would
    swamp the run-to-run comparison.  Every third coefficient has a linear
    t-factor and every fourth a non-constant t-denominator, such as
    x'/(t + 1), so a quarter of coefficients lack the constant-denominator
    property.
    """

    def __init__(self, rng):
        self.rng = rng
        self.count = 0

    def _sign(self):
        return self.rng.choice((-1, 1))

    def __call__(self):
        self.count += 1
        k = self.count
        c = FIELD(self._sign() * (1 + k % 3))
        if k % 3 == 0:
            c *= T + self._sign() * (k // 3 % 3)
        if k % 4 == 0:
            c /= T + self._sign() * (1 + k // 4 % 2)
        return c


def _modulus(coef, n, d):
    """Order n, leader degree d, irreducible: x itself occurs only in c*x.

    A polynomial of degree one in x with a unit coefficient cannot factor,
    so the general component of P is prime and Ritt reduction decides
    membership exactly.
    """
    lead = X[n]
    p = coef() * lead**d + coef() * X[0]
    for j in range(d):
        mono = X[1 + j % (n - 1)] if n > 1 else RING(1)
        p += coef() * lead**j * mono
    return p


def _target(coef, p, n, d, gap, member):
    """C*P^(gap) + C'*x*P, plus a reduced nonzero term for a non-member.

    Members lie in [P], so their remainder is 0.  A non-member adds
    c*x*(x^(n))^(d-1), which is reduced and nonzero, so its remainder is
    nonzero (the separant and initial are not in the prime component).
    """
    pk = p
    for _ in range(gap):
        pk = derive(pk)
    q = coef() * pk
    if gap:
        q += coef() * X[0] * p
    if not member:
        q += coef() * X[0] * X[n] ** (d - 1)
    return q


def ritt(seed):
    """Reduction and membership over a full grid of modulus shapes.

    Every seed covers each (order n, leader degree d, order gap) cell
    RITT_REPEATS times, once as a member and once not, so seeds differ in
    coefficients, not in the mix of sizes.  A small verb (derive, separant
    or order, in turn) follows each pair.
    """
    rng = random.Random(seed)
    coef = _Coefs(rng)
    out = []
    for rep in range(RITT_REPEATS):
        cell = 0
        for n in (1, 2, 3):
            for d in (1, 2, 3):
                for gap in range(5):
                    member = (cell + rep) % 2 == 0
                    p = _modulus(coef, n, d)
                    q = _target(coef, p, n, d, gap, member)
                    mod, qt = text(p), text(q)
                    size = {"n": n, "d": d, "gap": gap, "member": member}
                    out.append(_command(
                        ["reduce", qt, "--mod", mod, "--format", "json"], **size))
                    out.append(_command(["member", qt, "--mod", mod], **size))
                    small = ("derive", "separant", "order")[cell % 3]
                    out.append(_command([small, mod if small == "separant" else qt]))
                    cell += 1
    return out


# ------------------------------------------------------- linalg-galois

def _ratfunc(rng, quadratic):
    """p/q with deg p <= 2 and a linear factor in q, times an irreducible
    quadratic one half the time when quadratic is set."""
    num = FIELD(0)
    while not num:
        num = sum(rng.randint(-3, 3) * T**k for k in range(rng.randint(1, 3)))
    den = T - rng.randint(-3, 3)
    if quadratic and rng.random() < 0.5:
        den *= T**2 + rng.randint(1, 3)
    return num / den


def _wronsky_at(fs, t0):
    """Wronskian of fs evaluated at t0, exactly; 0 flags a possible dependence."""
    rows, cur = [], list(fs)
    for _ in fs:
        rows.append([QQ(v.numerator, v.denominator)
                     for v in (value_at(f, t0) for f in cur)])
        cur = [f.diff(T) for f in cur]
    return DomainMatrix(rows, (len(fs), len(fs)), QQ).det()


def _independent(rng, k):
    """k rational functions whose Wronskian is nonzero at a sample point.

    Quadratic denominator factors stop at k = 4: the Wronskian's degree
    grows with k times the denominators' degree, and k = 7 with them takes
    seconds per command.
    """
    while True:
        fs = [_ratfunc(rng, quadratic=k <= 4) for _ in range(k)]
        t0 = rng.choice((5, 7, 11, 13))   # never a pole: poles lie in [-3, 3]
        if _wronsky_at(fs, t0):
            return fs


def _ftexts(fs):
    return [field_text(f) for f in fs]


def _sl_matrix(rng, n, member):
    """A product of elementary matrices (det 1); a non-member scales a row."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    if not member:
        r = rng.randrange(n)
        m[r] = [2 * a for a in m[r]]
    return m


def _matrix_text(m):
    return ";".join(",".join(str(v) for v in row) for row in m)


_RESIDUES = (1, -1, 2, (1, 2), (-1, 2), (1, 3), (-2, 3), (3, 2))
_IRREDUCIBLE = ((1, 1), (1, 2), (1, 3), (2, 2))  # t^2 + a*t + b with a^2 < 4b


def _log_factors(rng, count):
    """count distinct monic irreducible polynomials of degree 1 or 2."""
    roots = rng.sample(range(-3, 4), count)
    out = []
    for i, r in enumerate(roots):
        if i % 2:
            a, b = _IRREDUCIBLE[(r + 3) % len(_IRREDUCIBLE)]
            out.append(T**2 + a * T + b)
        else:
            out.append(T - r)
    return out


def linalg_galois(seed):
    """Wronskians, dependence, ODE reconstruction, matrix groups, classification.

    Verb weights keep any one verb from dominating a pass.  Sizes stop at
    the last one that finishes in a few seconds: gl-witness 4 (about 3 s;
    5 takes over 60 s) and group-check sl6 (about 2 s; sl7 takes 82 s),
    each once per corpus.  classify-exp uses at most three factors of
    degree <= 2 with residue denominators <= 3: five cubic factors with a
    residue lcm of 60 give a degree-130 witness and take 76 s.

    Commands slow enough to sit in the top tenth of latencies (sl5 and up,
    gl-witness 3 and up, ode-from 4 and up, wronskians of 6 and up) come
    from a generator that ignores the seed: their cost swings by 2x with
    the values drawn, and a handful of them set the p95.  The counts put
    the median inside the 2-6 ms cluster (classify-exp, depend, small
    wronskians) rather than at its edge, where it jumped between clusters
    from seed to seed: a third of the corpus is sub-2 ms group checks,
    another third that cluster.
    """
    rng = random.Random(seed)
    fixed = random.Random(0)
    out = []
    for rep in range(LINALG_REPEATS):
        for k in (2, 3, 4, 5):
            out.extend(_wronskian_depend(rng, k, dependent=(rep + k) % 2 == 0))
        for k in (2, 3, 4):
            out.append(_ode_from(fixed if k >= 4 else rng, k))
        for n in (2, 3, 4, 5, 5):
            r = fixed if n >= 5 else rng
            out.append(_command(["group-check", "sl%d" % n,
                                 _matrix_text(_sl_matrix(r, n, r.random() < 0.5))],
                                label="sl", n=n))
        for n in (2, 3, 4):
            m = _sl_matrix(rng, n, True)
            if rng.random() < 0.5:
                m[-1] = list(m[0])   # singular
            out.append(_command(["group-check", "gl%d" % n, _matrix_text(m)],
                                label="gl", n=n))
        b = rng.randint(-3, 3)
        a = rng.choice((1, 1, 2))
        out.append(_command(["group-check", "unipotent",
                             _matrix_text([[a, b], [0, 1]])], label="unipotent", n=2))
        for kk in (2, 3, 4, 6, 2, 3, 4, 6):
            v = rng.choice((1, -1, 2, (1, 2)))
            vt = "%d/%d" % v if isinstance(v, tuple) else str(v)
            out.append(_command(["group-check", "mu%d" % kk, vt], label="mu", n=1))
        n = 2 + rep % 2
        r = fixed if n >= 3 else rng
        out.append(_command(["gl-witness", str(n), "--seed", str(r.randint(0, 999))], n=n))
        for i in range(4):
            out.append(_classify_int(rng, trivial=i % 2 == 0))
        for i in range(8):
            out.append(_classify_exp(rng, i % 4))
    # the largest sizes, once each
    out.extend(_wronskian_depend(fixed, 6, dependent=True))
    out.extend(_wronskian_depend(fixed, 7, dependent=False))
    out.append(_ode_from(fixed, 5))
    out.insert(0, _classify_exp(rng, 1))     # first command factors: sympy import
    out.append(_command(["group-check", "sl6",
                         _matrix_text(_sl_matrix(fixed, 6, True))], label="sl", n=6))
    out.append(_command(["gl-witness", "4", "--seed", "7"], n=4))
    return out


LINALG_REPEATS = 5


def _wronskian_depend(rng, k, dependent):
    """A wronskian of k independent functions, and a depend on k functions.

    A dependent set replaces one function by a combination of the others.
    """
    out = [_command(["wronskian"] + _ftexts(_independent(rng, k)), k=k)]
    gs = _independent(rng, k - 1 if dependent else k)
    if dependent:
        combo = sum(rng.choice((-2, -1, 1, 2, FIELD(1) / 2)) * g for g in gs)
        j = rng.randrange(k)
        gs = gs[:j] + [combo] + gs[j:]
    out.append(_command(["depend"] + _ftexts(gs), dependent=dependent, k=k))
    return out


def _ode_from(rng, k):
    return _command(["ode-from"] + _ftexts(_independent(rng, k))
                    + ["--format", "json"], k=k)


def _classify_int(rng, trivial):
    """a = g' + h: g has a double pole, h = sum r_i/(t - a_i) simple poles.

    The field has an antiderivative of a exactly when h = 0.
    """
    pole = rng.randint(-3, 3)
    g = FIELD(rng.choice((-2, -1, 1, 2))) / (T - pole) ** 2
    g += (rng.randint(-2, 2) * T + rng.choice((-1, 1))) / (T**2 + rng.randint(1, 3))
    a = g.diff(T)
    if not trivial:
        for r in rng.sample(range(-3, 4), 2):
            a += FIELD(rng.choice((-2, -1, 1, 3))) / (T - r)
    return _command(["classify-int", field_text(a), "--format", "json"],
                    group="trivial" if trivial else "additive")


def _classify_exp(rng, kind):
    """a = sum c_i p_i'/p_i with rational residues c_i (kinds 0-2) or not.

    Kind 0: integer residues (trivial, n = 1); kinds 1 and 2: fractional
    residues (cyclic, n = lcm of residue denominators); kind 3 adds a
    polynomial part, so no multiple of a is a logarithmic derivative
    (multiplicative).
    """
    ps = _log_factors(rng, 2 + kind % 2)
    cs = []
    for i in range(len(ps)):
        r = rng.choice(_RESIDUES[:3] if kind == 0 else _RESIDUES)
        cs.append(Fraction(*r) if isinstance(r, tuple) else Fraction(r))
    a = FIELD(0)
    for p, c in zip(ps, cs):
        a += FIELD(c.numerator) / c.denominator * p.diff(T) / p
    if kind == 3:
        a += rng.choice((-1, 1)) * T
        return _command(["classify-exp", field_text(a), "--format", "json"],
                        group="multiplicative")
    n = lcm(*(c.denominator for c in cs))
    return _command(["classify-exp", field_text(a), "--format", "json"],
                    group="trivial" if n == 1 else "cyclic", n=n)


# -------------------------------------------------------- series-batch

_BASE_POINTS = ((1, 2), (-1, 2), (1, 1), (-1, 1), (2, 1), (-3, 2), (1, 3))
# (precision, order, count): every seed gets the same mix; order 4 stops
# at 64 and precision 256 at order 2, once (order 4 at 256 takes about 8 s)
SERIES_MIX = ((16, 1, 28), (16, 2, 28), (16, 3, 28), (16, 4, 28),
              (32, 1, 12), (32, 2, 12), (32, 3, 12), (32, 4, 10),
              (64, 1, 8), (64, 2, 8), (64, 3, 6), (64, 4, 4),
              (128, 1, 6), (128, 2, 4), (128, 3, 2),
              (256, 1, 4), (256, 2, 1))


def _series_coef(rng, base, i):
    """Constant, linear or simple-pole coefficient, regular at base.

    The kind, the magnitudes and the pole's distance from the base point
    follow i; only signs are drawn (see _Coefs for why).
    """
    sign = rng.choice((-1, 1))
    m = 1 + i // 3 % 2
    if i % 3 == 0:
        return FIELD(sign * m)
    if i % 3 == 1:
        return FIELD(sign * m) * T + rng.choice((-1, 1))
    return FIELD(sign) / (T - base - rng.choice((-1, 1)) * m)


def series_batch(seed):
    """solve-series over a fixed (precision, order) mix at nonzero base points.

    Within each stratum the base point and the coefficient shapes cycle;
    the seed draws signs and the order of the batch.  Strata at precision
    64 and above hold the top tenth of latencies, where signs alone move a
    command's cost by 2x, so they draw from a generator that ignores the
    seed.
    """
    rng = random.Random(seed)
    fixed = random.Random(0)
    out = []
    for precision, order, count in SERIES_MIX:
        r = fixed if precision >= 64 else rng
        for i in range(count):
            bp = Fraction(*_BASE_POINTS[i % len(_BASE_POINTS)])
            coeffs = [_series_coef(r, bp, i + j) for j in range(order)]
            out.append(_command(["solve-series"] + _ftexts(coeffs)
                                + ["--precision", str(precision),
                                   "--base-point", str(bp)],
                                order=order, precision=precision))
    rng.shuffle(out)
    return out


WORKLOADS = {"ritt": ritt, "linalg-galois": linalg_galois,
             "series-batch": series_batch}
