"""Per-layer spans recorded from outside diffalg.

Tracer.install() replaces the public functions of each module under
src/diffalg by timing wrappers, without editing the package, and
uninstall() puts every original back.  The replacement has to reach every
name that refers to a function:

* modules are taken from sys.modules, because the package attribute
  diffalg.wronskian is the function re-exported by __init__, not the
  submodule;
* a name bound by "from .x import y" (in cli, wronskian, parsing and the
  package itself) is a separate binding, so every diffalg module is
  searched for the original object;
* aliases inside a class (__rmul__ = __mul__) are separate attributes;
* cli dispatches through the _HANDLERS dict, whose values are wrapped as
  the span cli.handler; its self time is output formatting.

Self time is a span's duration minus its child spans.  The tracer's own
bookkeeping runs on a separate account and is taken off every span, so a
parent does not absorb its children's tracing cost; the remaining
overhead is measured end to end as traced minus untraced wall time.
"""

import sys
import time
from contextlib import contextmanager


def _bucket(bounds):
    """Label of the first (upper bound, label) pair that holds the value."""
    def pick(value):
        for bound, label in bounds:
            if value <= bound:
                return label
        return bounds[-1][1]
    pick.labels = [label for _b, label in bounds]
    return pick


def _ritt_gap(args, kwargs):
    q, p = args[0], args[1]
    return (q.order(0) or 0) - (p.order(0) or 0)


_GAP = _bucket(((0, "gap_0"), (1, "gap_1"), (2, "gap_2"), (4, "gap_3-4")))
_DET_N = _bucket(((2, "n_2"), (4, "n_3-4"), (6, "n_5-6"), (8, "n_7-8")))
_PREC = _bucket(((32, "prec_16-32"), (64, "prec_64"), (128, "prec_128"),
                 (256, "prec_256")))
_WITNESS_N = _bucket(((2, "n_2"), (3, "n_3"), (8, "n_4-8")))
_GROUP_N = _bucket(((2, "n_1-2"), (4, "n_3-4"), (8, "n_5-8")))


def _precision(args, kwargs):
    return args[2] if len(args) > 2 else kwargs.get("precision", 16)


# (metric prefix, module, attribute, has child spans, size axis)
SPANS = (
    ("basefield.Poly.mul", "basefield", "Poly.__mul__", False, None),
    ("basefield.Poly.divmod", "basefield", "Poly.divmod", False, None),
    ("basefield.Poly.pow", "basefield", "Poly.__pow__", True, None),
    ("basefield.poly_gcd", "basefield", "poly_gcd", False, None),
    ("basefield.poly_xgcd", "basefield", "poly_xgcd", True, None),
    ("basefield.RatFunc.init", "basefield", "RatFunc.__init__", True, None),
    ("basefield.hermite_reduce", "basefield", "hermite_reduce", True, None),
    ("basefield.log_derivative_decompose", "basefield",
     "log_derivative_decompose", True, None),
    ("basefield.irreducible_factors", "basefield", "_irreducible_factors",
     False, None),
    ("diffpoly.DiffPoly.mul", "diffpoly", "DiffPoly.__mul__", True, None),
    ("diffpoly.DiffPoly.derive", "diffpoly", "DiffPoly.derive", True, None),
    ("diffpoly.DiffPoly.substitute_linear", "diffpoly",
     "DiffPoly.substitute_linear", True, None),
    ("diffpoly.DiffPoly.evaluate", "diffpoly", "DiffPoly.evaluate", True, None),
    ("diffpoly.ritt_reduce", "diffpoly", "ritt_reduce", True,
     (_ritt_gap, _GAP)),
    ("wronskian.wronskian", "wronskian", "wronskian", True, None),
    ("wronskian.det_bareiss", "wronskian", "_poly_det_bareiss", True,
     (lambda a, k: len(a[0]), _DET_N)),
    ("wronskian.dependence_certificate", "wronskian",
     "dependence_certificate", True, None),
    ("wronskian.ode_from_fundamental_system", "wronskian",
     "ode_from_fundamental_system", True, None),
    ("odeseries.series_expand", "odeseries", "series_expand", False, None),
    ("odeseries.fundamental_system_series", "odeseries",
     "fundamental_system_series", True, (_precision, _PREC)),
    ("galois.classify_antiderivative_extension", "galois",
     "classify_antiderivative_extension", True, None),
    ("galois.classify_exponential_extension", "galois",
     "classify_exponential_extension", True, None),
    ("matgroup.catalog_group", "matgroup", "catalog_group", True, None),
    ("matgroup.group_contains", "matgroup", "group_contains", True,
     (lambda a, k: a[0].n, _GROUP_N)),
    ("matgroup.gl_invariance_witness", "matgroup", "gl_invariance_witness",
     True, (lambda a, k: a[0], _WITNESS_N)),
    ("matgroup.wronskian_minor_polynomials", "matgroup",
     "wronskian_minor_polynomials", True, None),
    ("matgroup.ConstMatrix.det", "matgroup", "ConstMatrix.det", False, None),
    ("parsing.parse_diffpoly", "parsing", "parse_diffpoly", True, None),
    ("parsing.parse_ratfunc", "parsing", "parse_ratfunc", True, None),
    ("parsing.parse_matrix", "parsing", "parse_matrix", False, None),
    ("cli.run", "cli", "run", True, None),
)
HANDLER = "cli.handler"
# every reported span: SPANS plus the handlers of cli's verb table
_REPORTED = SPANS + ((HANDLER, "cli", "_HANDLERS", True, None),)


def metric_names():
    """Every per-layer metric, in report order."""
    names = []
    for prefix, _m, _a, children, axis in _REPORTED:
        names += [prefix + ".calls", prefix + ".self_s"]
        if children:
            names.append(prefix + ".total_s")
        if axis:
            names += ["%s.%s.self_s" % (prefix, label) for label in axis[1].labels]
    return names + [
        "basefield.poly_gcd.trivial_share", "basefield.RatFunc.const_den_share",
        "diffpoly.ritt_reduce.steps", "diffpoly.peak_terms",
        "diffpoly.coeff_bits_max", "trace.overhead_s", "trace.uncovered_share"]


class _Stat:
    __slots__ = ("calls", "self_s", "total_s", "buckets")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.buckets = {}


class Tracer:
    def __init__(self):
        self.stats = {}
        self.stack = []         # child time of each open span
        self.lost = 0.0         # tracer bookkeeping so far
        self.covered = 0.0      # time under root spans
        self.counts = {"gcd_trivial": 0, "const_den": 0, "ritt_steps": 0,
                       "peak_terms": 0, "coeff_bits": 0}
        self.patched = []       # (namespace, name, original)

    # -- the span wrapper ---------------------------------------------

    def _wrap(self, prefix, fn, axis=None, inspect=None):
        stat = self.stats.setdefault(prefix, _Stat())
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        def span(*args, **kwargs):
            enter = clock()
            label = axis[1](axis[0](args, kwargs)) if axis else None
            stack.append(0.0)
            start = clock()
            tracer.lost += start - enter
            lost0 = tracer.lost
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                duration = (end - start) - (tracer.lost - lost0)
                own = duration - stack.pop()
                stat.calls += 1
                stat.self_s += own
                stat.total_s += duration
                if label is not None:
                    stat.buckets[label] = stat.buckets.get(label, 0.0) + own
                if stack:
                    stack[-1] += duration
                else:
                    tracer.covered += duration
            if inspect is not None:
                inspect(tracer.counts, args, result)
            tracer.lost += clock() - end
            return result

        return span

    # -- patching --------------------------------------------------------

    def _replace(self, original, wrapper, namespaces):
        for ns in namespaces:
            for name, value in list(vars(ns).items()):
                if value is original:
                    self.patched.append((ns, name, original))
                    setattr(ns, name, wrapper)

    def install(self):
        import diffalg.cli

        modules = [m for n, m in list(sys.modules.items())
                   if n == "diffalg" or n.startswith("diffalg.")]
        for prefix, module, attr, _children, axis in SPANS:
            owner = sys.modules["diffalg." + module]
            *cls, name = attr.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            original = vars(owner)[name]
            wrapper = self._wrap(prefix, original, axis, _INSPECT.get(prefix))
            self._replace(original, wrapper, [owner] if cls else modules)
        handlers = diffalg.cli._HANDLERS
        for verb, original in list(handlers.items()):
            self.patched.append((handlers, verb, original))
            handlers[verb] = self._wrap(HANDLER, original)

    def uninstall(self):
        for ns, name, original in reversed(self.patched):
            if isinstance(ns, dict):
                ns[name] = original
            else:
                setattr(ns, name, original)

    def restored(self):
        """True when every patched name holds its original object again."""
        return all((ns[name] if isinstance(ns, dict) else vars(ns)[name])
                   is original for ns, name, original in self.patched)

    # -- results ---------------------------------------------------------

    @contextmanager
    def window(self):
        """Times a traced region on the clock that excludes bookkeeping."""
        w = {"start": time.perf_counter(), "lost": self.lost,
             "covered": self.covered}
        yield w
        w["wall"] = time.perf_counter() - w["start"]
        w["wall_v"] = w["wall"] - (self.lost - w["lost"])
        w["covered_v"] = self.covered - w["covered"]

    def metrics(self, window, untraced_wall):
        out = {}
        for prefix, _m, _a, children, axis in _REPORTED:
            st = self.stats.get(prefix, _Stat())
            out[prefix + ".calls"] = st.calls
            out[prefix + ".self_s"] = st.self_s
            if children:
                out[prefix + ".total_s"] = st.total_s
            if axis:
                for label in axis[1].labels:
                    out["%s.%s.self_s" % (prefix, label)] = st.buckets.get(label, 0.0)
        c = self.counts
        gcd_calls = out["basefield.poly_gcd.calls"]
        rf_calls = out["basefield.RatFunc.init.calls"]
        out["basefield.poly_gcd.trivial_share"] = (
            c["gcd_trivial"] / gcd_calls if gcd_calls else 0.0)
        out["basefield.RatFunc.const_den_share"] = (
            c["const_den"] / rf_calls if rf_calls else 0.0)
        out["diffpoly.ritt_reduce.steps"] = c["ritt_steps"]
        out["diffpoly.peak_terms"] = c["peak_terms"]
        out["diffpoly.coeff_bits_max"] = c["coeff_bits"]
        out["trace.overhead_s"] = window["wall"] - untraced_wall
        out["trace.uncovered_share"] = 1 - window["covered_v"] / window["wall_v"]
        return out


# -- counts taken from results -------------------------------------------

def _diffpoly_size(counts, p):
    if not hasattr(p, "terms"):
        return
    counts["peak_terms"] = max(counts["peak_terms"], len(p.terms))
    bits = counts["coeff_bits"]
    for c in p.terms.values():
        for poly in (c.num, c.den):
            for f in poly.coeffs:
                bits = max(bits, f.numerator.bit_length(), f.denominator.bit_length())
    counts["coeff_bits"] = bits


def _gcd(counts, args, result):
    if result.degree() == 0:
        counts["gcd_trivial"] += 1


def _ratfunc(counts, args, result):
    if args[0].den.degree() == 0:
        counts["const_den"] += 1


def _diffpoly_result(counts, args, result):
    _diffpoly_size(counts, result)


def _ritt(counts, args, result):
    counts["ritt_steps"] += result.sep_power + result.init_power
    _diffpoly_size(counts, result.remainder)
    for _k, cofactor in result.certificate:
        _diffpoly_size(counts, cofactor)


_INSPECT = {
    "basefield.poly_gcd": _gcd,
    "basefield.RatFunc.init": _ratfunc,
    "diffpoly.DiffPoly.mul": _diffpoly_result,
    "diffpoly.DiffPoly.derive": _diffpoly_result,
    "diffpoly.DiffPoly.substitute_linear": _diffpoly_result,
    "parsing.parse_diffpoly": _diffpoly_result,
    "diffpoly.ritt_reduce": _ritt,
}
