"""Exact differential algebra over Q(t).

Differential polynomials with Ritt reduction, Wronskian dependence tests,
power-series fundamental systems, Galois-group classification of
first-order antiderivative and exponential extensions, and algebraic
matrix groups over the constants.
"""

import importlib.util
import sys

# exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in (
    ("basefield", ("Poly RatFunc antiderivative_in_field hermite_reduce "
                   "log_derivative_decompose poly_gcd poly_xgcd "
                   "smallest_exponential_index")),
    ("diffpoly", ("DerivVar DiffPoly ReductionResult certificate_checks "
                  "in_general_ideal ritt_reduce var")),
    ("errors", ("DegeneratePoint DiffAlgError IncompleteAssignment MixedArity "
                "NotApplicable NotFundamental NotInCatalog ParseError "
                "PoleAtBasePoint ShapeError SingularTransform")),
    ("galois", ("GaloisDescriptor GroupKind classify_antiderivative_extension "
                "classify_exponential_extension descriptor_dimension "
                "descriptor_trdeg")),
    ("matgroup", ("AlgebraicMatrixGroup ConstMatrix GroupLabel catalog_group "
                  "descriptor_to_matrix_group gl_invariance_witness "
                  "group_contains identity_component_dimension "
                  "wronskian_minor_polynomials")),
    ("odeseries", ("TruncatedSeries fundamental_system_series ode_residual "
                   "series_expand series_wronskian")),
    ("parsing", "parse_diffpoly parse_fraction parse_matrix parse_ratfunc"),
    ("wronskian", ("FundamentalSystem LinearODE apply_constant_matrix "
                   "dependence_certificate ode_from_fundamental_system "
                   "wronskian wronsky_matrix")),
) for name in names.split()}
__all__ = sorted(_EXPORTS)

# Modules a command may never need: each is entered in sys.modules now and
# run when one of its attributes is first read (importlib.util.LazyLoader),
# so a Ritt command compiles none of them.  Being in sys.modules already, an
# import of one never binds it on this package, where the name wronskian is
# the function.
_LAZY = ("galois", "matgroup", "odeseries", "wronskian")

for _name in _LAZY:
    _spec = importlib.util.find_spec("%s.%s" % (__name__, _name))
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
del _name, _spec


def __getattr__(name: str):
    """Each exported name and submodule, imported on first use (PEP 562)."""
    if name in _EXPORTS:
        value = getattr(importlib.import_module("." + _EXPORTS[name], __name__), name)
    elif name in _EXPORTS.values():
        value = importlib.import_module("." + name, __name__)
    else:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_EXPORTS))

