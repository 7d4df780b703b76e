"""Exact arithmetic for rank-2 Drinfeld modules over F_q[T]: Frobenius
characteristic polynomials, Newton polygons, surjectivity certificates,
group-theory verification labs, and density censuses.

Importing the package runs no library module.  Each of the submodules in
`_EXPORTS` is put into `sys.modules` and bound here as a lazy module
(`importlib.util.LazyLoader`), whose body runs on its first attribute
access; `from . import kernel` binds one without running it.  The public
names in `__all__` resolve through `__getattr__` (PEP 562) on first use.
"""

import importlib.util
import sys

from . import errors  # noqa: F401  (every module raises from it)

# submodule -> the public names it exports, in `__all__` order
_EXPORTS = {
    "census": ("CensusParams", "count_S", "count_W",
               "default_congruence_class", "density_table"),
    "criteria": ("Certificate", "LambdaScanReport", "in_lambda_set",
                 "in_omega_tilde", "lambda_scan", "reducibility_obstruction",
                 "revalidate", "theorem1_search", "theorem1_verify",
                 "theorem2_build"),
    "drinfeld": ("DrinfeldModule", "NewtonPolygonReport", "carlitz_det_module",
                 "carlitz_module", "e_phi", "j_invariant", "newton_polygon",
                 "phi_of", "reduce_module", "reduction_height",
                 "valuation_of_j"),
    "fields": ("FieldCtx", "FqElement", "enumerate_elements", "is_square",
               "make_field"),
    "frobenius": ("FrobCharpoly", "det_generation_check",
                  "euler_poincare_oracle", "frob_deg1", "frob_general",
                  "frob_identity_check"),
    "groups": ("Mat2", "acts_irreducibly", "closure", "contains_sl2",
               "pink_rutsche_level2", "sl2_group", "verify_lemma_A1"),
    "kernel": (),
    "polys": ("NEG_INF", "POS_INF", "Poly", "PrimeIdeal",
              "enumerate_monic_irreducibles", "eval_at", "factor", "gcd",
              "is_irreducible", "parse_poly", "poly_to_text", "valuation"),
    "residues": ("ResidueElement", "ResidueRing", "is_square_mod_prime",
                 "norm_to_base", "quadratic_is_irreducible", "residue_inv"),
    "skew": ("FieldCoefficients", "PolyCoefficients", "ResidueCoefficients",
             "SkewPoly", "linear_solve_left", "skew_mul"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = list(_HOME)


def _lazy(name):
    """Register the submodule `name` unexecuted and return it."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


for _name in _EXPORTS:
    globals()[_name] = _lazy(_name)
del _name


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[home], name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
