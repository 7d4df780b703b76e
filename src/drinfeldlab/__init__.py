"""Exact arithmetic for rank-2 Drinfeld modules over F_q[T]: Frobenius
characteristic polynomials, Newton polygons, surjectivity certificates,
group-theory verification labs, and density censuses."""

from .census import (
    CensusParams,
    count_S,
    count_W,
    default_congruence_class,
    density_table,
    valid_congruence_classes,
)
from .criteria import (
    Certificate,
    LambdaScanReport,
    in_lambda_set,
    in_omega_tilde,
    lambda_scan,
    reducibility_obstruction,
    revalidate,
    theorem1_search,
    theorem1_verify,
    theorem2_build,
)
from .drinfeld import (
    DrinfeldModule,
    NewtonPolygonReport,
    ReductionData,
    carlitz_det_module,
    carlitz_module,
    carlitz_twist_witness,
    e_phi,
    j_invariant,
    newton_polygon,
    phi_of,
    reduce_module,
    reduction_height,
    reduction_type,
    valuation_of_j,
)
from .fields import (
    FieldCtx,
    FqElement,
    enumerate_elements,
    is_square,
    make_field,
)
from .frobenius import (
    FrobCharpoly,
    det_generation_check,
    det_level_check,
    euler_poincare_oracle,
    frob_deg1,
    frob_general,
    frob_identity_check,
)
from .groups import (
    Mat2,
    acts_irreducibly,
    closure,
    contains_sl2,
    pink_rutsche_level2,
    sl2_group,
    verify_lemma_A1,
)
from .polys import (
    NEG_INF,
    POS_INF,
    Poly,
    PrimeIdeal,
    enumerate_monic_irreducibles,
    eval_at,
    factor,
    gcd,
    irreducible_count,
    is_irreducible,
    parse_poly,
    poly_to_text,
    valuation,
)
from .residues import (
    ResidueElement,
    ResidueRing,
    is_square_mod_prime,
    norm_to_base,
    quadratic_is_irreducible,
    residue_inv,
)
from .skew import (
    FieldCoefficients,
    PolyCoefficients,
    ResidueCoefficients,
    SkewPoly,
    as_linearized,
    ht_deg,
    linear_solve_left,
    skew_mul,
)

__all__ = [
    "CensusParams", "count_S", "count_W", "default_congruence_class",
    "density_table", "valid_congruence_classes",
    "Certificate", "LambdaScanReport", "in_lambda_set", "in_omega_tilde",
    "lambda_scan", "reducibility_obstruction", "revalidate",
    "theorem1_search", "theorem1_verify", "theorem2_build",
    "DrinfeldModule", "NewtonPolygonReport", "ReductionData",
    "carlitz_det_module", "carlitz_module", "carlitz_twist_witness", "e_phi",
    "j_invariant", "newton_polygon", "phi_of", "reduce_module",
    "reduction_height", "reduction_type", "valuation_of_j",
    "FieldCtx", "FqElement", "enumerate_elements", "is_square", "make_field",
    "FrobCharpoly", "det_generation_check", "det_level_check",
    "euler_poincare_oracle", "frob_deg1", "frob_general",
    "frob_identity_check",
    "Mat2", "acts_irreducibly", "closure", "contains_sl2",
    "pink_rutsche_level2", "sl2_group", "verify_lemma_A1",
    "NEG_INF", "POS_INF", "Poly", "PrimeIdeal",
    "enumerate_monic_irreducibles", "eval_at", "factor", "gcd",
    "irreducible_count", "is_irreducible", "parse_poly", "poly_to_text",
    "valuation",
    "ResidueElement", "ResidueRing", "is_square_mod_prime", "norm_to_base",
    "quadratic_is_irreducible", "residue_inv",
    "FieldCoefficients", "PolyCoefficients", "ResidueCoefficients",
    "SkewPoly", "as_linearized", "ht_deg", "linear_solve_left", "skew_mul",
]
