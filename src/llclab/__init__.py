"""Exact computations around simple supercuspidal representations of
GL_n over a Laurent series field: Whittaker values, zeta integrals,
epsilon factors on both sides of the correspondence, and stability
certificates on the building.

Everything is exact.  Values live in cyclotomic fields with rational
coefficients, field elements are truncated Laurent series with tracked
precision, and the one normalization constant, the Langlands constant
Lambda, stays a formal symbol: a root of unity of order dividing 2n, as
Lambda^n = kappa(pi) = +-1, of which only that n-th power is computed.
"""

from .errors import (
    EmptyFacet,
    InconsistentTable,
    InsufficientPrecision,
    LLCError,
    NotNonBarycenter,
    PrecisionNotStabilized,
    SizeGuardExceeded,
    ZeroInput,
)
from .cyclotomic import CycloNumber, RootOfUnity, cyclotomic_polynomial, euler_phi
from .finitefield import FiniteField, field_of_size
from .laurent import LaurentElem, LocalField
from .matrices import MatG
from .bruhat import MonomialClass, decompose
from .characters import AdditiveCharPsi, LevelOneCharE, TameChar
from .monomials import EpsMonomial, LambdaGraded
from .supercuspidal import SSCDatum
from .galois import (
    ParameterDatum,
    build_parameter,
    det_parameter,
    epsilon_galois,
    gauss_sum_bruteforce,
)
from .zeta import (
    DualSupportTable,
    cached_dual_table,
    closed_form_epsilon,
    gamma_automorphic,
    zeta_psi,
    zeta_psi_tilde,
)
from .matching import (
    DeterminationResult,
    EpsilonTable,
    determine_from_table,
    twist_char,
    verify_matching,
)
from .building import (
    ApartmentPoint,
    FacetSpec,
    GradedQuotient,
    enumerate_facets,
    facet_of,
    graded_quotient,
    is_barycenter,
    sample_alcove_points,
)
from .stability import (
    NoStableDimGap,
    NoStableJordanWitness,
    StableExists,
    UnstableCocharacter,
    destabilizing_cocharacter,
    enumerate_functionals,
    root_count_dims,
    stability_certificate,
    verify_certificate,
)
from .pairs import (
    PairConfig,
    k_special_check,
    mirabolic_agreement,
    sample_k_words,
    support_check,
)

__version__ = "0.1.0"

__all__ = [
    "AdditiveCharPsi",
    "ApartmentPoint",
    "CycloNumber",
    "DeterminationResult",
    "DualSupportTable",
    "EmptyFacet",
    "EpsMonomial",
    "EpsilonTable",
    "FacetSpec",
    "FiniteField",
    "GradedQuotient",
    "InconsistentTable",
    "InsufficientPrecision",
    "LLCError",
    "LambdaGraded",
    "LaurentElem",
    "LevelOneCharE",
    "LocalField",
    "MatG",
    "MonomialClass",
    "NoStableDimGap",
    "NoStableJordanWitness",
    "NotNonBarycenter",
    "PairConfig",
    "ParameterDatum",
    "PrecisionNotStabilized",
    "RootOfUnity",
    "SSCDatum",
    "SizeGuardExceeded",
    "StableExists",
    "TameChar",
    "UnstableCocharacter",
    "ZeroInput",
    "build_parameter",
    "cached_dual_table",
    "closed_form_epsilon",
    "cyclotomic_polynomial",
    "decompose",
    "destabilizing_cocharacter",
    "det_parameter",
    "determine_from_table",
    "enumerate_facets",
    "enumerate_functionals",
    "epsilon_galois",
    "euler_phi",
    "facet_of",
    "field_of_size",
    "gamma_automorphic",
    "gauss_sum_bruteforce",
    "graded_quotient",
    "is_barycenter",
    "k_special_check",
    "mirabolic_agreement",
    "root_count_dims",
    "sample_alcove_points",
    "sample_k_words",
    "stability_certificate",
    "support_check",
    "twist_char",
    "verify_certificate",
    "verify_matching",
    "zeta_psi",
    "zeta_psi_tilde",
]
