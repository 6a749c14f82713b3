"""Exact tensor workbench for equitorsion almost geodesic mappings.

Scalars are truncated Taylor jets with rational coefficients, tensors
are dense arrays of them, and every identity the package claims is
checked by exact equality on synthesized witnesses, never by tolerance.
"""

from .geometry import (
    Space,
    cov_deriv_assoc,
    cov_deriv_kind,
    curvature_K,
    curvature_R,
    curvature_family_span,
    random_connection,
)
from .harness import run_ranks, run_verify_suite
from .invariants import (
    InvariantBundle,
    R_and_K_transformation_check,
    T_tilde,
    U_theta,
    VerificationReport,
    W_family,
    W_star,
    build_W_matrix,
    eta_star,
    family_span_dimension,
    sigma_coeff_matrix,
    sigma_p,
    torsion_cd_difference_check,
)
from .jets import JetScalar
from .mapping import (
    AG3Mapping,
    MappedPair,
    basic_equation_residual,
    gamma_diff_factorized,
    reciprocity_inverse,
    synthesize_instance,
    transform_connection,
)
from .tensors import DOWN, UP, TensorField

__all__ = [
    "AG3Mapping",
    "DOWN",
    "InvariantBundle",
    "JetScalar",
    "MappedPair",
    "R_and_K_transformation_check",
    "Space",
    "TensorField",
    "T_tilde",
    "UP",
    "U_theta",
    "VerificationReport",
    "W_family",
    "W_star",
    "basic_equation_residual",
    "build_W_matrix",
    "cov_deriv_assoc",
    "cov_deriv_kind",
    "curvature_K",
    "curvature_R",
    "curvature_family_span",
    "eta_star",
    "family_span_dimension",
    "gamma_diff_factorized",
    "random_connection",
    "reciprocity_inverse",
    "run_ranks",
    "run_verify_suite",
    "sigma_coeff_matrix",
    "sigma_p",
    "synthesize_instance",
    "torsion_cd_difference_check",
    "transform_connection",
]
