"""Exact tensor workbench for equitorsion almost geodesic mappings.

Scalars are truncated Taylor jets with rational coefficients, tensors
are dense arrays of them, and every identity the package claims is
checked by exact equality on synthesized witnesses, never by tolerance.

The exported names load lazily (PEP 562): ``import eqlab`` loads no
submodule, and reading a name loads the submodule that defines it and
what that submodule imports, nothing more.
"""

from importlib import import_module

# exported name -> the submodule that defines it
_EXPORTS = {
    "AG3Mapping": "mapping",
    "DOWN": "tensors",
    "InvariantBundle": "invariants",
    "JetScalar": "jets",
    "MappedPair": "mapping",
    "R_and_K_transformation_check": "invariants",
    "Space": "geometry",
    "TensorField": "tensors",
    "T_tilde": "invariants",
    "UP": "tensors",
    "U_theta": "invariants",
    "VerificationReport": "invariants",
    "W_star": "invariants",
    "basic_equation_residual": "mapping",
    "build_W_matrix": "invariants",
    "cov_deriv_assoc": "geometry",
    "cov_deriv_kind": "geometry",
    "curvature_K": "geometry",
    "curvature_R": "geometry",
    "curvature_family_span": "geometry",
    "eta_star": "invariants",
    "family_span_dimension": "invariants",
    "gamma_diff_factorized": "mapping",
    "random_connection": "geometry",
    "reciprocity_inverse": "mapping",
    "run_ranks": "harness",
    "run_verify_suite": "harness",
    "sigma_coeff_matrix": "invariants",
    "sigma_p": "invariants",
    "synthesize_instance": "mapping",
    "torsion_cd_difference_check": "invariants",
    "transform_connection": "mapping",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
