"""Numerical laboratory for the weighted diffusion operator of generalised
Cauchy measures mu ~ (1 + |x|^2)^(-beta) on R^n: integral curvature
identities, the piecewise closed-form spectral gap, and the variance
representation along the heat flow.
"""

from .functions import (SmoothFunction, make_linear, make_lower_extremal_1d,
                        make_power_family, make_quadratic_centered,
                        make_radial_log_cutoff, make_random_test)
from .measures import (MeasureParams, density, log_normalization, mean_sq_norm,
                       normalization, omega_moment, sample)
from .operators import (FactorizedGamma2, apply_L, cauchy_weight, cd_witness,
                        gamma, gamma2_cauchy_factorized, gamma2_general)
from .quadrature import (VERIFY_GRID, IdentityReport, QuadratureSpec,
                         applicable_tags, default_nd_spec, integrate_nd,
                         lowfact_coefficients, lowfact_epsilon_scan,
                         lowfact_sign_check, verify_all)
from .semigroup import (DeficitMismatch, default_horizon, deficit,
                        deficit_trace, variance_representation_check)
from .spectral import (Discretization, GapReport, ModeProblem, assemble_mode,
                       closed_form_gap, lowest_eigs, mode_spectrum,
                       numeric_gap, rayleigh_quotient_1d,
                       rayleigh_quotient_power)

__all__ = [
    "DeficitMismatch", "Discretization", "FactorizedGamma2", "GapReport",
    "IdentityReport", "MeasureParams", "ModeProblem", "QuadratureSpec",
    "SmoothFunction", "VERIFY_GRID", "applicable_tags", "apply_L",
    "assemble_mode", "cauchy_weight", "cd_witness", "closed_form_gap",
    "default_horizon", "default_nd_spec", "deficit", "deficit_trace", "density",
    "gamma", "gamma2_cauchy_factorized",
    "gamma2_general", "integrate_nd", "log_normalization", "lowest_eigs",
    "lowfact_coefficients", "lowfact_epsilon_scan", "lowfact_sign_check",
    "make_linear", "make_lower_extremal_1d", "make_power_family",
    "make_quadratic_centered", "make_radial_log_cutoff", "make_random_test",
    "mean_sq_norm", "mode_spectrum", "normalization", "numeric_gap",
    "omega_moment", "rayleigh_quotient_1d", "rayleigh_quotient_power",
    "sample", "verify_all", "variance_representation_check",
]

__version__ = "0.1.0"
