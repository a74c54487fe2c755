"""Point spectrum of the 3D Rashba Hamiltonian with a contact interaction.

Closed-form Green values at the origin, the Krein Q-matrix of the rank-two
self-adjoint extensions, the transcendental secular equation with solvers for
all three coupling regimes, the small-coupling expansion, and an independent
momentum-space quadrature oracle.
"""

from .errors import (ConvergenceError, DomainError, PoleError, RegimeError,
                     SingularMatrixError)
from .extension import (EffectiveCouplings, ExtensionKind, Hermitian2, KreinQ,
                        NormalizationData, effective_couplings,
                        gamma_for_couplings, gamma_from_cr, krein_q,
                        normalization, phi_norm_sq, secular_det)
from .greens import artanh_branch, g1_origin, g2ren_origin, gs_ren_origin, xi
from .model import (Regime, RegimeInfo, SystemParams, ValidityReport,
                    classify_regime, series_validity, threshold_sigma)
from .oracle import (QuadratureResult, gs_ren_quadrature, phi_norm_quadrature,
                     sigma_numeric)
from .perturbation import (AsymptoticEigenvalue, AsymptoticSpectrum, Branch,
                           PerturbationCoefficients, asymptotic_eigenvalues,
                           cnd0, cnd0_max, e2, expansion_coefficients, q0)
from .spectrum import (DiscreteRoot, EmbeddedRoot, ForbiddenBandReport,
                       LargeCouplingContext, SpectrumReport,
                       discrete_eigenvalues, e_nu, embedded_alpha0,
                       embedded_large_alpha, forbidden_band_scan,
                       large_coupling_context, secular_function,
                       solve_spectrum, u_nu, v_nu)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticEigenvalue", "AsymptoticSpectrum", "Branch", "ConvergenceError",
    "DiscreteRoot", "DomainError", "EffectiveCouplings", "EmbeddedRoot",
    "ExtensionKind", "ForbiddenBandReport", "Hermitian2", "KreinQ",
    "LargeCouplingContext", "NormalizationData", "PerturbationCoefficients",
    "PoleError", "QuadratureResult", "Regime", "RegimeInfo", "RegimeError",
    "SingularMatrixError", "SpectrumReport", "SystemParams",
    "ValidityReport", "artanh_branch", "asymptotic_eigenvalues",
    "classify_regime", "cnd0", "cnd0_max", "discrete_eigenvalues", "e2", "e_nu",
    "effective_couplings", "embedded_alpha0", "embedded_large_alpha",
    "expansion_coefficients", "forbidden_band_scan", "g1_origin", "g2ren_origin",
    "gamma_for_couplings", "gamma_from_cr",
    "gs_ren_origin", "gs_ren_quadrature", "krein_q", "large_coupling_context",
    "normalization", "phi_norm_quadrature", "phi_norm_sq", "q0",
    "secular_det", "secular_function", "series_validity",
    "sigma_numeric", "solve_spectrum", "threshold_sigma", "u_nu", "v_nu", "xi",
]
