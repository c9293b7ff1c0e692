"""Numerical laboratory for perturbations of peaked periodic waves on the circle."""

from .convolution import DensitySample, conv_p, conv_q, q_density, reduction_identity_gap
from .energetics import E_PHI, F_PHI, EnergyReport, check_conserved, energies
from .kernel import M, m, phi, phi_prime, stationary_residual
from .linear import (H1ForecastConstants, IntegrationError, LinearTrajectory,
                     exact_characteristic, exact_state, exact_u, exact_v, exact_w, h1_constants,
                     integrate_linear, peak_slopes_exact)
from .nonlinear import (NonlinearTrajectory, integrate_nonlinear, measured_forcing_bound, nl_rhs,
                        riccati_bound, riccati_supersolution)
from .profiles import InitialCondition, bump, cosine, sine, steepest_budget_bump
from .state import CharacteristicState, cosine_grid, initial_state
from .waves import ClassificationError, WaveFamily, classify, first_order_residual, peaked_member

__all__ = [
    "M", "m", "phi", "phi_prime", "stationary_residual",
    "DensitySample", "q_density", "conv_q", "conv_p", "reduction_identity_gap",
    "InitialCondition", "sine", "cosine", "bump", "steepest_budget_bump",
    "CharacteristicState", "cosine_grid", "initial_state",
    "LinearTrajectory", "IntegrationError", "exact_characteristic", "exact_w", "exact_v",
    "exact_u", "exact_state", "peak_slopes_exact", "integrate_linear",
    "H1ForecastConstants", "h1_constants",
    "EnergyReport", "energies", "check_conserved", "E_PHI", "F_PHI",
    "NonlinearTrajectory", "nl_rhs", "integrate_nonlinear",
    "riccati_bound", "riccati_supersolution", "measured_forcing_bound",
    "WaveFamily", "classify", "peaked_member", "first_order_residual", "ClassificationError",
]

__version__ = "0.1.0"
