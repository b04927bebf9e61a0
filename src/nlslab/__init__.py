"""Simulation laboratory for defocusing power-law and logarithmic
Schrodinger flows: split-step propagators, lens changes of variables,
dispersive-envelope ODEs, Wasserstein/Sobolev diagnostics, and a
config-driven experiment harness.
"""

__version__ = "0.1.0"  # set first: experiments records it in every run

from .envelope import (EnvelopeState, RadialState, TauEnvelope, first_integral_residual,
                       integrate_r, integrate_tau, tau_difference_bound, time_change_s)
from .errors import (BlowUpError, EnvelopeError, GridError, NlsLabError,
                     NormalizationError, ResolutionError, VerificationError)
from .experiments import (EXPERIMENT_NAMES, ExperimentConfig, RunRecord,
                          default_config, run, sweep, verify)
from .grid import (Density, Grid, Model, WaveField, energy, gaussian_state,
                   gradient_norm_sq, l2_distance, make_grid, mass, position_norm_sq,
                   power_ratio)
from .metrics import gaussian_gamma, sobolev_norm, w1_1d, w2_1d
from .propagators import evolve, free_flow
from .rescaling import (PROFILE_DILATION, PseudoEnergy, cazenave_haraux_gap,
                        density_from_field, direct_gradient_norm_sq, pseudo_energy)
from .scattering import (AsymptoticState, extract_asymptotic, free_conjugate,
                         scattering_map, sigma_norm, strauss_exponent)
