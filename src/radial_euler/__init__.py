"""Critical-threshold toolkit for radially symmetric pressure-less Euler flow.

The package classifies initial data of the Euler-Poisson and
Euler-alignment systems (plus the Burgers limits) as globally regular or
finite-time blowup by integrating the closed characteristic dynamics of
(u_r, u/r), computes the explicit and ODE-defined threshold curves, and
cross-validates everything against a characteristic-ensemble PDE solver.
"""

from .core import (CharState, Model, ModelParams, Region, divergence,
                   gap_consistency_check, grad_u_matrix, spectral_gap, sphere_area)
from .odeint import (ClassificationOutcome, EventSpec, IntegrationFailure,
                     IntegratorConfig, LaneBatch, OdeSystem, Termination,
                     TrajectoryRecord, Verdict, estimate_decay_exponent,
                     integrate, integrate_lanes)
from .profiles import (RadialProfile, ProfileKind, DENSITY_LIBRARY,
                       VELOCITY_LIBRARY, constant, gaussian_bump,
                       gaussian_velocity, indicator, integrate_weighted,
                       linear_velocity, polynomial_decay, rexp_velocity,
                       zero_velocity)
from .euler_poisson import (QsHatResult, ThresholdConstants, classify_ep,
                            classify_ep_columns, compute_dcrit, compute_threshold_constants,
                            ep_1d_system, ep_full_system, explicit_sigma_plus,
                            initial_s_from_density, qs_phase_portrait,
                            qs_system, qshat_integrate, qshat_system,
                            sigma_1d, wv_basis_system, burgers_system)
from .alignment import (AlignmentBounds, InfluenceSpec, ThresholdCurve,
                        CURVE_KINDS, INFLUENCE_LIBRARY, classify_ea_many,
                        comparison_classify, compute_bounds,
                        constant_influence, enhanced_curve,
                        eval_psi, eval_zeta, exponential_influence,
                        power_law_influence, rough_threshold_G,
                        rough_threshold_q)
from .pde import (BlowupReport, CharacteristicEnsemble, CrossingError,
                  FieldSnapshot, SimulationResult, diagnostics_series,
                  reconstruct_fields, simulate_ea, simulate_ep)

__version__ = "0.1.0"
