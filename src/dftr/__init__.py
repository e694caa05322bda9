"""Simulation and stability analysis of a boundary-controlled
dispersed-flow tubular reactor.

The deviation w of the concentration from its steady profile obeys an
advection-diffusion-reaction equation with a Robin inlet condition carrying
the boundary feedback u_w = alpha * w(0, t) and a zero-gradient outlet.
This package solves the steady state, integrates the closed loop, checks
the discrete generator against closed-form oracles, and fits exponential
decay rates.
"""

__version__ = "0.1.0"

from .analysis import (DecayEstimate, SweepCell, SweepResult, default_weight, energy,
                       estimate_decay_rate, fit_decay_rate, sweep)
from .errors import (ConfigError, ContractError, DftrError, EstimationError,
                     IntegrationError, ParameterError, SolverError)
from .integrator import SimulationConfig, Trajectory, simulate, simulate_stack, step
from .model import (FeedbackLaw, Profile, ReactorParams, SpatialGrid, d_ax_from_peclet,
                    default_saturation_bound, initial_profile, lambda_theoretical,
                    reaction_rate)
from .operator import (Tridiagonal, build_generator, duhamel_oracle, inner_product,
                       resolvent_analytic, resolvent_discrete)
from .steady_state import (SteadyStateSolution, steady_state_analytic_n1,
                           steady_state_numeric)

__all__ = [
    "__version__",
    "ConfigError", "ContractError", "DecayEstimate",
    "DftrError", "EstimationError", "FeedbackLaw",
    "IntegrationError", "ParameterError", "Profile", "ReactorParams",
    "SimulationConfig", "SolverError", "SpatialGrid",
    "SteadyStateSolution", "SweepCell", "SweepResult", "Trajectory",
    "Tridiagonal", "build_generator",
    "d_ax_from_peclet", "default_saturation_bound", "default_weight",
    "duhamel_oracle", "energy", "estimate_decay_rate", "fit_decay_rate",
    "initial_profile", "inner_product", "lambda_theoretical", "reaction_rate",
    "resolvent_analytic", "resolvent_discrete", "simulate",
    "simulate_stack", "steady_state_analytic_n1", "steady_state_numeric",
    "step", "sweep",
]
