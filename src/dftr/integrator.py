"""IMEX time integration of the deviation equation.

The closed-loop deviation w = C_A - C_bar solves

    w_t = d_ax * w_xx - v * w_x + r(w),
    r(w) = k * C_bar**n - k * (Sat_M(w) + C_bar)**n,

with the feedback folded into the alpha-Robin inlet row of A_h. Each step
treats A_h by the trapezoidal (Crank-Nicolson) rule and the reaction
explicitly at the half step, so one tridiagonal solve advances the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, IntegrationError, ParameterError
from .model import FeedbackLaw, Profile, ReactorParams, SpatialGrid, reaction
from .operator import build_generator
from .steady_state import SteadyStateSolution

NEGATIVITY_TOL = -1e-12
REACTION_COURANT = 0.5  # max dt * L allowed for the explicit reaction part
MAX_SUBSTEPS = 1_000_000


@dataclass(frozen=True)
class SimulationConfig:
    """Run settings for one closed-loop simulation.

    dt is the recording step; when the explicit reaction term would be
    unstable at dt, the integrator substeps internally (see substep_count)
    without changing the recorded cadence.
    """

    params: ReactorParams
    law: FeedbackLaw
    grid: SpatialGrid
    dt: float
    record_every: int = 1

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ParameterError(f"dt must be > 0, got {self.dt}")
        if self.record_every < 1:
            raise ParameterError(f"record_every must be >= 1, got {self.record_every}")
        steps = self.num_steps
        if abs(steps * self.dt - self.params.t_final) > 1e-9 * max(1.0, self.params.t_final):
            raise ParameterError(
                f"t_final {self.params.t_final} is not a whole number of steps of {self.dt}")

    @property
    def num_steps(self) -> int:
        return round(self.params.t_final / self.dt)

    @property
    def num_records(self) -> int:
        """Every record_every-th step, plus step 0 and the last step."""
        n, every = self.num_steps, self.record_every
        return n // every + 1 + (n % every != 0)


@dataclass(frozen=True)
class Trajectory:
    """Recorded closed-loop trajectory: states[j] is w(., times[j]) at the
    grid nodes; substeps is the internal refinement factor chosen by the
    reaction stability guard. Callers derive the feedback alpha * w(0, t)
    and any weighted energy from the states. A run given a record consumer
    keeps no states: its states array has no rows.
    """

    params: ReactorParams
    grid: SpatialGrid
    times: np.ndarray
    states: np.ndarray
    negativity_events: int
    substeps: int

    def __post_init__(self):
        self.times.flags.writeable = False
        self.states.flags.writeable = False


def substep_count(config: SimulationConfig, c_bar: np.ndarray, w0_max: float) -> int:
    """Internal refinement so the explicit reaction stays well inside its
    stability region.

    The reaction Lipschitz scale is estimated as L = k*n*c^(n-1) with c the
    largest concentration reached for n >= 1 (growing powers) and half the
    smallest steady value for n < 1 (the derivative blows up near zero).
    """
    p = config.params
    if p.k == 0.0:
        return 1
    if p.n >= 1.0:
        c_scale = float(np.max(c_bar)) + w0_max
    else:
        c_scale = max(float(np.min(c_bar)), 1e-6) / 2.0
    with np.errstate(over="ignore"):
        lip = p.k * p.n * c_scale ** (p.n - 1.0)
    if not np.isfinite(lip) or config.dt * lip / REACTION_COURANT > MAX_SUBSTEPS:
        raise IntegrationError(
            f"reaction stiffness estimate {lip:.3e} is beyond what explicit "
            "substepping can stabilize; reduce dt or the reaction scale",
            step_index=0)
    return max(1, math.ceil(config.dt * lip / REACTION_COURANT))


def step(state: Profile, steady: SteadyStateSolution, config: SimulationConfig) -> Profile:
    """simulate() over one step of config.dt from a bare state: the reaction is
    extrapolated at first order, r* = r(w), and the guard's substeps apply."""
    one = replace(config, params=replace(config.params, t_final=config.dt), record_every=1)
    return Profile(config.grid, simulate(one, steady, state).states[-1])


def simulate(config: SimulationConfig, steady: SteadyStateSolution,
             w0: Profile, record=None) -> Trajectory:
    """Integrate the closed loop over [0, t_final], recording every
    record_every steps (the initial state and final time are always kept).

    Each record j at time t goes to record(j, t, w), which must not modify
    w. By default it is stored in states[j]; a caller that needs only a
    number per record passes its own record and no states are kept.

    Reaction extrapolation r* = 1.5*r(w_k) - 0.5*r(w_{k-1}) keeps second
    order; the first substep falls back to r(w_0). Non-negativity of
    C_A = w + C_bar is monitored, never enforced.
    """
    if w0.grid != config.grid or steady.profile.grid != config.grid:
        raise ContractError("w0 and steady grids must match the configuration")

    p = config.params
    c_bar = steady.profile.values
    n_outer = config.num_steps
    m_sub = substep_count(config, c_bar, float(np.max(np.abs(w0.values))))
    dt_sub = config.dt / m_sub

    a_h = build_generator(config.grid, p, config.law.alpha).diagonals
    plus = a_h.shifted(1.0, 0.5 * dt_sub)  # Crank-Nicolson: I + dt/2 A_h
    solve = a_h.shifted(1.0, -0.5 * dt_sub).factor()  # and (I - dt/2 A_h)^-1
    rate = reaction(c_bar, p)

    every = config.record_every
    times = np.zeros(config.num_records)
    if record is None:
        states = np.empty((config.num_records, config.grid.num_nodes))

        def record(j, t, w):
            states[j] = w
    else:
        states = np.empty((0, config.grid.num_nodes))
    w = w0.values
    record(0, 0.0, w)
    j = 1

    r_prev = None
    negativity = int(np.count_nonzero(w + c_bar < NEGATIVITY_TOL))

    for i in range(1, n_outer + 1):
        for _ in range(m_sub):
            r_now = rate(w)
            r_star = r_now if r_prev is None else 1.5 * r_now - 0.5 * r_prev
            w = solve(plus.apply(w) + dt_sub * r_star)
            r_prev = r_now
            negativity += int(np.count_nonzero(w + c_bar < NEGATIVITY_TOL))
        if not np.isfinite(w).all():
            raise IntegrationError(f"non-finite state at step {i}", step_index=i)
        if i % every == 0 or i == n_outer:
            times[j] = t = i * config.dt
            record(j, t, w)
            j += 1

    return Trajectory(params=p, grid=config.grid, times=times, states=states,
                      negativity_events=negativity, substeps=m_sub)
