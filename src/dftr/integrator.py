"""IMEX time integration of the deviation equation.

The closed-loop deviation w = C_A - C_bar solves

    w_t = d_ax * w_xx - v * w_x + r(w),
    r(w) = k * C_bar**n - k * (Sat_M(w) + C_bar)**n,

with the feedback folded into the alpha-Robin inlet row of A_h. Each step
treats A_h by the trapezoidal (Crank-Nicolson) rule and the reaction
explicitly at the half step, so one tridiagonal solve advances the state.
Several runs on one grid step together as one block-diagonal system
(simulate_stack); simulate is a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, IntegrationError, ParameterError
from .model import FeedbackLaw, Profile, ReactorParams, SpatialGrid, clamped_power
from .operator import Tridiagonal, build_generator
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

    @property
    def record_times(self) -> np.ndarray:
        steps = np.minimum(np.arange(self.num_records) * self.record_every, self.num_steps)
        return steps * self.dt


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
        lip = p.k * p.n * np.float64(c_scale) ** (p.n - 1.0)
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

    Each record j at time t goes to record(j, t, w), which must neither
    modify w nor keep it past the call (w is the live state). By default
    it is stored in states[j]; a caller that needs only a number per
    record passes its own record and no states are kept.

    This is simulate_stack with a stack of one run.
    """
    if record is None:
        states = np.empty((config.num_records, config.grid.num_nodes))

        def record(j, t, w):
            states[j] = w
    else:
        states = np.empty((0, config.grid.num_nodes))
    times = config.record_times.tolist()
    (traj,) = simulate_stack([(config, steady, w0)], lambda j, w: record(j, times[j], w[0]))
    return replace(traj, states=states)


def simulate_stack(runs, record) -> list:
    """Integrate several closed-loop runs at once as one block-diagonal system.

    runs is a sequence of simulate's (config, steady, w0). All share the
    grid, dt, t_final and record_every; each keeps its own reaction, gain,
    saturation bound, steady profile, initial state and substep count m.
    Their Crank-Nicolson matrices sit on the diagonal of a tridiagonal with
    zero couplings.

    Runs are stacked by decreasing m, and all runs reach each outer step
    together: substep s of an outer step advances the runs with m >= s,
    always a leading part of the stack, by their own dt / m. Each leading
    part has its own block-diagonal matrices, factored once, and its own
    views of the state, the per-node arrays and the work buffers, built
    once, so a substep is one solve and allocates no array. dgttrf never
    pivots across a zero coupling, so each run gets the bits of its own
    run alone.

    Reaction extrapolation r* = 1.5*r(w_k) - 0.5*r(w_{k-1}) keeps second
    order; the first substep falls back to r(w_0). Non-negativity of
    C_A = w + C_bar is monitored, never enforced.

    Record j (at config.record_times[j]) goes to record(j, w), which must
    neither modify w nor keep it past the call; w[q] is the state of
    runs[q], and w is a view of the live state when the stack order is
    the run order (always for a stack of one). A zero coupling does not
    stop a NaN (0 * NaN = NaN), so the whole stack is checked at each outer
    step, and a non-finite state anywhere raises IntegrationError for the
    whole stack. Returns one Trajectory per run, in order, without states.
    """
    config0 = runs[0][0]
    grid, dt, every = config0.grid, config0.dt, config0.record_every
    t_final, n_outer, nodes = config0.params.t_final, config0.num_steps, grid.num_nodes
    for config, steady, w0 in runs:
        if w0.grid != config.grid or steady.profile.grid != config.grid:
            raise ContractError("w0 and steady grids must match the configuration")
        if (config.grid, config.dt, config.params.t_final, config.record_every) != (
                grid, dt, t_final, every):
            raise ContractError("stacked runs must share grid, dt, t_final and record_every")

    subs = [substep_count(config, steady.profile.values, float(np.max(np.abs(w0.values))))
            for config, steady, w0 in runs]
    # equal orders side by side, so that the power runs once per order
    order = sorted(range(len(runs)), key=lambda r: (-subs[r], runs[r][0].params.n))
    unsort = np.argsort(order)

    plus, minus, segments = [], [], []
    for q, r in enumerate(order):
        config, m = runs[r][0], subs[r]
        a_h = build_generator(grid, config.params, config.law.alpha).diagonals
        plus.append(a_h.shifted(1.0, 0.5 * dt / m))  # Crank-Nicolson: I + dt/2 A_h
        minus.append(a_h.shifted(1.0, -0.5 * dt / m))  # and (I - dt/2 A_h)^-1
        n = config.params.n
        if segments and segments[-1][2] == n:
            segments[-1][1] = (q + 1) * nodes
        else:
            segments.append([q * nodes, (q + 1) * nodes, n])

    plus, minus = Tridiagonal.block_diagonal(plus), Tridiagonal.block_diagonal(minus)
    cells = [(runs[r][0].params, runs[r][1].profile.values) for r in order]
    c_bar = np.concatenate([c for _, c in cells])
    base = np.concatenate([clamped_power(c, p.n) for p, c in cells])
    k_node = np.repeat([p.k for p, _ in cells], nodes)
    sat = np.repeat([p.sat_m for p, _ in cells], nodes)
    dt_sub = np.repeat([dt / subs[r] for r in order], nodes)
    w = np.concatenate([runs[r][2].values for r in order])
    # work buffers, used by each leading part through their heads: r (also a
    # temporary once r* is formed), h * r*, the right-hand side, and each
    # node's 0.5 * r of its last substep
    rate, r_star, rhs, half_prev = np.empty((4, w.size))
    below = np.empty(w.size, dtype=bool)

    def part(count):
        """The first count runs' views: state, per-node arrays, powers, the
        plus diagonals, the in-place minus solve and the work buffers."""
        a = count * nodes
        return (count, w[:a], w[:a - 1], w[1:a], k_node[:a], base[:a], c_bar[:a], sat[:a],
                -sat[:a], dt_sub[:a], [(rate[s:min(e, a)], n) for s, e, n in segments if s < a],
                plus.diag[:a], plus.upper[:a - 1], plus.lower[1:a],
                Tridiagonal(*(d[:a] for d in minus)).factor(in_place=True), rate[:a],
                rate[:a - 1], r_star[:a], rhs[:a], rhs[:a - 1], rhs[1:a], half_prev[:a], below[:a])

    # substeps len(schedule) + 1 .. m advance the runs with at least m substeps
    schedule = []
    for m in sorted(set(subs)):
        schedule += [part(sum(m_run >= m for m_run in subs))] * (m - len(schedule))

    negativity = (w + c_bar < NEGATIVITY_TOL).reshape(-1, nodes).sum(axis=1)
    rows, in_order = w.reshape(-1, nodes), order == sorted(order)
    record(0, rows if in_order else rows[unsort])
    first, j = True, 0
    for i in range(1, n_outer + 1):
        for (count, w_a, w_lo, w_hi, k, bs, cb, hi, lo, h, powers, d, u, l, solve,
             r, r_lo, r_s, b, b_lo, b_hi, half, neg) in schedule:
            # model.reaction in place: the power once per node range of equal
            # n, with a scalar exponent, because numpy's x ** 2 and x ** 0.5
            # fast paths differ from an array exponent in the last bit
            np.maximum(w_a, lo, out=r)
            np.minimum(r, hi, out=r)
            r += cb
            np.maximum(r, 0.0, out=r)
            for seg, n in powers:
                seg **= n
            np.subtract(bs, r, out=r)
            r *= k
            if first:  # r* = r(w_0)
                np.multiply(h, r, out=r_s)
                first = False
            else:  # r* = 1.5 * r(w_k) - 0.5 * r(w_{k-1})
                np.multiply(r, 1.5, out=r_s)
                r_s -= half
                r_s *= h
            np.multiply(r, 0.5, out=half)
            # b = (I + dt/2 A_h) w + h r*, and w = (I - dt/2 A_h)^-1 b
            np.multiply(d, w_a, out=b)
            np.multiply(u, w_hi, out=r_lo)
            b_lo += r_lo
            np.multiply(l, w_lo, out=r_lo)
            b_hi += r_lo
            b += r_s
            solve(b)
            w_a[:] = b
            np.add(w_a, cb, out=r)
            if np.count_nonzero(np.less(r, NEGATIVITY_TOL, out=neg)):
                negativity[:count] += neg.reshape(-1, nodes).sum(axis=1)
        if np.count_nonzero(np.isfinite(w, out=below)) < w.size:
            raise IntegrationError(f"non-finite state at step {i}", step_index=i)
        if i % every == 0 or i == n_outer:
            j += 1
            record(j, rows if in_order else rows[unsort])

    times = config0.record_times
    return [Trajectory(params=config.params, grid=grid, times=times,
                       states=np.empty((0, nodes)),
                       negativity_events=int(negativity[unsort[r]]), substeps=subs[r])
            for r, (config, _, _) in enumerate(runs)]
