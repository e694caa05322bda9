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

from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, IntegrationError, ParameterError
from .model import (FeedbackLaw, Profile, ReactorParams, SpatialGrid, _reaction_into,
                    clamped_power, initial_profile)
from .operator import Tridiagonal, build_generator
from .steady_state import SteadyStateSolution, steady_state_numeric

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
        if not (ratio := self.params.t_final / self.dt) <= np.iinfo(np.intp).max:
            raise ParameterError(f"t_final / dt = {ratio:g} steps, more than numpy can index")
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
    """Recorded closed-loop trajectory: states[j] is w(., times[j]) at the nodes (no rows
    from simulate_stack, which hands each record to its consumer); inner_steps counts its
    substeps over all steps."""

    params: ReactorParams
    grid: SpatialGrid
    times: np.ndarray
    states: np.ndarray
    negativity_events: int
    inner_steps: int

    def __post_init__(self):
        self.times.flags.writeable = False
        self.states.flags.writeable = False


def closed_loop(config: SimulationConfig, w0: Profile | None = None):
    """simulate's (config, steady, w0) for config's run around its steady state, from w0
    or else from the boundary-compatible initial profile."""
    steady = steady_state_numeric(config.params, config.law.u_bar, config.grid)
    if w0 is None:
        w0 = initial_profile(config.grid, config.params, config.law)
    return config, steady, w0


def _reach(params: ReactorParams, c_bar: np.ndarray):
    """(c0, cap) of the guard's concentration scale c0 + min(max|w|, cap): for n >= 1 the
    most the clamped reaction sees, for n < 1 (r' blows up at 0) half the least C_bar."""
    return ((float(np.max(c_bar)), params.sat_m) if params.n >= 1.0
            else (max(float(np.min(c_bar)), 1e-6) / 2.0, 0.0))


def _ratio(dt, k, n, c, out=None):
    """Per run, (dt * L / REACTION_COURANT, L) with L = k*n*c^(n-1), n the power order.
    Given out, both are computed in it, so only the ratio is left."""
    with np.errstate(over="ignore"):
        lip = np.multiply(k * n, np.power(c, n - 1.0, out=out), out=out)
    return np.divide(np.multiply(dt, lip, out=out), REACTION_COURANT, out=out), lip


def _substeps(dt, k, n, c, step_index=0):
    """Per run, the count m keeping dt / m * L within REACTION_COURANT (L = 0 at k = 0);
    IntegrationError if L overflows or m > MAX_SUBSTEPS."""
    ratio, lip = _ratio(dt, k, n, c)
    if not np.max(ratio) <= MAX_SUBSTEPS:
        raise IntegrationError(
            f"reaction stiffness estimate {np.max(lip):.3e} is beyond what explicit "
            "substepping can stabilize; reduce dt or the reaction scale",
            step_index=step_index)
    return np.maximum(np.ceil(ratio), 1.0).astype(int)


def substep_count(config: SimulationConfig, c_bar: np.ndarray, w_max: float) -> int:
    """The guard's substep count of one run while max|w| is w_max."""
    p = config.params
    c0, cap = _reach(p, c_bar)
    return int(_substeps(config.dt, p.k, p.power_order, np.float64(c0 + min(w_max, cap))))


def step(state: Profile, steady: SteadyStateSolution, config: SimulationConfig) -> Profile:
    """simulate() over one step of config.dt from a bare state: the reaction is
    extrapolated at first order, r* = r(w), and the guard's substeps apply."""
    one = replace(config, params=replace(config.params, t_final=config.dt), record_every=1)
    return Profile(config.grid, simulate(one, steady, state).states[-1])


def simulate(config: SimulationConfig, steady: SteadyStateSolution,
             w0: Profile) -> Trajectory:
    """Integrate the closed loop over [0, t_final], storing every record_every-th
    state in states (the initial state and final time are always kept). A caller
    that needs only a number per record steps simulate_stack([run], record)."""
    states = np.empty((config.num_records, config.grid.num_nodes))

    def record(j, w):
        states[j] = w[0]

    (traj,) = simulate_stack([(config, steady, w0)], record)
    return replace(traj, states=states)


def simulate_stack(runs, record) -> list:
    """Integrate several closed-loop runs at once as one block-diagonal system.

    runs are simulate's (config, steady, w0) on a shared grid, dt, t_final
    and record_every; their Crank-Nicolson matrices sit, in run order, on
    the diagonal of a tridiagonal with zero couplings. Before each outer
    step the guard gives each run a substep count m from its max|w|: each
    run's _ratio is computed in place, and only if some ratio is above 1 (or
    NaN) does _substeps give the m, so m is the guard's own value at every
    step. A stack is quiet, and reads the ratio only before its first step,
    when every run's ratio at c0 + cap, the most it can see, is at most 1/2:
    for n > 1 the ratio grows with c, for n <= 1 it is the same at every c,
    and the factor 2 covers any rounding. If every run needs m = 1 now and
    did before, the step is one in-place solve of the stack; else each run
    takes m substeps of dt / m on its slice, through parts built once (up to
    each run's first m before record 0), so no substep allocates. dgttrf
    never pivots across a zero coupling, so each run gets its solo bits. The
    reaction enters as 1.5*r(w_k) - 0.5*r(w_{k-1}), or as r(w_k) at a run's
    first substep and its first after m changes.

    record(j, w) gets record j (at config.record_times[j]) as a view of the
    live state, w[q] that of runs[q]; it must neither modify nor keep w. A
    truthy return ends the stepping after that record. A non-finite state
    anywhere raises IntegrationError for the whole stack. Returns one
    state-less Trajectory per run, in order, whose times, inner_steps and
    negativity_events cover the records stepped.
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

    params = [config.params for config, _, _ in runs]
    orders = [p.power_order for p in params]
    c_bars = [steady.profile.values for _, steady, _ in runs]
    gens = [build_generator(grid, cf.params, cf.law.alpha).diagonals for cf, _, _ in runs]
    k_run, n_run = np.array([p.k for p in params]), np.array(orders)
    c0, cap = np.array([_reach(p, c) for p, c in zip(params, c_bars)]).T
    c_bar = np.concatenate(c_bars)
    base = np.concatenate([clamped_power(c, n) for c, n in zip(c_bars, orders)])
    k_node, sat = np.repeat(k_run, nodes), np.repeat([p.sat_m for p in params], nodes)
    w = np.concatenate([w0.values for _, _, w0 in runs])
    # work buffers seen through each part's views: r, h r*, b, 0.5 r of the last substep
    rate, r_star, rhs, half_prev = np.empty((4, w.size))
    below, c, parts = np.empty(w.size, dtype=bool), np.empty(len(runs)), {}
    guard, ones = np.empty(len(runs)), np.ones(len(runs), int)
    quiet = bool(np.all(_ratio(dt, k_run, n_run, c0 + cap)[0] <= 0.5))

    def substeps(i):
        """Each run's count m from its state at step i, and whether every m is 1."""
        np.abs(w, out=rate)
        np.maximum.reduce(rate.reshape(-1, nodes), axis=1, out=c)
        np.minimum(c, cap, out=c)
        np.add(c, c0, out=c)
        if np.maximum.reduce(_ratio(dt, k_run, n_run, c, guard)[0]) <= 1.0:  # NaN fails
            return ones, True
        return _substeps(dt, k_run, n_run, c, i), False  # some m >= 2

    def part(q0, q1, m):
        """Runs q0..q1-1 at dt / m: views, powers, plus diagonals, solve bound to b."""
        if (q0, q1, m) not in parts:
            a, b = q0 * nodes, q1 * nodes
            plus, minus = (Tridiagonal.block_diagonal(  # I +- dt/2 A_h
                [g.shifted(1.0, sign * 0.5 * dt / m) for g in gens[q0:q1]]) for sign in (1, -1))
            cuts = [q for q in range(q0, q1 + 1) if q in (q0, q1) or orders[q] != orders[q - 1]]
            parts[q0, q1, m] = (
                slice(q0, q1), w[a:b], w[a:b - 1], w[a + 1:b], k_node[a:b], base[a:b],
                c_bar[a:b], sat[a:b], -sat[a:b], dt / m,
                [(rate[s * nodes:e * nodes], orders[s]) for s, e in zip(cuts, cuts[1:])],
                plus.diag, plus.upper[:-1], plus.lower[1:], minus.factor(into=rhs[a:b]),
                rate[a:b], rate[a:b - 1], r_star[a:b], rhs[a:b], rhs[a:b - 1], rhs[a + 1:b],
                half_prev[a:b], below[a:b])
        return parts[q0, q1, m]

    def advance(part, restart):
        """One substep of part's runs, every operation in place."""
        (rows, w_a, w_lo, w_hi, k, bs, cb, hi, lo, h, powers, d, u, l, solve,
         r, r_lo, r_s, b, b_lo, b_hi, half, neg) = part
        _reaction_into(w_a, r, lo, hi, cb, bs, k, powers)
        if restart:  # r* = r(w_k)
            np.multiply(h, r, out=r_s)
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
        solve()
        w_a[:] = b
        np.add(w_a, cb, out=r)
        # clean: no C below NEGATIVITY_TOL and none non-finite (a NaN fails both)
        if np.minimum.reduce(r) >= NEGATIVITY_TOL and np.maximum.reduce(r) < np.inf:
            return False
        if np.count_nonzero(np.less(r, NEGATIVITY_TOL, out=neg)):
            negativity[rows] += neg.reshape(-1, nodes).sum(axis=1)
        return True

    m, single = substeps(0)
    whole = part(0, len(runs), 1)
    for q in () if quiet else range(len(runs)):
        for m_q in range(1, m[q] + 1):
            part(q, q + 1, m_q)
    m_prev, single_prev, inner = np.zeros_like(m), True, np.zeros_like(m)  # m_prev 0 at step 1
    negativity = (w + c_bar < NEGATIVITY_TOL).reshape(-1, nodes).sum(axis=1)
    rows = w.reshape(-1, nodes)
    stop = 0 if record(0, rows) else n_outer
    for i in range(1, stop + 1):
        if not quiet:
            if i > 1:
                (m_prev, single_prev), (m, single) = (m, single), substeps(i - 1)
            inner += m
        if quiet or (single and single_prev):
            unclean = advance(whole, i == 1)
        else:
            unclean = False
            for q, m_q in enumerate(m.tolist()):
                for s in range(m_q):
                    unclean |= advance(part(q, q + 1, m_q), s == 0 and m_q != m_prev[q])
        if unclean and np.count_nonzero(np.isfinite(w, out=below)) < w.size:
            raise IntegrationError(f"non-finite state at step {i}", step_index=i)
        if (i % every == 0 or i == n_outer) and record(-(-i // every), rows):
            stop = i
            break

    if quiet:
        inner += stop
    times = config0.record_times[:-(-stop // every) + 1]
    return [Trajectory(params=p, grid=grid, times=times,
                       states=np.empty((0, nodes)), negativity_events=int(negativity[q]),
                       inner_steps=int(inner[q])) for q, p in enumerate(params)]
