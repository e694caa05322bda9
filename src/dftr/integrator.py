"""IMEX time integration of the deviation equation.

The closed-loop deviation w = C_A - C_bar solves

    w_t = d_ax * w_xx - v * w_x + r(w),
    r(w) = k * C_bar**n - k * (Sat_M(w) + C_bar)**n,

with the feedback folded into the alpha-Robin inlet row of A_h. Each step
treats A_h by the trapezoidal (Crank-Nicolson) rule and the reaction
explicitly at the half step, so one tridiagonal solve advances the state.
Below cell Peclet number 2, A_h is self-adjoint in the e^{-vx/d_ax}-weighted
product: a diagonal D makes D^-1 (I - dt/2 A_h) D symmetric positive definite,
and that solve is LAPACK's LDL^T (dpttrs); otherwise it is LU (dgttrs).
Several runs on one grid and one stencil (d_ax, v) step together as one
block-diagonal system (simulate_stack); simulate is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, IntegrationError, ParameterError
from .model import (FeedbackLaw, Profile, ReactorParams, SpatialGrid, _reaction,
                    _reaction_into, _slope_into, initial_profile)
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
        if self.record_every > np.iinfo(np.intp).max:
            raise ParameterError(f"record_every = {self.record_every}, more than numpy can index")
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


def _ratio(dt, lip):
    """The largest over the runs of dt * L / REACTION_COURANT, from each run's reaction
    slope L at the guard's scale (model._slope_into; 0 at k = 0). It is read in Python
    floats from the largest L, with the bits of the largest per-run ratio: an overflow
    is inf, with no warning, and a NaN L gives NaN."""
    return float(np.maximum.reduce(lip)) * float(dt) / REACTION_COURANT


def _substeps(dt, lip, step_index=0):
    """Per run, the count m keeping dt / m * L within REACTION_COURANT, L as in _ratio;
    IntegrationError if L overflows or m > MAX_SUBSTEPS."""
    if not _ratio(dt, lip) <= MAX_SUBSTEPS:
        raise IntegrationError(
            f"reaction stiffness estimate {np.max(lip):.3e} is beyond what explicit "
            "substepping can stabilize; reduce dt or the reaction scale",
            step_index=step_index)
    return np.maximum(np.ceil(np.multiply(dt, lip) / REACTION_COURANT), 1.0).astype(int)


def substep_count(config: SimulationConfig, c_bar: np.ndarray, w_max: float) -> int:
    """The guard's substep count of one run while max|w| is w_max."""
    p = config.params
    c0, cap = _reach(p, c_bar)
    k, n, *_ = _reaction(p, c_bar)
    # an array exponent, as in simulate_stack's guard: numpy's scalar one rounds otherwise
    lip = _slope_into(np.array([c0 + min(w_max, cap)]), k, np.array([n]))
    return int(_substeps(config.dt, lip)[0])


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

    runs are simulate's (config, steady, w0) on a shared grid, dt, t_final,
    record_every, d_ax and v, so A_h's couplings are the same in every run
    (the gain enters only the inlet row's diagonal); their Crank-Nicolson
    matrices S = I - h/2 A_h sit, in run order, on the diagonal of a
    tridiagonal with zero couplings. A step of length h is taken in delta
    form, w' = 2 D S_D^-1 (D^-1 (w + h/2 r*)) - w with S_D = D^-1 S D: D is
    the symmetrizer of the shared couplings, tiled over the runs, and S_D is
    LDL^T-factored (dpttrf) once per part; couplings with none
    (Tridiagonal.symmetrizer) take D = 1 and an LU factor (dgttrf). Neither
    factor crosses a zero coupling, so each run gets its solo bits. The
    reaction enters as h/2 r* = 0.75 h r(w_k) - 0.25 h r(w_{k-1}), or as
    h/2 r(w_k) at a run's first substep and its first after m changes, and
    is read from the previous substep's clean check, C = w + C_bar (Sat_M
    moved onto C).

    Before each outer step the guard gives each run a substep count m from
    its max|w|: each run's slope is computed in place, _ratio reads the largest
    ratio, and only if that is above 1 (or NaN) does _substeps give the m, so m
    is the guard's own value at every step. A stack is quiet, and reads the ratio only
    before its first step, when every run's ratio at c0 + cap, the most it
    can see, is at most 1/2: for n > 1 the ratio grows with c, for n <= 1 it
    is the same at every c, and the factor 2 covers any rounding. If every
    run needs m = 1 now and did before, the step is one in-place pass over
    the stack; else each run takes m substeps of dt / m on its slice,
    through parts built once (up to each run's first m before record 0), so
    no substep allocates.

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
        if (config.grid, config.dt, config.params.t_final, config.record_every,
                config.params.d_ax, config.params.v) != (
                grid, dt, t_final, every, config0.params.d_ax, config0.params.v):
            raise ContractError(
                "stacked runs must share grid, dt, t_final, record_every, d_ax and v")

    params = [config.params for config, _, _ in runs]
    c_bars = [steady.profile.values for _, steady, _ in runs]
    k_run, orders, lo, hi, base = zip(*(_reaction(p, c) for p, c in zip(params, c_bars)))
    gens = [build_generator(grid, cf.params, cf.law.alpha) for cf, _, _ in runs]
    scale = gens[0].symmetrizer()  # every run's D, or None: D = 1 and LU
    syms = gens if scale is None else [g.symmetrized() for g in gens]
    d_node = np.tile(np.ones(nodes) if scale is None else scale, len(runs))
    d_inv, d_twice = 1.0 / d_node, 2.0 * d_node
    k_run, n_run = np.array(k_run), np.array(orders)
    c0, cap = np.array([_reach(p, c) for p, c in zip(params, c_bars)]).T
    c_bar = np.concatenate(c_bars)
    k_node = np.repeat(k_run, nodes)
    lo, hi, base = map(np.concatenate, (lo, hi, base))
    w = np.concatenate([w0.values for _, _, w0 in runs])
    # work buffers seen through each part's views: C = w + C_bar between substeps and
    # r(w) within one, 0.25 h r of the last substep, and b
    rate, quarter, rhs = np.empty((3, w.size))
    below, c, parts = np.empty(w.size, dtype=bool), np.empty(len(runs)), {}
    ones = np.ones(len(runs), int)
    quiet = _ratio(dt, _slope_into(c0 + cap, k_run, n_run)) <= 0.5

    def substeps(i):
        """Each run's count m from its state at step i, and whether every m is 1."""
        np.abs(w, out=rhs)
        np.maximum.reduce(rhs.reshape(-1, nodes), axis=1, out=c)
        np.minimum(c, cap, out=c)
        np.add(c, c0, out=c)
        _slope_into(c, k_run, n_run)
        if _ratio(dt, c) <= 1.0:  # NaN fails
            return ones, True
        return _substeps(dt, c, i), False  # some m >= 2

    def part(q0, q1, m):
        """Runs q0..q1-1 at dt / m: views, powers, step factors, the solve bound to b."""
        if (q0, q1, m) not in parts:
            a, b, h = q0 * nodes, q1 * nodes, dt / m
            # each longest stretch of runs of one order is raised to it as one segment
            cuts = [q for q in range(q0, q1 + 1) if q in (q0, q1) or orders[q] != orders[q - 1]]
            solve = Tridiagonal.block_diagonal(  # I - h/2 A_h, or D^-1 (I - h/2 A_h) D
                [g.shifted(1.0, -0.5 * h) for g in syms[q0:q1]]).factor(
                into=rhs[a:b], symmetric=scale is not None)
            parts[q0, q1, m] = (
                slice(q0, q1), w[a:b], c_bar[a:b], k_node[a:b], base[a:b], lo[a:b], hi[a:b],
                (0.5 * h, 0.75 * h, 0.25 * h), d_inv[a:b], d_twice[a:b], solve,
                [(rate[s * nodes:e * nodes], orders[s]) for s, e in zip(cuts, cuts[1:])],
                rate[a:b], quarter[a:b], rhs[a:b], below[a:b])
        return parts[q0, q1, m]

    def advance(part, restart):
        """One substep of part's runs, every operation in place."""
        (rows, w_a, cb, k, bs, lo_a, hi_a, (h2, h34, h14), di, d2, solve, powers,
         r, quarter_a, b, neg) = part
        _reaction_into(r, lo_a, hi_a, bs, k, powers)  # r held C = w + C_bar
        if restart:  # h/2 r* = h/2 r(w_k)
            np.multiply(r, h2, out=b)
        else:  # h/2 r* = 0.75 h r(w_k) - 0.25 h r(w_{k-1})
            np.multiply(r, h34, out=b)
            b -= quarter_a
        np.multiply(r, h14, out=quarter_a)
        # w = 2 D S_D^-1 (D^-1 (w + h/2 r*)) - w
        b += w_a
        b *= di
        solve()
        b *= d2
        np.subtract(b, w_a, out=w_a)
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
    np.add(w, c_bar, out=rate)
    negativity = (rate < NEGATIVITY_TOL).reshape(-1, nodes).sum(axis=1)
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
    return [Trajectory(times=times, states=np.empty((0, nodes)),
                       negativity_events=int(negativity[q]), inner_steps=int(inner[q]))
            for q in range(len(runs))]
