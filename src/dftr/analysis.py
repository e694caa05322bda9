"""Weighted-energy machinery, decay-rate estimation, and the (n, alpha) sweep.

The Lyapunov weight rho(x) = e^{-gamma x} with gamma in (0, v/d_ax)
certifies exponential decay of the energy E(t) = 1/2 * int rho w^2 dx at
rate at least lambda_t = v^2/(16 d_ax) (attained at gamma = v/(2 d_ax)).
The numerical rate lambda_n is fitted from the simulated norm history.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import integrator
from .errors import DftrError, EstimationError, ParameterError
from .model import ReactorParams, SpatialGrid

# The interpreter's own SHA-256 (_sha2 from CPython 3.12, _sha256 before), as
# CPython's random.py takes it: hashlib maps OpenSSL's libcrypto, 3.6 MiB
# resident, to hash a few hundred bytes. Every source gives the same digest.
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

DEFAULT_WINDOW_FRACTION = 0.5
DEFAULT_FLOOR_FACTOR = 1e-12  # floor = factor * ||w(0)||_rho


def default_weight(grid: SpatialGrid, params: ReactorParams) -> np.ndarray:
    """The read-only array quad_weights * rho of the weight rho(x_i) = e^{-gamma x_i}
    at the rate-optimal gamma = v/(2 d_ax); ParameterError if that gamma overflows."""
    gamma = params.v / (2.0 * params.d_ax)
    if not np.isfinite(gamma):
        raise ParameterError(f"v/(2 d_ax) is not finite (d_ax = {params.d_ax}, v = {params.v})")
    weight = grid.quad_weights * np.exp(-gamma * grid.nodes)
    weight.flags.writeable = False
    return weight


def energy(w, weight: np.ndarray):
    """E = 1/2 * trapezoid(rho * w^2) over [0, l], weight being default_weight's array.

    w is an array of node values, or a (records, nodes) array, which gives
    one energy per record.
    """
    return 0.5 * np.add.reduce(weight * w ** 2, axis=-1)


@dataclass(frozen=True)
class DecayEstimate:
    """Fitted decay rate with diagnostics.

    lambda_n is None when the trajectory sat at the numerical floor (an
    identically zero run); floor_hit flags any record at or below the floor.
    """

    lambda_n: float | None
    fit_window: tuple
    fit_r2: float
    floor_hit: bool


def estimate_decay_rate(traj, weight: np.ndarray,
                        window_fraction: float = DEFAULT_WINDOW_FRACTION,
                        floor: float | None = None) -> DecayEstimate:
    """Least-squares decay rate of log ||w(t)||_rho over the trailing window,
    the norms taken in weight; the fit is fit_decay_rate."""
    norms = np.sqrt(2.0 * energy(traj.states, weight))
    return fit_decay_rate(traj.times, norms, window_fraction=window_fraction, floor=floor)


def check_window_fraction(window_fraction: float) -> None:
    """ParameterError unless the fit window's fraction lies in (0, 1]."""
    if not (0.0 < window_fraction <= 1.0):
        raise ParameterError(f"window_fraction must lie in (0, 1], got {window_fraction}")


def check_floor(floor: float | None) -> None:
    """ParameterError unless the fit floor is None (the default) or >= 0."""
    if floor is not None and not floor >= 0.0:
        raise ParameterError(f"floor must be >= 0, got {floor}")


def _fit_floor(norm0, floor: float | None):
    """The fit's floor for a norm history starting at norm0 (an array gives
    one floor per history): floor, or DEFAULT_FLOOR_FACTOR * norm0 if None."""
    return DEFAULT_FLOOR_FACTOR * norm0 if floor is None else floor


def fit_decay_rate(times, norms, *, window_fraction: float = DEFAULT_WINDOW_FRACTION,
                   floor: float | None = None) -> DecayEstimate:
    """Least-squares decay rate of log(norms) against times over the trailing
    window. The usable records are the leading run before the first record
    at or below the floor (_fit_floor); nothing after that record is read,
    so the series may end there. The fit needs at least 10 usable records;
    they and the record that ends them must be finite. floor_hit flags a
    record at or below the floor.
    """
    check_window_fraction(window_fraction)
    check_floor(floor)
    floor = _fit_floor(norms[0], floor)
    below = np.flatnonzero(~(norms > floor))
    usable = int(below[0]) if below.size else norms.size
    # an inf norm would make the slope nan, and a nan one would end the run as a floor
    if not np.isfinite(norms[:usable + 1]).all():
        raise EstimationError("a norm up to the floor is not finite", usable_records=usable)
    if usable == 0:
        # identically-zero (or floor-level) run: no rate to report
        return DecayEstimate(lambda_n=None, fit_window=(0.0, 0.0), fit_r2=0.0, floor_hit=True)

    floor_hit = usable < norms.size
    if usable < 10:
        raise EstimationError(f"only {usable} records above the floor (need 10)",
                              usable_records=usable)

    tail = slice(usable - max(2, math.ceil(window_fraction * usable)), usable)
    t = times[tail]
    y = np.log(norms[tail] / norms[0])
    # centred two-pass least squares: one-pass sums of t^2 and t*y cancel at t ~ 1e3,
    # and np.polyfit (LAPACK's SVD) or np.dot (BLAS) would map native code for a line
    tc, y_mean = t - np.mean(t), np.mean(y)
    slope = np.sum(tc * (y - y_mean)) / np.sum(tc ** 2)
    fitted = slope * tc + y_mean
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y_mean) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return DecayEstimate(lambda_n=float(-slope), fit_window=(float(t[0]), float(t[-1])),
                         fit_r2=r2, floor_hit=floor_hit)


@dataclass(frozen=True)
class SweepCell:
    """One (n, alpha) cell of the sweep with full diagnostics."""

    n: float
    alpha: float
    estimate: DecayEstimate | None
    error: str | None
    provenance: dict


@dataclass(frozen=True)
class SweepResult:
    """Decay-rate table over reaction orders and feedback gains, one cell per
    (n, alpha) in the order of sweep's configs; phases holds the process CPU
    seconds of the steady solves, the stack and the fits."""

    cells: dict
    phases: dict = field(default_factory=dict, compare=False)


def settings_hash(settings: dict) -> str:
    """Provenance hash: sha256 of the sorted-key JSON, cut to 16 hex digits."""
    canon = json.dumps(settings, sort_keys=True)
    return _sha256(canon.encode()).hexdigest()[:16]


def _isolated(work):
    """(work(), None), or (None, error text) when work raises a DftrError.

    Per-cell isolation: a toolkit error fails its cell and the sweep goes
    on; anything else is a bug and surfaces with its traceback."""
    try:
        return work(), None
    except DftrError as exc:
        return None, f"{type(exc).__name__}: {exc}"


def sweep(configs, *, window_fraction: float = DEFAULT_WINDOW_FRACTION,
          floor: float | None = None) -> SweepResult:
    """Decay-rate table with one cell per run config, keyed by its (n, alpha).

    A stack takes its cells' norms in the default_weight of its first run,
    since simulate_stack's runs share grid, dt, t_final, record_every, d_ax
    and v; a stack of cells that differ in any of these is refused, so each
    cell then steps alone, in its own weight.

    Each cell solves its own steady state and builds the alpha-dependent
    initial profile. The cells that get this far step together as one
    integrator.simulate_stack, which hands each record to one energy call,
    so no states are kept. The stack stops at the first record by which
    every cell's norm has been at or below its fit floor (or at the
    horizon), since fit_decay_rate reads no record past that, and each
    cell's lambda_n is fitted from its norms: the bits of simulate and
    estimate_decay_rate on that cell alone, at any horizon. A cell too stiff
    for the reaction substep guard (read before record 0) or a non-finite
    state fails the whole stack, so if a stack of several cells fails, each
    cell steps again as a stack of one. Failures are recorded per cell
    without aborting. Two configs sharing an (n, alpha), a bad
    window_fraction or a bad floor raise ParameterError before any cell's
    steady solve.
    """
    check_window_fraction(window_fraction)
    check_floor(floor)
    keys = [(config.params.n, config.law.alpha) for config in configs]
    if len(set(keys)) < len(keys):
        raise ParameterError(f"each (n, alpha) must have one config, got {keys}")

    cells, ready, started = {}, {}, time.process_time()
    for key, config in zip(keys, configs):
        # the cell's settings and their hash; its run adds its solver effort
        settings = {**asdict(config.params), **asdict(config.law),
                    "num_nodes": config.grid.num_nodes, "dt": config.dt,
                    "record_every": config.record_every,
                    "window_fraction": window_fraction,
                    "floor": "default" if floor is None else floor}
        provenance = {"hash": settings_hash(settings), **settings}
        run, err = _isolated(lambda: integrator.closed_loop(config))
        if run is None:
            cells[key] = SweepCell(*key, None, err, provenance)
        else:
            provenance["newton_iterations"] = run[1].iterations
            ready[key] = (run, provenance)
    phases = {"steady": time.process_time() - started, "stack": 0.0, "fit": 0.0}

    def stack(keys):
        """Step these cells together until each has had a record at or below
        its fit floor, and fit each from its norms; a failing stack of
        several cells steps them again one at a time."""
        runs = [ready[key][0] for key in keys]
        weight = default_weight(runs[0][0].grid, runs[0][0].params)
        norms = np.empty((len(keys), runs[0][0].num_records))
        floors, reached = np.empty(len(keys)), np.zeros(len(keys), dtype=bool)

        def record(j, w):
            norms[:, j] = np.sqrt(2.0 * energy(w, weight))
            if j == 0:
                floors[:] = _fit_floor(norms[:, 0], floor)
            reached[:] |= ~(norms[:, j] > floors)
            return reached.all()

        started = time.process_time()
        trajs, err = _isolated(lambda: integrator.simulate_stack(runs, record))
        phases["stack"] += time.process_time() - started
        if err is not None and len(keys) > 1:
            for key in keys:
                stack([key])
            return
        for q, key in enumerate(keys):
            provenance = ready[key][1]
            if trajs is None:
                est = None  # and err is the stack's
            else:
                provenance["inner_steps"] = trajs[q].inner_steps
                provenance["negativity_events"] = trajs[q].negativity_events
                times, started = trajs[q].times, time.process_time()
                est, err = _isolated(lambda: fit_decay_rate(
                    times, norms[q, :times.size], window_fraction=window_fraction, floor=floor))
                phases["fit"] += time.process_time() - started
            cells[key] = SweepCell(*key, est, err, provenance)

    if ready:
        stack(list(ready))

    return SweepResult(cells={key: cells[key] for key in keys}, phases=phases)
