"""Core types for the tubular-reactor toolkit.

Physical parameters, uniform spatial grids, node-sampled profiles, the
saturated reaction and its slope, the boundary-compatible initial condition,
and the theoretical decay constant. Everything here is immutable after
construction, so one instance can be shared by any number of runs.

Units are documentation only (SI: m, s, mol/m^3); the code enforces
positivity and finiteness, not dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractError, ParameterError


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParameterError(msg)


@dataclass(frozen=True)
class ReactorParams:
    """Physical constants of the reactor model.

    d_ax: axial dispersion coefficient, m^2/s (> 0)
    v: superficial flow velocity, m/s (> 0)
    k: reaction rate constant (>= 0; zero disables the reaction for
       linear cross-checks)
    n: reaction order (> 0)
    l: reactor length, m (> 0)
    t_final: nominal simulation horizon, s (>= 0)
    sat_m: saturation bound applied to the deviation inside the
       reaction term (> 0, finite)
    """

    d_ax: float
    v: float
    k: float
    n: float
    l: float
    t_final: float
    sat_m: float

    def __post_init__(self):
        _require(np.isfinite(self.d_ax) and self.d_ax > 0, f"d_ax must be > 0, got {self.d_ax}")
        _require(np.isfinite(self.v) and self.v > 0, f"v must be > 0, got {self.v}")
        _require(np.isfinite(self.k) and self.k >= 0, f"k must be >= 0, got {self.k}")
        _require(np.isfinite(self.n) and self.n > 0, f"n must be > 0, got {self.n}")
        _require(np.isfinite(self.l) and self.l > 0, f"l must be > 0, got {self.l}")
        _require(np.isfinite(self.t_final) and self.t_final >= 0,
                 f"t_final must be >= 0, got {self.t_final}")
        _require(np.isfinite(self.sat_m) and self.sat_m > 0,
                 f"sat_m must be > 0 and finite, got {self.sat_m}")

    @property
    def power_order(self) -> float:
        """n, or 1 when k = 0: a disabled reaction is then 0 even where C**n overflows."""
        return self.n if self.k else 1.0


@dataclass(frozen=True)
class FeedbackLaw:
    """Boundary feedback u_w(t) = alpha * w(0, t) around the inlet value u_bar."""

    alpha: float
    u_bar: float = 1.0

    def __post_init__(self):
        _require(np.isfinite(self.alpha) and 0.0 <= self.alpha <= 0.5,
                 f"alpha must lie in [0, 1/2], got {self.alpha}")
        _require(np.isfinite(self.u_bar) and self.u_bar > 0,
                 f"u_bar must be > 0, got {self.u_bar}")


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform grid x_i = i*h on [0, l] with h = l/(num_nodes - 1)."""

    l: float
    num_nodes: int

    def __post_init__(self):
        _require(np.isfinite(self.l) and self.l > 0, f"l must be > 0, got {self.l}")
        _require(int(self.num_nodes) == self.num_nodes and self.num_nodes >= 3,
                 f"num_nodes must be an integer >= 3, got {self.num_nodes}")
        # the longest float64 array numpy can address, less the few lengths that
        # np.linspace's float arithmetic rounds up past it (2**60 - 1 to 2**60)
        longest = int(np.nextafter(np.iinfo(np.intp).max // 8, 0))
        _require(self.num_nodes <= longest,
                 f"num_nodes must be at most {longest}, got {self.num_nodes}")

    @property
    def h(self) -> float:
        return self.l / (self.num_nodes - 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        x = np.linspace(0.0, self.l, self.num_nodes)
        x.flags.writeable = False
        return x

    @cached_property
    def quad_weights(self) -> np.ndarray:
        # trapezoid weights: h/2 at the ends, h inside
        w = np.full(self.num_nodes, self.h)
        w[0] = w[-1] = 0.5 * self.h
        w.flags.writeable = False
        return w


@dataclass(frozen=True)
class Profile:
    """A spatial field sampled at the grid nodes (node values only)."""

    grid: SpatialGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float, copy=True)
        if vals.shape != (self.grid.num_nodes,):
            raise ContractError(
                f"profile length {vals.shape} does not match grid ({self.grid.num_nodes},)")
        if not np.all(np.isfinite(vals)):
            raise ContractError("profile contains non-finite values")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def d_ax_from_peclet(v: float, l: float, pe: float) -> float:
    """Dispersion coefficient from the Peclet number Pe = v*l/d_ax."""
    _require(np.isfinite(v) and v > 0, f"v must be > 0, got {v}")
    _require(np.isfinite(l) and l > 0, f"l must be > 0, got {l}")
    _require(np.isfinite(pe) and pe > 0, f"pe must be > 0, got {pe}")
    return v * l / pe


def clamped_power(c, n: float):
    """max(c, 0)**n, the reaction-rate power law extended to negative arguments.

    Physical concentrations are nonnegative; the clamp keeps fractional
    orders total and preserves rate(0) = 0.
    """
    return np.maximum(c, 0.0) ** n


def _reaction(params: ReactorParams, c_bar):
    """(k, n, lo, hi, base) of the reaction k*c_bar^n - k*(Sat_M(w) + c_bar)^n about c_bar,
    read at C = w + c_bar: n = power_order, the clamp on C runs from lo = max(c_bar - sat_m, 0)
    to hi = max(c_bar + sat_m, 0), and base = max(c_bar, 0)^n."""
    m, n = params.sat_m, params.power_order
    lo, hi = (np.maximum(np.add(c_bar, s), 0.0) for s in (-m, m))
    return params.k, n, lo, hi, clamped_power(c_bar, n)


def _steady_reaction(params: ReactorParams, grid: SpatialGrid):
    """_reaction's tuple of the steady solve's -k*max(C, 0)^n: no clamp, and k per node with
    the outlet's weighted by 1 - z/3 + z^2/6, z = h*v/d_ax. With C'(l) = 0 the stationary
    equation gives C'''(l) = v*k*C(l)^n / d_ax^2; folding that ghost defect into the outlet
    row is this weight, and restores O(h^2). The stepper's k is uniform."""
    k = np.full(grid.num_nodes, params.k)
    z = grid.h * params.v / params.d_ax
    k[-1] *= 1.0 - z / 3.0 + z * z / 6.0
    return k, params.power_order, 0.0, np.inf, 0.0


def _reaction_into(c, lo, hi, base, k, powers):
    """c = k*(base - min(max(c, lo), hi)**n), the reaction in place, from _reaction's tuple.

    lo, hi, base and k may be scalars or per-node arrays. For _reaction's, rounding is
    monotone, so these are the bits of k*(base - max(min(max(w, -sat_m), sat_m) + c_bar,
    0)**n), NaN included. powers pairs each segment of c with its order n as a scalar, as
    numpy's x ** 2 and x ** 0.5 fast paths differ from an array exponent."""
    np.maximum(c, lo, out=c)
    np.minimum(c, hi, out=c)
    for seg, n in powers:
        seg **= n
    np.subtract(base, c, out=c)
    c *= k
    return c


def _slope_into(c, k, n):
    """c = k*n*max(c, 1e-12)**(n - 1), the rate's slope in place: the floor keeps n < 1 finite
    at C = 0, and an overflow is inf, with no warning. k and n are scalars or arrays like c."""
    np.maximum(c, 1e-12, out=c)
    with np.errstate(over="ignore"):
        c **= n - 1.0
    c *= k * n
    return c


def reaction_rate(w, c_bar, params: ReactorParams):
    """Deviation-form reaction term r(w) = k*c_bar^n - k*(Sat_M(w) + c_bar)^n."""
    out = np.add(w, c_bar, out=np.empty(np.broadcast_shapes(np.shape(w), np.shape(c_bar))))
    k, n, lo, hi, base = _reaction(params, c_bar)
    return _reaction_into(out, lo, hi, base, k, [(out, n)])


def _startup_peak(d_ax: float, v: float, l: float, alpha: float) -> float:
    """w(l, 0), the maximum of initial_profile at gain alpha."""
    return l * (l * v * (1.0 - alpha) + 2.0 * d_ax) / (2.0 * v * (1.0 - alpha))


def initial_profile(grid: SpatialGrid, params: ReactorParams, law: FeedbackLaw) -> Profile:
    """Quadratic initial deviation compatible with both boundary conditions.

    w(x,0) = -(x-l)^2/2 + l*(l*v*(1-alpha) + 2*d_ax) / (2*v*(1-alpha)),
    which satisfies (1-alpha)*w(0,0) = (d_ax/v)*w_x(0,0) and w_x(l,0) = 0
    exactly.
    """
    if not law.alpha < 1.0:
        raise ParameterError(f"initial profile requires alpha < 1, got {law.alpha}")
    offset = _startup_peak(params.d_ax, params.v, params.l, law.alpha)
    return Profile(grid, -0.5 * (grid.nodes - params.l) ** 2 + offset)


def default_saturation_bound(d_ax: float, v: float, l: float, alpha: float) -> float:
    """Saturation bound 10x the peak of the default initial deviation.

    The initial profile is increasing in x, so its maximum is w(l,0); a
    bound of ten times that keeps the clamp inactive on nominal runs while
    the reaction term stays globally Lipschitz.
    """
    _require(np.isfinite(alpha) and alpha < 1.0, f"alpha must be < 1, got {alpha}")
    return 10.0 * _startup_peak(d_ax, v, l, alpha)


def lambda_theoretical(params: ReactorParams) -> float:
    """Theoretical exponential decay rate v^2 / (16 * d_ax)."""
    return params.v ** 2 / (16.0 * params.d_ax)
