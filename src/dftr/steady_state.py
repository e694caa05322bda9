"""Steady-state solvers for the reactor boundary-value problem.

The stationary profile satisfies

    d_ax * C'' = v * C' + k * C**n   on (0, l),
    C(0) = u_bar + (d_ax / v) * C'(0),      C'(l) = 0.

For n = 1 the problem is linear and solved in closed form; for general
n > 0 a damped Newton iteration solves a finite-difference system: the time
integrator's generator at alpha = 0 and its reaction, but with k at the
outlet node weighted by 1 - z/3 + z^2/6 (model._steady_reaction). So the
solution is not an exact equilibrium of the integrator's system: its residual
there is 3.4e-6 to 6.3e-6 at the outlet of 201 nodes (ROADMAP item 4). The
zero deviation is one, as the integrator's reaction is 0 at w = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SolverError
from .model import (Profile, ReactorParams, SpatialGrid, _reaction_into, _slope_into,
                    _steady_reaction, clamped_power)
from .operator import build_generator

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 100
NEWTON_MAX_HALVINGS = 30


@dataclass(frozen=True)
class AnalyticSteadyState:
    """Closed-form first-order steady state C(x) = c5*e^{m1 x} + c6*e^{m2 x}.

    m1 = (v + q)/(2 d_ax), m2 = (v - q)/(2 d_ax), q = sqrt(v^2 + 4 d_ax k).
    c5_scaled = c5 * e^{q l / d_ax} is kept alongside c5 so evaluation only
    ever exponentiates non-positive arguments (no overflow at large Peclet).
    """

    c5: float
    c6: float
    q: float
    params: ReactorParams
    u_bar: float
    c5_scaled: float

    @property
    def m1(self) -> float:
        return (self.params.v + self.q) / (2.0 * self.params.d_ax)

    @property
    def m2(self) -> float:
        return (self.params.v - self.q) / (2.0 * self.params.d_ax)

    def evaluate(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        shift = self.q * self.params.l / self.params.d_ax
        # both exponents are <= 0 on [0, l]
        return (self.c5_scaled * np.exp(self.m1 * x - shift)
                + self.c6 * np.exp(self.m2 * x))

    def derivative(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        shift = self.q * self.params.l / self.params.d_ax
        return (self.c5_scaled * self.m1 * np.exp(self.m1 * x - shift)
                + self.c6 * self.m2 * np.exp(self.m2 * x))

    def profile(self, grid: SpatialGrid) -> Profile:
        return Profile(grid, self.evaluate(grid.nodes))


@dataclass(frozen=True)
class SteadyStateSolution:
    """Discrete stationary profile with Newton diagnostics.

    residual_norm is max|F| / max(1, u_bar) over all nodes of the discrete
    stationary system; iterations is the accepted Newton step count (0 when
    the initial guess already satisfies the tolerance).
    """

    profile: Profile
    residual_norm: float
    iterations: int


def steady_state_analytic_n1(params: ReactorParams, u_bar: float) -> AnalyticSteadyState:
    """Closed-form steady state for reaction order n = 1.

    Coefficients come from the boundary conditions; the common factor
    e^{q l / d_ax} is divided out of numerator and denominator so the
    formulas stay finite for arbitrarily large Peclet numbers. The map
    u_bar -> C is linear, so u_bar = 0 yields the zero profile.
    """
    if abs(params.n - 1.0) > 1e-12:
        raise ParameterError(f"analytic steady state requires n = 1, got n = {params.n}")
    if not (np.isfinite(u_bar) and u_bar >= 0):
        raise ParameterError(f"u_bar must be >= 0, got {u_bar}")
    v, d, k, l = params.v, params.d_ax, params.k, params.l
    q = np.sqrt(v * v + 4.0 * d * k)
    decay = np.exp(-q * l / d)
    den = (v + q) ** 2 - (v - q) ** 2 * decay
    c6 = 2.0 * v * u_bar * (v + q) / den
    c5_scaled = -2.0 * v * u_bar * (v - q) / den
    c5 = c5_scaled * decay
    return AnalyticSteadyState(c5=c5, c6=c6, q=q, params=params, u_bar=u_bar,
                               c5_scaled=c5_scaled)


def _stationary_system(params: ReactorParams, u_bar: float, grid: SpatialGrid):
    """Linear part and forcing (a0, b) of the stationary residual
    F(C) = a0 @ C + b + r(C), with r the rate of model._steady_reaction. a0 is
    the alpha = 0 generator: the inlet condition C(0) - (d_ax/v) C'(0) = u_bar
    is its Robin row with the inhomogeneous part moved into b[0].
    """
    h = grid.h
    d, v = params.d_ax, params.v
    a0 = build_generator(grid, params, 0.0)

    b = np.zeros(grid.num_nodes)
    b[0] = (2.0 * v / h + v * v / d) * u_bar
    return a0, b


def steady_state_numeric(params: ReactorParams, u_bar: float,
                         grid: SpatialGrid) -> SteadyStateSolution:
    """Damped Newton solve of the discrete stationary system.

    Initial guess is the constant u_bar, or the analytic profile when n is
    within 1e-12 of 1. Steps are halved (up to 30 times) until the scaled
    residual decreases, or, when none does, the iterate is accepted if its
    residual lies at the round-off floor of the stencil (fine grids).
    Negative iterates under n < 1 are handled by the clamped power, never by
    raising mid-iteration.
    """
    if not (np.isfinite(u_bar) and u_bar > 0):
        raise ParameterError(f"u_bar must be > 0, got {u_bar}")
    a0, b = _stationary_system(params, u_bar, grid)
    k, n, lo, hi, base = _steady_reaction(params, grid)

    def residual(c):
        r = c.copy()
        return a0.apply(c) + b + _reaction_into(r, lo, hi, base, k, [(r, n)])

    scale = max(1.0, abs(u_bar))
    # round-off floor of the scaled residual per unit max|C|: 16 eps ||A_0||_inf,
    # the max row sum of |lower|+|diag|+|upper|; it outgrows NEWTON_TOL as h shrinks
    roundoff = 16.0 * np.finfo(float).eps * np.max(sum(map(np.abs, a0))) / scale
    if abs(params.n - 1.0) <= 1e-12:
        c = steady_state_analytic_n1(params, u_bar).evaluate(grid.nodes)
    else:
        c = np.full(grid.num_nodes, u_bar)

    f = residual(c)
    res = np.max(np.abs(f)) / scale
    iterations = 0
    for _ in range(NEWTON_MAX_ITER):
        if res <= NEWTON_TOL:
            break
        dr = _slope_into(c.copy(), k, n)
        step = a0.shifted(-dr).solve(-f)
        lam = 1.0
        for _ in range(NEWTON_MAX_HALVINGS):
            trial = c + lam * step
            f_trial = residual(trial)
            res_trial = np.max(np.abs(f_trial)) / scale
            if res_trial < res:
                break
            lam *= 0.5
        else:
            if res <= roundoff * np.max(np.abs(c)):
                break  # at the round-off floor no step can lower the residual
            raise SolverError("Newton damping failed to reduce the residual",
                              residual=res, iterations=iterations)
        c, f, res = trial, f_trial, res_trial
        iterations += 1
    else:
        raise SolverError(f"Newton did not converge in {NEWTON_MAX_ITER} iterations",
                          residual=res, iterations=iterations)

    if np.min(c) < 0.0:
        raise SolverError(
            f"steady state has negative nodes (min {np.min(c):.3e}); "
            "choose a different u_bar", residual=res, iterations=iterations)
    return SteadyStateSolution(profile=Profile(grid, c), residual_norm=res,
                               iterations=iterations)


def steady_state_residual(profile: Profile, params: ReactorParams, u_bar: float) -> float:
    """Continuum-equation residual of a candidate steady profile.

    Max over interior nodes of |d_ax*D2(C) - v*D1(C) - k*C^n| (central
    differences) plus the two boundary-condition defects evaluated with
    second-order one-sided derivatives.
    """
    c = profile.values
    h = profile.grid.h
    d, v, k = params.d_ax, params.v, params.k

    d1 = (c[2:] - c[:-2]) / (2.0 * h)
    d2 = (c[2:] - 2.0 * c[1:-1] + c[:-2]) / h ** 2
    interior = np.max(np.abs(d * d2 - v * d1 - k * clamped_power(c[1:-1], params.n)))

    dc0 = (-3.0 * c[0] + 4.0 * c[1] - c[2]) / (2.0 * h)
    dcl = (3.0 * c[-1] - 4.0 * c[-2] + c[-3]) / (2.0 * h)
    inlet_defect = abs(c[0] - u_bar - (d / v) * dc0)
    outlet_defect = abs(dcl)
    return float(interior + inlet_defect + outlet_defect)
