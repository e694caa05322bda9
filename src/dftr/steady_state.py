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
                    _steady_reaction)
from .operator import build_generator

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 100
NEWTON_MAX_HALVINGS = 30


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


@np.errstate(all="ignore")
def steady_state_analytic_n1(params: ReactorParams, u_bar: float,
                             grid: SpatialGrid) -> Profile:
    """Closed-form steady state for reaction order n = 1 on grid's nodes.

    C(x) = c5*e^{m1 x} + c6*e^{m2 x}, m1,2 = (v +- q)/(2 d_ax), q = sqrt(v^2 + 4 d_ax k),
    with c5, c6 from the boundary conditions. The common factor e^{q l / d_ax} is
    divided out of numerator and denominator, and c5 is kept as c5 * e^{q l / d_ax},
    so only non-positive arguments are exponentiated: the formulas stay finite at
    any Peclet number. The map u_bar -> C is linear, so u_bar = 0 yields the zero
    profile. SolverError, with no warning, where the closed form is not finite.
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
    m1, m2 = (v + q) / (2.0 * d), (v - q) / (2.0 * d)
    # both exponents are <= 0 on [0, l]
    c = c5_scaled * np.exp(m1 * grid.nodes - q * l / d) + c6 * np.exp(m2 * grid.nodes)
    if not np.all(np.isfinite(c)):
        raise SolverError(f"closed-form steady state is not finite (q = {q:.3e})")
    return Profile(grid, c)


@np.errstate(all="ignore")
def steady_state_numeric(params: ReactorParams, u_bar: float,
                         grid: SpatialGrid) -> SteadyStateSolution:
    """Damped Newton solve of the discrete stationary system
    F(C) = A_0 C + b + r(C) = 0, with r the rate of model._steady_reaction and A_0
    the alpha = 0 generator: the inlet condition C(0) - (d_ax/v) C'(0) = u_bar is its
    Robin row with the inhomogeneous part moved into b[0].

    Initial guess is the constant u_bar, or the analytic profile when n is
    within 1e-12 of 1. Steps are halved (up to 30 times) until the scaled
    residual decreases, or, when none does, the iterate is accepted if its
    residual lies at the round-off floor of the stencil (fine grids).
    Negative iterates under n < 1 are handled by the clamped power, never by
    raising mid-iteration. Nothing warns: a trial whose residual overflows is
    halved, and a guess whose residual is not finite raises SolverError.
    """
    if not (np.isfinite(u_bar) and u_bar > 0):
        raise ParameterError(f"u_bar must be > 0, got {u_bar}")
    a0 = build_generator(grid, params, 0.0)
    b = np.zeros(grid.num_nodes)
    b[0] = (2.0 * params.v / grid.h + params.v * params.v / params.d_ax) * u_bar
    k, n, lo, hi, base = _steady_reaction(params, grid)

    def residual(c):
        r = c.copy()
        return a0.apply(c) + b + _reaction_into(r, lo, hi, base, k, [(r, n)])

    scale = max(1.0, abs(u_bar))
    # round-off floor of the scaled residual per unit max|C|: 16 eps ||A_0||_inf,
    # the max row sum of |lower|+|diag|+|upper|; it outgrows NEWTON_TOL as h shrinks
    roundoff = 16.0 * np.finfo(float).eps * np.max(sum(map(np.abs, a0))) / scale
    if abs(params.n - 1.0) <= 1e-12:
        c = steady_state_analytic_n1(params, u_bar, grid).values
    else:
        c = np.full(grid.num_nodes, u_bar)

    f = residual(c)
    res = np.max(np.abs(f)) / scale
    if not np.isfinite(res):
        raise SolverError("the reaction k*C**n or the stencil is not finite at the "
                          "initial guess", residual=res, iterations=0)
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
