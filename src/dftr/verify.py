"""The oracle suite of `dftr verify`.

Each check is a top-level function of cfg, a cli.ResolvedConfig, that
returns its row's value, or a tuple of values for a check with several rows.
CHECKS pairs each check with its rows' (name, metric, threshold), in verify.csv
order; a new row is one function and one entry there.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import replace

import numpy as np

from .analysis import default_weight, norm
from .errors import DftrError
from .integrator import closed_loop, simulate, simulate_stack, substep_count
from .model import Profile, SpatialGrid, lambda_theoretical
from .operator import (Tridiagonal, build_generator, duhamel_oracle, inner_product,
                       resolvent_analytic, resolvent_discrete)


def _rel_l2(grid: SpatialGrid, approx, exact):
    """||approx - exact|| / ||exact|| in the grid's trapezoidal L2 norm."""
    diff = approx - exact
    return np.sqrt(inner_product(grid, diff, diff)) / np.sqrt(inner_product(grid, exact, exact))


def _symmetric_part(a: Tridiagonal, q: np.ndarray) -> Tridiagonal:
    """Q^-1/2 sym(Q a) Q^-1/2 for Q = diag(q), q > 0: a's diagonal, and couplings
    (q_i upper_i + q_{i+1} lower_{i+1}) / (2 sqrt(q_i q_{i+1})). Its top eigenvalue is
    the max of <a xi, xi>_q / ||xi||_q^2 over every xi, at any cell Peclet number."""
    coupling = np.zeros(a.diag.size)
    coupling[:-1] = ((q[:-1] * a.upper[:-1] + q[1:] * a.lower[1:])
                     / (2.0 * np.sqrt(q[:-1] * q[1:])))
    return Tridiagonal(np.roll(coupling, 1), a.diag, coupling)


def dissipativity(cfg):
    """A_h's numerical abscissa in the trapezoidal product, the max of <A_h xi, xi>_h /
    ||xi||_h^2 over every xi (A_h's rows hold the boundary conditions), at three gains."""
    grid, params = cfg.grid(), cfg.run().params
    return max(_symmetric_part(build_generator(grid, params, alpha),
                               grid.quad_weights).top_eigenvalue()
               for alpha in (0.0, 0.25, 0.5))


def resolvent(cfg):
    """The finest level's error against the closed form and the observed order."""
    grid, params = cfg.grid(), cfg.run().params
    base = grid.num_nodes - 1
    if base % 4 != 0 or base // 4 + 1 < 11:
        return "skipped", "skipped"
    # the levels coarsen to (N-1)/4+1 nodes, or refine to 4N-3 when that coarsest grid's
    # cell Peclet number h v / d_ax is above 1 (h wider than the layer d_ax / v)
    scale = 4 if 4.0 * grid.h * params.v / params.d_ax > 1.0 else 1
    errors = {lam: [] for lam in (0.1, 1.0, 10.0)}
    for m in (base * scale // 4 + 1, base * scale // 2 + 1, base * scale + 1):
        g = SpatialGrid(l=cfg.l, num_nodes=m)
        eta = Profile(g, np.ones(m))
        a_h = build_generator(g, params, cfg.alpha)
        for lam in errors:
            xi_a = resolvent_analytic(eta, lam, params, cfg.alpha).values
            errors[lam].append(_rel_l2(g, resolvent_discrete(a_h, eta, lam).values, xi_a))
    max_err = max(errs[-1] for errs in errors.values())
    min_order = min(0.5 * (math.log2(errs[0] / errs[1])
                           + math.log2(errs[1] / errs[2]))
                    for errs in errors.values())
    return max_err, min_order


def _duhamel(cfg, k: float):
    # the oracle's 500 steps to 50 s at the default dt, on up to 101 nodes or else 51
    config, steady, w0 = closed_loop(replace(
        cfg, k=k, t_final=50.0, dt=None,
        num_nodes=cfg.num_nodes if cfg.num_nodes <= 101 else 51).run())
    a_h = build_generator(config.grid, config.params, cfg.alpha)
    oracle = duhamel_oracle(a_h, w0, steady, config.params, t_final=50.0, num_steps=500)
    return _rel_l2(config.grid, simulate(config, steady, w0).states[-1], oracle.values)


def duhamel_nonlinear(cfg):
    return _duhamel(cfg, cfg.k)


def duhamel_linear(cfg):
    return _duhamel(cfg, 0.0)


def equilibrium(cfg):
    """max|w| over every step from w = 0 to t_final, which may stop early."""
    run = closed_loop(replace(cfg, record_every=1).run(),
                      Profile(cfg.grid(), np.zeros(cfg.num_nodes)))
    single = substep_count(run[0], run[1].profile.values, 0.0) == 1
    max_w, zeros = 0.0, 0

    def record(j, w):
        # With one substep per step, step i >= 2 is a fixed function of w_{i-1}
        # and the AB2 history 0.5 r(w_{i-2}). Once records j-2, j-1 and j (j >= 2)
        # are all zero, step j+1 gets step j's inputs up to the sign of zero, and
        # that sign changes no bit of a nonzero result (x + -0 is x, and r(+-0) is
        # r(0) bit for bit); so it repeats step j, as does every later step, and
        # max_w is final.
        nonlocal max_w, zeros
        w_max = float(np.maximum.reduce(np.abs(w[0])))
        max_w = max(max_w, w_max)
        zeros = zeros + 1 if w_max == 0.0 else 0
        return single and zeros == 3

    simulate_stack([run], record)
    return max_w


def envelope(cfg):
    """max ||w(t)|| / (||w(0)|| e^{-lambda_T t}) over the decay run's records."""
    run = closed_loop(cfg.run(to_horizon=True))
    config = run[0]
    weight = default_weight(config.grid, config.params)
    norms = np.empty(config.num_records)

    def record(j, w):
        norms[j] = norm(w[0], weight)

    simulate_stack([run], record)
    bound = norms[0] * np.exp(-lambda_theoretical(config.params) * config.record_times)
    # a zero norm meets any bound; a positive one over an underflowed bound is inf
    with np.errstate(divide="ignore"):
        ratios = np.divide(norms, bound, out=np.zeros_like(norms), where=norms > 0.0)
    # the t = 0 ratio is 1 by construction; it counts only when alone
    return float(np.max(ratios[1:] if ratios.size > 1 else ratios))


# (check, its rows' (name, metric, threshold)) in verify.csv order; a row passes at
# value <= threshold, or within the band of an order's "centre+-width" threshold
CHECKS = (
    (dissipativity, (("dissipativity", "max_form_over_norm2", 1e-8),)),
    (resolvent, (("resolvent_error", "max_rel_l2", 1e-3),
                 ("resolvent_order", "observed_order", "2.0+-0.3"))),
    (duhamel_nonlinear, (("duhamel_nonlinear", "rel_l2", 1e-2),)),
    (duhamel_linear, (("duhamel_linear", "rel_l2", 1e-4),)),
    (equilibrium, (("equilibrium", "max_w_inf", 1e-9),)),
    (envelope, (("envelope", "max_norm_over_bound", 1.01),)),
)


def row(spec, value) -> tuple:
    """verify.csv's (check, metric, value, threshold, pass) row of spec; value is a number,
    "error" (the check raised; pass False) or "skipped" (too coarse a grid; pass "skipped")."""
    name, metric, threshold = spec
    if isinstance(value, str):
        metric, passed = {"error": ("error", False),
                          "skipped": ("skipped_insufficient_resolution", "skipped")}[value]
        return name, metric, None, threshold, passed
    if isinstance(threshold, str):
        centre, width = map(float, threshold.split("+-"))
        passed = centre - width <= value <= centre + width
    else:
        passed = value <= threshold
    return name, metric, value, threshold, bool(passed)


def run_checks(cfg, cpu_s: dict):
    """Run CHECKS in order; yields each check's rows as it finishes.

    A check that raises a toolkit error gives errored rows (with the error
    on stderr) so the report is always complete. cpu_s gets each check's
    process CPU seconds, keyed by its rows' names joined by '+'.
    """
    # time settings no run can take, or the envelope's norms of more records than memory
    # holds (a MemoryError, which cli names a config error), fail before any row
    cfg.run(), np.empty(cfg.run(to_horizon=True).num_records)
    for check, specs in CHECKS:
        started = time.process_time()
        try:
            values = check(cfg) if len(specs) > 1 else [check(cfg)]
        except DftrError as exc:
            print(f"check {specs[0][0]} errored: {exc}", file=sys.stderr)
            values = ["error"] * len(specs)
        cpu_s["+".join(name for name, _, _ in specs)] = time.process_time() - started
        yield from map(row, specs, values)
