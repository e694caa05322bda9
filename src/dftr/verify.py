"""The oracle suite of `dftr verify`.

Each check is a top-level function of (cfg, seed), cfg a cli.ResolvedConfig, that
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

from .analysis import default_weight, energy
from .errors import DftrError
from .integrator import closed_loop, simulate, simulate_stack, substep_count
from .model import Profile, SpatialGrid, lambda_theoretical
from .operator import (build_generator, dissipativity_form, duhamel_oracle,
                       inner_product, random_bc_compatible, resolvent_analytic,
                       resolvent_discrete)


def _rel_l2(grid: SpatialGrid, approx, exact):
    """||approx - exact|| / ||exact|| in the grid's trapezoidal L2 norm."""
    diff = approx - exact
    return np.sqrt(inner_product(grid, diff, diff)) / np.sqrt(inner_product(grid, exact, exact))


class _SplitMix64:
    """SplitMix64 (Steele, Lea and Flood, OOPSLA 2014) as a counter stream: draw i,
    from 1, is mix(seed + i * 0x9E3779B97F4A7C15) mod 2**64, the same bits on every
    numpy and CPU, and no numpy.random (whose secrets and hmac map OpenSSL). Each
    constant is an np.uint64, so no numpy promotes it; uint64 arrays wrap silently."""

    def __init__(self, seed: int):
        self.seed, self.drawn = np.uint64(seed), 0

    def raw(self, size: int) -> np.ndarray:
        """The next size draws as uint64."""
        z = np.arange(self.drawn + 1, self.drawn + size + 1, dtype=np.uint64)
        self.drawn += size
        z *= np.uint64(0x9E3779B97F4A7C15)
        z += self.seed
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        return z

    def uniform(self, low: float, high: float, size: int) -> np.ndarray:
        """The next size draws between low and high, each from its top 53 bits."""
        u = (self.raw(size) >> np.uint64(11)).astype(float) * 2.0 ** -53
        return low + (high - low) * u


def dissipativity(cfg, seed: int):
    """max <A_h xi, xi> / ||xi||^2 over random boundary-compatible xi at three gains,
    drawn from the SplitMix64 stream of seed."""
    grid, params = cfg.grid(), cfg.run().params
    rng = _SplitMix64(seed)
    worst = -np.inf
    for alpha in (0.0, 0.25, 0.5):
        gen = build_generator(grid, params, alpha)
        for _ in range(100):
            xi = random_bc_compatible(gen, rng)
            form = dissipativity_form(gen, xi).form
            norm2 = inner_product(grid, xi.values, xi.values)
            worst = max(worst, form / norm2)
    return worst


def resolvent(cfg, seed: int):
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
        gen = build_generator(g, params, cfg.alpha)
        for lam in errors:
            xi_a = resolvent_analytic(eta, lam, params, cfg.alpha).xi.values
            errors[lam].append(_rel_l2(g, resolvent_discrete(gen, eta, lam).values, xi_a))
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
    gen = build_generator(config.grid, config.params, cfg.alpha)
    oracle = duhamel_oracle(gen, w0, steady, config.params, t_final=50.0, num_steps=500)
    return _rel_l2(config.grid, simulate(config, steady, w0).states[-1], oracle.values)


def duhamel_nonlinear(cfg, seed: int):
    return _duhamel(cfg, cfg.k)


def duhamel_linear(cfg, seed: int):
    return _duhamel(cfg, 0.0)


def equilibrium(cfg, seed: int):
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


def envelope(cfg, seed: int):
    """max ||w(t)|| / (||w(0)|| e^{-lambda_T t}) over the decay run's records."""
    run = closed_loop(cfg.run(to_horizon=True))
    config = run[0]
    weight = default_weight(config.grid, config.params)
    energies = np.empty(config.num_records)

    def record(j, w):
        energies[j] = energy(w[0], weight)

    simulate_stack([run], record)
    norms = np.sqrt(2.0 * energies)
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


def run_checks(cfg, seed: int, cpu_s: dict):
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
            values = check(cfg, seed) if len(specs) > 1 else [check(cfg, seed)]
        except DftrError as exc:
            print(f"check {specs[0][0]} errored: {exc}", file=sys.stderr)
            values = ["error"] * len(specs)
        cpu_s["+".join(name for name, _, _ in specs)] = time.process_time() - started
        yield from map(row, specs, values)
