"""Kernel microbenchmarks of the dftr layers at 201 and 2001 nodes.

Usage: python3 perfbench/kernels.py CONFIG_INI

Times one call into each public kernel at the reference point of
CONFIG_INI: the reaction term, the tridiagonal resolvent solve, one IMEX
step (dt = 1 s, the sweep step) and the decay fit of a 7000 s trajectory.
Each figure is the median over REPEATS batches of the mean time per call,
with caches warm. Prints one JSON object of figures.

Bytes per step are computed, not measured: one IMEX step must read the
state, the steady profile, the previous reaction term and three diagonals,
and write the next state and the new reaction term, eight vectors of m
doubles. A 2001-node vector is 16 KB, so every kernel's working set fits in
L2 and no bandwidth roofline is claimed.
"""

from __future__ import annotations

import json
import statistics
import sys
import timeit

import numpy as np

import checks
import dftr

SIZES = (201, 2001)
REPEATS = 7
BATCH_S = 0.02
STEP_VECTORS = 8
FIT_HORIZON = 7000.0
FIT_DT = 1.0


def per_call_s(fn) -> float:
    fn()
    once = timeit.timeit(fn, number=1)
    number = max(1, int(BATCH_S / max(once, 1e-9)))
    return statistics.median(t / number for t in
                             timeit.repeat(fn, number=number, repeat=REPEATS))


def kernels(case: checks.Case, m: int) -> dict:
    grid = dftr.SpatialGrid(l=case.l, num_nodes=m)
    law = dftr.FeedbackLaw(alpha=case.alpha, u_bar=case.u_bar)
    params = dftr.ReactorParams(
        d_ax=case.d_ax, v=case.v, k=case.k, n=case.n, l=case.l,
        t_final=FIT_HORIZON,
        sat_m=dftr.default_saturation_bound(case.d_ax, case.v, case.l, case.alpha))
    steady = dftr.steady_state_numeric(params, case.u_bar, grid)
    w0 = dftr.initial_profile(grid, params, law)
    gen = dftr.build_generator(grid, params, case.alpha)
    eta = dftr.Profile(grid, np.ones(m))
    config = dftr.SimulationConfig(params=params, law=law, grid=grid, dt=FIT_DT)
    traj = dftr.simulate(config, steady, w0)
    weight = dftr.default_weight(grid, params)
    tag = f"m{m}"
    return {
        f"model.reaction_rate_us.{tag}": 1e6 * per_call_s(
            lambda: dftr.reaction_rate(w0.values, steady.profile.values, params)),
        f"operator.resolvent_discrete_us.{tag}": 1e6 * per_call_s(
            lambda: dftr.resolvent_discrete(gen, eta, 1.0)),
        f"integrator.step_us.{tag}": 1e6 * per_call_s(
            lambda: dftr.step(w0, steady, config)),
        f"analysis.fit_ms.{tag}": 1e3 * per_call_s(
            lambda: dftr.estimate_decay_rate(traj, weight)),
        f"integrator.step_bytes_computed.{tag}": STEP_VECTORS * 8 * m,
    }


def main(argv) -> int:
    case = checks.load_case(argv[0])
    out = {}
    for m in SIZES:
        out.update(kernels(case, m))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
