"""End-to-end acceptance checks for the reactor stability toolkit.

Each test pins one deliverable guarantee with explicit tolerances:
reference constants, spatial and temporal convergence, generator
dissipativity, long-horizon decay behaviour across the full
(n, alpha) table, independent-oracle agreement, and bytewise
reproducibility of the sweep artifact.
"""

import time
import warnings

import numpy as np
import pytest

from dftr import (
    FeedbackLaw,
    Profile,
    SimulationConfig,
    SpatialGrid,
    build_generator,
    default_weight,
    duhamel_oracle,
    energy,
    estimate_decay_rate,
    initial_profile,
    inner_product,
    lambda_theoretical,
    resolvent_analytic,
    resolvent_discrete,
    simulate,
    steady_state_analytic_n1,
    steady_state_numeric,
)
from dftr import verify
from dftr.cli import main
from conftest import make_params

N_VALUES = (0.5, 1.0, 2.0, 10.0)
ALPHA_VALUES = (0.0, 0.25, 0.5)
HORIZON = 7000.0
SWEEP_DT = 1.0

TOL_LAMBDA_T = 1e-15          # reference theoretical rate, absolute
TOL_STEADY_REL = 1e-6         # steady state vs closed form, 201 nodes
TOL_RESOLVENT_REL = 1e-3      # discrete resolvent vs closed form, 401 nodes
ORDER_BAND = (1.7, 2.3)       # acceptable observed spatial orders (2 +- 0.3)
TOL_DISSIPATIVITY = 1e-8      # bound on the form over ||xi||^2, as verify's row
TOL_ENERGY_SLACK = 1e-10      # relative slack for energy monotonicity
ENVELOPE_BOUND = 1.01         # max transient growth of the weighted norm
LAMBDA_LOWER_BOUND = 0.0025   # every fitted rate must clear lambda_T
REPORTED_BRACKET = (0.0020, 0.0060)
TOL_DUHAMEL_NONLINEAR = 1e-2
TOL_DUHAMEL_LINEAR = 1e-4
TOL_EQUILIBRIUM = 1e-9
MIN_RICHARDSON_RATIO = 3.4    # second order in dt gives 4
TOL_SPECTRAL_REL = 1e-3       # fitted lambda_N vs the discrete spectral rate
LONG_RUN_BUDGET_S = 300.0


@pytest.fixture(scope="module")
def long_runs():
    """One 7000 s closed-loop run per (n, alpha) cell, shared by the
    energy-envelope and decay-rate checks."""
    started = time.monotonic()
    grid = SpatialGrid(l=1.0, num_nodes=201)
    cells = {}
    for n in N_VALUES:
        for alpha in ALPHA_VALUES:
            p = make_params(n=n, t_final=HORIZON, alpha_for_sat=alpha)
            law = FeedbackLaw(alpha=alpha)
            steady = steady_state_numeric(p, 1.0, grid)
            cfg = SimulationConfig(params=p, law=law, grid=grid, dt=SWEEP_DT)
            traj = simulate(cfg, steady, initial_profile(grid, p, law))
            est = estimate_decay_rate(traj, default_weight(grid, p))
            cells[(n, alpha)] = (cfg, traj, est)
    return cells, time.monotonic() - started


def test_theoretical_rate_reference_value():
    p = make_params()
    assert abs(lambda_theoretical(p) - 0.0025) <= TOL_LAMBDA_T


def test_steady_state_matches_closed_form_at_second_order():
    p = make_params()
    errors = {}
    for m in (101, 201, 401):
        g = SpatialGrid(l=1.0, num_nodes=m)
        exact = steady_state_analytic_n1(p, 1.0, g).values
        approx = steady_state_numeric(p, 1.0, g).profile.values
        errors[m] = np.max(np.abs(approx - exact)) / np.max(np.abs(exact))
    assert errors[201] <= TOL_STEADY_REL
    for coarse, fine in ((101, 201), (201, 401)):
        order = np.log2(errors[coarse] / errors[fine])
        assert ORDER_BAND[0] <= order <= ORDER_BAND[1]


def test_resolvent_matches_closed_form_at_second_order():
    p = make_params()
    lambdas = (0.1, 1.0, 10.0)
    errors = {}
    for m in (101, 201, 401):
        g = SpatialGrid(l=1.0, num_nodes=m)
        eta = Profile(g, np.cos(2.0 * np.pi * g.nodes) + 0.5)
        for lam in lambdas:
            for alpha in ALPHA_VALUES:
                xi_d = resolvent_discrete(build_generator(g, p, alpha), eta, lam).values
                xi_a = resolvent_analytic(eta, lam, p, alpha).values
                diff = xi_d - xi_a
                errors[(m, lam, alpha)] = np.sqrt(
                    inner_product(g, diff, diff)
                    / inner_product(g, xi_a, xi_a))
    for lam in lambdas:
        for alpha in ALPHA_VALUES:
            assert errors[(401, lam, alpha)] <= TOL_RESOLVENT_REL
            for coarse, fine in ((101, 201), (201, 401)):
                order = np.log2(errors[(coarse, lam, alpha)]
                                / errors[(fine, lam, alpha)])
                assert ORDER_BAND[0] <= order <= ORDER_BAND[1], (lam, alpha)


def test_generator_form_nonpositive_on_admissible_vectors():
    # omega_0, the max of <A_h xi, xi>_h / ||xi||_h^2 over every xi (A_h's rows hold the
    # boundary conditions), is the top eigenvalue of A_h's symmetric part in that product
    p = make_params()
    g = SpatialGrid(l=1.0, num_nodes=201)
    for alpha in ALPHA_VALUES:
        a_h = build_generator(g, p, alpha)
        omega = verify._symmetric_part(a_h, g.quad_weights).top_eigenvalue()
        assert omega <= TOL_DISSIPATIVITY, alpha


def test_energy_decays_monotonically_across_full_table(long_runs):
    cells, elapsed = long_runs
    assert elapsed <= LONG_RUN_BUDGET_S
    for (n, alpha), (cfg, traj, _) in cells.items():
        e = energy(traj.states, default_weight(cfg.grid, cfg.params))
        assert np.all(np.diff(e) <= TOL_ENERGY_SLACK * e[0]), (n, alpha)
        norms = np.sqrt(e / e[0])
        assert np.max(norms) <= ENVELOPE_BOUND, (n, alpha)


def test_fitted_decay_rates_clear_theoretical_bound(long_runs):
    cells, _ = long_runs
    outside = []
    for (n, alpha), (_, _, est) in cells.items():
        assert est.lambda_n is not None, (n, alpha)
        assert est.lambda_n >= LAMBDA_LOWER_BOUND, (n, alpha)
        if not REPORTED_BRACKET[0] <= est.lambda_n <= REPORTED_BRACKET[1]:
            outside.append((n, alpha, est.lambda_n))
    if outside:
        lines = ", ".join(f"(n={n:g}, alpha={a:g}): {lam:.4f}"
                          for n, a, lam in outside)
        warnings.warn(f"fitted rates outside the reported bracket "
                      f"{REPORTED_BRACKET}: {lines}", stacklevel=1)


def test_fitted_decay_rates_match_the_spectral_rate(long_runs):
    # lambda_spec = -max eig(A_h + diag(-k n C_bar^(n-1))), the generator
    # linearized at the steady profile. A_h is written out here with the
    # ghost nodes of the Robin inlet and the zero-gradient outlet eliminated.
    # With cell Peclet h v / d_ax < 2 every lower * upper product is
    # positive, so A_h + J is diagonally similar to the symmetric
    # tridiagonal matrix with off-diagonal sqrt(upper * lower).
    from scipy.linalg import eigh_tridiagonal

    cells, _ = long_runs
    for (n, alpha), (cfg, _, est) in cells.items():
        p, grid = cfg.params, cfg.grid
        m, h, d, v = grid.num_nodes, grid.h, p.d_ax, p.v
        assert h * v / d < 2.0
        lower = np.full(m, d / h ** 2 + v / (2.0 * h))
        diag = np.full(m, -2.0 * d / h ** 2)
        upper = np.full(m, d / h ** 2 - v / (2.0 * h))
        diag[0] = -2.0 * d / h ** 2 - 2.0 * v * (1.0 - alpha) / h - v * v * (1.0 - alpha) / d
        upper[0] = 2.0 * d / h ** 2
        lower[-1] = 2.0 * d / h ** 2
        c_bar = steady_state_numeric(p, 1.0, grid).profile.values
        jac = -p.k * n * c_bar ** (n - 1.0)
        top = eigh_tridiagonal(diag + jac, np.sqrt(upper[:-1] * lower[1:]), eigvals_only=True,
                               select="i", select_range=(m - 1, m - 1))[0]
        rel = abs(est.lambda_n + top) / -top
        assert rel <= TOL_SPECTRAL_REL, (n, alpha, est.lambda_n, -top)


def test_time_stepper_agrees_with_mild_solution_oracle():
    g = SpatialGrid(l=1.0, num_nodes=51)
    for n, k, tol in ((2.0, 0.001, TOL_DUHAMEL_NONLINEAR),
                      (1.0, 0.0, TOL_DUHAMEL_LINEAR)):
        p = make_params(n=n, k=k, t_final=50.0)
        law = FeedbackLaw(alpha=0.25)
        steady = steady_state_numeric(p, 1.0, g)
        w0 = initial_profile(g, p, law)
        a_h = build_generator(g, p, law.alpha)
        oracle = duhamel_oracle(a_h, w0, steady, p, t_final=50.0, num_steps=500)
        traj = simulate(SimulationConfig(params=p, law=law, grid=g, dt=0.1),
                        steady, w0)
        diff = traj.states[-1] - oracle.values
        rel = np.sqrt(inner_product(g, diff, diff)
                      / inner_product(g, oracle.values, oracle.values))
        assert rel <= tol, (n, k)


def test_equilibrium_is_preserved_across_full_table():
    grid = SpatialGrid(l=1.0, num_nodes=201)
    zero = Profile(grid, np.zeros(grid.num_nodes))
    for n in N_VALUES:
        for alpha in ALPHA_VALUES:
            p = make_params(n=n, t_final=400.0, alpha_for_sat=alpha)
            steady = steady_state_numeric(p, 1.0, grid)
            cfg = SimulationConfig(params=p, law=FeedbackLaw(alpha=alpha),
                                   grid=grid, dt=0.1, record_every=100)
            traj = simulate(cfg, steady, zero)
            assert np.max(np.abs(traj.states)) <= TOL_EQUILIBRIUM, (n, alpha)


def test_temporal_refinement_shows_second_order():
    g = SpatialGrid(l=1.0, num_nodes=201)
    p = make_params(n=2.0, t_final=100.0)
    law = FeedbackLaw(alpha=0.25)
    steady = steady_state_numeric(p, 1.0, g)
    w0 = initial_profile(g, p, law)
    finals = {}
    for dt in (0.2, 0.1, 0.05):
        cfg = SimulationConfig(params=p, law=law, grid=g, dt=dt,
                               record_every=int(round(100.0 / dt)))
        finals[dt] = simulate(cfg, steady, w0).states[-1]
    d_coarse = np.linalg.norm(finals[0.2] - finals[0.1])
    d_fine = np.linalg.norm(finals[0.1] - finals[0.05])
    assert d_coarse / d_fine >= MIN_RICHARDSON_RATIO


def test_sweep_artifact_is_byte_reproducible(tmp_path):
    cfg_text = """\
[reactor]
v = 0.01
k = 0.001
n = 1
l = 1
peclet = 4
[time]
t_final = 400
horizon = 7000
"""
    cfg = tmp_path / "table.ini"
    cfg.write_text(cfg_text)
    outputs = []
    for out_name in ("a", "b"):
        out = tmp_path / out_name
        code = main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        outputs.append((out / "sweep.csv").read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith(b"# manifest_hash=")
