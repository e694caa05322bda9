import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dftr import (
    ParameterError,
    Profile,
    SolverError,
    SpatialGrid,
    build_generator,
    d_ax_from_peclet,
    steady_state_analytic_n1,
    steady_state_numeric,
    steady_state_residual,
)
from dftr.steady_state import _stationary_system
from conftest import make_params


class TestAnalyticFirstOrder:
    def test_root_parameter(self, params):
        sol = steady_state_analytic_n1(params, 1.0)
        # q = sqrt(v^2 + 4*d_ax*k) = sqrt(0.00011)
        assert sol.q == pytest.approx(0.010488088481701515, rel=1e-15)
        assert sol.m1 > 0.0 > sol.m2

    def test_inlet_condition_closes(self, params):
        sol = steady_state_analytic_n1(params, 1.0)
        c0 = float(sol.evaluate(0.0))
        dc0 = float(sol.derivative(0.0))
        defect = c0 - (params.d_ax / params.v) * dc0 - 1.0
        assert abs(defect) <= 1e-12

    def test_outlet_slope_vanishes(self, params):
        sol = steady_state_analytic_n1(params, 1.0)
        scale = abs(sol.m1 * sol.evaluate(params.l))
        assert abs(float(sol.derivative(params.l))) <= 1e-12 * scale

    def test_zero_setpoint_gives_zero_profile(self, params, grid201):
        sol = steady_state_analytic_n1(params, 0.0)
        assert np.array_equal(sol.profile(grid201).values, np.zeros(201))

    def test_linear_in_setpoint(self, params, grid201):
        one = steady_state_analytic_n1(params, 1.0).profile(grid201).values
        two = steady_state_analytic_n1(params, 2.0).profile(grid201).values
        # doubling the setpoint is a scaling by an exact power of two
        assert np.array_equal(two, 2.0 * one)

    def test_profile_positive_and_below_setpoint(self, params):
        g = SpatialGrid(l=1.0, num_nodes=2001)
        c = steady_state_analytic_n1(params, 1.0).profile(g).values
        assert np.all(c > 0.0)
        assert np.all(c < 1.0)

    def test_weak_dispersion_stays_finite(self):
        # large Peclet makes the raw exponentials overflow; the scaled
        # evaluation has to stay bounded
        p = make_params(d_ax=d_ax_from_peclet(0.01, 1.0, 400.0))
        sol = steady_state_analytic_n1(p, 1.0)
        g = SpatialGrid(l=1.0, num_nodes=101)
        vals = sol.profile(g).values
        assert np.all(np.isfinite(vals))
        assert np.all(vals >= 0.0)

    def test_rejects_other_orders(self, params):
        p = make_params(n=2.0)
        with pytest.raises(ParameterError):
            steady_state_analytic_n1(p, 1.0)

    def test_rejects_negative_setpoint(self, params):
        with pytest.raises(ParameterError):
            steady_state_analytic_n1(params, -1.0)

    @settings(max_examples=40, deadline=None)
    @given(pe=st.floats(0.1, 50.0), k=st.floats(0.0, 0.1),
           v=st.floats(1e-3, 0.1))
    def test_boundary_conditions_hold_generally(self, pe, k, v):
        p = make_params(k=k, v=v, d_ax=d_ax_from_peclet(v, 1.0, pe))
        sol = steady_state_analytic_n1(p, 1.0)
        c0 = float(sol.evaluate(0.0))
        dc0 = float(sol.derivative(0.0))
        assert abs(c0 - (p.d_ax / v) * dc0 - 1.0) <= 1e-9
        scale = max(abs(sol.m1), abs(sol.m2)) * max(float(sol.evaluate(p.l)), 1e-30)
        assert abs(float(sol.derivative(p.l))) <= 1e-9 * scale + 1e-30


class TestNumericSolver:
    def test_linear_part_is_alpha_zero_generator(self, params, grid201):
        a0, b = _stationary_system(params, 1.0, grid201)
        for got, want in zip(a0, build_generator(grid201, params, 0.0)):
            assert np.array_equal(got, want)
        # with the feedback factor (1 - alpha) = 1 the inlet row is the
        # stationary Robin row, and the setpoint enters only through b[0]
        h, d, v = grid201.h, params.d_ax, params.v
        assert a0.diag[0] == -2.0 * d / h ** 2 - 2.0 * v / h - v * v / d
        assert b[0] == 2.0 * v / h + v * v / d
        assert not np.any(b[1:])

    def test_matches_analytic_first_order(self, params, grid201):
        analytic = steady_state_analytic_n1(params, 1.0).profile(grid201).values
        numeric = steady_state_numeric(params, 1.0, grid201).profile.values
        rel = np.max(np.abs(numeric - analytic)) / np.max(np.abs(analytic))
        assert rel <= 1e-6

    def test_no_reaction_returns_constant(self, grid201):
        p = make_params(n=2.0, k=0.0)
        sol = steady_state_numeric(p, 1.0, grid201)
        assert np.array_equal(sol.profile.values, np.ones(201))
        assert sol.residual_norm <= 1e-13
        assert sol.iterations == 0

    def test_no_reaction_first_order_path(self, grid201):
        # analytic initial guess, k=0: still lands on the constant
        p = make_params(k=0.0)
        sol = steady_state_numeric(p, 1.0, grid201)
        assert np.max(np.abs(sol.profile.values - 1.0)) <= 1e-12

    @pytest.mark.parametrize("n", [0.5, 2.0, 10.0])
    def test_converges_for_reference_orders(self, n, grid201):
        p = make_params(n=n)
        sol = steady_state_numeric(p, 1.0, grid201)
        assert sol.residual_norm <= 1e-10
        assert 0 < sol.iterations <= 10
        assert np.all(sol.profile.values > 0.0)

    @pytest.mark.parametrize("n", [0.5, 1.0, 2.0, 10.0])
    def test_converges_on_fine_grid(self, n):
        # at 12001 nodes the round-off floor of max|F| (~ eps * d_ax / h^2)
        # lies above NEWTON_TOL; the solve must end there, not raise
        g = SpatialGrid(l=1.0, num_nodes=12001)
        sol = steady_state_numeric(make_params(n=n), 1.0, g)
        assert sol.iterations <= 10
        assert sol.residual_norm <= 1e-9
        assert np.all(sol.profile.values > 0.0)
        coarse = steady_state_numeric(make_params(n=n), 1.0,
                                      SpatialGrid(l=1.0, num_nodes=201))
        assert np.max(np.abs(sol.profile.values[::60] - coarse.profile.values)) <= 1e-4

    def test_continuum_residual_small(self, grid201):
        p = make_params(n=2.0)
        sol = steady_state_numeric(p, 1.0, grid201)
        assert steady_state_residual(sol.profile, p, 1.0) <= 1e-4

    def test_higher_order_consumes_less_below_unit_feed(self, grid201):
        # c stays below 1 along the tube, so c^10 < c and the high-order
        # rate removes less reactant
        c_n1 = steady_state_numeric(make_params(), 1.0, grid201).profile.values
        c_n10 = steady_state_numeric(make_params(n=10.0), 1.0, grid201).profile.values
        assert c_n10[-1] > c_n1[-1]
        assert np.all(c_n10 <= 1.0)

    def test_nonconvergence_raises(self, grid201):
        # strong reaction with square-root kinetics drives nodes to zero
        # where the Jacobian degenerates
        p = make_params(n=0.5, k=1.0)
        with pytest.raises(SolverError) as exc_info:
            steady_state_numeric(p, 1.0, grid201)
        assert exc_info.value.residual is not None

    def test_failed_damping_raises(self):
        # Pe 100 on five nodes with n = 0.1: no halving of the first Newton step
        # lowers the residual, which sits far above the round-off floor
        p = make_params(n=0.1, d_ax=1e-4)
        with pytest.raises(SolverError, match="damping failed") as exc_info:
            steady_state_numeric(p, 1.0, SpatialGrid(l=1.0, num_nodes=5))
        assert exc_info.value.iterations == 1 and exc_info.value.residual > 1e-3

    def test_rejects_nonpositive_setpoint(self, params, grid201):
        with pytest.raises(ParameterError):
            steady_state_numeric(params, 0.0, grid201)


class TestContinuumResidual:
    def test_analytic_profile_near_zero(self, params):
        g = SpatialGrid(l=1.0, num_nodes=2001)
        prof = steady_state_analytic_n1(params, 1.0).profile(g)
        assert steady_state_residual(prof, params, 1.0) <= 1e-6

    def test_constant_profile_no_reaction_exact(self, grid201):
        p = make_params(k=0.0)
        prof = Profile(grid=grid201, values=np.ones(201))
        assert steady_state_residual(prof, p, 1.0) == 0.0

    def test_zero_profile_inlet_defect_is_setpoint(self, params, grid201):
        prof = Profile(grid=grid201, values=np.zeros(201))
        assert steady_state_residual(prof, params, 1.0) == 1.0

    def test_second_order_refinement(self, params):
        sol = steady_state_analytic_n1(params, 1.0)
        res = [steady_state_residual(sol.profile(SpatialGrid(l=1.0, num_nodes=m)),
                                     params, 1.0)
               for m in (251, 501, 1001)]
        assert res[0] / res[1] == pytest.approx(4.0, rel=0.2)
        assert res[1] / res[2] == pytest.approx(4.0, rel=0.2)
