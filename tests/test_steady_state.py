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
)
from conftest import make_params


def _closed_form(p, profile, roots=None):
    """(m1, m2, C, C') of the first-order closed form through profile's end values:
    every solution of d_ax C'' = v C' + k C is C(x) = a e^{m1 (x - l)} + b e^{m2 x},
    with m2 < m1 the roots of d_ax m^2 - v m - k (m1 = (v + q)/(2 d_ax) and
    m2 = -2k/(v + q), q = sqrt(v^2 + 4 d_ax k), unless given), and (a, b) solve
    C(0) and C(l) by numpy. C and C' are exact callables of x."""
    q = np.sqrt(p.v ** 2 + 4.0 * p.d_ax * p.k)
    m2, m1 = roots or (-2.0 * p.k / (p.v + q), (p.v + q) / (2.0 * p.d_ax))
    a, b = np.linalg.solve([[np.exp(-m1 * p.l), 1.0], [1.0, np.exp(m2 * p.l)]],
                           profile.values[[0, -1]])

    def c(x):
        return a * np.exp(m1 * (x - p.l)) + b * np.exp(m2 * x)

    def dc(x):
        return a * m1 * np.exp(m1 * (x - p.l)) + b * m2 * np.exp(m2 * x)

    return m1, m2, c, dc


def _continuum_residual(profile: Profile, params, u_bar: float) -> float:
    """Continuum-equation residual of a candidate steady profile.

    Max over interior nodes of |d_ax*D2(C) - v*D1(C) - k*max(C, 0)^n| (central
    differences) plus the two boundary-condition defects evaluated with
    second-order one-sided derivatives.
    """
    c = profile.values
    h = profile.grid.h
    d, v, k = params.d_ax, params.v, params.k

    d1 = (c[2:] - c[:-2]) / (2.0 * h)
    d2 = (c[2:] - 2.0 * c[1:-1] + c[:-2]) / h ** 2
    interior = np.max(np.abs(d * d2 - v * d1 - k * np.maximum(c[1:-1], 0.0) ** params.n))

    dc0 = (-3.0 * c[0] + 4.0 * c[1] - c[2]) / (2.0 * h)
    dcl = (3.0 * c[-1] - 4.0 * c[-2] + c[-3]) / (2.0 * h)
    inlet_defect = abs(c[0] - u_bar - (d / v) * dc0)
    outlet_defect = abs(dcl)
    return float(interior + inlet_defect + outlet_defect)


class TestAnalyticFirstOrder:
    def test_root_parameter(self, params, grid201):
        # q = sqrt(v^2 + 4*d_ax*k) = sqrt(0.00011) = 0.010488088481701515, so the
        # profile is the closed form with m1,2 = (v +- q)/(2 d_ax) at every node
        c = steady_state_analytic_n1(params, 1.0, grid201)
        assert type(c) is Profile and c.grid == grid201
        m1, m2, exact, _ = _closed_form(params, c, roots=(-0.097617696340303, 4.097617696340303))
        assert m1 > 0.0 > m2
        assert np.max(np.abs(c.values - exact(grid201.nodes))) <= 1e-12

    def test_inlet_condition_closes(self, params, grid201):
        c = steady_state_analytic_n1(params, 1.0, grid201)
        _, _, _, dc = _closed_form(params, c)
        defect = c.values[0] - (params.d_ax / params.v) * dc(0.0) - 1.0
        assert abs(defect) <= 1e-12

    def test_outlet_slope_vanishes(self, params, grid201):
        c = steady_state_analytic_n1(params, 1.0, grid201)
        m1, _, _, dc = _closed_form(params, c)
        scale = abs(m1 * c.values[-1])
        assert abs(dc(params.l)) <= 1e-12 * scale

    def test_zero_setpoint_gives_zero_profile(self, params, grid201):
        c = steady_state_analytic_n1(params, 0.0, grid201)
        assert np.array_equal(c.values, np.zeros(201))

    def test_linear_in_setpoint(self, params, grid201):
        one = steady_state_analytic_n1(params, 1.0, grid201).values
        two = steady_state_analytic_n1(params, 2.0, grid201).values
        # doubling the setpoint is a scaling by an exact power of two
        assert np.array_equal(two, 2.0 * one)

    def test_profile_positive_and_below_setpoint(self, params):
        g = SpatialGrid(l=1.0, num_nodes=2001)
        c = steady_state_analytic_n1(params, 1.0, g).values
        assert np.all(c > 0.0)
        assert np.all(c < 1.0)

    def test_weak_dispersion_stays_finite(self):
        # large Peclet makes the raw exponentials overflow; the scaled
        # evaluation has to stay bounded
        p = make_params(d_ax=d_ax_from_peclet(0.01, 1.0, 400.0))
        vals = steady_state_analytic_n1(p, 1.0, SpatialGrid(l=1.0, num_nodes=101)).values
        assert np.all(np.isfinite(vals))
        assert np.all(vals >= 0.0)

    def test_rejects_other_orders(self, params, grid201):
        p = make_params(n=2.0)
        with pytest.raises(ParameterError):
            steady_state_analytic_n1(p, 1.0, grid201)

    def test_rejects_negative_setpoint(self, params, grid201):
        with pytest.raises(ParameterError):
            steady_state_analytic_n1(params, -1.0, grid201)

    def test_overflow_is_a_solver_error_with_no_warning(self, grid201, recwarn):
        # at Pe 1e-5, 4 d_ax k overflows: q is inf and the closed form NaN
        p = make_params(d_ax=d_ax_from_peclet(0.01, 1.0, 1e-5), k=1e306)
        with pytest.raises(SolverError, match="closed-form steady state is not finite"):
            steady_state_analytic_n1(p, 1.0, grid201)
        with pytest.raises(SolverError, match="closed-form steady state is not finite"):
            steady_state_numeric(p, 1.0, grid201)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @settings(max_examples=40, deadline=None)
    @given(pe=st.floats(0.1, 50.0), k=st.floats(0.0, 0.1),
           v=st.floats(1e-3, 0.1))
    def test_boundary_conditions_hold_generally(self, pe, k, v):
        p = make_params(k=k, v=v, d_ax=d_ax_from_peclet(v, 1.0, pe))
        c = steady_state_analytic_n1(p, 1.0, SpatialGrid(l=1.0, num_nodes=101))
        m1, m2, _, dc = _closed_form(p, c)
        assert abs(c.values[0] - (p.d_ax / v) * dc(0.0) - 1.0) <= 1e-9
        scale = max(abs(m1), abs(m2)) * max(c.values[-1], 1e-30)
        assert abs(dc(p.l)) <= 1e-9 * scale + 1e-30


class TestNumericSolver:
    def test_linear_part_is_alpha_zero_generator(self, params, grid201):
        # the solution zeroes A_0 C + b - k_w C at every node, A_0 the alpha = 0 generator
        # and k_w the outlet-weighted k: with the feedback factor (1 - alpha) = 1 the
        # inlet row is the stationary Robin row, and the setpoint enters only through b[0]
        sol = steady_state_numeric(params, 2.0, grid201)
        a0 = build_generator(grid201, params, 0.0)
        h, d, v = grid201.h, params.d_ax, params.v
        assert a0.diag[0] == -2.0 * d / h ** 2 - 2.0 * v / h - v * v / d
        b = np.zeros(201)
        b[0] = (2.0 * v / h + v * v / d) * 2.0
        k = np.full(201, params.k)
        k[-1] *= 1.0 - h * v / d / 3.0 + (h * v / d) ** 2 / 6.0
        c = sol.profile.values
        assert np.max(np.abs(a0.apply(c) + b - k * c)) / 2.0 <= 1e-10

    def test_matches_analytic_first_order(self, params, grid201):
        analytic = steady_state_analytic_n1(params, 1.0, grid201).values
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
        assert _continuum_residual(sol.profile, p, 1.0) <= 1e-4

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

    @pytest.mark.xfail(strict=True, raises=SolverError, reason="ROADMAP item 21")
    def test_converges_at_a_large_feed(self):
        # n = 10 at Pe 4 on 21 nodes: from the constant guess C = u_bar, Newton
        # converges in 67 iterations at u_bar = 1e3, but at 1e5 it is still
        # shedding the guess's excess when NEWTON_MAX_ITER = 100 runs out
        g = SpatialGrid(l=1.0, num_nodes=21)
        sol = steady_state_numeric(make_params(n=10.0), 1e5, g)
        assert np.all(sol.profile.values > 0.0) and np.all(sol.profile.values <= 1e5)

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

    def test_overflowing_reaction_at_the_guess_is_a_solver_error_with_no_warning(
            self, recwarn):
        # n = 10 at u_bar = 1e40: k*C**n is inf at the constant guess, so no Newton
        # step is tried
        g = SpatialGrid(l=1.0, num_nodes=21)
        with pytest.raises(SolverError, match=r"reaction k\*C\*\*n or the stencil is not "
                                              "finite") as exc_info:
            steady_state_numeric(make_params(n=10.0), 1e40, g)
        assert (exc_info.value.residual, exc_info.value.iterations) == (np.inf, 0)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestContinuumResidual:
    def test_analytic_profile_near_zero(self, params):
        prof = steady_state_analytic_n1(params, 1.0, SpatialGrid(l=1.0, num_nodes=2001))
        assert _continuum_residual(prof, params, 1.0) <= 1e-6

    def test_constant_profile_no_reaction_exact(self, grid201):
        p = make_params(k=0.0)
        prof = Profile(grid=grid201, values=np.ones(201))
        assert _continuum_residual(prof, p, 1.0) == 0.0

    def test_zero_profile_inlet_defect_is_setpoint(self, params, grid201):
        prof = Profile(grid=grid201, values=np.zeros(201))
        assert _continuum_residual(prof, params, 1.0) == 1.0

    def test_second_order_refinement(self, params):
        res = [_continuum_residual(
            steady_state_analytic_n1(params, 1.0, SpatialGrid(l=1.0, num_nodes=m)), params, 1.0)
            for m in (251, 501, 1001)]
        assert res[0] / res[1] == pytest.approx(4.0, rel=0.2)
        assert res[1] / res[2] == pytest.approx(4.0, rel=0.2)
