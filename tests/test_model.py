import dataclasses
import types

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dftr import (
    FeedbackLaw,
    ParameterError,
    ContractError,
    Profile,
    ReactorParams,
    SpatialGrid,
    build_generator,
    d_ax_from_peclet,
    default_saturation_bound,
    initial_profile,
    lambda_theoretical,
    reaction_rate,
)
from dftr.errors import IntegrationError
from conftest import make_params


def _clamped_power(c, n):
    """max(c, 0)**n, the reaction's power law extended to negative arguments."""
    return np.maximum(c, 0.0) ** n


class TestReactorParams:
    def test_valid_construction(self):
        p = make_params()
        assert (p.d_ax, p.v, p.l) == (0.0025, 0.01, 1.0)

    def test_frozen(self):
        p = make_params()
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.v = 0.02

    @pytest.mark.parametrize("field,value", [
        ("d_ax", 0.0), ("d_ax", -1.0), ("v", 0.0), ("v", -0.01),
        ("k", -0.001), ("n", 0.0), ("n", -1.0), ("l", 0.0),
        ("t_final", -1.0), ("sat_m", 0.0), ("sat_m", float("inf")),
    ])
    def test_rejects_bad_field(self, field, value):
        kwargs = dict(d_ax=0.0025, v=0.01, k=0.001, n=1.0, l=1.0,
                      t_final=400.0, sat_m=7.5)
        kwargs[field] = value
        with pytest.raises(ParameterError):
            ReactorParams(**kwargs)

    def test_zero_reaction_allowed(self):
        p = make_params(k=0.0)
        assert p.k == 0.0


class TestFeedbackLaw:
    def test_gain_range(self):
        assert FeedbackLaw(alpha=0.0).alpha == 0.0
        assert FeedbackLaw(alpha=0.5).alpha == 0.5
        with pytest.raises(ParameterError):
            FeedbackLaw(alpha=0.6)
        with pytest.raises(ParameterError):
            FeedbackLaw(alpha=-0.1)

    def test_setpoint_positive(self):
        with pytest.raises(ParameterError):
            FeedbackLaw(alpha=0.0, u_bar=0.0)


class TestSpatialGrid:
    def test_nodes_and_spacing(self):
        g = SpatialGrid(l=1.0, num_nodes=5)
        assert g.h == pytest.approx(0.25, rel=1e-15)
        assert g.nodes[0] == 0.0
        assert g.nodes[-1] == 1.0
        assert np.allclose(np.diff(g.nodes), 0.25, rtol=1e-14)

    def test_quadrature_weights_sum_to_length(self):
        g = SpatialGrid(l=2.0, num_nodes=17)
        assert np.sum(g.quad_weights) == pytest.approx(2.0, rel=1e-14)
        assert g.quad_weights[0] == pytest.approx(g.h / 2, rel=1e-15)

    def test_too_few_nodes(self):
        with pytest.raises(ParameterError):
            SpatialGrid(l=1.0, num_nodes=2)

    @pytest.mark.skipif(np.iinfo(np.intp).bits != 64, reason="the bound of a 64-bit numpy")
    def test_more_nodes_than_numpy_can_address(self):
        # at the bound, building the nodes asks for 8 EiB, a MemoryError on any
        # machine; np.linspace rounds the next lengths up past what numpy can
        # address, a ValueError that no caller would expect
        longest = 2 ** 60 - 128
        with pytest.raises(MemoryError):
            SpatialGrid(l=1.0, num_nodes=longest).nodes
        for num_nodes in (longest + 1, 2 ** 63 - 1):
            with pytest.raises(ParameterError, match=f"at most {longest}, got {num_nodes}$"):
                SpatialGrid(l=1.0, num_nodes=num_nodes)

    def test_nodes_read_only(self):
        g = SpatialGrid(l=1.0, num_nodes=5)
        with pytest.raises(ValueError):
            g.nodes[0] = 3.0


class TestProfile:
    def test_length_mismatch(self, grid201):
        with pytest.raises(ContractError):
            Profile(grid=grid201, values=np.zeros(7))

    def test_non_finite_rejected(self, grid201):
        vals = np.zeros(201)
        vals[3] = np.nan
        with pytest.raises(ContractError):
            Profile(grid=grid201, values=vals)

    def test_values_copied_and_locked(self, grid201):
        src = np.ones(201)
        prof = Profile(grid=grid201, values=src)
        src[0] = 99.0
        assert prof.values[0] == 1.0
        with pytest.raises(ValueError):
            prof.values[0] = 2.0


class TestDispersionFromPeclet:
    def test_reference_case(self):
        assert d_ax_from_peclet(0.01, 1.0, 4.0) == pytest.approx(0.0025, rel=1e-15)

    def test_unit_case(self):
        assert d_ax_from_peclet(1.0, 1.0, 1.0) == 1.0

    def test_scaled_case(self):
        assert d_ax_from_peclet(0.02, 2.0, 8.0) == pytest.approx(0.005, rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            d_ax_from_peclet(0.01, 1.0, 0.0)
        with pytest.raises(ParameterError):
            d_ax_from_peclet(-0.01, 1.0, 4.0)


class TestClampedPower:
    """reaction_rate raises max(C, 0) to n, at C_bar and at C = w + C_bar alike."""

    def test_negative_base_fractional_exponent(self):
        # clamp keeps fractional powers real on transient negative values: C = 0, 0, -0.5
        # from C_bar = -1, 4, 0, so the rates are k*(0 - 0), k*(2 - 0), k*(0 - 0)
        p = make_params(n=0.5, k=1.0, sat_m=10.0)
        r = reaction_rate(np.array([1.0, -4.0, -0.5]), np.array([-1.0, 4.0, 0.0]), p)
        assert r.tolist() == [0.0, 2.0, 0.0]

    def test_integer_like_exponent(self):
        # C = 0 from C_bar = 3 and -3: k*(9 - 0) and k*(0 - 0), not k*((-3)^2 - 0)
        p = make_params(n=2.0, k=1.0, sat_m=10.0)
        r = reaction_rate(np.array([-3.0, 3.0]), np.array([3.0, -3.0]), p)
        assert r.tolist() == [9.0, 0.0]


class TestReactionRate:
    def test_zero_deviation_gives_zero_rate(self, params):
        r = reaction_rate(np.zeros(3), np.full(3, 0.9), params)
        assert np.array_equal(r, np.zeros(3))

    def test_sign_opposes_deviation(self, params):
        c_bar = np.full(1, 0.9)
        assert reaction_rate(np.array([0.1]), c_bar, params)[0] < 0.0
        assert reaction_rate(np.array([-0.1]), c_bar, params)[0] > 0.0

    def test_saturation_freezes_large_deviations(self, params):
        c_bar = np.full(1, 0.9)
        m = params.sat_m
        r_at_bound = reaction_rate(np.array([m]), c_bar, params)
        r_beyond = reaction_rate(np.array([2 * m]), c_bar, params)
        assert np.array_equal(r_at_bound, r_beyond)

    def test_no_reaction_when_k_zero(self):
        p = make_params(k=0.0)
        r = reaction_rate(np.array([0.3]), np.array([0.9]), p)
        assert r[0] == 0.0

    def test_no_reaction_when_k_zero_at_an_order_whose_power_overflows(self):
        # (0.9 + 3)**2000 is inf; k = 0 must still give a zero reaction, not
        # 0 * (C_bar**n - inf) = NaN
        p = make_params(k=0.0, n=2000.0)
        w = np.array([-3.0, 0.0, 0.3, 3.0])
        assert np.array_equal(reaction_rate(w, np.full(4, 0.9), p), np.zeros(4))

    @pytest.mark.parametrize("n", [0.5, 1.0, 2.0, 10.0])
    def test_rate_matches_clip_formula_bitwise(self, n):
        p = make_params(n=n, sat_m=2.0)
        rng = np.random.default_rng(11)
        c_bar = rng.uniform(-0.5, 1.5, 41)  # negative concentrations included
        w = rng.normal(0.0, 3.0, (30, 41))  # well beyond +-sat_m
        w[0, :7] = [-2.0, 2.0, -0.0, 0.0, np.nan, np.inf, -np.inf]
        for arg in (w, w[0], w[5]):  # records-shaped and two profiles
            old = p.k * (_clamped_power(c_bar, n)
                         - _clamped_power(np.clip(arg, -p.sat_m, p.sat_m) + c_bar, n))
            assert reaction_rate(arg, c_bar, p).tobytes() == old.tobytes()

    def test_kernel_takes_per_node_bounds_and_constants_over_two_segments(self):
        # two runs side by side, each its own order, k and sat_m, read from C = w + c_bar
        # between per-node bounds, against each run alone
        from dftr.model import _reaction_into

        rng = np.random.default_rng(12)
        runs = [make_params(n=2.0, k=0.003, sat_m=1.5), make_params(n=0.5, k=0.02, sat_m=0.7)]
        c_bars = [rng.uniform(-0.5, 1.5, 21) for _ in runs]
        ws = [rng.normal(0.0, 2.0, 21) for _ in runs]
        ws[0][:4] = [np.nan, np.inf, -np.inf, -0.0]
        sat, c_bar = np.repeat([p.sat_m for p in runs], 21), np.concatenate(c_bars)
        out = np.concatenate(ws) + c_bar
        _reaction_into(out, np.maximum(c_bar - sat, 0.0),
                       np.maximum(c_bar + sat, 0.0),
                       np.concatenate([_clamped_power(c, p.n) for c, p in zip(c_bars, runs)]),
                       np.repeat([p.k for p in runs], 21), [(out[:21], 2.0), (out[21:], 0.5)])
        alone = np.concatenate([reaction_rate(w, c, p) for w, c, p in zip(ws, c_bars, runs)])
        assert out.tobytes() == alone.tobytes()


class TestReactionKernels:
    """The rate and slope kernels, composed as the steady solve and the substep guard
    compose them, against the formulas each of those wrote out before the kernels."""

    ORDERS = [0.3, 0.5, 1.0, 2.0, 3.7, 10.0]

    @pytest.mark.parametrize("k", [0.001, 1.0])
    @pytest.mark.parametrize("n", ORDERS)
    def test_steady_residual_and_newton_slope(self, n, k):
        from dftr.model import _reaction_into, _slope_into, _steady_reaction

        p, grid = make_params(n=n, k=k), SpatialGrid(l=1.0, num_nodes=201)
        a0, b = build_generator(grid, p, 0.0), np.zeros(grid.num_nodes)
        b[0] = 2.0 * p.v / grid.h + p.v * p.v / p.d_ax
        kw = np.full(grid.num_nodes, p.k)
        z = grid.h * p.v / p.d_ax
        kw[-1] = p.k * (1.0 - z / 3.0 + z * z / 6.0)
        k_node, order, lo, hi, base = _steady_reaction(p, grid)
        rng = np.random.default_rng(13)
        for c in rng.uniform(-0.5, 1.5, (50, grid.num_nodes)):  # negatives included
            r = c.copy()
            _reaction_into(r, lo, hi, base, k_node, [(r, order)])
            old = a0.apply(c) + b - kw * np.maximum(c, 0.0) ** n
            assert (a0.apply(c) + b + r).tobytes() == old.tobytes()
            old = kw * n * np.maximum(c, 1e-12) ** (n - 1.0)
            assert _slope_into(c.copy(), k_node, order).tobytes() == old.tobytes()

    def test_guard_ratio(self):
        from dftr.integrator import REACTION_COURANT, _ratio
        from dftr.model import _reaction, _slope_into

        # the stack's per-run k and order (1 at k = 0), each run at its own scale c
        runs = [make_params(n=n, k=k) for n in self.ORDERS for k in (0.0, 0.001, 1.0)]
        k_run, n_run, *_ = map(np.array, zip(*(_reaction(p, 1.0) for p in runs)))
        rng = np.random.default_rng(14)
        for _ in range(50):
            c, dt = rng.uniform(1e-6, 3.0, len(runs)), rng.uniform(0.01, 10.0)
            old = np.divide(dt * (k_run * n_run * np.power(c, n_run - 1.0)), REACTION_COURANT)
            ratio = _ratio(dt, _slope_into(c.copy(), k_run, n_run))
            assert type(ratio) is float and ratio.hex() == float(np.max(old)).hex()

    def test_slope_and_ratio_overflow_is_inf_with_no_warning(self, recwarn):
        # k = 1e308: the slope k*n*C**(n - 1) overflows at n = 2, and at n = 1 the ratio
        # dt * L / REACTION_COURANT does; _substeps gives its typed error
        from dftr.integrator import _ratio, _substeps
        from dftr.model import _slope_into

        lip = _slope_into(np.array([2.0, 2.0]), np.full(2, 1e308), np.array([1.0, 2.0]))
        assert lip.tolist() == [1e308, np.inf]
        assert _ratio(1.0, lip[:1]) == np.inf
        with pytest.raises(IntegrationError, match=r"stiffness estimate 1.000e\+308"):
            _substeps(1.0, lip[:1])
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestInitialProfile:
    def test_reference_endpoint_values(self, params, grid201, law0):
        w0 = initial_profile(grid201, params, law0)
        # w(0,0) = l*d_ax/(v*(1-alpha)) and w(l,0) = w(0,0) + l^2/2
        assert w0.values[0] == pytest.approx(0.25, rel=1e-14)
        assert w0.values[-1] == pytest.approx(0.75, rel=1e-14)

    def test_inlet_robin_identity(self, params, grid201):
        # derivative at the inlet is exactly l, so the mixed condition
        # (1-alpha) w(0) = (d_ax/v) w_x(0) must close to rounding error
        for alpha in (0.0, 0.25, 0.5):
            law = FeedbackLaw(alpha=alpha)
            w0 = initial_profile(grid201, params, law)
            lhs = (1.0 - alpha) * w0.values[0]
            rhs = (params.d_ax / params.v) * params.l
            assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_outlet_slope_vanishes(self, params, law0):
        # w(x,0) is quadratic with vertex at x=l; check the exact formula
        g = SpatialGrid(l=1.0, num_nodes=1001)
        w0 = initial_profile(g, params, law0)
        x = g.nodes
        expected = -0.5 * (x - 1.0) ** 2 + w0.values[-1]
        assert np.allclose(w0.values, expected, rtol=0, atol=1e-14)

    def test_gain_one_rejected(self, params, grid201):
        fake_law = types.SimpleNamespace(alpha=1.0, u_bar=1.0)
        with pytest.raises(ParameterError):
            initial_profile(grid201, params, fake_law)


class TestDefaultSaturationBound:
    def test_reference_value(self):
        # ten times the peak of the startup deviation profile
        assert default_saturation_bound(0.0025, 0.01, 1.0, 0.0) == pytest.approx(
            7.5, rel=1e-14)

    def test_grows_with_gain(self):
        m0 = default_saturation_bound(0.0025, 0.01, 1.0, 0.0)
        m5 = default_saturation_bound(0.0025, 0.01, 1.0, 0.5)
        assert m5 > m0

    def test_gain_one_rejected(self):
        with pytest.raises(ParameterError):
            default_saturation_bound(0.0025, 0.01, 1.0, 1.0)


class TestLambdaTheoretical:
    def test_reference_value(self, params):
        assert lambda_theoretical(params) == pytest.approx(0.0025, abs=1e-15)

    def test_unit_case(self):
        p = ReactorParams(d_ax=1.0, v=4.0, k=0.0, n=1.0, l=1.0,
                          t_final=1.0, sat_m=1.0)
        assert lambda_theoretical(p) == 1.0

    def test_slow_flow_case(self):
        p = ReactorParams(d_ax=0.0025, v=0.02, k=0.0, n=1.0, l=1.0,
                          t_final=1.0, sat_m=1.0)
        assert lambda_theoretical(p) == pytest.approx(0.01, rel=1e-15)

    @given(st.floats(0.1, 10.0))
    def test_quadratic_velocity_scaling(self, c):
        base = ReactorParams(d_ax=0.0025, v=0.01, k=0.0, n=1.0, l=1.0,
                             t_final=1.0, sat_m=1.0)
        scaled = ReactorParams(d_ax=0.0025, v=c * 0.01, k=0.0, n=1.0, l=1.0,
                               t_final=1.0, sat_m=1.0)
        assert lambda_theoretical(scaled) == pytest.approx(
            c * c * lambda_theoretical(base), rel=1e-12)
