import hashlib
import importlib.util
import json
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dftr import (
    EstimationError,
    FeedbackLaw,
    ParameterError,
    SimulationConfig,
    SpatialGrid,
    Trajectory,
    default_saturation_bound,
    default_weight,
    energy,
    estimate_decay_rate,
    fit_decay_rate,
    initial_profile,
    simulate,
    steady_state_numeric,
    sweep,
)
from dftr import analysis
from conftest import make_params


def synthetic_trajectory(rate, grid, t_final=7000.0, dt_rec=10.0, amplitude=1.0):
    """Exact exponential decay of a fixed shape, for estimator oracles."""
    times = np.arange(0.0, t_final + dt_rec / 2, dt_rec)
    shape = 1.0 + 0.5 * np.sin(2.0 * np.pi * grid.nodes)
    states = amplitude * np.exp(-rate * times)[:, None] * shape[None, :]
    return Trajectory(times=times, states=states, negativity_events=0,
                      inner_steps=times.size - 1)


class TestWeightProfile:
    # default_weight at the reference point: gamma = 0.01 / (2 * 0.0025) = 2
    def test_anchor_value(self, params, grid201):
        w = default_weight(grid201, params)
        q = grid201.quad_weights
        assert w.tobytes() == (q * np.exp(-2.0 * grid201.nodes)).tobytes()
        assert w[0] == q[0]  # rho(0) = 1

    def test_reference_decay_at_outlet(self, params, grid201):
        # e^{-2} at x = l = 1 with gamma = 2
        w = default_weight(grid201, params)
        assert w[-1] / grid201.quad_weights[-1] == pytest.approx(0.1353352832366127, rel=1e-15)

    def test_rejects_bad_arguments(self, grid201):
        # v / (2 d_ax) overflows to inf at d_ax = 1e-320
        with pytest.raises(ParameterError, match=r"v/\(2 d_ax\) is not finite \(d_ax = 1e-320"):
            default_weight(grid201, make_params(d_ax=1e-320))

    def test_default_weight_uses_half_peclet_rate(self, params, grid201):
        # the quadrature weights times rho, as one read-only array
        w = default_weight(grid201, params)
        gamma = params.v / (2.0 * params.d_ax)
        expected = grid201.quad_weights * np.exp(-gamma * grid201.nodes)
        assert w.tobytes() == expected.tobytes()
        assert not w.flags.writeable

    def test_satisfies_decay_ode(self, params):
        # rho' = -gamma*rho, checked with central quotients to O(h^2)
        g = SpatialGrid(l=1.0, num_nodes=401)
        rho = default_weight(g, params) / g.quad_weights
        lhs = (rho[2:] - rho[:-2]) / (2.0 * g.h)
        rhs = -2.0 * rho[1:-1]
        assert np.max(np.abs(lhs - rhs)) <= 1e-4


class TestEnergy:
    def test_zero_state(self, params, grid201):
        w = default_weight(grid201, params)
        assert energy(np.zeros(201), w) == 0.0

    def test_flat_weight_constant_state(self, grid201):
        # rho = 1 leaves the quadrature weights, which sum to l = 1
        e = energy(np.ones(201), grid201.quad_weights)
        assert e == pytest.approx(0.5, rel=1e-14)

    def test_records_array_gives_per_record_energies(self, params, grid201):
        # one formula for a nodal array and a (records, nodes) array: each
        # record's energy is bitwise the single-array value
        w = default_weight(grid201, params)
        states = np.stack([np.sin(k * grid201.nodes) for k in range(1, 6)])
        per_record = energy(states, w)
        assert per_record.shape == (5,)
        for row, e in zip(states, per_record):
            assert energy(row, w) == e

    def test_keeps_the_bits_of_the_written_out_formula(self, params, grid201):
        # energy reduces the weight array times w^2 with np.add.reduce; the sum
        # written with the quadrature and rho product first must give the same bits
        w = default_weight(grid201, params)
        q, rho = grid201.quad_weights, np.exp(-2.0 * grid201.nodes)
        assert w.tobytes() == (q * rho).tobytes()
        states = np.stack([np.cos(k * grid201.nodes) + 0.1 * k for k in range(1, 8)])
        old = 0.5 * np.sum(q * rho * states ** 2, axis=-1)
        assert [e.hex() for e in energy(states, w).tolist()] == [e.hex() for e in old.tolist()]
        for row, e in zip(states, old.tolist()):
            assert float(energy(row, w)).hex() == e.hex()

    @settings(max_examples=30, deadline=None)
    @given(c=st.floats(-100.0, 100.0))
    def test_quadratic_scaling(self, c):
        g = SpatialGrid(l=1.0, num_nodes=201)
        w = default_weight(g, make_params())
        base = 1.0 + g.nodes ** 2
        assert energy(c * base, w) == pytest.approx(c * c * energy(base, w),
                                                    rel=1e-12, abs=1e-300)


class TestNorm:
    def test_keeps_the_bits_of_sqrt_2e(self, params, grid201):
        # above tiny / eps a row's norm is sqrt(2 E) bit for bit, a lone row's a float
        w = default_weight(grid201, params)
        states = np.stack([np.cos(k * grid201.nodes) * 10.0 ** -k for k in range(8)])
        expected = np.sqrt(2.0 * energy(states, w))
        assert [v.hex() for v in analysis.norm(states, w).tolist()] == [
            v.hex() for v in expected.tolist()]
        for row, e in zip(states, expected.tolist()):
            value = analysis.norm(row, w)
            assert type(value) is float and value.hex() == e.hex()

    @pytest.mark.parametrize("scale", [1e-147, 1e-160, 1e-200, 1e-300, 5e-324])
    def test_an_underflowed_energy_keeps_its_norm(self, params, grid201, scale):
        # w's squares underflow below 1e-154 and vanish below 1e-162, so sqrt(2 E)
        # loses its digits, then reads 0; s sqrt(2 E(w / s)) with s = max|w| does not
        w = default_weight(grid201, params)
        shape = 1.0 + 0.5 * np.sin(2.0 * np.pi * grid201.nodes)
        row = scale * shape
        s = float(np.max(row))
        assert analysis.energy(row, w) < analysis._TINY_ENERGY
        value = analysis.norm(row, w)
        assert value.hex() == (s * float(np.sqrt(2.0 * energy(row / s, w)))).hex()
        assert value == pytest.approx(scale * analysis.norm(shape, w), rel=1e-14)

    def test_rows_keep_the_bits_of_each_row_alone(self, params, grid201):
        # a (records, nodes) array: every row's norm, tiny, zero, nan and inf ones too
        w = default_weight(grid201, params)
        shape = 1.0 + 0.5 * np.sin(2.0 * np.pi * grid201.nodes)
        states = np.stack([shape, 1e-170 * shape, np.zeros(201), 1e-300 * shape,
                           np.full(201, np.nan), np.full(201, np.inf), 1e-10 * shape])
        norms = analysis.norm(states, w)
        alone = [analysis.norm(row, w) for row in states]
        assert [v.hex() for v in norms.tolist()] == [float(v).hex() for v in alone]
        assert norms[2] == 0.0 and np.isnan(norms[4]) and norms[5] == np.inf
        assert 0.0 < norms[3] < norms[1] < norms[6] < norms[0]

    def test_is_the_only_norm(self):
        # verify's envelope takes its norms from analysis.norm, with no threshold of its own
        from dftr import verify
        assert verify.norm is analysis.norm
        assert not hasattr(verify, "_TINY_ENERGY")


class TestDecayEstimator:
    @pytest.mark.parametrize("rate", [1e-4, 2.5e-3, 1e-1])
    def test_recovers_exact_exponential(self, rate, params, grid201):
        traj = synthetic_trajectory(rate, grid201)
        est = estimate_decay_rate(traj, default_weight(grid201, params))
        assert est.lambda_n == pytest.approx(rate, abs=1e-10)
        assert est.fit_r2 == pytest.approx(1.0, abs=1e-12)

    def test_norms_are_taken_in_the_given_weight(self, params, grid201):
        # the fit reads the norms of the weight it is given: a fixed shape decays
        # at its rate in any weight, and the fit equals fit_decay_rate on those norms
        traj = synthetic_trajectory(2.5e-3, grid201)
        for gamma in (0.0, 1.0, 2.0, 3.5):
            w = grid201.quad_weights * np.exp(-gamma * grid201.nodes)
            est = estimate_decay_rate(traj, w)
            norms = np.sqrt(2.0 * energy(traj.states, w))
            direct = fit_decay_rate(traj.times, norms)
            assert est.lambda_n.hex() == direct.lambda_n.hex()
            assert est.lambda_n == pytest.approx(2.5e-3, abs=1e-10)

    def test_amplitude_scale_of_trajectory_is_harmless(self, params, grid201):
        w = default_weight(grid201, params)
        small = synthetic_trajectory(2.5e-3, grid201, amplitude=1e-9)
        est = estimate_decay_rate(small, w)
        assert est.lambda_n == pytest.approx(2.5e-3, abs=1e-10)

    def test_floor_excludes_trailing_records(self, params, grid201):
        # fast decay crosses an explicit floor partway through the horizon
        traj = synthetic_trajectory(1e-1, grid201, t_final=1000.0)
        w = default_weight(grid201, params)
        hard_floor = 1e-20  # crossed near t = 450
        est = estimate_decay_rate(traj, w, floor=hard_floor)
        assert est.floor_hit
        assert est.fit_window[1] < 1000.0
        assert est.lambda_n == pytest.approx(1e-1, rel=1e-6)

    def test_norm_back_above_the_floor_is_ignored(self):
        # the usable records end at the first one at or below the floor,
        # e^-27.8 < 1e-12 at t = 139; what follows it is never read
        times = np.arange(200.0)
        norms = np.exp(-0.2 * times)
        norms[160:] = 0.5
        est = fit_decay_rate(times, norms)
        assert est.floor_hit
        assert est.fit_window == (69.0, 138.0)
        assert est.lambda_n == pytest.approx(0.2, rel=1e-12)
        assert est == fit_decay_rate(times[:140], norms[:140])

    def test_window_and_floor_are_keyword_only(self, params, grid201):
        # a positional third argument (the lambda_t the fit once took, the window
        # fraction estimate_decay_rate once took) must not become the floor, and the
        # window is the trailing half: no argument sets it
        times = np.arange(40.0)
        with pytest.raises(TypeError):
            fit_decay_rate(times, np.exp(-0.01 * times), 0.0025)
        with pytest.raises(TypeError, match="window_fraction"):
            fit_decay_rate(times, np.exp(-0.01 * times), window_fraction=0.5)
        traj, weight = synthetic_trajectory(1e-3, grid201), default_weight(grid201, params)
        with pytest.raises(TypeError):
            estimate_decay_rate(traj, weight, 0.5)

    @settings(max_examples=60, deadline=None)
    @given(logs=st.lists(st.floats(-27.0, 0.0), min_size=10, max_size=120),
           crossing=st.floats(0.0, 1e-12),
           after=st.lists(st.floats(0.0, 10.0), max_size=40),
           dt=st.floats(0.1, 10.0),
           floor=st.sampled_from([None, 1e-12]))
    def test_fit_reads_nothing_past_the_first_floor_record(self, logs, crossing, after,
                                                           dt, floor):
        # norms[0] = 1, so both floors are 1e-12: the leading records lie
        # above it, then one at or below it, then anything
        norms = np.exp(np.array([0.0] + logs))
        norms = np.concatenate([norms, [crossing], after])
        times = dt * np.arange(norms.size)
        cut = len(logs) + 2  # one record after the first crossing
        full = fit_decay_rate(times, norms, floor=floor)
        short = fit_decay_rate(times[:cut], norms[:cut], floor=floor)
        assert full.floor_hit and short.floor_hit
        assert full.lambda_n.hex() == short.lambda_n.hex()
        assert full.fit_r2.hex() == short.fit_r2.hex()
        assert [t.hex() for t in full.fit_window] == [t.hex() for t in short.fit_window]

    def test_slope_matches_exact_least_squares(self):
        # the centred two-pass slope against the exact slope of the same float
        # series; t reaches 3e3, where one-pass sums of t^2 and t*y cancel. The
        # fit reads the trailing half, so size flat records at norms[0] come
        # first: the half it reads is then the series itself, bit for bit
        rng = np.random.default_rng(5)
        for _ in range(60):
            size = int(rng.integers(10, 40))
            t0, dt = rng.choice([0.0, 1e3, 3e3]), rng.uniform(0.1, 10.0)
            rate = 10.0 ** rng.uniform(-4.0, -1.0)
            times = t0 + dt * np.arange(size)
            norms = np.exp(-rate * (times - t0) + rng.normal(0.0, 1e-3, size))
            est = fit_decay_rate(np.concatenate([t0 + dt * np.arange(-size, 0), times]),
                                 np.concatenate([np.full(size, norms[0]), norms]),
                                 floor=0.0)
            assert est.fit_window == (times[0], times[-1])
            t = [Fraction(v) for v in times.tolist()]
            y = [Fraction(v) for v in np.log(norms / norms[0]).tolist()]
            t_mean, y_mean = sum(t) / size, sum(y) / size
            exact = (sum((a - t_mean) * (b - y_mean) for a, b in zip(t, y))
                     / sum((a - t_mean) ** 2 for a in t))
            assert abs(Fraction(-est.lambda_n) - exact) <= Fraction(1e-15) * abs(exact)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("at", [0, 20, 39])
    @pytest.mark.parametrize("floor", [None, 0.0])
    def test_non_finite_norm_up_to_the_floor_is_an_error(self, bad, at, floor):
        # inf made the slope nan, and min(1.0, nan) reported fit_r2 = 1.0; at
        # record 0 the default floor is inf too, which read as a run at its floor;
        # nan ended the usable records as a floor record would
        times = np.arange(40.0)
        norms = np.exp(-0.01 * times)
        norms[at] = bad
        with pytest.raises(EstimationError, match="not finite"):
            fit_decay_rate(times, norms, floor=floor)

    def test_all_zero_trajectory(self, params, grid201):
        traj = synthetic_trajectory(1e-3, grid201, amplitude=0.0)
        est = estimate_decay_rate(traj, default_weight(grid201, params))
        assert est.lambda_n is None
        assert est.floor_hit
        assert est.fit_r2 == 0.0

    def test_too_few_usable_records(self, params, grid201):
        traj = synthetic_trajectory(1e-1, grid201, t_final=140.0)
        # floor sits above all but the first handful of records
        with pytest.raises(EstimationError) as exc_info:
            estimate_decay_rate(traj, default_weight(grid201, params),
                                floor=0.3)
        assert 0 < exc_info.value.usable_records < 10

    def test_floor_domain(self, params, grid201):
        # a negative floor lets the fit reach norms that underflow to 0 and take log(0)
        traj = synthetic_trajectory(1e-3, grid201)
        w = default_weight(grid201, params)
        for bad in (-1.0, -5e-324, float("nan")):
            with pytest.raises(ParameterError, match="floor must be >= 0"):
                estimate_decay_rate(traj, w, floor=bad)
        assert estimate_decay_rate(traj, w, floor=0.0).lambda_n == pytest.approx(1e-3)

    def test_window_bounds_lie_in_horizon(self, params, grid201):
        # all 701 records lie above the floor; the fit reads the trailing 351
        traj = synthetic_trajectory(1e-3, grid201)
        est = estimate_decay_rate(traj, default_weight(grid201, params))
        assert est.fit_window == (3500.0, 7000.0)
        assert not est.floor_hit


def _sweep_base(horizon=2000.0, dt=1.0, num_nodes=201, record_every=1):
    p = make_params(t_final=horizon)
    return SimulationConfig(params=p, law=FeedbackLaw(alpha=0.0),
                            grid=SpatialGrid(l=1.0, num_nodes=num_nodes),
                            dt=dt, record_every=record_every)


def _sweep(base, n_values, alpha_values, **kwargs):
    """sweep over base's (n, alpha) cells, n then alpha, each at its per-alpha
    default sat_m."""
    p = base.params
    configs = [replace(base, law=replace(base.law, alpha=a), params=replace(
        p, n=n, sat_m=default_saturation_bound(p.d_ax, p.v, p.l, a)))
        for n in n_values for a in alpha_values]
    return sweep(configs, **kwargs)


class TestSweep:
    def test_single_cell_matches_direct_composition(self):
        base = _sweep_base()
        result = _sweep(base, [1.0], [0.0])
        cell = result.cells[1.0, 0.0]

        p = make_params(t_final=2000.0)
        law = FeedbackLaw(alpha=0.0)
        steady = steady_state_numeric(p, 1.0, base.grid)
        traj = simulate(SimulationConfig(params=p, law=law, grid=base.grid,
                                         dt=1.0), steady,
                        initial_profile(base.grid, p, law))
        direct = estimate_decay_rate(traj, default_weight(base.grid, p))
        assert cell.error is None
        assert cell.estimate.lambda_n == direct.lambda_n  # bit-identical

    def test_failed_cell_is_isolated(self):
        base = _sweep_base(horizon=100.0, num_nodes=101)
        hostile = replace(base, params=make_params(k=1.0, t_final=100.0))
        result = _sweep(hostile, [0.5, 1.0], [0.0])
        bad = result.cells[0.5, 0.0]
        assert bad.estimate is None
        assert "SolverError" in bad.error
        good = result.cells[1.0, 0.0]
        assert good.error is None
        assert np.isfinite(good.estimate.lambda_n)

    def test_provenance_records_solver_effort(self):
        base = _sweep_base(horizon=200.0, num_nodes=101)
        cell = _sweep(base, [2.0], [0.25]).cells[2.0, 0.25]
        assert len(cell.provenance["hash"]) == 16
        assert cell.provenance["newton_iterations"] >= 1
        assert cell.provenance["inner_steps"] >= 200  # horizon / dt
        assert cell.provenance["alpha"] == 0.25

    @staticmethod
    def _break_the_stack(monkeypatch):
        import dftr.integrator

        def broken(*args, **kwargs):
            raise TypeError("bug in the stepper")

        monkeypatch.setattr(dftr.integrator, "simulate_stack", broken)

    def test_programming_error_is_not_a_failed_cell(self, monkeypatch):
        # only toolkit errors are recorded per cell; anything else is a bug
        # and must surface with its traceback
        self._break_the_stack(monkeypatch)
        with pytest.raises(TypeError, match="bug in the stepper"):
            _sweep(_sweep_base(horizon=100.0, num_nodes=101), [1.0], [0.0])

    def test_programming_error_in_a_stack_of_cells_surfaces(self, monkeypatch):
        self._break_the_stack(monkeypatch)
        with pytest.raises(TypeError, match="bug in the stepper"):
            _sweep(_sweep_base(horizon=100.0, num_nodes=101), [1.0, 2.0], [0.0, 0.5])

    def test_stacked_cells_match_solo_runs(self):
        # n = 10 needs substeps and n = 2 does not, so the stack takes both
        # ways through a step; record_every = 7 does not divide the 1000
        # steps
        from dftr.integrator import simulate_stack

        base = _sweep_base(horizon=1000.0, num_nodes=101, record_every=7)
        g = base.grid
        result = _sweep(base, [2.0, 10.0], [0.0, 0.5])
        runs, solos = [], []
        for n in (2.0, 10.0):
            for a in (0.0, 0.5):
                p = make_params(n=n, t_final=1000.0, alpha_for_sat=a)
                law = FeedbackLaw(alpha=a)
                cfg = SimulationConfig(params=p, law=law, grid=g, dt=1.0, record_every=7)
                runs.append((cfg, steady_state_numeric(p, 1.0, g), initial_profile(g, p, law)))
                traj = simulate(*runs[-1])
                solos.append(traj)
                direct = estimate_decay_rate(traj, default_weight(g, p))
                cell = result.cells[n, a]
                assert cell.error is None
                est = cell.estimate
                assert est.lambda_n.hex() == direct.lambda_n.hex()
                assert est.fit_r2.hex() == direct.fit_r2.hex()
                assert [t.hex() for t in est.fit_window] == [t.hex() for t in direct.fit_window]
                assert est.floor_hit == direct.floor_hit
                assert cell.provenance == _sweep(base, [n], [a]).cells[n, a].provenance
                assert cell.provenance["inner_steps"] == traj.inner_steps
        assert len({t.inner_steps for t in solos}) == 3

        weight = default_weight(g, runs[0][0].params)
        energies = np.full((len(runs), base.num_records), np.nan)

        def record(j, w):
            energies[:, j] = energy(w, weight)

        stacked = simulate_stack(runs, record)
        for q, traj in enumerate(solos):
            assert energies[q].tobytes() == energy(traj.states, weight).tobytes()
            assert stacked[q].inner_steps == traj.inner_steps
            assert stacked[q].negativity_events == traj.negativity_events
            assert np.array_equal(stacked[q].times, traj.times)

    def test_stack_stops_once_every_cell_is_at_its_floor(self):
        # every cell's norm is at its floor by t = 1,876 s, so the stack
        # stops there, yet each fit keeps the bits of a fit to the horizon;
        # record_every = 7 does not divide the 2500 steps
        base = _sweep_base(horizon=2500.0, num_nodes=101, record_every=7)
        g = base.grid
        result = _sweep(base, [2.0, 10.0], [0.0, 0.5])
        for n in (2.0, 10.0):
            for a in (0.0, 0.5):
                p = make_params(n=n, t_final=2500.0, alpha_for_sat=a)
                law = FeedbackLaw(alpha=a)
                cfg = SimulationConfig(params=p, law=law, grid=g, dt=1.0, record_every=7)
                traj = simulate(cfg, steady_state_numeric(p, 1.0, g), initial_profile(g, p, law))
                direct = estimate_decay_rate(traj, default_weight(g, p))
                cell = result.cells[n, a]
                assert cell.error is None
                est = cell.estimate
                assert est.lambda_n.hex() == direct.lambda_n.hex()
                assert est.fit_r2.hex() == direct.fit_r2.hex()
                assert [t.hex() for t in est.fit_window] == [t.hex() for t in direct.fit_window]
                assert est.floor_hit and direct.floor_hit
                assert cell.provenance["inner_steps"] < base.num_steps <= traj.inner_steps

    def test_floor_is_checked_before_any_stepping(self, monkeypatch):
        self._break_the_stack(monkeypatch)
        with pytest.raises(ParameterError, match="floor must be >= 0, got -1.0"):
            _sweep(_sweep_base(horizon=100.0, num_nodes=51), [1.0], [0.0], floor=-1.0)

    def test_non_finite_cell_reruns_its_stack_alone(self, monkeypatch):
        # n = 2000 is too stiff for the substep guard; run without substeps,
        # its reaction overflows. The NaN spreads across the stack, so every
        # cell reruns on its own and gets its solo result or error
        import dftr.integrator
        from dftr.errors import IntegrationError

        slope, stack = dftr.integrator._slope_into, dftr.integrator.simulate_stack
        sizes = []

        def unguarded(c, k, n):
            # the guard's slope at order 1 gives one substep
            return slope(c, k, np.where(n == 2000.0, 1.0, n))

        def counted(runs, record):
            sizes.append(len(runs))
            return stack(runs, record)

        monkeypatch.setattr(dftr.integrator, "_slope_into", unguarded)
        monkeypatch.setattr(dftr.integrator, "simulate_stack", counted)
        base = _sweep_base(horizon=300.0, num_nodes=101)
        with np.errstate(over="ignore", invalid="ignore"):
            result = _sweep(base, [2.0, 10.0, 2000.0], [0.0, 0.5])
            assert sizes == [6] + [1] * 6  # the stack, then each cell alone
            for (n, a), cell in result.cells.items():
                assert cell == _sweep(base, [n], [a]).cells[n, a]  # a stack of one
                assert (cell.error is None) == (n != 2000.0)

            p = make_params(n=2000.0, t_final=300.0, alpha_for_sat=0.5)
            law = FeedbackLaw(alpha=0.5)
            cfg = SimulationConfig(params=p, law=law, grid=base.grid, dt=1.0)
            with pytest.raises(IntegrationError, match="non-finite state") as exc:
                simulate(cfg, steady_state_numeric(p, 1.0, base.grid),
                         initial_profile(base.grid, p, law))
            sizes.clear()
            alone = _sweep(base, [2000.0], [0.5]).cells[2000.0, 0.5]
            assert sizes == [1]  # a failing stack of one is not stepped again
        assert result.cells[2000.0, 0.5].error == f"IntegrationError: {exc.value}"
        assert alone.error == f"IntegrationError: {exc.value}"

    def test_cell_past_the_substep_guard_fails_alone(self, monkeypatch):
        # at n = 2000 the guard's stiffness estimate overflows: the stack's own guard,
        # read before record 0, fails the stack, and each cell reruns as a stack of
        # one, so the stiff cells get simulate's error and the others their solo bits
        import dftr.integrator
        from dftr.errors import IntegrationError

        stack, sizes = dftr.integrator.simulate_stack, []

        def counted(runs, record):
            sizes.append(len(runs))
            return stack(runs, record)

        monkeypatch.setattr(dftr.integrator, "simulate_stack", counted)
        base = _sweep_base(horizon=100.0, num_nodes=51)
        result = _sweep(base, [2.0, 2000.0], [0.0, 0.5])
        assert sizes == [4] + [1] * 4
        for (n, a), cell in result.cells.items():
            assert cell == _sweep(base, [n], [a]).cells[n, a]
            if n == 2000.0:
                p = make_params(n=n, t_final=100.0, alpha_for_sat=a)
                law = FeedbackLaw(alpha=a)
                cfg = SimulationConfig(params=p, law=law, grid=base.grid, dt=1.0)
                with pytest.raises(IntegrationError, match="stiffness estimate inf") as exc:
                    simulate(cfg, steady_state_numeric(p, 1.0, base.grid),
                             initial_profile(base.grid, p, law))
                assert cell.error == f"IntegrationError: {exc.value}"
            else:
                assert cell.error is None and cell.estimate is not None

    @pytest.mark.parametrize("field", ["d_ax", "v"])
    def test_cells_of_two_stencils_step_alone(self, monkeypatch, field):
        # simulate_stack refuses runs of different d_ax or v, so each cell reruns
        # as a stack of one and gets its solo sweep's result
        import dftr.integrator

        stack, sizes = dftr.integrator.simulate_stack, []

        def counted(runs, record):
            sizes.append(len(runs))
            return stack(runs, record)

        monkeypatch.setattr(dftr.integrator, "simulate_stack", counted)
        base = _sweep_base(horizon=300.0, num_nodes=51)
        p = base.params
        other = replace(base, params=replace(p, n=2.0, **{field: 2.0 * getattr(p, field)}))
        result = sweep([base, other])
        assert sizes == [2, 1, 1]
        for config in (base, other):
            key = (config.params.n, config.law.alpha)
            solo = sweep([config]).cells[key]
            assert solo.error is None
            assert result.cells[key] == solo

    def test_cells_of_two_grids_step_alone_in_their_own_weights(self, monkeypatch):
        # simulate_stack refuses runs on two grids, so each cell reruns as a stack
        # of one, its norms taken in its own grid's weight: its solo estimate, and
        # that of simulate and estimate_decay_rate on the cell alone
        import dftr.integrator

        stack, sizes = dftr.integrator.simulate_stack, []

        def counted(runs, record):
            sizes.append(len(runs))
            return stack(runs, record)

        monkeypatch.setattr(dftr.integrator, "simulate_stack", counted)
        fine = _sweep_base(horizon=300.0, num_nodes=51)
        coarse = replace(fine, params=replace(fine.params, n=2.0),
                         grid=SpatialGrid(l=1.0, num_nodes=41))
        result = sweep([fine, coarse])
        assert sizes == [2, 1, 1]
        for config in (fine, coarse):
            key = (config.params.n, config.law.alpha)
            cell = result.cells[key]
            assert cell.error is None
            assert cell == sweep([config]).cells[key]
            traj = simulate(config, steady_state_numeric(config.params, 1.0, config.grid),
                            initial_profile(config.grid, config.params, config.law))
            direct = estimate_decay_rate(traj, default_weight(config.grid, config.params))
            assert cell.estimate == direct

    def test_window_and_floor_are_keyword_only(self):
        # the weight sweep once took second is not read as the floor, and no
        # argument sets the fit window
        with pytest.raises(TypeError):
            sweep([_sweep_base(horizon=100.0, num_nodes=51)], 0.5)
        with pytest.raises(TypeError, match="window_fraction"):
            sweep([_sweep_base(horizon=100.0, num_nodes=51)], window_fraction=0.5)

    @pytest.mark.parametrize("n_values,alpha_values", [([2, 2.0], [0.0]),
                                                       ([2.0], [0.0, 0.5, 0])])
    def test_repeated_axis_value_rejected(self, n_values, alpha_values):
        # a repeated value gives one cell two configs, and the second would
        # silently replace the first
        with pytest.raises(ParameterError, match="one config"):
            _sweep(_sweep_base(horizon=100.0, num_nodes=51), n_values, alpha_values)


class TestWeightAdmissibility:
    @pytest.mark.parametrize("n,alpha", [(0.5, 0.0), (10.0, 0.5)])
    def test_energy_monotone_for_subcritical_gammas(self, n, alpha):
        # any gamma strictly below v/d_ax keeps the weighted energy
        # nonincreasing; probe the corner cells of the reference table
        p = make_params(n=n, t_final=2000.0, alpha_for_sat=alpha)
        law = FeedbackLaw(alpha=alpha)
        g = SpatialGrid(l=1.0, num_nodes=101)
        steady = steady_state_numeric(p, 1.0, g)
        cfg = SimulationConfig(params=p, law=law, grid=g, dt=1.0, record_every=4)
        traj = simulate(cfg, steady, initial_profile(g, p, law))
        for gamma in (1.0, 2.0, 3.0):
            rho = np.exp(-gamma * g.nodes)
            energies = 0.5 * np.sum(g.quad_weights * rho * traj.states ** 2,
                                    axis=1)
            assert np.all(np.diff(energies) <= 1e-12 * energies[0])


class TestSettingsHash:
    SETTINGS = [{"command": "sweep", "settings": {"n_list": [0.5, [1.0, 2.0]], "alpha": 0.25}},
                {"name": "Péclet ρ 反応 \u2028", "nested": [[], [{"b": None, "a": True}], -0.0],
                 "tiny": 5e-324, "big": [1.7976931348623157e308, "ü" * 300]}]

    @pytest.fixture(params=[(), ("_sha2",), ("_sha2", "_sha256")],
                    ids=["interpreter", "before-3.12", "fallback"])
    def analysis_copy(self, request, monkeypatch):
        """A fresh copy of dftr.analysis imported with the given SHA-256 modules
        missing, so that it binds the next source in its order."""
        for name in request.param:
            monkeypatch.setitem(sys.modules, name, None)
        spec = importlib.util.spec_from_file_location("dftr._analysis_copy", analysis.__file__)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        return module, request.param

    def test_the_interpreter_module_is_bound(self):
        name = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
        assert analysis._sha256 is importlib.import_module(name).sha256

    @pytest.mark.parametrize("settings", SETTINGS)
    def test_every_source_gives_hashlib_digest(self, analysis_copy, settings):
        module, missing = analysis_copy
        expected = hashlib.sha256(json.dumps(settings, sort_keys=True).encode())
        assert module.settings_hash(settings) == expected.hexdigest()[:16]
        if "_sha256" in missing:
            assert module._sha256 is hashlib.sha256
