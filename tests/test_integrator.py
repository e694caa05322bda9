import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dftr import (
    ContractError,
    FeedbackLaw,
    IntegrationError,
    ParameterError,
    Profile,
    SimulationConfig,
    SpatialGrid,
    build_generator,
    energy,
    default_weight,
    initial_profile,
    reaction_rate,
    simulate,
    steady_state_numeric,
    step,
)
from conftest import L, V, make_params


def _setup(n=1.0, alpha=0.0, t_final=400.0, dt=0.1, num_nodes=201, k=0.001,
           record_every=1, peclet=4.0, **cfg_kwargs):
    p = make_params(n=n, k=k, t_final=t_final, alpha_for_sat=alpha, d_ax=V * L / peclet)
    law = FeedbackLaw(alpha=alpha)
    g = SpatialGrid(l=1.0, num_nodes=num_nodes)
    steady = steady_state_numeric(p, 1.0, g)
    cfg = SimulationConfig(params=p, law=law, grid=g, dt=dt,
                           record_every=record_every, **cfg_kwargs)
    return p, law, g, steady, cfg


class TestSimulationConfig:
    def test_rejects_nonpositive_dt(self):
        p, law, g, _, _ = _setup()
        with pytest.raises(ParameterError):
            SimulationConfig(params=p, law=law, grid=g, dt=0.0)

    def test_rejects_non_divisible_horizon(self):
        p = make_params(t_final=400.0)
        law = FeedbackLaw(alpha=0.0)
        g = SpatialGrid(l=1.0, num_nodes=21)
        with pytest.raises(ParameterError):
            SimulationConfig(params=p, law=law, grid=g, dt=0.3)

    def test_rejects_bad_record_cadence(self):
        p, law, g, _, _ = _setup()
        with pytest.raises(ParameterError):
            SimulationConfig(params=p, law=law, grid=g, dt=1.0, record_every=0)

    def test_step_count(self):
        _, _, _, _, cfg = _setup(t_final=400.0, dt=0.1)
        assert cfg.num_steps == 4000

    @pytest.mark.parametrize("t_final,dt", [(1.0, 1e-300), (1.0, 5e-324), (1e300, 1.0)])
    def test_rejects_more_steps_than_an_array_can_index(self, t_final, dt):
        # t_final / dt above np.intp's maximum (or infinite) sized no array
        p = make_params(t_final=t_final)
        g = SpatialGrid(l=1.0, num_nodes=21)
        with pytest.raises(ParameterError, match="more than numpy can index"):
            SimulationConfig(params=p, law=FeedbackLaw(alpha=0.0), grid=g, dt=dt)


class TestStep:
    def test_equilibrium_is_fixed_point(self):
        p, law, g, steady, cfg = _setup(n=2.0, dt=1.0)
        zero = Profile(g, np.zeros(g.num_nodes))
        nxt = step(zero, steady, cfg)
        assert np.max(np.abs(nxt.values)) <= 1e-13

    def test_grid_mismatch_rejected(self):
        p, law, g, steady, cfg = _setup(dt=1.0)
        other = SpatialGrid(l=1.0, num_nodes=51)
        with pytest.raises(ContractError):
            step(Profile(other, np.zeros(51)), steady, cfg)

    @pytest.mark.parametrize("n,substepped", [(2.0, False), (10.0, True)])
    def test_is_first_step_of_simulate(self, n, substepped):
        # step() is simulate() over one step: the same bits as the first
        # record of a longer run, including the guard's substeps at n=10
        p, law, g, steady, cfg = _setup(n=n, t_final=20.0, dt=1.0, num_nodes=101)
        w0 = initial_profile(g, p, law)
        traj = simulate(cfg, steady, w0)
        assert (traj.inner_steps > cfg.num_steps) == substepped
        assert np.array_equal(step(w0, steady, cfg).values, traj.states[1])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_linear_step_contracts_weighted_energy(self, seed):
        # k=0: the one-step map is a contraction in the flow-weighted norm
        # for arbitrary states, not just boundary-compatible ones
        p, law, g, steady, cfg = _setup(k=0.0, dt=1.0, num_nodes=51)
        rng = np.random.default_rng(seed)
        w = Profile(g, rng.uniform(-1.0, 1.0, g.num_nodes))
        weight = default_weight(g, p)
        e0 = energy(w.values, weight)
        e1 = energy(step(w, steady, cfg).values, weight)
        assert e1 <= e0 * (1.0 + 1e-12)


class TestSimulate:
    def test_zero_horizon_records_initial_state(self):
        p, law, g, steady, cfg = _setup(t_final=0.0, dt=1.0)
        w0 = initial_profile(g, p, law)
        traj = simulate(cfg, steady, w0)
        assert traj.times.shape == (1,)
        assert np.array_equal(traj.states[0], w0.values)

    def test_record_cadence_and_endpoints(self):
        p, law, g, steady, cfg = _setup(t_final=40.0, dt=1.0, record_every=7,
                                        num_nodes=51)
        traj = simulate(cfg, steady, initial_profile(g, p, law))
        assert traj.times[0] == 0.0
        assert traj.times[-1] == 40.0
        assert np.all(np.isin(traj.times[1:-1], np.arange(7.0, 40.0, 7.0)))

    @pytest.mark.parametrize("t_final,record_every",
                             [(40.0, 7), (40.0, 8), (40.0, 1), (40.0, 50), (0.0, 1)])
    def test_preallocated_records_are_all_filled(self, t_final, record_every):
        p, law, g, steady, cfg = _setup(n=2.0, t_final=t_final, dt=1.0,
                                        record_every=record_every, num_nodes=51)
        w0 = initial_profile(g, p, law)
        traj = simulate(cfg, steady, w0)
        n = cfg.num_steps
        kept = [i for i in range(n + 1) if i % record_every == 0 or i == n]
        assert traj.times.tolist() == [i * cfg.dt for i in kept]
        # every row holds the state of its step: the same bits as recording all
        every_step = simulate(SimulationConfig(params=p, law=law, grid=g, dt=1.0),
                              steady, w0)
        assert np.array_equal(traj.states, every_step.states[kept])

    @pytest.mark.parametrize("n,record_every", [(2.0, 7), (2.0, 8), (10.0, 7)])
    def test_record_consumer_sees_the_stored_records(self, n, record_every):
        # 40 steps: 7 leaves a short last record interval, 8 divides them;
        # n=10 at dt=1 substeps. A stack of one handed a consumer sees the
        # records simulate stores, and keeps no states itself
        from dftr.integrator import simulate_stack

        p, law, g, steady, cfg = _setup(n=n, t_final=40.0, dt=1.0,
                                        record_every=record_every, num_nodes=51)
        w0 = initial_profile(g, p, law)
        stored = simulate(cfg, steady, w0)
        seen = []
        (streamed,) = simulate_stack([(cfg, steady, w0)],
                                     lambda j, w: seen.append((j, w[0].copy())))
        assert [j for j, _ in seen] == list(range(cfg.num_records))
        assert np.array([w for _, w in seen]).tobytes() == stored.states.tobytes()
        assert streamed.states.shape == (0, g.num_nodes)
        assert streamed.times.tobytes() == stored.times.tobytes()
        assert (streamed.inner_steps, streamed.negativity_events) == (
            stored.inner_steps, stored.negativity_events)

    @pytest.mark.parametrize("orders", [(2.0,), (2.0, 10.0)])
    @pytest.mark.parametrize("last", [0, 3, 6])
    def test_truthy_record_ends_the_stack_after_that_record(self, orders, last):
        # records at steps 0, 7, ..., 35, 40; n = 2 alone never substeps and
        # n = 10 does, and the run from -2 c_bar has negativity events
        from dataclasses import replace
        from dftr.integrator import simulate_stack

        runs = []
        for n in orders:
            p, law, g, steady, cfg = _setup(n=n, t_final=40.0, dt=1.0, record_every=7,
                                            num_nodes=51)
            runs.append((cfg, steady, initial_profile(g, p, law)))
        runs.append((cfg, steady, Profile(g, -2.0 * steady.profile.values)))
        seen = []
        trajs = simulate_stack(runs, lambda j, w: seen.append((j, w.copy())) or j == last)
        assert [j for j, _ in seen] == list(range(last + 1))
        stop = min(7 * last, 40)
        for q, ((config, steady, w0), traj) in enumerate(zip(runs, trajs)):
            cut = replace(config, params=replace(config.params, t_final=float(stop)))
            alone = simulate(cut, steady, w0)
            assert traj.times.tobytes() == alone.times.tobytes()
            assert np.array([w[q] for _, w in seen]).tobytes() == alone.states.tobytes()
            assert (traj.inner_steps, traj.negativity_events) == (
                alone.inner_steps, alone.negativity_events)
        assert trajs[-1].negativity_events > 0

    @pytest.mark.parametrize("change", [{"dt": 0.5}, {"record_every": 2}])
    def test_stacked_runs_share_the_time_grid(self, change):
        from dataclasses import replace
        from dftr.integrator import simulate_stack

        p, law, g, steady, cfg = _setup(t_final=20.0, dt=1.0, num_nodes=51)
        w0 = initial_profile(g, p, law)
        with pytest.raises(ContractError, match="must share"):
            simulate_stack([(cfg, steady, w0), (replace(cfg, **change), steady, w0)],
                           lambda j, w: None)

    @pytest.mark.parametrize("field", ["d_ax", "v"])
    def test_stacked_runs_share_the_stencil(self, field):
        # A_h's couplings, so the stack's one symmetrizer and factor path, are those of
        # d_ax and v; the gain enters only the inlet row's diagonal
        from dataclasses import replace
        from dftr.integrator import simulate_stack

        p, law, g, steady, cfg = _setup(t_final=20.0, dt=1.0, num_nodes=51)
        w0 = initial_profile(g, p, law)
        other = replace(cfg, params=replace(p, **{field: 2.0 * getattr(p, field)}))
        with pytest.raises(ContractError, match="must share .*d_ax and v"):
            simulate_stack([(cfg, steady, w0), (other, steady, w0)], lambda j, w: None)

    def test_stack_records_all_runs_together_in_run_order(self):
        # n = 10 substeps, more so at alpha = 1/2, and n = 2 does not: three
        # inner step counts, so the runs take the stack's two ways through a
        # step
        from dftr.integrator import simulate_stack

        runs = []
        for n in (2.0, 10.0):
            for alpha in (0.0, 0.5):
                p, law, g, steady, cfg = _setup(n=n, alpha=alpha, t_final=40.0, dt=1.0,
                                                record_every=7, num_nodes=51)
                runs.append((cfg, steady, initial_profile(g, p, law)))
        solos = [simulate(*run) for run in runs]
        assert len({traj.inner_steps for traj in solos}) == 3
        seen = []
        simulate_stack(runs, lambda j, w: seen.append((j, w.copy())))
        assert [j for j, _ in seen] == list(range(cfg.num_records))
        for j, w in seen:
            assert w.shape == (len(runs), g.num_nodes)
            for q, traj in enumerate(solos):
                assert w[q].tobytes() == traj.states[j].tobytes()

    def test_deviation_decays_over_reference_horizon(self):
        p, law, g, steady, cfg = _setup(n=1.0, alpha=0.0, t_final=400.0, dt=0.1,
                                        record_every=100)
        w0 = initial_profile(g, p, law)
        traj = simulate(cfg, steady, w0)
        assert np.max(np.abs(traj.states[-1])) <= 0.15 * np.max(np.abs(w0.values))

    @pytest.mark.parametrize("n", [2.0, 400.0, 2000.0])
    def test_zero_rate_constant_makes_the_order_irrelevant(self, n):
        # k = 0 disables the reaction: every order gives the bits of n = 1,
        # also where C**n overflows (n = 2000)
        runs = {}
        for order in (1.0, n):
            p, law, g, steady, cfg = _setup(n=order, k=0.0, alpha=0.25, t_final=50.0,
                                            dt=1.0, num_nodes=51)
            runs[order] = simulate(cfg, steady, initial_profile(g, p, law))
        assert runs[n].states.tobytes() == runs[1.0].states.tobytes()
        assert runs[n].inner_steps == runs[1.0].inner_steps == cfg.num_steps

    def test_energy_never_increases_without_reaction(self):
        p, law, g, steady, cfg = _setup(k=0.0, alpha=0.5, t_final=100.0, dt=1.0,
                                        num_nodes=101)
        traj = simulate(cfg, steady, initial_profile(g, p, law))
        e = energy(traj.states, default_weight(g, p))
        assert np.all(np.diff(e) <= 1e-12 * e[0])

    def test_equilibrium_start_stays_at_equilibrium(self):
        p, law, g, steady, cfg = _setup(n=2.0, alpha=0.25, t_final=400.0, dt=1.0,
                                        record_every=50)
        traj = simulate(cfg, steady, Profile(g, np.zeros(g.num_nodes)))
        assert np.max(np.abs(traj.states)) <= 1e-9

    def test_negativity_monitor_counts_infeasible_concentrations(self):
        p, law, g, steady, cfg = _setup(n=1.0, t_final=1.0, dt=1.0, num_nodes=51)
        w0 = Profile(g, -2.0 * steady.profile.values)
        traj = simulate(cfg, steady, w0)
        assert traj.negativity_events >= g.num_nodes  # whole initial profile

    def test_arrays_are_write_protected(self):
        p, law, g, steady, cfg = _setup(t_final=1.0, dt=1.0, num_nodes=51)
        traj = simulate(cfg, steady, initial_profile(g, p, law))
        with pytest.raises(ValueError):
            traj.states[0, 0] = 99.0


def _reference_run(config, steady, w0):
    """One run stepped by the plain allocating form of simulate_stack's
    arithmetic: the guard's substep count m read from max|w| before every
    outer step; the clamp of model.reaction_rate moved onto C = w + c_bar;
    h/2 r* = 0.75 h r - 0.25 h r_prev (h/2 r at the first substep and
    whenever m changes); the delta step w = 2 D S_D^-1 (D^-1 (w + h/2 r*)) - w
    with A_h's Tridiagonal.symmetrizer D and factor(into=x, symmetric=True) of
    the symmetrized I - h/2 A_h, or D = 1 and an LU factor where A_h has none;
    and a count_nonzero negativity count per substep. Returns the recorded
    states, the negativity events and the inner step count, or the
    IntegrationError the run raises."""
    from dftr.integrator import NEGATIVITY_TOL, substep_count

    p, c_bar = config.params, steady.profile.values
    a_h = build_generator(config.grid, p, config.law.alpha)
    d = a_h.symmetrizer()
    symmetric = d is not None
    if symmetric:
        a_h = a_h.symmetrized()
    else:
        d = np.ones(c_bar.size)
    base = np.maximum(c_bar, 0.0) ** p.n
    lo, hi = np.maximum(c_bar - p.sat_m, 0.0), np.maximum(c_bar + p.sat_m, 0.0)

    def rate(w):
        return p.k * (base - np.minimum(np.maximum(w + c_bar, lo), hi) ** p.n)

    w, r_prev, m_prev, inner = w0.values.copy(), None, None, 0
    states, events = [w.copy()], np.count_nonzero(w + c_bar < NEGATIVITY_TOL)
    for i in range(1, config.num_steps + 1):
        m = substep_count(config, c_bar, float(np.max(np.abs(w))))
        h = config.dt / m
        x = np.empty(w.size)
        solve = a_h.shifted(1.0, -0.5 * h).factor(into=x, symmetric=symmetric)
        for s in range(m):
            r_now = rate(w)
            restart = r_prev is None or (s == 0 and m != m_prev)
            half_r_star = 0.5 * h * r_now if restart else 0.75 * h * r_now - 0.25 * h * r_prev
            r_prev = r_now
            x[:] = (w + half_r_star) * (1.0 / d)
            solve()
            w = (2.0 * d) * x - w
            events += np.count_nonzero(w + c_bar < NEGATIVITY_TOL)
        m_prev, inner = m, inner + m
        if not np.isfinite(w).all():
            return IntegrationError(f"non-finite state at step {i}", step_index=i)
        if i % config.record_every == 0 or i == config.num_steps:
            states.append(w.copy())
    return np.array(states), events, inner


def _explicit_cn_run(config, steady, w0):
    """An independent oracle of one run's recorded states: the guard's substeps
    with Crank-Nicolson-AB2 written out, (I - h/2 A_h) w' = (I + h/2 A_h) w + h r*,
    r* = 1.5 r - 0.5 r_prev (r at the first substep and whenever m changes), with
    model.reaction_rate, Tridiagonal.apply and an LU solve."""
    from dftr.integrator import substep_count

    p, c_bar = config.params, steady.profile.values
    a_h = build_generator(config.grid, p, config.law.alpha)
    w, r_prev, m_prev = w0.values.copy(), None, None
    states = [w.copy()]
    for i in range(1, config.num_steps + 1):
        m = substep_count(config, c_bar, float(np.max(np.abs(w))))
        h = config.dt / m
        for s in range(m):
            r_now = reaction_rate(w, c_bar, p)
            restart = r_prev is None or (s == 0 and m != m_prev)
            r_star = r_now if restart else 1.5 * r_now - 0.5 * r_prev
            r_prev = r_now
            w = a_h.shifted(1.0, -0.5 * h).solve(a_h.shifted(1.0, 0.5 * h).apply(w) + h * r_star)
        m_prev = m
        if i % config.record_every == 0 or i == config.num_steps:
            states.append(w.copy())
    return np.array(states)


class TestFusedSubstep:
    """simulate_stack's in-place substep against the plain reference loop."""

    @staticmethod
    def _stack(runs):
        from dftr.integrator import simulate_stack

        seen = []
        trajs = simulate_stack(runs, lambda j, w: seen.append(w.copy()))
        return np.array(seen), trajs

    def test_stack_matches_the_reference_loop_bit_for_bit(self):
        # four orders (n = 1 included) and two gains: several inner step
        # counts and several power segments; one more run starts at
        # w0 = -2 c_bar, where C_A is negative
        runs = []
        for n in (0.5, 1.0, 2.0, 10.0):
            for alpha in (0.0, 0.5):
                p, law, g, steady, cfg = _setup(n=n, alpha=alpha, t_final=40.0, dt=1.0,
                                                record_every=7, num_nodes=51)
                runs.append((cfg, steady, initial_profile(g, p, law)))
        p, law, g, steady, cfg = _setup(n=2.0, t_final=40.0, dt=1.0, record_every=7,
                                        num_nodes=51)
        runs.append((cfg, steady, Profile(g, -2.0 * steady.profile.values)))
        refs = [_reference_run(*run) for run in runs]
        assert len({m for _, _, m in refs}) >= 3
        assert refs[-1][1] > 0
        seen, trajs = self._stack(runs)
        assert seen.shape == (cfg.num_records, len(runs), g.num_nodes)
        for q, (states, events, inner) in enumerate(refs):
            assert seen[:, q].tobytes() == states.tobytes()
            assert (trajs[q].negativity_events, trajs[q].inner_steps) == (events, inner)

    def test_stepper_matches_the_explicit_crank_nicolson_loop(self):
        # the delta form through A_h's symmetrizer against CN-AB2 written out with an LU
        # solve: rounding grows to about 5e-15 of max|w0| over these 40 steps, while a
        # first-order reaction extrapolation or a 1e-6 error in 2 D misses by 1e-5 or more
        runs = []
        for n in (0.5, 1.0, 2.0, 10.0):
            for alpha in (0.0, 0.5):
                p, law, g, steady, cfg = _setup(n=n, alpha=alpha, t_final=40.0, dt=1.0,
                                                num_nodes=51)
                runs.append((cfg, steady, initial_profile(g, p, law)))
        seen, _ = self._stack(runs)
        assert seen.shape == (41, len(runs), 51)
        for q, run in enumerate(runs):
            bound = 1e-10 * np.max(np.abs(run[2].values))
            assert np.max(np.abs(seen[:, q] - _explicit_cn_run(*run))) <= bound

    def test_non_finite_run_fails_the_stack_like_the_reference(self, monkeypatch):
        # without substeps, n = 2000's reaction overflows in the first step
        import dftr.integrator

        monkeypatch.setattr(dftr.integrator, "_substeps",
                            lambda dt, lip, step_index=0: np.ones_like(lip, dtype=int))
        runs = []
        for n in (2.0, 2000.0):
            p, law, g, steady, cfg = _setup(n=n, t_final=40.0, dt=1.0, num_nodes=51)
            runs.append((cfg, steady, initial_profile(g, p, law)))
        with np.errstate(over="ignore", invalid="ignore"):
            expected = _reference_run(*runs[1])
            assert isinstance(expected, IntegrationError)
            assert not isinstance(_reference_run(*runs[0]), IntegrationError)
            with pytest.raises(IntegrationError) as exc:
                self._stack(runs)
        assert (str(exc.value), exc.value.step_index) == (str(expected), expected.step_index)

    def test_substeps_allocate_no_array(self):
        # tracemalloc sees numpy's array buffers; between two records (one
        # outer step: the guard read from the state, then up to 10 substeps
        # per run on its slice, or one solve of the whole stack) the traced
        # peak must stay below one state's buffer. Each record is a view,
        # not a copy.
        import tracemalloc
        from dftr.integrator import simulate_stack

        runs = []
        for n, alpha in ((10.0, 0.5), (10.0, 0.0), (2.0, 0.0)):
            p, law, g, steady, cfg = _setup(n=n, alpha=alpha, t_final=20.0, dt=1.0,
                                            num_nodes=201)
            runs.append((cfg, steady, initial_profile(g, p, law)))
        transient = []

        def record(j, w):
            current, peak = tracemalloc.get_traced_memory()
            if j > 0:
                transient.append(peak - current)
            tracemalloc.reset_peak()

        tracemalloc.start()
        try:
            trajs = simulate_stack(runs, record)
        finally:
            tracemalloc.stop()
        assert len({t.inner_steps for t in trajs}) == 3
        assert len(transient) == cfg.num_steps
        assert max(transient) < g.num_nodes * 8


def _factor_calls(monkeypatch):
    """A list that grows by the routine's name at each dgttrf or dpttrf call."""
    from dftr import operator

    lapack, calls = operator._LAPACK, []

    def counted(name):
        def call(*args):
            calls.append(name)
            return getattr(lapack, name)(*args)
        return call

    monkeypatch.setattr(operator, "_LAPACK", lapack._replace(
        dgttrf=counted("dgttrf"), dpttrf=counted("dpttrf")))
    return calls


class TestSolvePath:
    """A stack steps through one LDL^T factor of its symmetrized Crank-Nicolson matrix
    per part where A_h has a symmetrizer, else through one LU with D = 1; on either
    path, a stacked run's records are the bytes of the same run solo."""

    @staticmethod
    def _runs(peclet, num_nodes):
        runs = []
        for n, alpha in ((1.0, 0.0), (2.0, 0.5)):
            p, law, g, steady, cfg = _setup(n=n, alpha=alpha, t_final=20.0, dt=1.0,
                                            num_nodes=num_nodes, record_every=3,
                                            peclet=peclet)
            runs.append((cfg, steady, initial_profile(g, p, law)))
        return runs

    @staticmethod
    def _solo_bytes(runs):
        return [TestFusedSubstep._stack([run])[0][:, 0].tobytes() for run in runs]

    # Pe 4 on 201 nodes, the reference point: symmetric. Pe 1000 on 201 nodes: cell
    # Peclet number 5, so upper < 0 < lower. Pe 1000 on 2001 nodes: cell Peclet number
    # 0.5, but D spans about e^500
    @pytest.mark.parametrize("peclet, num_nodes, routine", [
        (4.0, 201, "dpttrf"), (1000.0, 201, "dgttrf"), (1000.0, 2001, "dgttrf")])
    def test_stacked_runs_keep_their_solo_bits_on_each_path(
            self, monkeypatch, peclet, num_nodes, routine):
        runs = self._runs(peclet, num_nodes)
        a_h = build_generator(runs[0][0].grid, runs[0][0].params, 0.0)
        assert (a_h.symmetrizer() is None) == (routine == "dgttrf")
        calls = _factor_calls(monkeypatch)
        seen, _ = TestFusedSubstep._stack(runs)
        assert calls == [routine]  # one part, the whole stack at m = 1
        assert np.isfinite(seen).all()
        for q, solo in enumerate(self._solo_bytes(runs)):
            assert seen[:, q].tobytes() == solo


def _guard_calls(monkeypatch):
    """A list that grows by one at each call of the full substep guard."""
    import dftr.integrator

    guard, calls = dftr.integrator._substeps, []

    def counted(*args, **kwargs):
        calls.append(args)
        return guard(*args, **kwargs)

    monkeypatch.setattr(dftr.integrator, "_substeps", counted)
    return calls


class TestSubstepThreshold:
    """simulate_stack reads each run's guard ratio before every step, and the full
    guard only where some ratio is above 1."""

    @pytest.mark.parametrize("orders", [(0.5, 1.0, 2.0, 10.0), (0.5, 1.0, 2.0)])
    def test_full_guard_at_every_step_changes_no_bit(self, monkeypatch, orders):
        # n = 10 at the default sat_m substeps at first, beside n <= 2, which never
        # substep; the last run, from w0 = -2 c_bar, has negativity events. The
        # reference reads the full guard at every step: states, inner steps and
        # events are the same, with _substeps called only at the steps where n = 10
        # needs more than one substep, and never in a stack of n <= 2
        from dftr.integrator import simulate_stack

        runs = []
        for n in orders:
            for alpha in (0.0, 0.5):
                p, law, g, steady, cfg = _setup(n=n, alpha=alpha, t_final=40.0, dt=1.0,
                                                record_every=7, num_nodes=51)
                runs.append((cfg, steady, initial_profile(g, p, law)))
        p, law, g, steady, cfg = _setup(n=2.0, t_final=40.0, dt=1.0, record_every=7,
                                        num_nodes=51)
        runs.append((cfg, steady, Profile(g, -2.0 * steady.profile.values)))

        calls, seen = _guard_calls(monkeypatch), []
        trajs = simulate_stack(runs, lambda j, w: seen.append(w.copy()))
        seen = np.array(seen)
        if 10.0 in orders:
            assert 0 < len(calls) < cfg.num_steps
        else:
            assert not calls
        assert trajs[-1].negativity_events > 0
        for q, run in enumerate(runs):
            states, events, inner = _reference_run(*run)
            assert np.array_equal(seen[:, q], states)
            assert (trajs[q].inner_steps, trajs[q].negativity_events) == (inner, events)

    @staticmethod
    def _ratio_reads(monkeypatch):
        """A list of the largest guard ratio, one entry per read: the first is the stack's
        read at c0 + cap, then one per step read."""
        import dftr.integrator

        ratio, reads = dftr.integrator._ratio, []

        def counted(dt, lip):
            reads.append(ratio(dt, lip))
            return reads[-1]

        monkeypatch.setattr(dftr.integrator, "_ratio", counted)
        return reads

    @staticmethod
    def _cap_ratio(runs):
        """The largest guard ratio of runs at c0 + cap, the most each can see."""
        from dftr.integrator import _ratio, _reach
        from dftr.model import _reaction, _slope_into

        ratios = []
        for config, steady, _ in runs:
            p, c_bar = config.params, steady.profile.values
            c0, cap = _reach(p, c_bar)
            k, n, *_ = _reaction(p, c_bar)
            lip = _slope_into(np.array([c0 + cap]), k, np.array([n]))
            ratios.append(_ratio(config.dt, lip))
        return max(ratios)

    def test_ratio_in_the_upper_half_is_read_at_every_step_and_never_substeps(
            self, monkeypatch):
        # sat_m = max|w0|, so each run starts at its cap, and dt puts the largest ratio
        # there at 0.75: the stack is not quiet, the ratio is read before each of its
        # 40 steps and is above 1/2 at the first, and no step reads the full guard
        from dataclasses import replace
        from dftr.integrator import simulate_stack

        def run(n, alpha, dt):
            p, law, g, steady, _ = _setup(n=n, alpha=alpha, num_nodes=51)
            w0 = initial_profile(g, p, law)
            p = replace(p, sat_m=float(np.max(np.abs(w0.values))), t_final=40.0 * dt)
            return SimulationConfig(params=p, law=law, grid=g, dt=dt, record_every=7), \
                steady, w0

        cells = ((10.0, 0.0), (10.0, 0.5), (2.0, 0.0))
        dt = 0.75 / self._cap_ratio([run(n, alpha, 1.0) for n, alpha in cells])
        runs = [run(n, alpha, dt) for n, alpha in cells]
        assert 0.5 < self._cap_ratio(runs) <= 1.0
        reads, calls, seen = self._ratio_reads(monkeypatch), _guard_calls(monkeypatch), []
        trajs = simulate_stack(runs, lambda j, w: seen.append(w.copy()))
        assert len(reads) - 1 == runs[0][0].num_steps == 40
        assert 0.5 < reads[1] and max(reads) <= 1.0
        assert not calls
        seen = np.array(seen)
        for q, run in enumerate(runs):
            states, events, inner = _reference_run(*run)
            assert seen[:, q].tobytes() == states.tobytes()
            assert (trajs[q].inner_steps, trajs[q].negativity_events) == (inner, events)
            assert inner == 40

    def test_quiet_stack_never_calls_the_guard(self, monkeypatch):
        # n <= 2 at dt = 1: every ratio at c0 + cap is at most 1/2, so the stack is
        # quiet; past its read at c0 + cap it reads the ratio once, from w0, and never
        # calls _substeps
        from dftr.integrator import simulate_stack

        runs = []
        for n in (0.5, 1.0, 2.0):
            for alpha in (0.0, 0.5):
                p, law, g, steady, cfg = _setup(n=n, alpha=alpha, t_final=40.0, dt=1.0,
                                                num_nodes=51)
                runs.append((cfg, steady, initial_profile(g, p, law)))
        assert self._cap_ratio(runs) <= 0.5
        reads, calls = self._ratio_reads(monkeypatch), _guard_calls(monkeypatch)
        trajs = simulate_stack(runs, lambda j, w: None)
        assert len(reads) - 1 == 1 and not calls
        assert [t.inner_steps for t in trajs] == [cfg.num_steps] * len(runs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("orders", [(2.0,), (2.0, 10.0)])
    def test_non_finite_state_raises_at_the_next_step(self, bad, orders):
        # a value written into the live state at record 3 (step 3): the step
        # after it fails the clean check and raises there. With n = 10 in the
        # stack a NaN max|w| reaches the guard first, which raises at step 3
        from dftr.integrator import simulate_stack

        runs = []
        for n in orders:
            p, law, g, steady, cfg = _setup(n=n, t_final=10.0, dt=1.0, num_nodes=51)
            runs.append((cfg, steady, initial_profile(g, p, law)))

        def record(j, w):
            if j == 3:
                w[0, 20] = bad

        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(IntegrationError) as exc:
                simulate_stack(runs, record)
        if np.isnan(bad) and len(orders) > 1:
            assert str(exc.value).startswith("reaction stiffness estimate nan")
            assert exc.value.step_index == 3
        else:
            assert (str(exc.value), exc.value.step_index) == ("non-finite state at step 4", 4)


class TestSubstepping:
    def test_stiff_rate_triggers_substeps(self):
        # n=10 with dt=1: the Lipschitz estimate forces the reaction onto
        # a finer internal grid while the record cadence stays on dt
        p, law, g, steady, cfg = _setup(n=10.0, alpha=0.0, t_final=20.0, dt=1.0,
                                        num_nodes=101)
        traj = simulate(cfg, steady, initial_profile(g, p, law))
        assert traj.inner_steps > cfg.num_steps
        assert traj.times[-1] == 20.0
        assert np.allclose(np.diff(traj.times), 1.0, rtol=1e-12)

    def test_gain_raises_saturation_and_substeps(self):
        counts = {}
        for alpha in (0.0, 0.5):
            p, law, g, steady, cfg = _setup(n=10.0, alpha=alpha, t_final=1.0,
                                            dt=1.0, num_nodes=51)
            traj = simulate(cfg, steady, initial_profile(g, p, law))
            counts[alpha] = traj.inner_steps
        assert counts[0.5] > counts[0.0]

    def test_mild_problem_needs_no_substeps(self):
        p, law, g, steady, cfg = _setup(n=1.0, t_final=10.0, dt=1.0, num_nodes=51)
        traj = simulate(cfg, steady, initial_profile(g, p, law))
        assert traj.inner_steps == cfg.num_steps

    def test_guard_refuses_an_order_whose_power_overflows(self):
        # c ** (n - 1) leaves the float range at n = 2000: the guard's own
        # error, not an OverflowError from the power
        from dftr.integrator import substep_count

        p, law, g, steady, cfg = _setup(n=2000.0, t_final=1.0, dt=1.0, num_nodes=51)
        w0_max = float(np.max(np.abs(initial_profile(g, p, law).values)))
        with pytest.raises(IntegrationError, match="stiffness estimate inf"):
            substep_count(cfg, steady.profile.values, w0_max)

    def test_untamable_stiffness_raises(self):
        # astronomically steep rate law: the substep estimate overflows any
        # sane budget and the run must refuse rather than produce garbage
        p, law, g, steady, _ = _setup(n=2.0, t_final=1.0, dt=1.0, num_nodes=51)
        stiff = make_params(n=400.0, t_final=1.0)
        stiff_cfg = SimulationConfig(params=stiff, law=law, grid=g, dt=1.0)
        stiff_steady = steady_state_numeric(stiff, 1.0, g)
        with pytest.raises(IntegrationError):
            simulate(stiff_cfg, stiff_steady, initial_profile(g, stiff, law))


class TestTemporalAccuracy:
    def test_matches_matrix_exponential_in_linear_regime(self):
        from scipy.linalg import expm

        p, law, g, steady, cfg = _setup(k=0.0, alpha=0.25, t_final=50.0, dt=0.1,
                                        num_nodes=51)
        w0 = initial_profile(g, p, law)
        traj = simulate(cfg, steady, w0)
        exact = expm(50.0 * build_generator(g, p, law.alpha).dense()) @ w0.values
        rel = np.linalg.norm(traj.states[-1] - exact) / np.linalg.norm(exact)
        assert rel <= 1e-4
