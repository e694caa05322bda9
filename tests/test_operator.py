import gc
import importlib.machinery
import inspect
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dftr import (
    ContractError,
    ParameterError,
    Profile,
    SimulationConfig,
    SolverError,
    SpatialGrid,
    Tridiagonal,
    build_generator,
    dissipativity_form,
    duhamel_oracle,
    initial_profile,
    inner_product,
    FeedbackLaw,
    random_bc_compatible,
    resolvent_analytic,
    resolvent_discrete,
    simulate,
    steady_state_numeric,
)
from dftr import operator
from conftest import make_params


def _quadratic_profile(grid, params, alpha):
    return initial_profile(grid, params, FeedbackLaw(alpha=alpha))


def _tridiagonal_cases(params, m=31):
    """The generator, its Crank-Nicolson matrix and a general matrix."""
    a_h = build_generator(SpatialGrid(l=1.0, num_nodes=m), params, 0.25).diagonals
    rng = np.random.default_rng(7)
    lower, diag, upper = rng.standard_normal((3, m))
    return [a_h, a_h.shifted(1.0, -0.5), Tridiagonal(lower, diag + 4.0, upper)]


class TestGenerator:
    def test_zero_vector_maps_to_zero(self, params, grid201):
        gen = build_generator(grid201, params, 0.0)
        assert np.array_equal(gen.diagonals.apply(np.zeros(201)), np.zeros(201))

    def test_exact_on_boundary_compatible_quadratic(self, params, grid201):
        # the startup profile is quadratic, so central differences are exact
        # and the ghost eliminations reproduce d_ax*w'' - v*w' at every node
        for alpha in (0.0, 0.25, 0.5):
            gen = build_generator(grid201, params, alpha)
            w = _quadratic_profile(grid201, params, alpha).values
            expected = -params.d_ax - params.v * (params.l - grid201.nodes)
            assert np.max(np.abs(gen.diagonals.apply(w) - expected)) <= 1e-12

    def test_dense_matches_apply(self, params):
        # the first case is the 31-node generator's own A_h
        x = np.random.default_rng(3).standard_normal(31)
        for mat in _tridiagonal_cases(params):
            assert np.allclose(mat.dense() @ x, mat.apply(x), rtol=1e-13, atol=1e-16)

    def test_diagonals_read_only(self, params, grid201):
        gen = build_generator(grid201, params, 0.0)
        lower, diag, upper = gen.diagonals
        with pytest.raises(ValueError):
            diag[0] = 0.0

    def test_rejects_gain_outside_range(self, params, grid201):
        with pytest.raises(ParameterError):
            build_generator(grid201, params, 0.6)


class TestTridiagonal:
    def test_factored_solve_matches_dense_solve(self, params):
        rng = np.random.default_rng(4)
        for mat in _tridiagonal_cases(params):
            dense = mat.dense()
            solve = mat.factor()
            for _ in range(3):
                rhs = rng.standard_normal(31)
                ref = np.linalg.solve(dense, rhs)
                x = solve(rhs)
                bound = 10.0 * np.linalg.cond(dense) * np.finfo(float).eps
                assert np.linalg.norm(x - ref) <= bound * np.linalg.norm(ref)
                assert np.array_equal(x, mat.solve(rhs))  # factor-once == one-shot

    def test_in_place_solve_overwrites_its_rhs_with_the_solution(self, params):
        # the bound solve takes no argument and overwrites the buffer it was bound to
        rng = np.random.default_rng(6)
        for mat in _tridiagonal_cases(params):
            buffer = np.zeros(40)
            rhs = buffer[:31]  # a contiguous view, as a leading part's buffer
            solve, solve_in_place = mat.factor(), mat.factor(into=rhs)
            rhs[:] = rng.standard_normal(31)
            expected = solve(rhs.copy())
            solve_in_place()
            assert rhs.tobytes() == expected.tobytes()
            assert not buffer[31:].any()

    @pytest.mark.parametrize("bad", ["float32", "short", "strided", "read-only"])
    def test_bound_solve_rejects_a_buffer_it_cannot_overwrite(self, params, bad):
        # dgttrs would write past, or beside, a buffer of another layout
        mat = _tridiagonal_cases(params)[1]
        read_only = np.zeros(31)
        read_only.flags.writeable = False
        buffer = {"float32": np.zeros(31, dtype=np.float32), "short": np.zeros(30),
                  "strided": np.zeros(62)[::2], "read-only": read_only}[bad]
        with pytest.raises(ContractError):
            mat.factor(into=buffer)

    def test_diagonals_of_unequal_length_are_rejected(self, lapack_path):
        # LAPACK would read past the shorter diagonal
        with pytest.raises(ContractError):
            Tridiagonal(np.zeros(4), np.ones(5), np.zeros(5)).factor()

    def test_bound_solve_outlives_the_matrix_and_its_factors(self, params):
        # the bound pointers alone hold the factors and their integer arguments alive
        mat = _tridiagonal_cases(params)[2]
        rhs = np.random.default_rng(12).standard_normal(31)
        expected = mat.solve(rhs).tobytes()
        buffer = np.empty(31)
        solve = Tridiagonal(*(d.copy() for d in mat)).factor(into=buffer)
        del mat
        gc.collect()
        clutter = [np.full(31, np.nan) for _ in range(64)]  # would take freed memory
        buffer[:] = rhs
        solve()
        assert buffer.tobytes() == expected
        assert np.isnan(clutter[-1]).all()

    def test_block_diagonal_solves_leading_blocks_alone(self, params):
        # dgttrf never pivots across a zero coupling: each leading stack
        # gives each of its blocks the bits of that block's own solve
        blocks = _tridiagonal_cases(params)
        stacked = Tridiagonal.block_diagonal(blocks)
        assert np.array_equal(stacked.dense()[:31, :31], blocks[0].dense())
        assert not stacked.dense()[:31, 31:].any()
        rhs = np.random.default_rng(5).standard_normal(31 * len(blocks))
        for count in range(len(blocks), 0, -1):
            x = Tridiagonal.block_diagonal(blocks[:count]).solve(rhs[:31 * count])
            for b, block in enumerate(blocks[:count]):
                cut = slice(31 * b, 31 * (b + 1))
                assert np.array_equal(x[cut], block.solve(rhs[cut]))

    def test_singular_system_raises_solver_error(self, monkeypatch):
        # on numpy's LAPACK, where this numpy exports it, and on scipy's _flapack
        mat = Tridiagonal(np.zeros(5), np.array([1.0, 1.0, 0.0, 1.0, 1.0]),
                          np.zeros(5))
        for path in (NUMPY_LAPACK, operator._flapack_gttr()):
            if path is None:
                continue
            monkeypatch.setattr(operator, "_GTTR", path)
            with pytest.raises(SolverError, match="zero pivot at row 3"):
                mat.factor()
            with pytest.raises(SolverError):
                mat.factor(into=np.ones(5))
            with pytest.raises(SolverError):
                mat.solve(np.ones(5))


NUMPY_LAPACK = operator._numpy_gttr()
needs_numpy_lapack = pytest.mark.skipif(
    NUMPY_LAPACK is None,
    reason="this numpy exports no ILP64 dgttrf/dgttrs, so runs take scipy's _flapack")


@pytest.fixture(params=["numpy", "flapack"])
def lapack_path(request, monkeypatch):
    """Every solve of the test through numpy's LAPACK, then through scipy's _flapack."""
    if request.param == "numpy" and NUMPY_LAPACK is None:
        pytest.skip(needs_numpy_lapack.kwargs["reason"])
    path = NUMPY_LAPACK if request.param == "numpy" else operator._flapack_gttr()
    monkeypatch.setattr(operator, "_GTTR", path)
    return path


def _dominant_cases():
    """Random diagonally dominant systems of 201, 2001 and 2412 unknowns, then the
    three as one block-diagonal stack with zero couplings."""
    rng = np.random.default_rng(13)
    mats = []
    for m in (201, 2001, 2412):
        lower, upper = rng.uniform(-1.0, 1.0, (2, m))
        diag = rng.choice([-1.0, 1.0], m) * (2.0 + rng.uniform(0.0, 1.0, m))
        mats.append(Tridiagonal(lower, diag, upper))
    return mats + [Tridiagonal.block_diagonal(mats)]


class TestLapackLoader:
    def test_extension_is_loaded_by_path(self):
        # the fallback's fast path is taken on the installed scipy; a renamed or moved
        # extension fails here instead of silently importing scipy.linalg
        lapack = operator._lapack()
        assert lapack.__name__ == "scipy.linalg._flapack"
        assert lapack is sys.modules["scipy.linalg._flapack"]
        assert operator._flapack_gttr().name == "scipy.linalg._flapack"

    @needs_numpy_lapack
    def test_numpy_path_is_taken_where_numpy_exports_the_pair(self):
        assert operator._GTTR.name == NUMPY_LAPACK.name

    def test_fallback_gives_the_same_bytes(self, params, monkeypatch):
        import scipy.linalg.lapack  # imported before PathFinder stops finding anything

        chosen = operator._GTTR
        monkeypatch.setattr(operator, "_numpy_gttr", lambda: None)
        fast = operator._gttr()
        assert fast.name == "scipy.linalg._flapack"
        monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                            lambda *args, **kwargs: None)
        fallback = operator._gttr()
        assert fallback.name == "scipy.linalg.lapack"
        monkeypatch.undo()

        mat = build_generator(SpatialGrid(l=1.0, num_nodes=2001), params,
                              0.25).diagonals.shifted(1.0, -0.5)
        rhs = np.random.default_rng(8).standard_normal(2001)
        results = []
        for path in (chosen, fast, fallback):
            monkeypatch.setattr(operator, "_GTTR", path)
            in_place = rhs.copy()
            mat.factor(into=in_place)()
            results.append((mat.solve(rhs).tobytes(), in_place.tobytes()))
        assert results[0] == results[1] == results[2]
        assert results[0][0] == results[0][1]

    @needs_numpy_lapack
    def test_factors_and_solutions_match_bit_for_bit(self):
        # numpy's OpenBLAS and scipy's give the same LU factors, pivots and solutions
        flapack = operator._flapack_gttr()
        rng = np.random.default_rng(14)
        for mat in _dominant_cases():
            rhs = rng.standard_normal(mat.diag.size)
            outcomes = []
            for path in (NUMPY_LAPACK, flapack):
                lu, info = path.factor(mat.lower[1:], mat.diag, mat.upper[:-1])
                x = rhs.copy()
                path.bind(lu, x)()
                outcomes.append((lu, info, x))
            (lu_n, info_n, x_n), (lu_f, info_f, x_f) = outcomes
            assert info_n == info_f == 0
            assert len(lu_n) == len(lu_f) == 5
            for a, b in zip(lu_n, lu_f):  # dl, d, du, du2, then the pivots' values
                assert np.array_equal(a, b)
            assert x_n.tobytes() == x_f.tobytes()

    def test_bound_solve_equals_solve(self, lapack_path):
        rng = np.random.default_rng(15)
        for mat in _dominant_cases():
            rhs = rng.standard_normal(mat.diag.size)
            x = rhs.copy()
            mat.factor(into=x)()
            assert x.tobytes() == mat.solve(rhs).tobytes()

    @needs_numpy_lapack
    def test_forced_fallback_simulates_the_same_bytes(self, params, monkeypatch):
        # a probe that finds nothing sends every solve through _flapack, with every bit kept
        grid = SpatialGrid(l=1.0, num_nodes=201)
        law = FeedbackLaw(alpha=0.25)
        config = SimulationConfig(params=params, law=law, grid=grid, dt=1.0)
        steady = steady_state_numeric(params, law.u_bar, grid)
        w0 = initial_profile(grid, params, law)
        before = simulate(config, steady, w0).states.tobytes()
        monkeypatch.setattr(operator, "_numpy_gttr", lambda: None)
        monkeypatch.setattr(operator, "_GTTR", operator._gttr())
        assert operator._GTTR.name == "scipy.linalg._flapack"
        assert simulate(config, steady, w0).states.tobytes() == before


class TestDissipativity:
    def test_random_vectors_satisfy_closures_exactly(self, params, grid201):
        rng = np.random.default_rng(11)
        gen = build_generator(grid201, params, 0.25)
        xi = random_bc_compatible(gen, rng).values
        h = grid201.h
        r = params.d_ax / (2.0 * h * params.v)
        inlet = (1.0 - 0.25) * xi[0] - r * (-3 * xi[0] + 4 * xi[1] - xi[2])
        outlet = 3 * xi[-1] - 4 * xi[-2] + xi[-3]
        assert abs(inlet) <= 1e-13
        assert abs(outlet) <= 1e-13

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5])
    def test_three_node_vectors_satisfy_both_closures(self, params, alpha):
        # at 3 nodes the outlet value enters the inlet closure
        g = SpatialGrid(l=1.0, num_nodes=3)
        gen = build_generator(g, params, alpha)
        rng = np.random.default_rng(5)
        for _ in range(20):
            xi = random_bc_compatible(gen, rng).values
            inlet, outlet = operator._boundary_defects(gen, xi)
            assert abs(inlet) <= 1e-14 * np.max(np.abs(xi))
            assert abs(outlet) <= 1e-14 * np.max(np.abs(xi))
            dissipativity_form(gen, Profile(g, xi))  # raises on a defect

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5])
    def test_form_negative_on_admissible_vectors(self, params, grid201, alpha):
        gen = build_generator(grid201, params, alpha)
        rng = np.random.default_rng(42)
        for _ in range(25):
            xi = random_bc_compatible(gen, rng)
            out = dissipativity_form(gen, xi)
            norm2 = inner_product(grid201, xi.values, xi.values)
            assert out.form <= 1e-8 * norm2

    def test_form_tracks_lemma_bound_to_second_order(self, params):
        diffs = []
        for m in (51, 101, 201):
            g = SpatialGrid(l=1.0, num_nodes=m)
            gen = build_generator(g, params, 0.0)
            out = dissipativity_form(gen, _quadratic_profile(g, params, 0.0))
            diffs.append(abs(out.form - out.lemma_rhs))
        assert diffs[0] / diffs[1] == pytest.approx(4.0, rel=0.15)
        assert diffs[1] / diffs[2] == pytest.approx(4.0, rel=0.15)

    def test_half_gain_drops_inlet_penalty(self, params, grid201):
        # at alpha = 1/2 the lemma bound loses its inlet term entirely
        gen = build_generator(grid201, params, 0.5)
        xi = _quadratic_profile(grid201, params, 0.5)
        out = dissipativity_form(gen, xi)
        vals = xi.values
        h = grid201.h
        deriv = np.empty_like(vals)
        deriv[1:-1] = (vals[2:] - vals[:-2]) / (2.0 * h)
        deriv[0] = (-3 * vals[0] + 4 * vals[1] - vals[2]) / (2.0 * h)
        deriv[-1] = (3 * vals[-1] - 4 * vals[-2] + vals[-3]) / (2.0 * h)
        manual = (-params.d_ax * inner_product(grid201, deriv, deriv)
                  - 0.5 * params.v * vals[-1] ** 2)
        assert out.lemma_rhs == manual

    def test_incompatible_vector_rejected(self, params, grid201):
        gen = build_generator(grid201, params, 0.0)
        with pytest.raises(ContractError):
            dissipativity_form(gen, Profile(grid201, np.ones(201)))

    def test_profile_on_another_grid_rejected(self, params, grid201):
        gen = build_generator(grid201, params, 0.0)
        g = SpatialGrid(l=1.0, num_nodes=101)
        with pytest.raises(ContractError, match="grid"):
            dissipativity_form(gen, Profile(g, np.zeros(101)))

    def test_coarse_upwind_violation_is_reported(self):
        # convection-dominated on five nodes: h far above 8*d_ax/v, the
        # central scheme loses the sign and the form goes positive
        p = make_params(d_ax=0.001, v=10.0, sat_m=1.0)
        g = SpatialGrid(l=1.0, num_nodes=5)
        gen = build_generator(g, p, 0.0)
        rng = np.random.default_rng(0)
        forms = [dissipativity_form(gen, random_bc_compatible(gen, rng)).form
                 for _ in range(50)]
        assert max(forms) > 0.0


class TestResolventAnalytic:
    def test_characteristic_roots_reference(self, params, grid201):
        eta = Profile(grid201, np.ones(201))
        sol = resolvent_analytic(eta, 1.0, params, 0.0)
        assert sol.nu1 == pytest.approx(-18.099751242241783, rel=1e-14)
        assert sol.nu2 == pytest.approx(22.09975124224178, rel=1e-14)

    def test_zero_source_gives_zero_solution(self, params, grid201):
        eta = Profile(grid201, np.zeros(201))
        sol = resolvent_analytic(eta, 1.0, params, 0.0)
        assert np.array_equal(sol.xi.values, np.zeros(201))
        assert sol.c3 == 0.0
        assert sol.c4 == 0.0

    @pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5])
    def test_boundary_system_never_degenerates(self, params, grid201, lam, alpha):
        eta = Profile(grid201, np.ones(201))
        sol = resolvent_analytic(eta, lam, params, alpha)
        assert np.isfinite(sol.det)
        assert abs(sol.det) > 1e-12

    def test_matches_discrete_resolvent(self, params):
        g = SpatialGrid(l=1.0, num_nodes=401)
        x = g.nodes
        eta = Profile(g, np.cos(2.0 * np.pi * x) + 0.5)
        sol = resolvent_analytic(eta, 1.0, params, 0.25)
        gen = build_generator(g, params, 0.25)
        xi_d = resolvent_discrete(gen, eta, 1.0).values
        num = np.sqrt(inner_product(g, xi_d - sol.xi.values, xi_d - sol.xi.values))
        den = np.sqrt(inner_product(g, sol.xi.values, sol.xi.values))
        assert num / den <= 1e-3

    def test_rejects_nonpositive_shift(self, params, grid201):
        eta = Profile(grid201, np.ones(201))
        with pytest.raises(ParameterError):
            resolvent_analytic(eta, 0.0, params, 0.0)

    @pytest.mark.parametrize("alpha", [-0.1, 0.6, np.nan])
    def test_rejects_gain_outside_range(self, params, grid201, alpha):
        eta = Profile(grid201, np.ones(201))
        with pytest.raises(ParameterError, match="alpha must lie in"):
            resolvent_analytic(eta, 1.0, params, alpha)

    @settings(max_examples=50, deadline=None)
    @given(lam=st.floats(1e-3, 1e3))
    def test_roots_bracket_zero_and_satisfy_vieta(self, lam):
        p = make_params()
        g = SpatialGrid(l=1.0, num_nodes=21)
        sol = resolvent_analytic(Profile(g, np.ones(21)), lam, p, 0.0)
        assert sol.nu1 < 0.0 < sol.nu2
        assert sol.nu1 * sol.nu2 == pytest.approx(-lam / p.d_ax, rel=1e-12)
        assert sol.nu1 + sol.nu2 == pytest.approx(p.v / p.d_ax, rel=1e-12)


class TestResolventDiscrete:
    def test_resubstitution_residual(self, params, grid201):
        gen = build_generator(grid201, params, 0.0)
        rng = np.random.default_rng(5)
        eta_vals = rng.uniform(-1.0, 1.0, 201)
        eta = Profile(grid201, eta_vals)
        xi = resolvent_discrete(gen, eta, 1.0).values
        resid = gen.diagonals.apply(xi) - 1.0 * xi - eta_vals
        norm_eta = np.sqrt(inner_product(grid201, eta_vals, eta_vals))
        assert np.sqrt(inner_product(grid201, resid, resid)) <= 1e-12 * norm_eta

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_rejects_nonpositive_shift(self, params, grid201, lam):
        gen = build_generator(grid201, params, 0.0)
        with pytest.raises(ParameterError, match="lambda_shift"):
            resolvent_discrete(gen, Profile(grid201, np.ones(201)), lam)

    def test_rejects_profile_on_another_grid(self, params, grid201):
        gen = build_generator(grid201, params, 0.0)
        g = SpatialGrid(l=1.0, num_nodes=101)
        with pytest.raises(ContractError, match="grid"):
            resolvent_discrete(gen, Profile(g, np.ones(101)), 1.0)


class TestDuhamelOracle:
    def test_zero_start_stays_zero(self, params):
        g = SpatialGrid(l=1.0, num_nodes=26)
        gen = build_generator(g, params, 0.0)
        steady = steady_state_numeric(params, 1.0, g)
        out = duhamel_oracle(gen, Profile(g, np.zeros(26)), steady, params,
                             t_final=10.0, num_steps=100)
        assert np.array_equal(out.values, np.zeros(26))

    def test_linear_case_matches_time_stepper(self):
        p = make_params(k=0.0, t_final=10.0)
        g = SpatialGrid(l=1.0, num_nodes=26)
        law = FeedbackLaw(alpha=0.25)
        gen = build_generator(g, p, law.alpha)
        steady = steady_state_numeric(p, 1.0, g)
        w0 = initial_profile(g, p, law)
        oracle = duhamel_oracle(gen, w0, steady, p, t_final=10.0, num_steps=200)
        traj = simulate(SimulationConfig(params=p, law=law, grid=g, dt=0.05),
                        steady, w0)
        diff = traj.states[-1] - oracle.values
        rel = (np.sqrt(inner_product(g, diff, diff))
               / np.sqrt(inner_product(g, oracle.values, oracle.values)))
        assert rel <= 1e-4

    def test_node_budget_enforced(self, params, grid201):
        gen = build_generator(grid201, params, 0.0)
        steady = steady_state_numeric(params, 1.0, grid201)
        w0 = initial_profile(grid201, params, FeedbackLaw(alpha=0.0))
        with pytest.raises(ContractError):
            duhamel_oracle(gen, w0, steady, params, t_final=1.0, num_steps=10)

    @pytest.mark.parametrize("moved", ["w0", "steady"])
    def test_profiles_on_another_grid_rejected(self, params, moved):
        g, other = SpatialGrid(l=1.0, num_nodes=26), SpatialGrid(l=1.0, num_nodes=21)
        gen = build_generator(g, params, 0.0)
        grids = {"w0": g, "steady": g, moved: other}
        steady = steady_state_numeric(params, 1.0, grids["steady"])
        w0 = initial_profile(grids["w0"], params, FeedbackLaw(alpha=0.0))
        with pytest.raises(ContractError, match="generator grid"):
            duhamel_oracle(gen, w0, steady, params, t_final=1.0, num_steps=10)

    def test_step_count_validated(self, params):
        g = SpatialGrid(l=1.0, num_nodes=26)
        gen = build_generator(g, params, 0.0)
        steady = steady_state_numeric(params, 1.0, g)
        w0 = initial_profile(g, params, FeedbackLaw(alpha=0.0))
        with pytest.raises(ParameterError):
            duhamel_oracle(gen, w0, steady, params, t_final=1.0, num_steps=0)


def _reference_picard(gen, w0, steady, params, t_final, num_steps):
    """duhamel_oracle's Picard iteration with each sweep's difference taken row by
    row, max(l2(new[j] - states[j])): the profile and every sweep's difference."""
    from dftr.model import reaction_rate

    dt = t_final / num_steps
    e_dt = operator._expm(gen.diagonals.dense() * dt)
    weights = gen.grid.quad_weights

    def l2(vec):
        return np.sqrt(np.sum(weights * vec * vec))

    states = np.zeros((num_steps + 1, gen.grid.num_nodes))
    states[0] = w0.values
    for j in range(num_steps):
        states[j + 1] = e_dt @ states[j]
    diffs = []
    for _ in range(operator.PICARD_MAX_ITER):
        rates = reaction_rate(states, steady.profile.values, params)
        new = np.empty_like(states)
        new[0] = w0.values
        for j in range(num_steps):
            new[j + 1] = e_dt @ (new[j] + 0.5 * dt * rates[j]) + 0.5 * dt * rates[j + 1]
        diffs.append(max(l2(new[j] - states[j]) for j in range(num_steps + 1)))
        states = new
        if diffs[-1] <= operator.PICARD_TOL:
            return states[-1], diffs
    raise AssertionError("the reference did not contract")


class TestPicardDifference:
    @pytest.mark.parametrize("n,k,alpha", [(2.0, 0.001, 0.25), (10.0, 0.01, 0.0)])
    def test_sweeps_and_profile_match_the_row_by_row_difference(self, monkeypatch,
                                                                n, k, alpha):
        # verify's setting: 51 nodes, 500 steps to 50 s. The oracle stops after
        # the same sweep with the same profile, and one sweep short it reports
        # the same difference
        p = make_params(n=n, k=k, t_final=50.0, alpha_for_sat=alpha)
        g = SpatialGrid(l=1.0, num_nodes=51)
        gen = build_generator(g, p, alpha)
        steady = steady_state_numeric(p, 1.0, g)
        w0 = _quadratic_profile(g, p, alpha)
        profile, diffs = _reference_picard(gen, w0, steady, p, 50.0, 500)
        assert len(diffs) >= 3
        assert np.array_equal(duhamel_oracle(gen, w0, steady, p, 50.0, 500).values, profile)
        monkeypatch.setattr(operator, "PICARD_MAX_ITER", len(diffs) - 1)
        with pytest.raises(SolverError) as exc:
            duhamel_oracle(gen, w0, steady, p, 50.0, 500)
        assert exc.value.residual == diffs[-2]


class TestExpm:
    @pytest.mark.parametrize("dt", [0.01, 0.1, 10.0])
    @pytest.mark.parametrize("peclet", [0.5, 4.0, 100.0])
    @pytest.mark.parametrize("m", [11, 51, 101])
    def test_matches_scipy_on_the_generator(self, m, peclet, dt):
        # the grid takes both the unscaled branch (1-norm within theta_13)
        # and up to 11 squarings (101 nodes, Pe 0.5, dt 10)
        from scipy.linalg import expm
        p = make_params(d_ax=0.01 / peclet)
        a = build_generator(SpatialGrid(l=1.0, num_nodes=m), p, 0.25).diagonals.dense() * dt
        ref = expm(a)
        assert np.max(np.abs(operator._expm(a) - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("m", [1, 5, 101])
    def test_zero_matrix_gives_the_identity_exactly(self, m):
        assert np.array_equal(operator._expm(np.zeros((m, m))), np.eye(m))

    @pytest.mark.parametrize("x", [-3.0, -1.0, -0.25, 1e-3, 0.5, 1.0, 3.0])
    def test_scalar_is_exp_to_a_few_ulp(self, x):
        # within |x| <= 3; for x < 0 the numerator V + U cancels like e^{-|x|},
        # so the Pade quotient loses more ulp at larger |x|
        got = operator._expm(np.array([[x]]))[0, 0]
        assert abs(got - math.exp(x)) <= 4 * math.ulp(math.exp(x))

    def test_duhamel_oracle_needs_no_scipy(self):
        assert "scipy" not in inspect.getsource(duhamel_oracle)
