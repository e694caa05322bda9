import ctypes
import gc
import inspect
import math
import subprocess
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
    duhamel_oracle,
    initial_profile,
    inner_product,
    FeedbackLaw,
    resolvent_analytic,
    resolvent_discrete,
    simulate,
    steady_state_numeric,
)
from dftr import operator, verify
from conftest import child_env, make_params


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
            x = np.empty(31)
            solve = mat.factor(into=x)
            for _ in range(3):
                rhs = rng.standard_normal(31)
                ref = np.linalg.solve(dense, rhs)
                x[:] = rhs
                solve()
                bound = 10.0 * np.linalg.cond(dense) * np.finfo(float).eps
                assert np.linalg.norm(x - ref) <= bound * np.linalg.norm(ref)
                assert np.array_equal(x, mat.solve(rhs))  # factor-once == one-shot

    def test_in_place_solve_overwrites_its_rhs_with_the_solution(self, params):
        # the bound solve takes no argument and overwrites the buffer it was bound to
        rng = np.random.default_rng(6)
        for mat in _tridiagonal_cases(params):
            buffer = np.zeros(40)
            rhs = buffer[:31]  # a contiguous view, as a leading part's buffer
            solve_in_place = mat.factor(into=rhs)
            rhs[:] = rng.standard_normal(31)
            expected = mat.solve(rhs)
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
            Tridiagonal(np.zeros(4), np.ones(5), np.zeros(5)).factor(into=np.zeros(5))

    def test_bound_solve_outlives_the_matrix_and_its_factors(self, params):
        # the bound solve alone holds the factors and its integer arguments alive
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
        # on numpy's LAPACK, where this numpy exports it, and on scipy's cython_lapack
        mat = Tridiagonal(np.zeros(5), np.array([1.0, 1.0, 0.0, 1.0, 1.0]),
                          np.zeros(5))
        for lapack in (NUMPY_LAPACK, operator._scipy_lapack()):
            if lapack is None:
                continue
            monkeypatch.setattr(operator, "_LAPACK", lapack)
            with pytest.raises(SolverError, match="zero pivot at row 3"):
                mat.factor(into=np.ones(5))
            with pytest.raises(SolverError):
                mat.solve(np.ones(5))


NUMPY_LAPACK = operator._numpy_lapack()
needs_numpy_lapack = pytest.mark.skipif(
    NUMPY_LAPACK is None,
    reason="this numpy exports no ILP64 routine table, so runs take scipy's cython_lapack")


@pytest.fixture(params=["numpy", "scipy"])
def lapack_path(request, monkeypatch):
    """Every solve of the test through numpy's LAPACK, then through scipy's cython_lapack."""
    if request.param == "numpy" and NUMPY_LAPACK is None:
        pytest.skip(needs_numpy_lapack.kwargs["reason"])
    lapack = NUMPY_LAPACK if request.param == "numpy" else operator._scipy_lapack()
    monkeypatch.setattr(operator, "_LAPACK", lapack)
    return lapack


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
        # the fallback's module is found on the installed scipy, under its real name,
        # and its capsules take LP64 integers and no hidden length
        lapack = operator._scipy_lapack()
        assert lapack.name == "scipy.linalg.cython_lapack"
        assert "scipy.linalg.cython_lapack" in sys.modules
        assert (lapack.int, lapack.hidden) == (np.intc, ())

    def test_fallback_imports_no_scipy_linalg(self):
        # in a fresh process the fallback runs scipy.linalg.cython_lapack's file alone
        script = ("import sys\nimport numpy as np\nfrom dftr import operator, Tridiagonal\n"
                  "operator._LAPACK = operator._scipy_lapack()\n"
                  "mat = Tridiagonal(np.ones(3), np.full(3, 2.0), np.ones(3))\n"
                  "print(mat.solve(np.ones(3)).tolist(), [m in sys.modules for m in "
                  "('scipy.linalg.cython_lapack', 'scipy.linalg')])\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[0.5, 0.0, 0.5] [True, False]\n"

    @pytest.mark.parametrize("width", ["long *", "int64_t *", "short *"])
    def test_signature_check_rejects_integers_of_another_width(self, width):
        # LAPACK would read 8 bytes at each 4-byte int, or the reverse
        new_capsule = ctypes.PYFUNCTYPE(ctypes.py_object, ctypes.c_void_p, ctypes.c_char_p,
                                        ctypes.c_void_p)(("PyCapsule_New", ctypes.pythonapi))
        operator._scipy_lapack()
        real = sys.modules["scipy.linalg.cython_lapack"].__pyx_capi__["dgttrf"]
        operator._capsule_function(real, "iddddii")
        signature = operator._capsule_name(real)
        names = [signature.replace(b"int *", width.encode()),
                 signature.replace(b"int *", width.encode(), 1)]  # the capsules keep no copy
        for name in names:
            with pytest.raises(ImportError, match="takes no int"):
                operator._capsule_function(new_capsule(1, name, None), "iddddii")

    @needs_numpy_lapack
    def test_numpy_path_is_taken_where_numpy_exports_the_pair(self):
        assert operator._LAPACK.name == NUMPY_LAPACK.name

    def test_fallback_gives_the_same_bytes(self, params, monkeypatch):
        mat = build_generator(SpatialGrid(l=1.0, num_nodes=2001), params,
                              0.25).diagonals.shifted(1.0, -0.5)
        rhs = np.random.default_rng(8).standard_normal(2001)
        results = []
        for lapack in (operator._LAPACK, operator._scipy_lapack()):
            monkeypatch.setattr(operator, "_LAPACK", lapack)
            in_place = rhs.copy()
            mat.factor(into=in_place)()
            results.append((mat.solve(rhs).tobytes(), in_place.tobytes()))
        assert results[0] == results[1]
        assert results[0][0] == results[0][1]

    @needs_numpy_lapack
    def test_factors_and_solutions_match_bit_for_bit(self, monkeypatch):
        # numpy's OpenBLAS and scipy's give the same LU factors, pivots and solutions
        scipy_lapack = operator._scipy_lapack()
        rng = np.random.default_rng(14)
        for mat in _dominant_cases():
            rhs = rng.standard_normal(mat.diag.size)
            outcomes = []
            for lapack in (NUMPY_LAPACK, scipy_lapack):
                monkeypatch.setattr(operator, "_LAPACK", lapack)
                x = rhs.copy()
                solve = mat.factor(into=x)
                solve()
                outcomes.append((solve.arrays[1], x))
            (lu_n, x_n), (lu_s, x_s) = outcomes
            assert len(lu_n) == len(lu_s) == 5
            for a, b in zip(lu_n, lu_s):  # dl, d, du, du2, then the pivots' values
                assert np.array_equal(a, b)
            assert x_n.tobytes() == x_s.tobytes()

    def test_bound_solve_equals_solve(self, lapack_path):
        rng = np.random.default_rng(15)
        for mat in _dominant_cases():
            rhs = rng.standard_normal(mat.diag.size)
            x = rhs.copy()
            mat.factor(into=x)()
            assert x.tobytes() == mat.solve(rhs).tobytes()

    @needs_numpy_lapack
    def test_forced_fallback_simulates_the_same_bytes(self, params, monkeypatch):
        # scipy's cython_lapack in place of numpy's LAPACK keeps every bit
        grid = SpatialGrid(l=1.0, num_nodes=201)
        law = FeedbackLaw(alpha=0.25)
        config = SimulationConfig(params=params, law=law, grid=grid, dt=1.0)
        steady = steady_state_numeric(params, law.u_bar, grid)
        w0 = initial_profile(grid, params, law)
        before = simulate(config, steady, w0).states.tobytes()
        monkeypatch.setattr(operator, "_LAPACK", operator._scipy_lapack())
        assert simulate(config, steady, w0).states.tobytes() == before


def _generator(peclet, num_nodes, alpha=0.25):
    """A_h at Peclet number peclet on num_nodes nodes (v = 0.01, l = 1)."""
    params = make_params(d_ax=0.01 / peclet)
    return build_generator(SpatialGrid(l=1.0, num_nodes=num_nodes), params, alpha)


class TestSymmetricSolve:
    """A_h's diagonal symmetrizer and the LDL^T solve (dpttrf/dpttrs) of symmetric
    positive definite tridiagonals, which simulate_stack steps with."""

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5])
    def test_symmetrizer_makes_the_generator_symmetric(self, alpha):
        a_h = _generator(4.0, 201, alpha).diagonals
        d = a_h.symmetrizer()
        sym = a_h.symmetrized().dense()
        assert np.array_equal(sym, sym.T)
        similar = a_h.dense() * d[None, :] / d[:, None]  # D^-1 A_h D
        assert np.max(np.abs(similar - sym)) <= 1e-13 * np.max(np.abs(a_h.diag))
        assert abs(math.log(d.max() * d.min())) <= 1e-12  # centred in log space

    def test_symmetrizer_is_the_inverse_square_root_of_the_weight(self):
        # D^-2 is the trapezoidal weight times e^{-vx/d_ax}, to O(h^2) between the ends:
        # A_h is self-adjoint in the e^{-vx/d_ax}-weighted product, the gamma -> v/d_ax
        # end of the Lyapunov family. The two ghost-eliminated end rows weigh their
        # nodes (1 -+ h v / (2 d_ax)) / 2, the trapezoid's half weight to O(h)
        errors = []
        for num_nodes in (201, 401):
            gen = _generator(4.0, num_nodes)
            grid, p = gen.grid, gen.params
            weight = grid.quad_weights * np.exp(-p.v * grid.nodes / p.d_ax)
            ratio = gen.diagonals.symmetrizer() ** -2 / weight
            errors.append(np.max(np.abs(ratio[1:-1] / ratio[1] - 1.0)))
            cell_peclet = grid.h * p.v / p.d_ax
            assert abs(ratio[0] / ratio[1] - 1.0) <= cell_peclet
            assert abs(ratio[-1] / ratio[-2] - 1.0) <= cell_peclet
        assert errors[0] <= 2e-4
        assert 3.5 <= errors[0] / errors[1] <= 4.5

    def test_no_symmetrizer_at_a_cell_peclet_number_of_2_or_past_the_bound(self):
        # Pe 1000 on 201 nodes: cell Peclet number 5, upper < 0 < lower. On 2001 nodes
        # every coupling product is positive, but D would span about e^500. Pe 40 on
        # 201 nodes spans 2^+-14.4
        coarse, fine = (_generator(1000.0, m).diagonals for m in (201, 2001))
        assert np.any(coarse.upper[:-1] < 0.0) and coarse.symmetrizer() is None
        assert np.all(fine.lower[1:] * fine.upper[:-1] > 0.0) and fine.symmetrizer() is None
        assert _generator(40.0, 201).diagonals.symmetrizer() is not None
        for log2_span, inside in ((63.9, True), (64.1, False)):
            mat = Tridiagonal(np.array([0.0, 2.0 ** log2_span]), np.ones(2),
                              np.array([2.0 ** -log2_span, 0.0]))
            d = mat.symmetrizer()
            assert (d is not None) == inside
            if inside:
                assert math.log2(d[1] / d[0]) == pytest.approx(log2_span, rel=1e-12)

    def test_symmetric_factor_matches_dense_solve(self, lapack_path):
        # the Crank-Nicolson matrix of A_h, symmetrized, at the 2001 nodes of verify-fine
        cn = _generator(4.0, 2001).diagonals.shifted(1.0, -0.5)
        d, sym = cn.symmetrizer(), cn.symmetrized()
        rhs = np.random.default_rng(9).standard_normal(2001)
        x = rhs / d
        sym.factor(into=x, symmetric=True)()
        x *= d
        ref = np.linalg.solve(cn.dense(), rhs)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    @needs_numpy_lapack
    def test_both_lapacks_give_the_same_bytes(self, monkeypatch):
        sym = _generator(4.0, 2001).diagonals.shifted(1.0, -0.5).symmetrized()
        rhs = np.random.default_rng(10).standard_normal(2001)
        results = []
        for lapack in (NUMPY_LAPACK, operator._scipy_lapack()):
            monkeypatch.setattr(operator, "_LAPACK", lapack)
            x = rhs.copy()
            sym.factor(into=x, symmetric=True)()
            results.append(x.tobytes())
        assert results[0] == results[1]

    def test_symmetric_block_diagonal_solves_each_block_alone(self):
        # dpttrf and dpttrs carry nothing across a zero coupling
        blocks = [_generator(pe, 51, alpha).diagonals.shifted(1.0, -0.5).symmetrized()
                  for pe, alpha in ((4.0, 0.0), (20.0, 0.5), (0.5, 0.25))]
        rhs = np.random.default_rng(11).standard_normal(51 * len(blocks))
        x = rhs.copy()
        Tridiagonal.block_diagonal(blocks).factor(into=x, symmetric=True)()
        for b, block in enumerate(blocks):
            alone = rhs[51 * b:51 * (b + 1)].copy()
            block.factor(into=alone, symmetric=True)()
            assert x[51 * b:51 * (b + 1)].tobytes() == alone.tobytes()

    def test_symmetric_factor_rejects_what_it_cannot_factor(self, lapack_path):
        # a matrix that is not symmetric is a contract error; one that is not positive
        # definite (A_h itself) fails dpttrf's pivot check
        cn = _generator(4.0, 31).diagonals.shifted(1.0, -0.5)
        with pytest.raises(ContractError, match="lower"):
            cn.factor(into=np.zeros(31), symmetric=True)
        with pytest.raises(SolverError, match="not positive definite"):
            _generator(4.0, 31).diagonals.symmetrized().factor(into=np.zeros(31),
                                                                  symmetric=True)


def _abscissa_matrix(gen):
    """T = Q^-1/2 sym(Q A_h) Q^-1/2 with Q the trapezoidal weights, as verify builds it."""
    return verify._symmetric_part(gen.diagonals, gen.grid.quad_weights)


def _form_and_lemma_rhs(gen, xi):
    """<A_h xi, xi>_h, and the lemma's -v (1/2 - alpha) xi(0)^2 - d_ax int (xi')^2
    - (v/2) xi(l)^2 with second-order difference quotients for xi'."""
    grid, p, vals = gen.grid, gen.params, xi.values
    deriv = np.gradient(vals, grid.h, edge_order=2)
    rhs = (-p.v * (0.5 - gen.alpha) * vals[0] ** 2 - p.d_ax * inner_product(grid, deriv, deriv)
           - 0.5 * p.v * vals[-1] ** 2)
    return inner_product(grid, gen.diagonals.apply(vals), vals), rhs


# the reference point on 3, 201 and 2001 nodes, and v = 10, d_ax = 0.001 on 5 nodes,
# a cell Peclet number of 50
ABSCISSA_CASES = {"3": (3, {}), "5-pe50": (5, {"d_ax": 0.001, "v": 10.0, "sat_m": 1.0}),
                  "201": (201, {}), "2001": (2001, {})}


class TestDissipativity:
    """A_h's numerical abscissa omega_0, the top eigenvalue of its symmetric part in the
    trapezoidal product: the max of <A_h xi, xi>_h / ||xi||_h^2 over every xi."""

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5])
    def test_form_negative_on_admissible_vectors(self, params, grid201, alpha):
        # every xi is admissible, the boundary conditions being in A_h's rows; random
        # vectors and the smooth startup profile never read above omega_0, itself <= 0
        gen = build_generator(grid201, params, alpha)
        t = _abscissa_matrix(gen)
        omega = t.top_eigenvalue()
        assert omega <= 1e-8
        rng = np.random.default_rng(42)
        vectors = [*rng.uniform(-1.0, 1.0, (25, 201)),
                   *np.cos(np.outer(rng.uniform(0.0, 3.0, 25), grid201.nodes)),
                   _quadratic_profile(grid201, params, alpha).values]
        slack = 8 * np.finfo(float).eps * np.max(np.abs(t.dense()))
        for xi in vectors:
            form, _ = _form_and_lemma_rhs(gen, Profile(grid201, xi))
            assert form / inner_product(grid201, xi, xi) <= omega + slack

    def test_form_tracks_lemma_bound_to_second_order(self, params):
        diffs = []
        for m in (51, 101, 201):
            g = SpatialGrid(l=1.0, num_nodes=m)
            gen = build_generator(g, params, 0.0)
            form, rhs = _form_and_lemma_rhs(gen, _quadratic_profile(g, params, 0.0))
            diffs.append(abs(form - rhs))
        assert diffs[0] / diffs[1] == pytest.approx(4.0, rel=0.15)
        assert diffs[1] / diffs[2] == pytest.approx(4.0, rel=0.15)

    def test_half_gain_drops_inlet_penalty(self, params):
        # at alpha = 1/2 the form tracks the lemma bound without its inlet term, at
        # second order, though the profile's inlet value is not zero
        diffs = []
        for m in (51, 101, 201):
            g = SpatialGrid(l=1.0, num_nodes=m)
            gen = build_generator(g, params, 0.5)
            xi = _quadratic_profile(g, params, 0.5)
            assert xi.values[0] > 0.1
            form, rhs = _form_and_lemma_rhs(gen, xi)
            diffs.append(abs(form - rhs))
        assert diffs[0] / diffs[1] == pytest.approx(4.0, rel=0.15)
        assert diffs[1] / diffs[2] == pytest.approx(4.0, rel=0.15)

    def test_coarse_upwind_violation_is_reported(self):
        # convection-dominated on five nodes: h far above 8*d_ax/v, the
        # central scheme loses the sign and the abscissa goes positive
        p = make_params(d_ax=0.001, v=10.0, sat_m=1.0)
        gen = build_generator(SpatialGrid(l=1.0, num_nodes=5), p, 0.0)
        assert _abscissa_matrix(gen).top_eigenvalue() > 0.0


class TestTopEigenvalue:
    """Tridiagonal.top_eigenvalue, LAPACK's dstebz, on the abscissa matrix T."""

    @pytest.mark.parametrize("case", ABSCISSA_CASES)
    def test_matches_dense_eigvalsh(self, case):
        # T against Q^-1/2 (Q A_h + A_h^T Q) / 2 Q^-1/2, built densely
        m, kwargs = ABSCISSA_CASES[case]
        g = SpatialGrid(l=1.0, num_nodes=m)
        for alpha in (0.5,) if m > 201 else (0.0, 0.25, 0.5):
            gen = build_generator(g, make_params(**kwargs), alpha)
            a, root = gen.diagonals.dense(), np.sqrt(g.quad_weights)
            qa = g.quad_weights[:, None] * a
            dense = 0.5 * (qa + qa.T) / np.outer(root, root)
            t = _abscissa_matrix(gen)
            scale = np.max(np.abs(dense))
            assert np.max(np.abs(t.dense() - dense)) <= 4 * np.finfo(float).eps * scale
            eigenvalues = np.linalg.eigvalsh(dense)
            norm = np.max(np.abs(eigenvalues))
            assert abs(t.top_eigenvalue() - eigenvalues[-1]) <= 1e-12 * norm

    @needs_numpy_lapack
    @pytest.mark.parametrize("case", ABSCISSA_CASES)
    def test_both_lapacks_agree(self, case, monkeypatch):
        m, kwargs = ABSCISSA_CASES[case]
        t = _abscissa_matrix(build_generator(SpatialGrid(l=1.0, num_nodes=m),
                                             make_params(**kwargs), 0.5))
        tops = []
        for lapack in (NUMPY_LAPACK, operator._scipy_lapack()):
            monkeypatch.setattr(operator, "_LAPACK", lapack)
            tops.append(t.top_eigenvalue())
        norm = np.max(np.abs(t.diag)) + 2.0 * np.max(np.abs(t.upper))  # >= ||T||_2
        assert abs(tops[0] - tops[1]) <= 4 * np.finfo(float).eps * norm

    def test_nonsymmetric_input_is_a_contract_error(self, lapack_path):
        # A_h itself, and diagonals of unequal length, which LAPACK would read past
        with pytest.raises(ContractError, match="lower"):
            _generator(4.0, 31).diagonals.top_eigenvalue()
        with pytest.raises(ContractError, match="one length"):
            Tridiagonal(np.zeros(5), np.ones(6), np.zeros(5)).top_eigenvalue()

    def test_failure_is_a_solver_error(self, lapack_path):
        # dstebz returns INFO 4 on a NaN: no Gershgorin interval to bisect
        with pytest.raises(SolverError, match="INFO"):
            Tridiagonal(np.zeros(3), np.array([1.0, np.nan, 2.0]), np.zeros(3)).top_eigenvalue()


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
