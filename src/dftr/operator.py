"""Finite-difference generator, resolvent oracles, and dissipativity checks.

The closed-loop linear part of the deviation equation is

    (A xi)(x) = d_ax * xi'' - v * xi',
    (1 - alpha) * xi(0) = (d_ax / v) * xi'(0),      xi'(l) = 0,

with the boundary feedback folded into the inlet Robin condition. A_h is
its second-order finite-difference approximation with ghost nodes
eliminated through the boundary conditions, so boundary rows keep the
global O(h^2) order and the matrix stays tridiagonal.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import math
import os
import sys
from ctypes import c_char_p, c_size_t, c_void_p
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import ContractError, ParameterError, SolverError
from .model import FeedbackLaw, Profile, ReactorParams, SpatialGrid, reaction_rate


def _lapack():
    """scipy's compiled LAPACK module, loaded from its file without the 0.3 s of
    scipy.linalg imports; scipy.linalg.lapack if that fails, as on a scipy rename."""
    name = "scipy.linalg._flapack"
    try:
        scipy_dir, = importlib.util.find_spec("scipy").submodule_search_locations
        spec = importlib.machinery.PathFinder.find_spec(name, [os.path.join(scipy_dir, "linalg")])
        return sys.modules.setdefault(name, importlib.util.module_from_spec(spec))
    except Exception:
        from scipy.linalg import lapack
        return lapack


class _Gttr(NamedTuple):
    """One LAPACK's tridiagonal pair: factor(dl, d, du) gives (factors, info) from dgttrf
    on copies of its diagonals, and bind(factors, b) a no-argument dgttrs that overwrites
    b, a contiguous float64 array, with the solution. name is the symbol or module."""

    name: str
    factor: Callable
    bind: Callable


def _ptr(a: np.ndarray) -> c_void_p:
    return a.ctypes.data_as(c_void_p)  # holds a reference to a


def _numpy_gttr() -> _Gttr | None:
    """dgttrf/dgttrs of the ILP64 OpenBLAS that numpy.linalg links, or None on a build
    that exports neither pair. numpy >= 2 wheels name them scipy_dgttr?_64_ and numpy
    1.2x wheels dgttr?_64_; the _64_ fixes every integer argument at 64 bits."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for prefix in ("scipy_", ""):
        try:
            trf, trs = getattr(lib, prefix + "dgttrf_64_"), getattr(lib, prefix + "dgttrs_64_")
        except AttributeError:
            continue
        trf.argtypes, trf.restype = [c_void_p] * 7, None
        # the trailing size_t is the hidden length of the Fortran character TRANS
        trs.argtypes, trs.restype = [c_void_p] * 11 + [c_size_t], None
        break
    else:
        return None

    def factor(dl, d, du):
        n = d.size
        lu = (*(np.array(a, dtype=np.float64) for a in (dl, d, du)),
              np.empty(max(n - 2, 0)), np.empty(n, dtype=np.int64))
        ints = np.array([n, 0], dtype=np.int64)  # N, INFO
        trf(_ptr(ints), *map(_ptr, lu), _ptr(ints[1:]))
        return lu, int(ints[1])

    def bind(lu, b):
        ints = np.array([b.size, 1, 0], dtype=np.int64)  # N = LDB, NRHS, INFO
        return partial(trs, c_char_p(b"N"), _ptr(ints), _ptr(ints[1:]), *map(_ptr, lu),
                       _ptr(b), _ptr(ints), _ptr(ints[2:]), c_size_t(1))

    return _Gttr(prefix + "dgttrs_64_", factor, bind)


def _flapack_gttr() -> _Gttr:
    """dgttrf/dgttrs of scipy's _flapack, through its f2py wrappers."""
    lapack = _lapack()

    def factor(dl, d, du):
        *lu, info = lapack.dgttrf(dl, d, du)
        return lu, info

    def bind(lu, b):
        return partial(lapack.dgttrs, *lu, b, overwrite_b=True)

    return _Gttr(lapack.__name__, factor, bind)


def _gttr() -> _Gttr:
    """numpy's own LAPACK where its build exports the pair, else scipy's: no second
    OpenBLAS is loaded unless numpy's cannot serve."""
    return _numpy_gttr() or _flapack_gttr()


_GTTR = _gttr()

BC_REL_TOL = 1e-2  # dissipativity_form rejects grossly incompatible vectors


class Tridiagonal(NamedTuple):
    """Tridiagonal matrix as full-length (lower, diag, upper) diagonals.

    lower[0] and upper[-1] are unused. This is the one linear-algebra core
    of the package: the generator, the steady Newton system and the
    Crank-Nicolson matrices are all Tridiagonal.
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        out = self.diag * x
        out[:-1] += self.upper[:-1] * x[1:]
        out[1:] += self.lower[1:] * x[:-1]
        return out

    def dense(self) -> np.ndarray:
        a = np.diag(self.diag)
        a += np.diag(self.upper[:-1], 1)
        a += np.diag(self.lower[1:], -1)
        return a

    def shifted(self, shift, scale: float = 1.0) -> Tridiagonal:
        """shift*I + scale*self; shift is a scalar or a nodal array."""
        return Tridiagonal(scale * self.lower, shift + scale * self.diag,
                           scale * self.upper)

    @classmethod
    def block_diagonal(cls, blocks) -> Tridiagonal:
        """The blocks one after another on the diagonal, with zero couplings."""
        lower, diag, upper = (np.concatenate(d) for d in zip(*blocks))
        ends = np.cumsum([b.diag.size for b in blocks])
        lower[ends[:-1]] = 0.0
        upper[ends - 1] = 0.0
        return cls(lower, diag, upper)

    def factor(self, into: np.ndarray | None = None):
        """LU-factor once (dgttrf); returns solve(rhs), one dgttrs on a copy of rhs.

        Given into, a contiguous writable float64 array of the matrix's size,
        it returns a no-argument solve instead: dgttrs bound once to the
        factors and to into, which it overwrites with the solution, making no
        Python call of its own."""
        if not self.lower.shape == self.diag.shape == self.upper.shape == (self.diag.size,):
            raise ContractError("a tridiagonal needs three 1-D diagonals of one length")
        gttr = _GTTR
        lu, info = gttr.factor(self.lower[1:], self.diag, self.upper[:-1])
        if info != 0:
            raise SolverError(f"singular tridiagonal matrix (zero pivot at row {info})")

        def bound(b):
            if not (b.dtype == np.float64 and b.shape == self.diag.shape
                    and b.flags.c_contiguous and b.flags.writeable):
                raise ContractError(f"a bound solve needs a contiguous writable float64 "
                                    f"array of shape {self.diag.shape}")
            return gttr.bind(lu, b)
        if into is not None:
            return bound(into)

        def solve(rhs: np.ndarray) -> np.ndarray:
            x = np.array(rhs, dtype=np.float64)
            bound(x)()
            return x
        return solve

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self.factor()(rhs)


@dataclass(frozen=True)
class DiscreteGenerator:
    """Tridiagonal approximation of the closed-loop generator."""

    grid: SpatialGrid
    params: ReactorParams
    alpha: float

    @cached_property
    def diagonals(self) -> Tridiagonal:
        """A_h with read-only diagonals; lower[0] and upper[-1] unused."""
        m = self.grid.num_nodes
        h = self.grid.h
        d, v = self.params.d_ax, self.params.v
        a = self.alpha

        lower = np.zeros(m)
        diag = np.zeros(m)
        upper = np.zeros(m)

        lower[1:-1] = d / h ** 2 + v / (2.0 * h)
        diag[1:-1] = -2.0 * d / h ** 2
        upper[1:-1] = d / h ** 2 - v / (2.0 * h)

        # inlet row: ghost value from the Robin closure
        # xi_{-1} = xi_1 - (2 h v / d) * (1 - alpha) * xi_0
        diag[0] = -2.0 * d / h ** 2 - 2.0 * v * (1.0 - a) / h - v * v * (1.0 - a) / d
        upper[0] = 2.0 * d / h ** 2

        # outlet row: ghost value from xi'(l) = 0, xi_{m} = xi_{m-2}
        lower[-1] = 2.0 * d / h ** 2
        diag[-1] = -2.0 * d / h ** 2

        for arr in (lower, diag, upper):
            arr.flags.writeable = False
        return Tridiagonal(lower, diag, upper)


def build_generator(grid: SpatialGrid, params: ReactorParams,
                    alpha: float) -> DiscreteGenerator:
    if not (np.isfinite(alpha) and 0.0 <= alpha <= 0.5):
        raise ParameterError(f"alpha must lie in [0, 1/2], got {alpha}")
    return DiscreteGenerator(grid=grid, params=params, alpha=alpha)


def inner_product(grid: SpatialGrid, a: np.ndarray, b: np.ndarray) -> float:
    """Trapezoidal discrete inner product on [0, l]."""
    return float(np.sum(grid.quad_weights * a * b))


def _boundary_defects(gen: DiscreteGenerator, xi: np.ndarray):
    """One-sided second-order boundary-condition defects of a grid vector."""
    h = gen.grid.h
    d, v = gen.params.d_ax, gen.params.v
    dxi0 = (-3.0 * xi[0] + 4.0 * xi[1] - xi[2]) / (2.0 * h)
    dxil = (3.0 * xi[-1] - 4.0 * xi[-2] + xi[-3]) / (2.0 * h)
    inlet = (1.0 - gen.alpha) * xi[0] - (d / v) * dxi0
    outlet = dxil * gen.grid.l  # scaled to the same units as xi
    return inlet, outlet


@dataclass(frozen=True)
class DissipativityForm:
    """Discrete quadratic form and the corresponding analytic bound.

    form: <A_h xi, xi>_h by trapezoidal quadrature.
    lemma_rhs: -v*(1/2 - alpha)*xi(0)^2 - d_ax*int (xi')^2 - (v/2)*xi(l)^2
    with difference-quotient derivatives; agrees with form to O(h^2) on
    smooth boundary-compatible vectors.
    """

    form: float
    lemma_rhs: float


def dissipativity_form(gen: DiscreteGenerator, xi: Profile) -> DissipativityForm:
    if xi.grid != gen.grid:
        raise ContractError("profile grid does not match generator grid")
    vals = xi.values
    scale = float(np.max(np.abs(vals)))
    if scale > 0.0:
        inlet, outlet = _boundary_defects(gen, vals)
        if max(abs(inlet), abs(outlet)) > BC_REL_TOL * scale:
            raise ContractError(
                f"vector violates the discrete boundary conditions "
                f"(inlet defect {inlet:.3e}, outlet defect {outlet:.3e}, "
                f"scale {scale:.3e})")

    form = inner_product(gen.grid, gen.diagonals.apply(vals), vals)

    h = gen.grid.h
    deriv = np.empty_like(vals)
    deriv[1:-1] = (vals[2:] - vals[:-2]) / (2.0 * h)
    deriv[0] = (-3.0 * vals[0] + 4.0 * vals[1] - vals[2]) / (2.0 * h)
    deriv[-1] = (3.0 * vals[-1] - 4.0 * vals[-2] + vals[-3]) / (2.0 * h)
    d, v = gen.params.d_ax, gen.params.v
    rhs = (-v * (0.5 - gen.alpha) * vals[0] ** 2
           - d * inner_product(gen.grid, deriv, deriv)
           - 0.5 * v * vals[-1] ** 2)
    return DissipativityForm(form=form, lemma_rhs=rhs)


def random_bc_compatible(gen: DiscreteGenerator, rng: np.random.Generator) -> Profile:
    """Random vector lying exactly in the discrete boundary-condition set.

    Interior nodes are i.i.d. uniform on [-1, 1]; the endpoint values solve
    the two one-sided closure equations, so membership is exact rather than
    approximate.
    """
    m = gen.grid.num_nodes
    h = gen.grid.h
    d, v = gen.params.d_ax, gen.params.v
    xi = np.empty(m)
    xi[1:-1] = rng.uniform(-1.0, 1.0, m - 2)
    # (1-alpha)*xi0 = (d/v) * (-3 xi0 + 4 xi1 - xi2)/(2h)
    r = d / (2.0 * h * v)
    if m == 3:  # xi2 is the outlet value below: both closures together give xi0
        xi[0] = 8.0 * r / 3.0 * xi[1] / ((1.0 - gen.alpha) + 8.0 * r / 3.0)
    else:
        xi[0] = r * (4.0 * xi[1] - xi[2]) / ((1.0 - gen.alpha) + 3.0 * r)
    # (3 xi_{m-1} - 4 xi_{m-2} + xi_{m-3})/(2h) = 0
    xi[-1] = (4.0 * xi[-2] - xi[-3]) / 3.0
    return Profile(gen.grid, xi)


@dataclass(frozen=True)
class ResolventSolution:
    """Closed-form solution of d_ax*xi'' - v*xi' - lambda*xi = eta.

    nu1 < 0 < nu2 are the characteristic roots; c3 and c4 are the
    coefficients of e^{nu1 x} and e^{nu2 x} in the forward
    variation-of-constants representation; det is the determinant of the
    scaled boundary-condition system (a surjectivity witness).
    """

    nu1: float
    nu2: float
    c3: float
    c4: float
    xi: Profile
    lambda_shift: float
    det: float


def _m0(z: float) -> float:
    # int_0^1 e^{z u} du
    if z == 0.0:
        return 1.0
    return np.expm1(z) / z


def _m1(z: float) -> float:
    # int_0^1 u e^{z u} du
    if abs(z) < 0.05:
        return 0.5 + z * (1.0 / 3.0 + z * (1.0 / 8.0 + z * (1.0 / 30.0 + z / 144.0)))
    return (z * np.exp(z) - np.expm1(z)) / (z * z)


def _g2(y: float) -> float:
    # int_0^1 u e^{y (1 - u)} du
    if abs(y) < 0.05:
        return 0.5 + y * (1.0 / 6.0 + y * (1.0 / 24.0 + y * (1.0 / 120.0 + y / 720.0)))
    return (np.expm1(y) - y) / (y * y)


def _convolutions(eta: np.ndarray, h: float, nu1: float, nu2: float):
    """Backward and forward exponential convolutions of a nodal profile.

    t2[i] = int_{x_i}^{l} eta(s) e^{nu2 (x_i - s)} ds,
    p1[i] = int_{0}^{x_i} eta(s) e^{nu1 (x_i - s)} ds,
    with eta piecewise linear and the kernel integrated exactly per panel.
    Both kernels have non-positive exponents, so every factor is bounded.
    """
    m = eta.size
    t2 = np.zeros(m)
    p1 = np.zeros(m)

    z = -nu2 * h
    ez, m0z, m1z = np.exp(z), _m0(z), _m1(z)
    for i in range(m - 2, -1, -1):
        panel = h * (eta[i] * m0z + (eta[i + 1] - eta[i]) * m1z)
        t2[i] = ez * t2[i + 1] + panel

    y = nu1 * h
    ey, g1y, g2y = np.exp(y), _m0(y), _g2(y)
    for i in range(1, m):
        panel = h * (eta[i - 1] * (g1y - g2y) + eta[i] * g2y)
        p1[i] = ey * p1[i - 1] + panel
    return t2, p1


def resolvent_analytic(eta: Profile, lambda_shift: float, params: ReactorParams,
                       alpha: float) -> ResolventSolution:
    """Variation-of-constants solution satisfying both boundary conditions.

    The representation groups the particular solution into the two bounded
    convolutions t2 and p1 and writes the nu2 homogeneous mode as
    c4_scaled * e^{nu2 (x - l)}, so no intermediate quantity grows like
    e^{nu2 l}; the naive forward form loses all significant digits already
    at lambda = 10 on unit-length domains.
    """
    if not (np.isfinite(lambda_shift) and lambda_shift > 0):
        raise ParameterError(f"lambda_shift must be > 0, got {lambda_shift}")
    if not (np.isfinite(alpha) and 0.0 <= alpha <= 0.5):
        raise ParameterError(f"alpha must lie in [0, 1/2], got {alpha}")

    grid = eta.grid
    x = grid.nodes
    d, v, l = params.d_ax, params.v, params.l
    s = np.sqrt(v * v + 4.0 * d * lambda_shift)
    nu1 = (v - s) / (2.0 * d)
    nu2 = (v + s) / (2.0 * d)
    kappa = 1.0 / s

    t2, p1 = _convolutions(eta.values, grid.h, nu1, nu2)
    j2 = t2[0]            # int_0^l eta e^{-nu2 s} ds
    p1l = p1[-1]

    # boundary-condition system for (c3, c4_scaled)
    b1 = (1.0 - alpha) - (d / v) * nu1
    b2 = (1.0 - alpha) - (d / v) * nu2
    e2 = np.exp(-nu2 * l)
    e1 = np.exp(nu1 * l)
    a11, a12 = b1, b2 * e2
    a21, a22 = nu1 * e1, nu2
    r1 = kappa * j2 * b2
    r2 = kappa * nu1 * p1l
    det = a11 * a22 - a12 * a21
    norm = max(abs(a11), abs(a12), abs(a21), abs(a22))
    if abs(det) <= 1e-14 * norm * norm:
        raise SolverError(f"singular boundary-condition system (det {det:.3e})")
    c3 = (r1 * a22 - a12 * r2) / det
    c4_scaled = (a11 * r2 - a21 * r1) / det

    vals = (-kappa * (t2 + p1) + c3 * np.exp(nu1 * x)
            + c4_scaled * np.exp(nu2 * (x - l)))
    c4 = c4_scaled * e2 - kappa * j2
    return ResolventSolution(nu1=nu1, nu2=nu2, c3=c3, c4=c4,
                             xi=Profile(grid, vals), lambda_shift=lambda_shift,
                             det=det)


def resolvent_discrete(gen: DiscreteGenerator, eta: Profile,
                       lambda_shift: float) -> Profile:
    """Direct tridiagonal solve of (A_h - lambda*I) xi = eta."""
    if not (np.isfinite(lambda_shift) and lambda_shift > 0):
        raise ParameterError(f"lambda_shift must be > 0, got {lambda_shift}")
    if eta.grid != gen.grid:
        raise ContractError("profile grid does not match generator grid")
    xi = gen.diagonals.shifted(-lambda_shift).solve(eta.values)
    if not np.all(np.isfinite(xi)):
        raise SolverError("tridiagonal resolvent solve produced non-finite values")
    return Profile(gen.grid, xi)


# degree-13 Pade numerator coefficients, scaled to b_0 = 1, and the largest
# 1-norm at which the approximant's backward error is within unit round-off
# (Higham, SIAM J. Matrix Anal. Appl. 26, 2005)
_PADE13 = tuple(math.comb(13, k) / math.perm(26, k) for k in range(14))
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """e^a by scaling and squaring with the degree-13 Pade approximant."""
    b = _PADE13
    s = max(0, math.ceil(math.log2(max(np.linalg.norm(a, 1) / _THETA13, 1.0))))
    a = a / 2.0 ** s
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * np.eye(len(a)))
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * np.eye(len(a)))
    return np.linalg.matrix_power(np.linalg.solve(v - u, v + u), 2 ** s)


DUHAMEL_MAX_NODES = 101
PICARD_TOL = 1e-10
PICARD_MAX_ITER = 200


def duhamel_oracle(gen: DiscreteGenerator, w0: Profile, steady, params: ReactorParams,
                   t_final: float, num_steps: int) -> Profile:
    """Mild-solution fixed point via dense matrix exponentials.

    Evaluates xi(t) = e^{t A_h} w0 + int_0^t e^{(t-s) A_h} r(xi(s)) ds by
    Picard iteration with trapezoidal quadrature in s. Deliberately
    independent of the time stepper: no IMEX splitting, no extrapolation,
    so it serves as a cross-check oracle at small grid sizes.
    """
    if gen.grid.num_nodes > DUHAMEL_MAX_NODES:
        raise ContractError(
            f"duhamel_oracle is limited to {DUHAMEL_MAX_NODES} nodes, "
            f"got {gen.grid.num_nodes}")
    if w0.grid != gen.grid or steady.profile.grid != gen.grid:
        raise ContractError("w0 and steady state must live on the generator grid")
    if num_steps < 1:
        raise ParameterError(f"num_steps must be >= 1, got {num_steps}")

    dt = t_final / num_steps
    e_dt = _expm(gen.diagonals.dense() * dt)
    weights = gen.grid.quad_weights

    # iterate on the whole trajectory; states[j] approximates xi(t_j)
    states = np.zeros((num_steps + 1, gen.grid.num_nodes))
    states[0] = w0.values
    for j in range(num_steps):
        states[j + 1] = e_dt @ states[j]

    for _ in range(PICARD_MAX_ITER):
        rates = reaction_rate(states, steady.profile.values, params)
        new = np.empty_like(states)
        new[0] = w0.values
        for j in range(num_steps):
            new[j + 1] = (e_dt @ (new[j] + 0.5 * dt * rates[j])
                          + 0.5 * dt * rates[j + 1])
        # each row's weighted L2 norm, in the bits of a 1-D sum per row, written
        # over states and rates, which this sweep reads no more
        step = np.subtract(new, states, out=states)
        squares = np.multiply(weights, step, out=rates)
        squares *= step
        diff = max(np.sqrt(np.sum(squares, axis=1)).tolist())
        states = new
        if diff <= PICARD_TOL:
            return Profile(gen.grid, states[-1])
    raise SolverError(
        f"Picard iteration did not contract within {PICARD_MAX_ITER} sweeps; "
        "split the time interval", residual=diff, iterations=PICARD_MAX_ITER)
