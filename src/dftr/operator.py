"""Finite-difference generator, its tridiagonal core and the resolvent oracles.

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
from ctypes import CFUNCTYPE, PYFUNCTYPE, c_char_p, c_size_t, c_void_p, py_object, pythonapi
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import ContractError, ParameterError, SolverError
from .model import Profile, ReactorParams, SpatialGrid, reaction_rate


# the LAPACK routines the package calls, each with its arguments' kinds: i an INTEGER,
# d a DOUBLE PRECISION and c a CHARACTER, whose hidden Fortran length trails
_ROUTINES = {"dgttrf": "iddddii", "dgttrs": "ciiddddidii", "dpttrf": "iddi", "dpttrs": "iidddii",
             "dstebz": "cciddiidddiidiidii"}


class _Lapack(NamedTuple):
    """One LAPACK's table of _ROUTINES as ctypes functions of addresses, the numpy type of
    their INTEGER arguments and the hidden length that trails a CHARACTER, if any."""

    name: str  # the symbols' pattern, scipy_<name>_64_ or <name>_64_, or else the module
    dgttrf: Callable
    dgttrs: Callable
    dpttrf: Callable
    dpttrs: Callable
    dstebz: Callable
    int: type
    hidden: tuple


def _ptr(a: np.ndarray) -> c_void_p:
    """a's data address; unlike a.ctypes.data_as, it holds no reference to a."""
    return c_void_p(a.ctypes.data)


def _numpy_lapack() -> _Lapack | None:
    """_ROUTINES of the ILP64 OpenBLAS that numpy.linalg links, or None on a build that
    does not export all of them. numpy >= 2 wheels name them scipy_<name>_64_ and numpy
    1.2x wheels <name>_64_; the _64_ fixes every integer argument at 64 bits."""
    for prefix in ("scipy_", ""):
        try:
            lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
            table = [CFUNCTYPE(None, *[c_void_p] * len(kinds), *[c_size_t] * kinds.count("c"))(
                (f"{prefix}{name}_64_", lib)) for name, kinds in _ROUTINES.items()]
        except (AttributeError, OSError):
            continue
        return _Lapack(f"{prefix}<name>_64_", *table, np.int64, (c_size_t(1),))
    return None


# private prototypes of the capsule calls: ctypes.pythonapi's functions are shared
_capsule_name = PYFUNCTYPE(c_char_p, py_object)(("PyCapsule_GetName", pythonapi))
_capsule_pointer = PYFUNCTYPE(c_void_p, py_object, c_char_p)(("PyCapsule_GetPointer", pythonapi))


def _capsule_function(capsule, kinds: str):
    """The C function of a cython_lapack capsule whose signature has one argument per letter
    of kinds and an int * at each "i", a LAPACK INTEGER, which it would read past if wider."""
    signature = _capsule_name(capsule)
    args = signature.decode().partition("(")[2].rpartition(")")[0].split(", ")
    if len(args) != len(kinds) or any(a != "int *" for a, k in zip(args, kinds) if k == "i"):
        raise ImportError(f"LAPACK capsule {signature!r} takes no int * where {kinds!r} has i")
    return CFUNCTYPE(None, *[c_void_p] * len(args))(_capsule_pointer(capsule, signature))


def _scipy_lapack() -> _Lapack:
    """_ROUTINES of scipy's LP64 LAPACK from the capsules of its public cython_lapack,
    loaded from its file without the 0.3 s of scipy.linalg imports, under its real name."""
    name = "scipy.linalg.cython_lapack"
    scipy_dir, = importlib.util.find_spec("scipy").submodule_search_locations
    spec = importlib.machinery.PathFinder.find_spec(name, [os.path.join(scipy_dir, "linalg")])
    module = sys.modules.setdefault(name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)  # returns at once if the module has run
    capi = module.__pyx_capi__
    return _Lapack(name, *[_capsule_function(capi[routine], kinds)
                           for routine, kinds in _ROUTINES.items()], np.intc, ())


# numpy's own LAPACK where its build exports the table: no second OpenBLAS unless it cannot
_LAPACK = _numpy_lapack() or _scipy_lapack()

SYMMETRIZER_LOG2 = 32  # Tridiagonal.symmetrizer's D lies within 2**-32 .. 2**32


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

    def symmetrizer(self) -> np.ndarray | None:
        """The diagonal D with D^-1 self D symmetric, from self's own couplings: D[i+1] / D[i]
        is sqrt(lower[i+1] / upper[i]), centred in log space. None where a coupling product
        lower[i+1] * upper[i] is <= 0 (a cell Peclet number of 2 or more in A_h), or where D
        leaves [2**-SYMMETRIZER_LOG2, 2**SYMMETRIZER_LOG2], so tiny states keep their range."""
        lower, upper = self.lower[1:], self.upper[:-1]
        if not np.all(lower * upper > 0.0):  # NaN fails
            return None
        logs = np.concatenate(([0.0], np.cumsum(0.5 * np.log(lower / upper))))
        logs -= 0.5 * (np.max(logs) + np.min(logs))
        if not np.max(np.abs(logs)) <= SYMMETRIZER_LOG2 * math.log(2.0):
            return None
        return np.exp(logs)

    def symmetrized(self) -> Tridiagonal:
        """D^-1 self D for self's symmetrizer D: the diagonal, and each pair of couplings
        replaced by their geometric mean with their sign."""
        coupling = np.zeros(self.diag.size)
        coupling[:-1] = np.copysign(np.sqrt(self.lower[1:] * self.upper[:-1]), self.upper[:-1])
        return Tridiagonal(np.roll(coupling, 1), self.diag, coupling)

    def factor(self, into: np.ndarray, symmetric: bool = False):
        """Factor once and return a no-argument solve: the LAPACK solve bound once to the
        factors and to into, a contiguous writable float64 array of the matrix's size,
        which it overwrites with the solution, making no Python call of its own. The
        factors are LU with partial pivoting (dgttrf, dgttrs), or, if symmetric, LDL^T of a
        symmetric positive definite matrix (dpttrf, dpttrs; upper[:-1] is read as its
        couplings, and must equal lower[1:])."""
        self._check(symmetric)
        if not (into.dtype == np.float64 and into.shape == self.diag.shape
                and into.flags.c_contiguous and into.flags.writeable):
            raise ContractError(f"a bound solve needs a contiguous writable float64 "
                                f"array of shape {self.diag.shape}")
        lapack, n = _LAPACK, self.diag.size
        ints = np.array([n, 1, 0], dtype=lapack.int)  # N = LDB, NRHS, INFO
        if symmetric:
            factors = np.array(self.diag, float), np.array(self.upper[:-1], float)  # d, e
            lapack.dpttrf(_ptr(ints), *map(_ptr, factors), _ptr(ints[2:]))
            solve = partial(lapack.dpttrs, _ptr(ints), _ptr(ints[1:]), *map(_ptr, factors),
                            _ptr(into), _ptr(ints), _ptr(ints[2:]))
            failure = "tridiagonal matrix not positive definite (pivot {} not positive)"
        else:
            factors = (*(np.array(a, float) for a in (self.lower[1:], self.diag, self.upper[:-1])),
                       np.empty(max(n - 2, 0)), np.empty(n, dtype=lapack.int))  # dl d du du2 ipiv
            lapack.dgttrf(_ptr(ints), *map(_ptr, factors), _ptr(ints[2:]))
            solve = partial(lapack.dgttrs, c_char_p(b"N"), _ptr(ints), _ptr(ints[1:]),
                            *map(_ptr, factors), _ptr(into), _ptr(ints), _ptr(ints[2:]),
                            *lapack.hidden)
            failure = "singular tridiagonal matrix (zero pivot at row {})"
        if ints[2] != 0:
            raise SolverError(failure.format(ints[2]))
        solve.arrays = ints, factors, into  # keeps alive what the pointers point into
        return solve

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """One dgttrs on a copy of rhs."""
        x = np.array(rhs, dtype=np.float64)
        self.factor(into=x)()
        return x

    def top_eigenvalue(self) -> float:
        """The largest eigenvalue of a symmetric tridiagonal (upper[:-1] is read as its
        couplings, and must equal lower[1:]), by LAPACK's bisection (dstebz, RANGE = 'I',
        IL = IU = N) with ABSTOL twice the safe minimum, for full relative accuracy."""
        self._check(symmetric=True)
        lapack, n = _LAPACK, self.diag.size
        ints = np.array([n, 0, 0, 0], dtype=lapack.int)  # N = IL = IU, M, NSPLIT, INFO
        reals = np.array([0.0, 2.0 * np.finfo(float).tiny])  # VL = VU (unread), ABSTOL
        d, e = np.array(self.diag, float), np.array(self.upper[:-1], float)
        w, work = np.empty(n), np.empty(4 * n)
        iblock, isplit, iwork = (np.empty(k * n, dtype=lapack.int) for k in (1, 1, 3))
        lapack.dstebz(c_char_p(b"I"), c_char_p(b"E"), _ptr(ints), _ptr(reals), _ptr(reals),
                      _ptr(ints), _ptr(ints), _ptr(reals[1:]), _ptr(d), _ptr(e),
                      _ptr(ints[1:]), _ptr(ints[2:]), _ptr(w), _ptr(iblock), _ptr(isplit),
                      _ptr(work), _ptr(iwork), _ptr(ints[3:]), *lapack.hidden * 2)
        if ints[3] != 0:
            raise SolverError(f"dstebz found no top eigenvalue (INFO {ints[3]})")
        return float(w[0])

    def _check(self, symmetric: bool):
        """ContractError unless the diagonals are three 1-D arrays of one length, and, if
        symmetric, lower[1:] equals upper[:-1]: LAPACK would read past a shorter one."""
        if not self.lower.shape == self.diag.shape == self.upper.shape == (self.diag.size,):
            raise ContractError("a tridiagonal needs three 1-D diagonals of one length")
        if symmetric and not np.array_equal(self.lower[1:], self.upper[:-1]):
            raise ContractError("a symmetric tridiagonal needs lower[1:] equal to upper[:-1]")


def build_generator(grid: SpatialGrid, params: ReactorParams, alpha: float) -> Tridiagonal:
    """A_h at the gain alpha in [0, 1/2], with read-only diagonals; lower[0] and upper[-1]
    unused."""
    if not (np.isfinite(alpha) and 0.0 <= alpha <= 0.5):
        raise ParameterError(f"alpha must lie in [0, 1/2], got {alpha}")
    m = grid.num_nodes
    h = grid.h
    d, v = params.d_ax, params.v

    lower = np.zeros(m)
    diag = np.zeros(m)
    upper = np.zeros(m)

    lower[1:-1] = d / h ** 2 + v / (2.0 * h)
    diag[1:-1] = -2.0 * d / h ** 2
    upper[1:-1] = d / h ** 2 - v / (2.0 * h)

    # inlet row: ghost value from the Robin closure
    # xi_{-1} = xi_1 - (2 h v / d) * (1 - alpha) * xi_0
    diag[0] = -2.0 * d / h ** 2 - 2.0 * v * (1.0 - alpha) / h - v * v * (1.0 - alpha) / d
    upper[0] = 2.0 * d / h ** 2

    # outlet row: ghost value from xi'(l) = 0, xi_{m} = xi_{m-2}
    lower[-1] = 2.0 * d / h ** 2
    diag[-1] = -2.0 * d / h ** 2

    for arr in (lower, diag, upper):
        arr.flags.writeable = False
    return Tridiagonal(lower, diag, upper)


def inner_product(grid: SpatialGrid, a: np.ndarray, b: np.ndarray) -> float:
    """Trapezoidal discrete inner product on [0, l]."""
    return float(np.sum(grid.quad_weights * a * b))


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
                       alpha: float) -> Profile:
    """The xi of d_ax xi'' - v xi' - lambda xi = eta under both boundary conditions, by
    variation of constants; SolverError if the boundary-condition system is singular.

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

    return Profile(grid, -kappa * (t2 + p1) + c3 * np.exp(nu1 * x)
                   + c4_scaled * np.exp(nu2 * (x - l)))


def resolvent_discrete(a_h: Tridiagonal, eta: Profile, lambda_shift: float) -> Profile:
    """Direct tridiagonal solve of (A_h - lambda*I) xi = eta."""
    if not (np.isfinite(lambda_shift) and lambda_shift > 0):
        raise ParameterError(f"lambda_shift must be > 0, got {lambda_shift}")
    if eta.values.shape != a_h.diag.shape:
        raise ContractError(f"a profile of {eta.values.size} nodes for A_h of {a_h.diag.size}")
    xi = a_h.shifted(-lambda_shift).solve(eta.values)
    if not np.all(np.isfinite(xi)):
        raise SolverError("tridiagonal resolvent solve produced non-finite values")
    return Profile(eta.grid, xi)


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


def duhamel_oracle(a_h: Tridiagonal, w0: Profile, steady, params: ReactorParams,
                   t_final: float, num_steps: int) -> Profile:
    """Mild-solution fixed point via dense matrix exponentials.

    Evaluates xi(t) = e^{t A_h} w0 + int_0^t e^{(t-s) A_h} r(xi(s)) ds, with
    params's reaction, by Picard iteration with trapezoidal quadrature in s.
    Deliberately independent of the time stepper: no IMEX splitting, no
    extrapolation, so it serves as a cross-check oracle at small grid sizes.
    """
    grid, m = w0.grid, a_h.diag.size
    if m > DUHAMEL_MAX_NODES:
        raise ContractError(f"duhamel_oracle is limited to {DUHAMEL_MAX_NODES} nodes, got {m}")
    if grid.num_nodes != m or steady.profile.grid != grid:
        raise ContractError("w0 and the steady state must live on one grid of A_h's size")
    if num_steps < 1:
        raise ParameterError(f"num_steps must be >= 1, got {num_steps}")

    dt = t_final / num_steps
    e_dt = _expm(a_h.dense() * dt)
    weights = grid.quad_weights

    # iterate on the whole trajectory; states[j] approximates xi(t_j)
    states = np.zeros((num_steps + 1, m))
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
            return Profile(grid, states[-1])
    raise SolverError(
        f"Picard iteration did not contract within {PICARD_MAX_ITER} sweeps; "
        "split the time interval", residual=diff, iterations=PICARD_MAX_ITER)
