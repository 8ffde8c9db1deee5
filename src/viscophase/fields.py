"""Discrete fields on uniform rectangular grids and compatible operators.

A field is a plain NumPy array of the grid's shape (scalar) or of
(d,) + grid.shape (vector); every operator takes it as (array, grid).

Cell-centered collocated layout.  Gradient and divergence are central
differences whose ghost values come from wraparound (periodic) or cell-
center reflection (neumann-noslip: even reflection for scalars, odd for
fluxes and velocities).  Along each axis the difference (f[i+1] -
f[i-1]) / 2h is one BLAS product with a cached n x n matrix per (grid,
parity) whose edge rows hold the ghost values; an axis longer than
STENCIL_MATRIX_MAX cells takes a slice difference over ghost-padded
copies instead.  The Laplacian lap_arr is the literal composition
div_arr(grad_arr(.)), so summation by parts holds exactly on periodic
grids and the integral of lap_arr(f) vanishes on both boundary kinds.

Constant-coefficient operators built from that Laplacian are inverted
(or applied) directly in the basis that diagonalises it, one cached
orthonormal matrix per axis applied by matmul: the real Fourier basis on
periodic grids, the type-II DCT (even parity: scalars, pressure) or DST
(odd parity: velocity components) on Neumann grids.  Grid runs load no
SciPy.  An operator with constant coefficients is a polynomial in the
Laplacian symbol, and its inverse is a multiplier in that basis: the
reciprocal of the polynomial, built once per (grid, parity, coefficients)
and cached (multiplier), so a run builds each of its direct solves once
and every step only transforms, multiplies and transforms back.  A
variable-coefficient system of the time step is written as S = P^-1 + R:
P^-1 is that spectral operator at the mean coefficient, R the remainder
at the coefficient minus its mean.  Conjugate gradients preconditioned
by P solves it with one spectral transform pair (the preconditioner) and
one application of R per iteration, since its recurrences already give
P^-1 of each search direction (Eisenstat, SIAM J. Sci. Stat. Comput.
1981).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Tuple

import numpy as np

from .errors import ConfigError, SolverError

__all__ = [
    "Grid",
    "grad_arr",
    "div_arr",
    "lap_arr",
    "integrate",
    "project_divergence_free",
    "solve_poisson",
]

BCS = ("periodic", "neumann-noslip")


@dataclass(frozen=True)
class Grid:
    shape: Tuple[int, ...]           # cells per axis
    lengths: Tuple[float, ...]       # domain extent per axis
    bc: str = "periodic"
    # derived once in __post_init__: the integrals read the cell volume
    # and the operator caches hash the grid several times per step
    cell_volume: float = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """ConfigError naming the config key of the first bad value."""
        if not 1 <= len(self.shape) <= 3 or len(self.shape) != len(self.lengths):
            raise ConfigError("grid.shape and grid.lengths must agree, 1-3 axes")
        if min(self.shape) < 4:
            raise ConfigError(f"grid.shape = {self.shape}: need at least 4 "
                              "cells per axis")
        if not all(0 < L < math.inf for L in self.lengths):
            raise ConfigError(f"grid.lengths = {self.lengths}: must be "
                              "positive and finite")
        if self.bc not in BCS:
            raise ConfigError(f"grid.bc = {self.bc!r}: must be one of {BCS}")
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        object.__setattr__(self, "lengths", tuple(float(L) for L in self.lengths))
        object.__setattr__(self, "cell_volume", math.prod(self.h))
        object.__setattr__(self, "_hash",
                           hash((self.shape, self.lengths, self.bc)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def d(self) -> int:
        return len(self.shape)

    @property
    def h(self) -> Tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.lengths, self.shape))

    def axes(self):
        """Cell-center coordinates per axis."""
        return [ (np.arange(n) + 0.5) * h for n, h in zip(self.shape, self.h) ]

    def meshgrid(self):
        return np.meshgrid(*self.axes(), indexing="ij")


@functools.lru_cache(maxsize=64)
def _stencils(grid: Grid, parity: int):
    """Per axis of grid, the n x n matrix D of the central difference at
    parity, (D f)[i] = (f[i+1] - f[i-1]) / 2h: 1/2h above the diagonal and
    -1/2h below it.  The ghost cell past each edge is folded into the edge
    rows: the wrapped column on periodic axes, and at Neumann walls
    parity/2h on the diagonal of the last row and -parity/2h on that of
    the first (cell-center reflection).  An axis longer than
    STENCIL_MATRIX_MAX cells gets None and takes the slice difference of
    _difference instead.  The last axis's matrix is stored in Fortran
    order, so that the mat.T that _along multiplies by is C-contiguous:
    BLAS reads a transposed right operand about 1.5x slower at these
    sizes.  Cached per (grid, parity); the matrices are read-only."""
    mats = []
    for a, (n, h) in enumerate(zip(grid.shape, grid.h)):
        if n > STENCIL_MATRIX_MAX:
            mats.append(None)
            continue
        c = 0.5 / h
        i = np.arange(n - 1)
        mat = np.zeros((n, n))
        mat[i, i + 1], mat[i + 1, i] = c, -c
        if grid.bc == "periodic":
            mat[0, -1], mat[-1, 0] = -c, c
        else:
            mat[0, 0], mat[-1, -1] = -parity * c, parity * c
        if a == grid.d - 1:
            mat = np.asfortranarray(mat)
        mat.setflags(write=False)
        mats.append(mat)
    return tuple(mats)


def _difference(f: np.ndarray, grid: Grid, parity: int, a: int, mat,
                out=None) -> np.ndarray:
    """(f[i+1] - f[i-1]) / 2h along axis a of grid, into out if given: one
    BLAS product with mat, the axis's matrix from _stencils, or where mat
    is None the difference of slices of f padded with its two ghost
    layers, divided by 2h."""
    if mat is not None:
        return _along(f, mat, a, out)
    lead = (slice(None),) * a
    first, last = f[lead + (slice(0, 1),)], f[lead + (slice(-1, None),)]
    if grid.bc == "periodic":
        before, after = last, first
    else:
        before, after = parity * first, parity * last
    padded = np.concatenate((before, f, after), axis=a)
    out = np.subtract(padded[lead + (slice(2, None),)],
                      padded[lead + (slice(None, -2),)], out=out)
    out /= 2.0 * grid.h[a]
    return out


def grad_arr(f: np.ndarray, grid: Grid, parity: int = 1) -> np.ndarray:
    out = np.empty((grid.d,) + grid.shape)
    for a, mat in enumerate(_stencils(grid, parity)):
        _difference(f, grid, parity, a, mat, out[a])
    return out


def div_arr(v: np.ndarray, grid: Grid, parity: int = -1) -> np.ndarray:
    mats = _stencils(grid, parity)
    out = _difference(v[0], grid, parity, 0, mats[0])
    for a in range(1, grid.d):
        out += _difference(v[a], grid, parity, a, mats[a])
    return out


def lap_arr(f: np.ndarray, grid: Grid) -> np.ndarray:
    return div_arr(grad_arr(f, grid, parity=1), grid, parity=-1)


def integrate(f: np.ndarray, grid: Grid) -> float:
    """Midpoint rule for a scalar f on grid."""
    return float(f.sum() * grid.cell_volume)


# ---------------------------------------------------------------------------
# spectral symbols and linear solvers

def _basis(n: int, h: float, periodic: bool, parity: int):
    """(Q, lam): the orthonormal n x n basis whose rows are eigenvectors of
    the 1-D wide-stencil Laplacian on n cells of width h, and their
    eigenvalues lam = -sin^2(theta)/h^2.

    Periodic (parity plays no part): the real Fourier basis, theta =
    2*pi*k/n, in rows k = 0, then cos and sin for k = 1..(n-1)//2, then
    the Nyquist row k = n/2 for even n.  Neumann: the type-II DCT rows,
    k = 0..n-1, at parity +1 (the scalar operator div(grad(., +1), -1))
    and the type-II DST rows, k = 1..n, at parity -1 (the velocity
    operator div(grad(., -1), +1)), theta = pi*k/n.  Built in closed
    form; both arrays are read-only.  _bases caches them per grid.

    A transform is one matmul per axis, O(n) work per entry against the
    FFT's O(log n), but with one BLAS call per axis instead of a
    transform library's dispatch.  A round trip of solve_symbol measured
    (one BLAS thread, x86-64) 2-4 times faster than numpy.fft.rfftn and
    scipy.fft's DCT/DST at 32^2-48^2 and 16^3-32^3 and 1.5-2 times at
    64^2, level near 96^2 and 64^3, 1.2-2 times slower at 128^2 and 2
    times at 256^2: an FFT path would pay only beyond about 96 cells per
    axis in 2-D and 64 in 3-D."""
    j = np.arange(n)
    if periodic:
        m = np.arange(1, (n + 1) // 2)
        arg = (np.outer(m, j) % n) * (2.0 * np.pi / n)
        rows = [np.full((1, n), 1.0 / math.sqrt(n)),
                math.sqrt(2.0 / n) * np.cos(arg),
                math.sqrt(2.0 / n) * np.sin(arg)]
        k = [np.zeros(1), m, m]
        if n % 2 == 0:
            rows.append(np.where(j % 2 == 0, 1.0, -1.0)[None] / math.sqrt(n))
            k.append(np.array([n / 2]))
        Q = np.concatenate(rows)
        theta = 2.0 * np.pi * np.concatenate(k) / n
    else:
        k = np.arange(n) if parity == 1 else np.arange(1, n + 1)
        # k*(2j+1) reduced mod 4n keeps the angles exact
        arg = (np.outer(k, 2 * j + 1) % (4 * n)) * (np.pi / (2 * n))
        Q = math.sqrt(2.0 / n) * (np.cos(arg) if parity == 1 else np.sin(arg))
        Q[0 if parity == 1 else -1] /= math.sqrt(2.0)
        theta = np.pi * k / n
    lam = -((np.sin(theta) / h) ** 2)
    for arr in (Q, lam):
        arr.setflags(write=False)
    return Q, lam


# The same trade-off for the stencils: a central difference by its n x n
# matrix (_stencils) does O(n) work per entry in one BLAS call, a slice
# difference O(1) in three passes.  Per grad_arr call (one BLAS thread,
# 2-core Xeon) the matrix took 7 us against 15 us at 32^2, 18 against 25
# at 64^2, 20 against 59 at 16^3 and 0.87 against 1.16 ms at 48^3; the
# two were level at 80^2, and the slice difference was faster at 96^2
# (45 against 50 us), 128^2 (69 against 145 us) and 64^3 (2.1 against
# 2.4 ms).  An axis of more cells than this takes the slice difference.
STENCIL_MATRIX_MAX = 64


@functools.lru_cache(maxsize=64)
def _bases(grid: Grid, parity: int):
    """(qs, lams): the bases and eigenvalues of _basis, one per axis of
    grid at parity.  Cached per (grid, parity)."""
    periodic = grid.bc == "periodic"
    return tuple(zip(*(_basis(n, h, periodic, 1 if periodic else parity)
                       for n, h in zip(grid.shape, grid.h))))


def _along(x: np.ndarray, mat: np.ndarray, axis: int,
           out=None) -> np.ndarray:
    """mat applied along axis of x, out[..., i, ...] = sum_j mat[i, j]
    x[..., j, ...], into out if given: one BLAS call, the last axis and
    axis 0 through a 2-D reshape, a middle one stacked."""
    shape = x.shape
    if axis == x.ndim - 1:
        flat = None if out is None else out.reshape(-1, shape[-1])
        return np.matmul(x.reshape(-1, shape[-1]), mat.T,
                         out=flat).reshape(shape)
    if axis == 0:
        flat = None if out is None else out.reshape(shape[0], -1)
        return np.matmul(mat, x.reshape(shape[0], -1), out=flat).reshape(shape)
    return np.matmul(mat, x, out=out)


def _transform(x: np.ndarray, qs, back: bool) -> np.ndarray:
    """x with qs[a] (back: its transpose, the inverse) applied along each
    axis a, the last axis first."""
    for a in reversed(range(len(qs))):
        x = _along(x, qs[a].T if back else qs[a], a)
    return x


@functools.lru_cache(maxsize=64)
def lap_symbol(grid: Grid, parity: int = 1) -> np.ndarray:
    """Symbol of the compatible (wide-stencil) Laplacian in the basis that
    solve_symbol transforms to: -sum_a sin^2(theta_a)/h_a^2, an array of
    grid.shape whose entry (k_0, ..., k_d-1) belongs to row k_a of each
    axis basis (see _basis).  Cached per (grid, parity); the returned
    array is read-only.
    """
    out = np.zeros(grid.shape)
    for a, lam in enumerate(_bases(grid, parity)[1]):
        shp = [1] * grid.d
        shp[a] = lam.size
        out = out + lam.reshape(shp)
    out.setflags(write=False)
    return out


def poly_symbol(grid: Grid, parity: int, coeffs: tuple) -> np.ndarray:
    """The symbol sum_k coeffs[k] * s**k of a constant-coefficient operator,
    s = lap_symbol(grid, parity), by Horner's rule: a new array."""
    s = lap_symbol(grid, parity)
    out = np.full(grid.shape, float(coeffs[-1]))
    for c in coeffs[-2::-1]:
        out *= s
        out += c
    return out


@functools.lru_cache(maxsize=32)
def multiplier(grid: Grid, parity: int, coeffs: tuple) -> np.ndarray:
    """The inverse of the constant-coefficient operator whose symbol is
    poly_symbol(grid, parity, coeffs), as a multiplier for solve_symbol:
    1 / symbol, and 0 at the modes where the symbol vanishes (|symbol| <=
    1e-14).  (0, 1) gives the Laplacian's inverse on its range.  Cached
    per (grid, parity, coeffs), at most 32 entries, so a run builds each
    multiplier once; the returned array is read-only.  A symbol that
    changes every step (the mean-mobility preconditioner of a degenerate
    run) is not built here: each step would add an entry."""
    sym = poly_symbol(grid, parity, coeffs)
    out = np.divide(1.0, sym, out=np.zeros_like(sym),
                    where=np.abs(sym) > 1e-14)
    out.setflags(write=False)
    return out


def solve_symbol(b: np.ndarray, grid: Grid, mult: np.ndarray,
                 parity: int = 1) -> np.ndarray:
    """Apply a constant-coefficient operator built from the compatible
    Laplacian, given its multiplier mult: an array of grid.shape in the
    layout of lap_symbol(grid, parity).  The multiplier of an inverse is
    multiplier(grid, parity, coeffs); an operator is applied by its own
    symbol.

    b is taken to the eigenbasis of the Laplacian at parity (_basis per
    axis: the real Fourier basis on periodic grids, the type-II DCT for
    even-parity fields and DST for odd-parity fields on Neumann grids),
    multiplied there, and taken back.
    """
    qs, _ = _bases(grid, parity)
    return _transform(_transform(b, qs, back=False) * mult, qs, back=True)


def cg(remainder: Callable, b: np.ndarray, precond: Callable,
       x0: np.ndarray, base: Callable, tol: float = 1e-10,
       maxiter: int = 10000) -> np.ndarray:
    """Matrix-free preconditioned conjugate gradients on shaped arrays for
    a symmetric positive definite system S x = b split as
    S = P^-1 + remainder, started from x0: precond applies the SPD
    preconditioner P and base its exact inverse P^-1.  Stops at
    ||b - S x|| <= tol*||b||, else raises SolverError.

    Each iteration applies remainder once and precond once, and base not
    at all: with z = P r and the search direction p = z + beta*p, the
    product w = P^-1 p follows from w = r + beta*w, since P^-1 z = r.  So
    S p = w + remainder(p).  base is read once, for the residual of x0.
    A residual that is not finite raises SolverError at once, naming the
    iteration (0: the residual of x0)."""
    x = x0.copy()
    r = b - base(x) - remainder(x)
    bnorm = math.sqrt(np.vdot(b, b))
    if bnorm == 0.0:
        return np.zeros_like(b)
    rnorm = math.sqrt(np.vdot(r, r))
    if rnorm <= tol * bnorm:
        return x
    _check_residual(rnorm, bnorm, 0)
    p = precond(r)
    w = r                            # P^-1 p; r is rebound, never changed
    rz = np.vdot(r, p)
    for k in range(1, maxiter + 1):
        Sp = w + remainder(p)
        alpha = rz / np.vdot(p, Sp)
        x += alpha * p
        r = r - alpha * Sp
        rnorm = math.sqrt(np.vdot(r, r))
        if rnorm <= tol * bnorm:
            return x
        _check_residual(rnorm, bnorm, k)
        z = precond(r)
        rz_new = np.vdot(r, z)
        beta = rz_new / rz
        p = z + beta * p
        w = r + beta * w
        rz = rz_new
    raise SolverError(f"cg failed to reach tol={tol} in {maxiter} iterations "
                      f"(residual {rnorm / bnorm:.3e})")


def _check_residual(rnorm: float, bnorm: float, k: int) -> None:
    """SolverError naming iteration k of cg unless its residual is finite
    (a right-hand side that is not finite leaves none that is)."""
    if not math.isfinite(rnorm):
        raise SolverError(f"cg: residual {rnorm / bnorm:.3e} at iteration "
                          f"{k} is not finite")


def solve_poisson(rhs: np.ndarray, grid: Grid) -> np.ndarray:
    """The p with laplacian(p) = rhs on grid, mean zero to rounding, by a
    direct symbol solve (Fourier basis on periodic grids, DCT basis on
    Neumann grids).  The part of rhs the Laplacian cannot reach (its mean;
    on periodic grids also the checkerboard modes) is dropped: the
    multiplier is 0 there."""
    return solve_symbol(rhs, grid, multiplier(grid, 1, (0.0, 1.0)))


def project_divergence_free(v: np.ndarray, grid: Grid):
    """Remove the discrete gradient part of the vector v, of shape
    (d,) + grid.shape, via a pressure Poisson solve.

    Returns (v - grad(p), p) with p mean zero to rounding.
    """
    p = solve_poisson(div_arr(v, grid, parity=-1), grid)
    return v - grad_arr(p, grid, parity=1), p
