"""Discrete fields on uniform rectangular grids and compatible operators.

A field is a plain NumPy array of the grid's shape (scalar) or of
(d,) + grid.shape (vector); every operator takes it as (array, grid).

Cell-centered collocated layout.  Gradient and divergence are central
differences whose ghost values come from wraparound (periodic) or cell-
center reflection (neumann-noslip: even reflection for scalars, odd for
fluxes and velocities).  Each is two gathers from cached index tables
per (grid, parity), the cell after minus the cell before along each
axis, with the ghost values folded into the edge entries, followed by
the division by 2h.  The Laplacian lap_arr is the literal composition
div_arr(grad_arr(.)), so summation by parts holds exactly on periodic
grids and the integral of lap_arr(f) vanishes on both boundary kinds.

Constant-coefficient operators built from that Laplacian are inverted
(or applied) directly in the basis that diagonalises it: rfftn on
periodic grids, the type-II DCT (even parity: scalars, pressure) or DST
(odd parity: velocity components) on Neumann grids.  Only the DCT/DST
need SciPy: scipy.fft is imported at the first Neumann transform, so a
periodic grid runs on NumPy alone.  A variable-coefficient system of the
time step is written as S = P^-1 + R: P^-1 is that spectral operator at
the mean coefficient, R the remainder at the coefficient minus its mean.
Conjugate gradients preconditioned by P solves it with one spectral
transform pair (the preconditioner) and one application of R per
iteration, since its recurrences already give P^-1 of each search
direction (Eisenstat, SIAM J. Sci. Stat. Comput. 1981).
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


@functools.lru_cache(maxsize=128)
def _diff_index(grid: Grid, parity: int, stacked: bool):
    """Gather tables (plus, minus) of the undivided central differences
    f[i+1] - f[i-1], one block per axis, each of shape (d,) + grid.shape:
    src.take(plus) - src.take(minus) is that difference, where src is the
    flattened input followed by its negation.  Entry k of block a of plus
    is the cell after k along axis a and of minus the cell before it; past
    an edge that cell is the ghost, so the index moves to the wrapped cell
    (periodic) or to k itself, in the negated copy where parity makes the
    ghost -f[k] (cell-center reflection).  Only Neumann grids at odd parity
    read the negated copy.

    stacked: every block reads the one scalar input (gradient).  Otherwise
    block a reads component a of a (d,) + grid.shape input (divergence).
    The third entry is 2h per axis, shaped to divide the differences.
    Cached per (grid, parity, stacked); the returned arrays are
    read-only."""
    size = math.prod(grid.shape)
    k = np.arange(size).reshape(grid.shape)
    plus = np.empty((grid.d,) + grid.shape, dtype=np.intp)
    minus = np.empty_like(plus)
    # the negated copy starts after the whole flattened input
    ghost = 0 if parity == 1 else (size if stacked else grid.d * size)
    for a, n in enumerate(grid.shape):
        after, before = np.roll(k, -1, axis=a), np.roll(k, 1, axis=a)
        if grid.bc != "periodic":
            lead = (slice(None),) * a
            last, first = lead + (n - 1,), lead + (0,)
            after[last] = k[last] + ghost
            before[first] = k[first] + ghost
        base = 0 if stacked else a * size
        plus[a], minus[a] = after + base, before + base
    two_h = np.array([2.0 * h for h in grid.h]).reshape(
        (grid.d,) + (1,) * grid.d)
    for arr in (plus, minus, two_h):
        arr.setflags(write=False)
    return plus, minus, two_h


def _differences(src: np.ndarray, grid: Grid, parity: int,
                 stacked: bool) -> np.ndarray:
    """Undivided central differences of src over the gather tables, then
    divided by 2h: shape (d,) + grid.shape."""
    plus, minus, two_h = _diff_index(grid, parity, stacked)
    flat = src.ravel()
    if grid.bc != "periodic" and parity == -1:
        flat = np.concatenate((flat, -flat))
    out = flat.take(plus)
    out -= flat.take(minus)
    out /= two_h
    return out


def grad_arr(f: np.ndarray, grid: Grid, parity: int = 1) -> np.ndarray:
    return _differences(f, grid, parity, True)


def div_arr(v: np.ndarray, grid: Grid, parity: int = -1) -> np.ndarray:
    return _differences(v, grid, parity, False).sum(axis=0)


def lap_arr(f: np.ndarray, grid: Grid) -> np.ndarray:
    return div_arr(grad_arr(f, grid, parity=1), grid, parity=-1)


def integrate(f: np.ndarray, grid: Grid) -> float:
    """Midpoint rule for a scalar f on grid."""
    return float(f.sum() * grid.cell_volume)


# ---------------------------------------------------------------------------
# spectral symbols and linear solvers

@functools.lru_cache(maxsize=64)
def lap_symbol(grid: Grid, parity: int = 1) -> np.ndarray:
    """Symbol of the compatible (wide-stencil) Laplacian in the basis that
    solve_symbol transforms to: -sum_a sin^2(theta_a)/h_a^2.

    Periodic grids: rfftn layout, theta = 2*pi*k/n.  Neumann grids:
    theta = pi*k/n, with k = 0..n-1 (type-II DCT, even parity: the scalar
    operator div(grad(., +1), -1)) or k = 1..n (type-II DST, odd parity:
    the velocity operator div(grad(., -1), +1)).  Cached per (grid,
    parity); the returned array is read-only.
    """
    parts = []
    for a, (n, h) in enumerate(zip(grid.shape, grid.h)):
        if grid.bc != "periodic":
            k = np.arange(n) if parity == 1 else np.arange(1, n + 1)
            theta = np.pi * k / n
        else:
            if a == grid.d - 1:
                k = np.arange(n // 2 + 1)
            else:
                k = np.fft.fftfreq(n) * n
            theta = 2.0 * np.pi * k / n
        s = -((np.sin(theta) / h) ** 2)
        shp = [1] * grid.d
        shp[a] = len(k)
        parts.append(s.reshape(shp))
    out = parts[0]
    for p in parts[1:]:
        out = out + p
    out.setflags(write=False)
    return out


@functools.cache
def _scipy_fft():
    """scipy.fft, imported at the first Neumann transform in a process:
    periodic grids transform with numpy.fft alone."""
    import scipy.fft
    return scipy.fft


def solve_symbol(b: np.ndarray, grid: Grid, symbol: np.ndarray,
                 parity: int = 1, inverse: bool = True) -> np.ndarray:
    """Apply the inverse of a constant-coefficient operator built from the
    compatible Laplacian.  symbol is the operator's symbol array in the
    layout of lap_symbol(grid, parity), built from that Laplacian symbol;
    modes where it vanishes are dropped.  inverse=False applies the
    operator itself: it multiplies by the symbol and drops no mode.

    Periodic grids use numpy's rfftn.  Neumann grids use scipy.fft's
    orthonormal type-II DCT for even-parity fields (scalars) and type-II
    DST for odd-parity fields (velocity components).
    """
    if grid.bc == "periodic":
        bh = np.fft.rfftn(b)
    else:
        sfft = _scipy_fft()
        if parity == 1:
            bh = sfft.dctn(b, type=2, norm="ortho")
        else:
            bh = sfft.dstn(b, type=2, norm="ortho")
    if inverse:
        xh = np.divide(bh, symbol, out=np.zeros_like(bh),
                       where=np.abs(symbol) > 1e-14)
    else:
        xh = bh * symbol
    if grid.bc == "periodic":
        return np.fft.irfftn(xh, s=grid.shape, axes=tuple(range(grid.d)))
    if parity == 1:
        return sfft.idctn(xh, type=2, norm="ortho")
    return sfft.idstn(xh, type=2, norm="ortho")


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
    S p = w + remainder(p).  base is read once, for the residual of x0."""
    x = x0.copy()
    r = b - base(x) - remainder(x)
    bnorm = np.sqrt((b * b).sum())
    if bnorm == 0.0:
        return np.zeros_like(b)
    rnorm = np.sqrt((r * r).sum())
    if rnorm <= tol * bnorm:
        return x
    p = precond(r)
    w = r                            # P^-1 p; r is rebound, never changed
    rz = (r * p).sum()
    for _ in range(maxiter):
        Sp = w + remainder(p)
        alpha = rz / (p * Sp).sum()
        x += alpha * p
        r = r - alpha * Sp
        rnorm = np.sqrt((r * r).sum())
        if rnorm <= tol * bnorm:
            return x
        z = precond(r)
        rz_new = (r * z).sum()
        beta = rz_new / rz
        p = z + beta * p
        w = r + beta * w
        rz = rz_new
    raise SolverError(f"cg failed to reach tol={tol} in {maxiter} iterations "
                      f"(residual {rnorm / bnorm:.3e})")


def solve_poisson(rhs: np.ndarray, grid: Grid) -> np.ndarray:
    """The mean-zero p with laplacian(p) = rhs on grid, by a direct symbol
    solve (FFT on periodic grids, DCT on Neumann grids).  The part of rhs
    the Laplacian cannot reach (its mean; on periodic grids also the
    checkerboard modes) is dropped."""
    p = solve_symbol(rhs, grid, lap_symbol(grid))
    return p - p.mean()


def project_divergence_free(v: np.ndarray, grid: Grid):
    """Remove the discrete gradient part of the vector v, of shape
    (d,) + grid.shape, via a pressure Poisson solve.

    Returns (v - grad(p), p) with p mean-zero.
    """
    p = solve_poisson(div_arr(v, grid, parity=-1), grid)
    return v - grad_arr(p, grid, parity=1), p
