"""Discrete fields on uniform rectangular grids and compatible operators.

Cell-centered collocated layout.  Gradient and divergence are central
differences whose ghost values come from wraparound (periodic) or cell-
center reflection (neumann-noslip: even reflection for scalars, odd for
fluxes and velocities).  Each is one matvec with a cached sparse matrix
of +-1 undivided differences per (grid, parity), the ghost values folded
into its edge rows, followed by the division by 2h.  The Laplacian is the
literal composition divergence(gradient(.)), so summation by parts holds
exactly on periodic grids and integrate(laplacian(f)) vanishes on both
boundary kinds.

Constant-coefficient operators built from that Laplacian are inverted
directly in the basis that diagonalises it: rfftn on periodic grids, the
type-II DCT (even parity: scalars, pressure) or DST (odd parity: velocity
components) on Neumann grids.  The variable-coefficient systems of the
time step are solved by conjugate gradients preconditioned with those
direct inverses at the mean coefficient.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
import scipy.fft as sfft
import scipy.sparse as sp

from .errors import GridMismatchError, SolverError

__all__ = [
    "Grid",
    "ScalarField",
    "VectorField",
    "gradient",
    "divergence",
    "laplacian",
    "integrate",
    "l2_norm",
    "project_divergence_free",
    "solve_poisson",
]

BCS = ("periodic", "neumann-noslip")


@dataclass(frozen=True)
class Grid:
    shape: Tuple[int, ...]           # cells per axis
    lengths: Tuple[float, ...]       # domain extent per axis
    bc: str = "periodic"

    def __post_init__(self):
        if self.bc not in BCS:
            raise ValueError(f"bc must be one of {BCS}")
        if not 1 <= len(self.shape) <= 3 or len(self.shape) != len(self.lengths):
            raise ValueError("grid needs 1-3 axes with matching lengths")
        if any(n < 4 for n in self.shape):
            raise ValueError("need at least 4 cells per axis")
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        object.__setattr__(self, "lengths", tuple(float(L) for L in self.lengths))

    @property
    def d(self) -> int:
        return len(self.shape)

    @property
    def h(self) -> Tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.lengths, self.shape))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    def axes(self):
        """Cell-center coordinates per axis."""
        return [ (np.arange(n) + 0.5) * h for n, h in zip(self.shape, self.h) ]

    def meshgrid(self):
        return np.meshgrid(*self.axes(), indexing="ij")


def _same_grid(a, b):
    if a.grid != b.grid:
        raise GridMismatchError("fields live on different grids")


@dataclass(frozen=True)
class ScalarField:
    grid: Grid
    data: np.ndarray

    def __post_init__(self):
        if self.data.shape != self.grid.shape:
            raise ValueError("data shape does not match grid")

    @classmethod
    def from_function(cls, grid: Grid, fn: Callable) -> "ScalarField":
        return cls(grid, np.asarray(fn(*grid.meshgrid()), dtype=float))

    @classmethod
    def full(cls, grid: Grid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.data.copy())

    def __add__(self, other):
        if isinstance(other, ScalarField):
            _same_grid(self, other)
            return ScalarField(self.grid, self.data + other.data)
        return ScalarField(self.grid, self.data + other)

    def __sub__(self, other):
        if isinstance(other, ScalarField):
            _same_grid(self, other)
            return ScalarField(self.grid, self.data - other.data)
        return ScalarField(self.grid, self.data - other)

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            _same_grid(self, other)
            return ScalarField(self.grid, self.data * other.data)
        return ScalarField(self.grid, self.data * other)

    __rmul__ = __mul__


@dataclass(frozen=True)
class VectorField:
    grid: Grid
    data: np.ndarray                 # shape (d,) + grid.shape

    def __post_init__(self):
        if self.data.shape != (self.grid.d,) + self.grid.shape:
            raise ValueError("data shape does not match grid")

    @classmethod
    def zeros(cls, grid: Grid) -> "VectorField":
        return cls(grid, np.zeros((grid.d,) + grid.shape))

    def component(self, a: int) -> ScalarField:
        return ScalarField(self.grid, self.data[a])

    def copy(self) -> "VectorField":
        return VectorField(self.grid, self.data.copy())

    def __add__(self, other):
        _same_grid(self, other)
        return VectorField(self.grid, self.data + other.data)

    def __sub__(self, other):
        _same_grid(self, other)
        return VectorField(self.grid, self.data - other.data)

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            _same_grid(self, other)
            return VectorField(self.grid, self.data * other.data[None])
        return VectorField(self.grid, self.data * other)

    __rmul__ = __mul__


@functools.lru_cache(maxsize=64)
def _diff_op(grid: Grid, parity: int) -> sp.csr_matrix:
    """Undivided central differences f[i+1] - f[i-1] on the flattened grid,
    one diagonal block per axis.  Row k of block a holds +1 at the cell
    after k along axis a and -1 at the cell before it; past an edge that
    cell is the ghost, so the entry moves to the wrapped cell (periodic)
    or to k itself times parity (cell-center reflection).  Two entries of
    +-1 per row make a matvec exactly f[i+1] - f[i-1].  Cached per (grid,
    parity); the returned matrix is read-only."""
    size = math.prod(grid.shape)
    k = np.arange(size)
    cols = np.empty((grid.d, size, 2), dtype=np.intp)
    vals = np.empty((grid.d, size, 2))
    for a, n in enumerate(grid.shape):
        stride = math.prod(grid.shape[a + 1:])
        i = (k // stride) % n
        last, first = i == n - 1, i == 0
        cols[a, :, 0], cols[a, :, 1] = k + stride, k - stride
        vals[a] = (1.0, -1.0)
        if grid.bc == "periodic":
            cols[a, last, 0] -= n * stride
            cols[a, first, 1] += n * stride
        else:
            cols[a, last, 0], vals[a, last, 0] = k[last], parity
            cols[a, first, 1], vals[a, first, 1] = k[first], -parity
        cols[a] += a * size
    rows = grid.d * size
    op = sp.csr_matrix((vals.ravel(), cols.ravel(), np.arange(0, 2 * rows + 1, 2)),
                       shape=(rows, rows))
    for arr in (op.data, op.indices, op.indptr):
        arr.setflags(write=False)
    return op


def _two_h(grid: Grid) -> np.ndarray:
    return np.array([2.0 * h for h in grid.h]).reshape((grid.d,) + (1,) * grid.d)


def grad_arr(f: np.ndarray, grid: Grid, parity: int = 1) -> np.ndarray:
    diffs = _diff_op(grid, parity) @ np.tile(f.ravel(), grid.d)
    return diffs.reshape((grid.d,) + grid.shape) / _two_h(grid)


def div_arr(v: np.ndarray, grid: Grid, parity: int = -1) -> np.ndarray:
    diffs = _diff_op(grid, parity) @ v.ravel()
    return (diffs.reshape(v.shape) / _two_h(grid)).sum(axis=0)


def gradient(f: ScalarField) -> VectorField:
    """Central-difference gradient with even (Neumann) reflection."""
    return VectorField(f.grid, grad_arr(f.data, f.grid, parity=1))


def divergence(v: VectorField) -> ScalarField:
    """Adjoint-compatible central-difference divergence (odd reflection)."""
    return ScalarField(v.grid, div_arr(v.data, v.grid, parity=-1))


def laplacian(f: ScalarField) -> ScalarField:
    return divergence(gradient(f))


def lap_arr(f: np.ndarray, grid: Grid) -> np.ndarray:
    return div_arr(grad_arr(f, grid, parity=1), grid, parity=-1)


def integrate(f: ScalarField) -> float:
    """Midpoint rule."""
    return float(f.data.sum() * f.grid.cell_volume)


def l2_norm(f) -> float:
    return float(np.sqrt((f.data**2).sum() * f.grid.cell_volume))


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


def solve_symbol(b: np.ndarray, grid: Grid, symbol_fn: Callable,
                 parity: int = 1) -> np.ndarray:
    """Apply the inverse of a constant-coefficient operator built from the
    compatible Laplacian.  symbol_fn maps the Laplacian symbol to the
    operator symbol; modes where the operator symbol vanishes are dropped.

    Periodic grids use rfftn.  Neumann grids use the orthonormal type-II
    DCT for even-parity fields (scalars) and the type-II DST for
    odd-parity fields (velocity components).
    """
    s = symbol_fn(lap_symbol(grid, parity))
    if grid.bc == "periodic":
        bh = np.fft.rfftn(b)
    elif parity == 1:
        bh = sfft.dctn(b, type=2, norm="ortho")
    else:
        bh = sfft.dstn(b, type=2, norm="ortho")
    xh = np.divide(bh, s, out=np.zeros_like(bh), where=np.abs(s) > 1e-14)
    if grid.bc == "periodic":
        return np.fft.irfftn(xh, s=grid.shape, axes=tuple(range(grid.d)))
    if parity == 1:
        return sfft.idctn(xh, type=2, norm="ortho")
    return sfft.idstn(xh, type=2, norm="ortho")


def cg(apply_op: Callable, b: np.ndarray, precond: Callable,
       tol: float = 1e-10, maxiter: int = 10000,
       x0: Optional[np.ndarray] = None) -> np.ndarray:
    """Matrix-free preconditioned conjugate gradients on shaped arrays for
    the symmetric positive definite variable-coefficient systems; precond
    applies an SPD approximation of the inverse.  Stops at
    ||b - apply_op(x)|| <= tol*||b||, else raises SolverError."""
    x = np.zeros_like(b) if x0 is None else x0.copy()
    r = b - apply_op(x)
    bnorm = np.sqrt((b * b).sum())
    if bnorm == 0.0:
        return np.zeros_like(b)
    rnorm = np.sqrt((r * r).sum())
    if rnorm <= tol * bnorm:
        return x
    z = precond(r)
    p = z
    rz = (r * z).sum()
    for _ in range(maxiter):
        Ap = apply_op(p)
        alpha = rz / (p * Ap).sum()
        x += alpha * p
        r -= alpha * Ap
        rnorm = np.sqrt((r * r).sum())
        if rnorm <= tol * bnorm:
            return x
        z = precond(r)
        rz_new = (r * z).sum()
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(f"cg failed to reach tol={tol} in {maxiter} iterations "
                      f"(residual {rnorm / bnorm:.3e})")


def solve_poisson(rhs: ScalarField) -> ScalarField:
    """Solve laplacian(p) = rhs with mean-zero p by a direct symbol solve
    (FFT on periodic grids, DCT on Neumann grids).  The part of rhs the
    Laplacian cannot reach (its mean; on periodic grids also the
    checkerboard modes) is dropped."""
    grid = rhs.grid
    p = solve_symbol(rhs.data, grid, lambda s: s)
    return ScalarField(grid, p - p.mean())


def project_divergence_free(v: VectorField):
    """Remove the discrete gradient part of v via a pressure Poisson solve.

    Returns (v - gradient(p), p) with p mean-zero.
    """
    p = solve_poisson(divergence(v))
    u = VectorField(v.grid, v.data - grad_arr(p.data, v.grid, parity=1))
    return u, p
