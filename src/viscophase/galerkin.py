"""Spectral-Galerkin harness for the order-parameter / bulk-stress
subsystem with zero velocity.

Basis: eigenfunctions of the negative Laplacian with Neumann conditions
on a rectangle, i.e. normalized cosine products.  The projected system
evolves coefficient vectors lam (phi), zeta (q) with the chemical
potential theta recovered algebraically from the orthonormal mass
identity.  Nonlinear integrals use oversampled midpoint quadrature,
which makes the discrete cosine inner products exact to rounding; each
axis gets as many nodes as its own highest mode needs.  The basis
values, their gradients and the values on the doubled check level sit
side by side in one table.  The quadrature pass takes a batch of K
states as (K, m) coefficient arrays, a single state being K = 1, so a
right-hand-side evaluation of the whole batch is one matmul of the
stacked rows [lam; zeta] into the quadrature, pointwise arithmetic and
one matmul back.  It also returns the dissipation, a sum of squares
integrated as an extra ODE component.  The energies at all output
points are one batched pass after the integration, over the [Psi | dPsi]
columns alone, since the energy needs no check level.  The system is
integrated by LSODA, which switches between Adams and BDF steps as the
stiffness c0*lam^2 of the high modes demands.

A convergence study stays in coefficient space: every basis of one box
lists the same leading modes in the same order, and by Parseval the L2
distance of two runs is that of their zero-padded coefficients.

Importing this module loads no SciPy.  scipy.integrate, with the
scipy.optimize, scipy.linalg and scipy.sparse.linalg it imports, is
loaded by the first call of integrate_galerkin in a process.  The
package imports this module, but the grid commands and simulate never
integrate an ODE: on grids of both boundary kinds they load no SciPy.
"""

from __future__ import annotations

import itertools
import warnings
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, QuadratureResolutionError, SolverError
from .material import MaterialModel

__all__ = [
    "CosineBasis", "GalerkinRun",
    "project", "assemble_rhs", "integrate_galerkin", "energy_galerkin",
    "check_mode_counts", "convergence_study",
]


def _axis_modes(ks: np.ndarray, x: np.ndarray, L: float) -> np.ndarray:
    """Values of the 1D Neumann eigenfunctions at nodes x: shape (k, x)."""
    norm = np.where(ks == 0, np.sqrt(1.0 / L), np.sqrt(2.0 / L))
    return norm[:, None] * np.cos(ks[:, None] * np.pi * x[None, :] / L)


def _axis_dmodes(ks: np.ndarray, x: np.ndarray, L: float) -> np.ndarray:
    norm = np.where(ks == 0, np.sqrt(1.0 / L), np.sqrt(2.0 / L))
    freq = ks * np.pi / L
    return -(norm * freq)[:, None] * np.sin(ks[:, None] * np.pi * x[None, :] / L)


def _modes(lengths: Sequence[float], ranges) -> list:
    """(eigenvalue, k-tuple) of each mode with k in ranges, ascending."""
    return sorted((sum((k * np.pi / L) ** 2 for k, L in zip(kt, lengths)), kt)
                  for kt in itertools.product(*ranges))


class CosineBasis:
    """First m cosine-product eigenfunctions, eigenvalue-ordered, with an
    oversampled midpoint quadrature and a doubled check level.

    ``table`` is [Psi | dPsi_1 ... dPsi_d | Psi_f] of shape
    (m, (1 + d) Nq + Nq_f); ``Psi`` (m, Nq), ``dPsi`` (d, m, Nq) and
    ``Psi_f`` (m, Nq_f) are views of it."""

    def __init__(self, lengths: Sequence[float], m: int, oversample: int = 2):
        lengths = tuple(float(L) for L in lengths)
        if not lengths or len(lengths) > 3:
            raise ValueError("basis supports 1-3 dimensions")
        if m < 1:
            raise ValueError("mode count must be positive")
        d = len(lengths)
        K = int(np.ceil(m ** (1.0 / d))) + 2
        # the m-th eigenvalue of the modes with k <= K on every axis bounds
        # the true m-th from above, and a mode at or below it has
        # (k pi / L)^2 <= bound on each axis (one more k covers rounding)
        bound = _modes(lengths, [range(K + 1)] * d)[m - 1][0]
        cands = _modes(lengths, [range(int(L * np.sqrt(bound) / np.pi) + 2)
                                 for L in lengths])
        self.lengths = lengths
        self.d = d
        self.m = m
        self.kvecs = np.array([kt for _, kt in cands[:m]], dtype=int)
        self.lam = np.array([lam for lam, _ in cands[:m]])
        self.n_quad = tuple(max(oversample * (int(k) + 1), 4)
                            for k in self.kvecs.max(axis=0))
        self.axes, self.w = self._midpoints(self.n_quad)
        self.axes_f, self.w_f = self._midpoints(
            tuple(2 * n for n in self.n_quad))
        nq = self.nq = int(np.prod(self.n_quad))
        self.table = np.empty((m, (1 + d + 2 ** d) * nq))
        self.table[:, :nq] = self._table(self.axes)
        for axis in range(d):
            self.table[:, (1 + axis) * nq:(2 + axis) * nq] = self._table(
                self.axes, derivative=axis)
        self.table[:, (1 + d) * nq:] = self._table(self.axes_f)
        self.Psi = self.table[:, :nq]
        self.dPsi = self.table[:, nq:(1 + d) * nq].reshape(
            m, d, nq).transpose(1, 0, 2)
        self.Psi_f = self.table[:, (1 + d) * nq:]

    def _midpoints(self, n: Sequence[int]):
        """Midpoint nodes per axis and the cell weight of a grid with n[i]
        cells along axis i."""
        axes = [(np.arange(k) + 0.5) * L / k for k, L in zip(n, self.lengths)]
        return axes, float(np.prod([L / k for k, L in zip(n, self.lengths)]))

    def _table(self, axes: Sequence[np.ndarray],
               derivative: Optional[int] = None) -> np.ndarray:
        """Basis values (m, Nq) on a tensor grid, or their derivatives
        along axis ``derivative``."""
        tab = None
        for i in range(self.d):
            axis_tab = (_axis_dmodes if i == derivative else _axis_modes)(
                self.kvecs[:, i], axes[i], self.lengths[i])
            tab = axis_tab if tab is None else np.einsum(
                'm...,mj->m...j', tab, axis_tab)
        return tab.reshape(self.m, -1)

    def evaluate(self, coeffs: np.ndarray, axes: Sequence[np.ndarray]) -> np.ndarray:
        """Reconstruct the field sum(coeffs_j psi_j) on a tensor grid."""
        shape = tuple(len(ax) for ax in axes)
        return (np.asarray(coeffs) @ self._table(axes)).reshape(shape)

    def values(self, coeffs: np.ndarray) -> np.ndarray:
        return np.asarray(coeffs) @ self.Psi

    def inner(self, vals: np.ndarray) -> np.ndarray:
        """Coefficients <vals, psi_j> by midpoint quadrature, of the
        values (Nq,) of one field or (K, Nq) of a batch."""
        return self.w * (vals @ self.Psi.T)


def project(f: Callable, B: CosineBasis) -> np.ndarray:
    """Coefficients <f, psi_j> under the basis quadrature of the function
    f(*mesh) of the node coordinates."""
    vals = np.asarray(f(*np.meshgrid(*B.axes, indexing="ij")), dtype=float)
    return B.inner(np.broadcast_to(vals, tuple(map(len, B.axes))).reshape(-1))


QUAD_TOL = 1e-6     # Richardson gap of theta past which F' is under-resolved
N_OUTPUT = 101      # output times of integrate_galerkin, 0 and t_end included
_JAC_STEP = float(np.sqrt(np.finfo(float).eps))  # relative difference step

_QuadValues = namedtuple("_QuadValues",
                         "gap phi q gphi gq nv Av dA_gphi q_tau wtil D")


def _quad_values(lam: np.ndarray, zeta: np.ndarray, B: CosineBasis,
                 M: MaterialModel, check: bool = True) -> _QuadValues:
    """For the K states (lam[k], zeta[k]) of a (K, m) batch: the largest
    gap over the batch between theta and theta on the doubled
    quadrature (None unless check), the total dissipation D of shape
    (K,) and, at the quadrature points, phi, q, n, A and q / tau (each
    (K, 1, Nq)), and the gradients of phi and q, A'(phi) grad phi and
    wtil = n grad mu - grad(A q) (each (K, d, Nq)).  The stacked rows
    [lam; zeta] make one matmul into the table, or into its [Psi | dPsi]
    columns alone without the check."""
    K, d, nq = len(lam), B.d, B.nq
    n1 = (1 + d) * nq
    vals = (np.concatenate([lam, zeta]) @ (B.table if check
                                           else B.table[:, :n1])
            ).reshape(2 * K, -1, nq)
    phi, q = vals[:K, :1], vals[K:, :1]
    gphi, gq = vals[:K, 1:1 + d], vals[K:, 1:1 + d]
    dF = np.asarray(M.potential.df(
        np.concatenate([phi, vals[:K, 1 + d:]], axis=1) if check else phi),
        dtype=float)
    # theta_j = c0 lam_eig_j lam_j + <F'(phi), psi_j> by orthonormality;
    # the linear part is the same on both levels
    inner = B.inner(dF[:, 0])
    theta = M.c0 * B.lam * lam + inner
    gap = (float(np.abs(inner - B.w_f * (dF[:, 1:].reshape(K, -1)
                                         @ B.Psi_f.T)).max())
           if check else None)
    gtheta = (theta @ B.table[:, nq:n1]).reshape(K, d, nq)
    nv = np.asarray(M.n(phi), dtype=float)
    Av = np.asarray(M.A(phi), dtype=float)
    dA_gphi = np.asarray(M.dA(phi), dtype=float) * gphi
    q_tau = q / np.asarray(M.tau(phi), dtype=float)
    gAq = Av * gq + q * dA_gphi                     # grad(A(phi) q)
    wtil = nv * gtheta - gAq
    D = B.w * np.concatenate([wtil**2, q * q_tau, M.eps1 * gq**2],
                             axis=1).sum(axis=(1, 2))
    return _QuadValues(gap, phi, q, gphi, gq, nv, Av, dA_gphi, q_tau, wtil, D)


def assemble_rhs(lam: np.ndarray, zeta: np.ndarray, B: CosineBasis,
                 M: MaterialModel):
    """Time derivatives (dlam/dt, dzeta/dt), each (K, m), and the total
    dissipation D, shape (K,), of the K states of a (K, m) batch; a
    single state is K = 1.  QuadratureResolutionError when, for any
    member, theta on the doubled quadrature differs from theta by more
    than QUAD_TOL (a Richardson check).

    Weak form with the velocity dropped:
      d lam_j / dt = -<m(phi) grad mu - n(phi) grad(A q), grad psi_j>
      d zeta_j / dt = -<q / tau(phi), psi_j>
                      + <n grad mu - grad(A q), grad(A psi_j)>
                      - eps1 <grad q, grad psi_j>
    with mu in the span of the basis, theta_j = c0 lam_eig_j lam_j
    + <F'(phi), psi_j> by orthonormality.
    """
    V = _quad_values(lam, zeta, B, M)
    if V.gap > QUAD_TOL:
        raise QuadratureResolutionError(
            "nonlinear potential term under-resolved by the basis "
            f"quadrature (Richardson gap {V.gap:.3e})"
        )

    # one matmul of the fluxes against [psi_j | grad psi_j], with
    # grad(A psi_j) = A grad psi_j + psi_j A'(phi) grad phi:
    #   d lam:  0                                | -n wtil
    #   d zeta: wtil . A' grad phi - q / tau     | A wtil - eps1 grad q
    K, d, nq = len(lam), B.d, B.nq
    flux = np.zeros((2 * K, 1 + d, nq))
    flux[:K, 1:] = -V.nv * V.wtil
    flux[K:, :1] = (V.wtil * V.dA_gphi).sum(axis=1, keepdims=True) - V.q_tau
    flux[K:, 1:] = V.Av * V.wtil - M.eps1 * V.gq
    out = B.w * (flux.reshape(2 * K, -1) @ B.table[:, :(1 + d) * nq].T)
    return out[:K], out[K:], V.D


def energy_galerkin(lam: np.ndarray, zeta: np.ndarray, B: CosineBasis,
                    M: MaterialModel):
    """Energies E_m and total dissipations D, each of shape (K,), of the
    K states of a (K, m) batch, from the [Psi | dPsi] columns alone."""
    V = _quad_values(lam, zeta, B, M, check=False)
    E = B.w * (0.5 * M.c0 * (V.gphi**2).sum(axis=1, keepdims=True)
               + np.asarray(M.potential.f(V.phi))
               + 0.5 * V.q * V.q).sum(axis=(1, 2))
    return E, V.D


@dataclass
class GalerkinRun:
    times: np.ndarray
    lam: np.ndarray          # phi coefficients, a row per output point
    zeta: np.ndarray         # q coefficients, a row per output point
    E: np.ndarray
    D: np.ndarray            # total dissipation at output points
    D_cum: np.ndarray        # integral of D, carried by the integrator


def integrate_galerkin(lam0: np.ndarray, zeta0: np.ndarray, B: CosineBasis,
                       M: MaterialModel, t_end: float,
                       rtol: float = 1e-8) -> GalerkinRun:
    """Adaptive LSODA integration from the coefficients (lam0, zeta0) at
    t = 0 to t_end, with the energy at N_OUTPUT points.

    LSODA (Petzold 1983) takes Adams steps while the system is non-stiff
    and switches to BDF once the stiff high modes (c0 lam^2) would limit
    an explicit step.  The accumulated dissipation is integrated as an
    extra ODE component so the energy balance E(t) + integral(D) holds
    to integrator accuracy rather than output-sampling accuracy.  Once
    LSODA turns to BDF (at m >= 64 in 2-D) it asks for Jacobians; each
    is one batched assemble_rhs call on the state and its 2m forward-
    difference perturbations, not the 2m + 1 single calls of LSODA's own
    differences.

    It runs through odeint, which keeps no LSODA workspace once it
    returns, never steps past t_end (tcrit) and caps no step count
    (mxstep); a failure raises SolverError with LSODA's message.  An rtol
    below 100 machine epsilons is raised to that, since double precision
    cannot meet a tighter one.
    """
    # imported here, so that a grid run never loads it (module docstring)
    from scipy.integrate import ODEintWarning, odeint

    if rtol <= 0:
        raise ValueError("rtol must be positive")
    rtol = max(rtol, 100 * np.finfo(float).eps)
    m = B.m

    def rhs(t, y):
        dlam, dzeta, D = assemble_rhs(y[None, :m], y[None, m:2 * m], B, M)
        return np.concatenate([dlam[0], dzeta[0], D])

    def jac(t, y):
        # forward differences in all 2m coefficients at once: one batch of
        # the state and its 2m perturbations; the right-hand side does not
        # read the accumulated dissipation, so its column is zero
        x = y[:2 * m]
        step = (x + _JAC_STEP * np.maximum(np.abs(x), 1.0)) - x
        X = np.tile(x, (2 * m + 1, 1))
        X[1:] += np.diag(step)
        dlam, dzeta, D = assemble_rhs(X[:, :m], X[:, m:], B, M)
        F = np.concatenate([dlam, dzeta, D[:, None]], axis=1)
        J = np.zeros((2 * m + 1, 2 * m + 1))
        J[:, :2 * m] = ((F[1:] - F[0]) / step[:, None]).T
        return J

    y0 = np.concatenate([np.asarray(lam0, float), np.asarray(zeta0, float),
                         [0.0]])
    t_eval = np.linspace(0.0, t_end, N_OUTPUT)
    with warnings.catch_warnings():
        # a failure is reported through info["message"] below
        warnings.simplefilter("ignore", ODEintWarning)
        y, info = odeint(rhs, y0, t_eval, Dfun=jac, rtol=rtol,
                         atol=max(rtol * 1e-3, 1e-14), tcrit=[t_end],
                         mxstep=2**31 - 1, full_output=True, tfirst=True)
    if info["message"] != "Integration successful.":
        raise SolverError(
            f"Galerkin integration failed ({info['message']}); LSODA could "
            "not meet the tolerance, so the state may be blowing up - "
            "loosen rtol or shorten t_end"
        )
    lam, zeta = y[:, :m], y[:, m:2 * m]
    E, D = energy_galerkin(lam, zeta, B, M)
    return GalerkinRun(times=t_eval, lam=lam, zeta=zeta, E=E,
                       D=D, D_cum=y[:, 2 * m])


def check_mode_counts(m_list: Sequence[int], name: str = "mode counts"
                      ) -> None:
    """ConfigError naming name unless the mode counts m_list are positive
    and strictly increasing."""
    m_list = list(m_list)
    if not m_list or m_list[0] < 1 or sorted(set(m_list)) != m_list:
        raise ConfigError(f"{name} = {m_list}: must be positive and "
                          "strictly increasing")


def _leading(coeffs: np.ndarray, m: int) -> np.ndarray:
    """coeffs on the first m modes of a basis: cut, or zero-padded."""
    return np.pad(coeffs[:m], (0, max(m - len(coeffs), 0)))


def convergence_study(m_list: Sequence[int], lam0: np.ndarray,
                      zeta0: np.ndarray, M: MaterialModel,
                      lengths: Sequence[float], t_end: float,
                      rtol: float = 1e-8):
    """Runs ("runs") at increasing mode counts ("m") from the initial
    coefficients lam0 (phi) and zeta0 (q), each cut or zero-padded to its
    basis, and the L2 distances of consecutive runs' phi at t_end
    ("diffs").  Mode counts not positive and strictly increasing raise
    ConfigError."""
    check_mode_counts(m_list)
    runs = [integrate_galerkin(_leading(lam0, m), _leading(zeta0, m),
                               CosineBasis(lengths, m), M, t_end, rtol=rtol)
            for m in m_list]
    diffs = np.array([np.linalg.norm(_leading(a.lam[-1], b.lam.shape[1])
                                     - b.lam[-1])
                      for a, b in zip(runs, runs[1:])])
    return {"m": list(m_list), "runs": runs, "diffs": diffs}
