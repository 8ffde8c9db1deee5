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
side by side in one table, so a right-hand-side evaluation is one
matmul into the quadrature, pointwise arithmetic and one matmul back.
It also returns the dissipation, a sum of squares integrated as an
extra ODE component; the energy is evaluated at output points only.
The system is integrated by LSODA, which switches between Adams and
BDF steps as the stiffness c0*lam^2 of the high modes demands.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .errors import ConfigError, QuadratureResolutionError, SolverError
from .material import MaterialModel

__all__ = [
    "CosineBasis", "GalerkinState", "GalerkinRun",
    "project", "assemble_rhs", "integrate_galerkin", "energy_galerkin",
    "convergence_study",
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
        """Coefficients <vals, psi_j> by midpoint quadrature."""
        return self.w * (self.Psi @ vals)


@dataclass(frozen=True)
class GalerkinState:
    t: float
    lam: np.ndarray      # phi coefficients
    zeta: np.ndarray     # q coefficients


def project(f: Callable, B: CosineBasis) -> np.ndarray:
    """Coefficients <f, psi_j> under the basis quadrature of the function
    f(*mesh) of the node coordinates."""
    vals = np.asarray(f(*np.meshgrid(*B.axes, indexing="ij")), dtype=float)
    return B.inner(np.broadcast_to(vals, tuple(map(len, B.axes))).reshape(-1))


_QuadValues = namedtuple("_QuadValues",
                         "theta theta_f phi q gphi gq nv Av dAv tauv wtil D")


def _quad_values(lam: np.ndarray, zeta: np.ndarray, B: CosineBasis,
                 M: MaterialModel) -> _QuadValues:
    """theta, theta on the doubled quadrature (theta_f) and, at the
    quadrature points, phi, q, their gradients, n, A, A', tau,
    wtil = n grad mu - grad(A q) and the dissipation terms D."""
    d, nq = B.d, B.nq
    vals = np.stack([lam, zeta]) @ B.table
    phi, q = vals[0, :nq], vals[1, :nq]
    gphi = vals[0, nq:(1 + d) * nq].reshape(d, nq)
    gq = vals[1, nq:(1 + d) * nq].reshape(d, nq)
    dF = np.asarray(M.potential.df(np.concatenate(
        [phi, vals[0, (1 + d) * nq:]])), dtype=float)
    # theta_j = c0 lam_eig_j lam_j + <F'(phi), psi_j> by orthonormality
    linear = M.c0 * B.lam * lam
    theta = linear + B.inner(dF[:nq])
    theta_f = linear + B.w_f * (B.Psi_f @ dF[nq:])
    gtheta = (theta @ B.table[:, nq:(1 + d) * nq]).reshape(d, nq)
    nv = np.asarray(M.n(phi), dtype=float)
    Av = np.asarray(M.A(phi), dtype=float)
    dAv = np.asarray(M.dA(phi), dtype=float)
    tauv = np.asarray(M.tau(phi), dtype=float)
    gAq = Av * gq + (dAv * q) * gphi                # grad(A(phi) q)
    wtil = nv * gtheta - gAq
    D_cross = B.w * float((wtil**2).sum())
    D_q = B.w * float((q * q / tauv).sum())
    D_eps = M.eps1 * B.w * float((gq**2).sum())
    D = {"D_cross": D_cross, "D_q": D_q, "D_eps": D_eps,
         "D_total": D_cross + D_q + D_eps}
    return _QuadValues(theta, theta_f, phi, q, gphi, gq, nv, Av, dAv, tauv,
                       wtil, D)


def assemble_rhs(G: GalerkinState, B: CosineBasis, M: MaterialModel,
                 quad_tol: float = 1e-6):
    """Time derivatives (dlam/dt, dzeta/dt) and the dissipation terms D
    (keys as in ``energy_galerkin``) of one state.
    QuadratureResolutionError when theta on the doubled quadrature differs
    from theta by more than quad_tol (a Richardson check).

    Weak form with the velocity dropped:
      d lam_j / dt = -<m(phi) grad mu - n(phi) grad(A q), grad psi_j>
      d zeta_j / dt = -<q / tau(phi), psi_j>
                      + <n grad mu - grad(A q), grad(A psi_j)>
                      - eps1 <grad q, grad psi_j>
    with mu in the span of the basis, theta_j = c0 lam_eig_j lam_j
    + <F'(phi), psi_j> by orthonormality.
    """
    V = _quad_values(np.asarray(G.lam, float), np.asarray(G.zeta, float),
                     B, M)
    gap = float(np.abs(V.theta - V.theta_f).max())
    if gap > quad_tol:
        raise QuadratureResolutionError(
            "nonlinear potential term under-resolved by the basis "
            f"quadrature (Richardson gap {gap:.3e})"
        )

    # one matmul of the fluxes against [psi_j | grad psi_j], with
    # grad(A psi_j) = A grad psi_j + psi_j A'(phi) grad phi:
    #   d lam:  0                                | -n wtil
    #   d zeta: wtil . A' grad phi - q / tau     | A wtil - eps1 grad q
    d, nq = B.d, B.nq
    flux = np.zeros((2, (1 + d) * nq))
    flux[0, nq:] = (-V.nv * V.wtil).reshape(-1)
    flux[1, :nq] = (V.wtil * (V.dAv * V.gphi)).sum(axis=0) - V.q / V.tauv
    flux[1, nq:] = (V.Av * V.wtil - M.eps1 * V.gq).reshape(-1)
    dlam, dzeta = B.w * (flux @ B.table[:, :(1 + d) * nq].T)
    return dlam, dzeta, V.D


def energy_galerkin(G: GalerkinState, B: CosineBasis, M: MaterialModel):
    """Energy E_m and dissipation terms of one state."""
    V = _quad_values(np.asarray(G.lam, float), np.asarray(G.zeta, float),
                     B, M)
    E = B.w * float((0.5 * M.c0 * (V.gphi**2).sum(axis=0)
                     + np.asarray(M.potential.f(V.phi))
                     + 0.5 * V.q * V.q).sum())
    return E, V.D


@dataclass
class GalerkinRun:
    times: np.ndarray
    states: List[GalerkinState]
    E: np.ndarray
    D: np.ndarray            # total dissipation at output points
    D_cum: np.ndarray        # integral of D, carried by the integrator

    @property
    def energy_slack(self) -> float:
        """max over t of E(t) + D_cum(t) - E(0) * (1 + 1e-6): at most 0
        when the energy inequality holds to a relative 1e-6."""
        return float((self.E + self.D_cum - self.E[0] * (1.0 + 1e-6)).max())


def integrate_galerkin(initial: GalerkinState, B: CosineBasis,
                       M: MaterialModel, t_end: float, rtol: float = 1e-8,
                       n_output: int = 101) -> GalerkinRun:
    """Adaptive LSODA integration to t_end with dense energy output.

    LSODA (Petzold 1983) takes Adams steps while the system is non-stiff
    and switches to BDF once the stiff high modes (c0 lam^2) would limit
    an explicit step.  The accumulated dissipation is integrated as an
    extra ODE component so the energy balance E(t) + integral(D) holds
    to integrator accuracy rather than output-sampling accuracy.
    """
    if rtol <= 0:
        raise ValueError("rtol must be positive")
    m = B.m

    def rhs(t, y):
        G = GalerkinState(t=t, lam=y[:m], zeta=y[m:2 * m])
        dlam, dzeta, D = assemble_rhs(G, B, M)
        return np.concatenate([dlam, dzeta, [D["D_total"]]])

    y0 = np.concatenate([np.asarray(initial.lam, float),
                         np.asarray(initial.zeta, float), [0.0]])
    t_eval = np.linspace(0.0, t_end, n_output)
    sol = solve_ivp(rhs, (0.0, t_end), y0, method="LSODA", rtol=rtol,
                    atol=max(rtol * 1e-3, 1e-14), t_eval=t_eval)
    if not sol.success:
        raise SolverError(
            f"Galerkin integration failed ({sol.message}); LSODA could "
            "not meet the tolerance, so the state may be blowing up - "
            "loosen rtol or shorten t_end"
        )
    states, Es, Ds = [], [], []
    for k, t in enumerate(sol.t):
        G = GalerkinState(t=float(t), lam=sol.y[:m, k], zeta=sol.y[m:2 * m, k])
        E, Dterms = energy_galerkin(G, B, M)
        states.append(G)
        Es.append(E)
        Ds.append(Dterms["D_total"])
    return GalerkinRun(times=np.asarray(sol.t), states=states,
                       E=np.array(Es), D=np.array(Ds),
                       D_cum=sol.y[2 * m].copy())


def convergence_study(m_list: Sequence[int], phi0: Callable, q0: Callable,
                      M: MaterialModel, lengths: Sequence[float],
                      t_end: float, rtol: float = 1e-8):
    """Runs ("runs") at increasing mode counts ("m") from the same initial
    functions, the pairwise L2 differences of phi at t_end on the last
    basis's fine quadrature ("diffs") and whether they shrink ("monotone").
    Mode counts not positive and strictly increasing raise ConfigError."""
    m_list = list(m_list)
    if not m_list or m_list[0] < 1 or sorted(set(m_list)) != m_list:
        raise ConfigError(f"mode counts {m_list} must be positive and "
                          "strictly increasing")
    bases = [CosineBasis(lengths, m) for m in m_list]
    axes, w = bases[-1].axes_f, bases[-1].w_f
    runs, finals = [], []
    for B in bases:
        init = GalerkinState(t=0.0, lam=project(phi0, B), zeta=project(q0, B))
        run = integrate_galerkin(init, B, M, t_end, rtol=rtol)
        runs.append(run)
        finals.append(B.evaluate(run.states[-1].lam, axes))
    diffs = np.array([
        float(np.sqrt(w * ((fb - fa) ** 2).sum()))
        for fa, fb in zip(finals, finals[1:])
    ])
    monotone = bool(np.all(np.diff(diffs) <= 0)) if len(diffs) > 1 else True
    return {"m": m_list, "runs": runs, "diffs": diffs, "monotone": monotone}
