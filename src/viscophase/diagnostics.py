"""Energy, dissipation, relative-energy and phase-bound functionals
evaluated on states and trajectories, plus pass/fail report rendering."""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from typing import Optional, Sequence

import numpy as np

from .errors import GridMismatchError
from .fields import grad_arr
from .material import MaterialModel
from .dynamics import State, Trajectory

__all__ = [
    "EnergyBreakdown", "EnergyInequalityReport", "RelativeEnergyReport",
    "GronwallFit", "BoundsReport", "CheckRecord",
    "energy", "check_energy_inequality", "relative_energy", "gronwall_fit",
    "bounds_report", "write_report",
]


@dataclass(frozen=True)
class EnergyBreakdown:
    E_mix: float
    E_bulk: float
    E_kin: float
    D_cross: float
    D_q: float
    D_eps: float
    D_visc: float

    @property
    def E_total(self) -> float:
        return self.E_mix + self.E_bulk + self.E_kin

    @property
    def D_total(self) -> float:
        return self.D_cross + self.D_q + self.D_eps + self.D_visc


def energy(state: State, M: MaterialModel) -> EnergyBreakdown:
    """Total energy components and instantaneous dissipation integrands,
    all by the midpoint rule on the state's grid.  The gradients and
    coefficients are the state's array records (see State), which the
    next time step reuses."""
    grid = state.grid
    vol = grid.cell_volume
    phi = state.phi.data
    q = state.q.data
    u = state.u.data
    arrays = state.arrays(M)

    gphi = arrays.grad_phi
    E_mix = float(((0.5 * M.c0) * (gphi**2).sum(axis=0)
                   + np.asarray(M.potential.f(phi))).sum() * vol)
    E_bulk = float((0.5 * q * q).sum() * vol)
    E_kin = float((0.5 * (u**2).sum(axis=0)).sum() * vol)

    w = (arrays.n[None] * grad_arr(state.mu.data, grid, parity=1)
         - arrays.grad_Aq)
    D_cross = float((w**2).sum() * vol)
    D_q = float((q * q / arrays.tau).sum() * vol)
    D_eps = float(M.eps1 * (arrays.grad_q**2).sum() * vol)
    D_visc = 0.0
    for gu in state.grad_u:
        D_visc += float((arrays.eta * (gu**2).sum(axis=0)).sum() * vol)

    return EnergyBreakdown(E_mix=E_mix, E_bulk=E_bulk, E_kin=E_kin,
                           D_cross=D_cross, D_q=D_q, D_eps=D_eps,
                           D_visc=D_visc)


@dataclass(frozen=True)
class EnergyInequalityReport:
    monotone: bool
    worst_step: int
    worst_violation: float          # max over steps of E_{n+1}-E_n-tol_n
    step_tol_coeff: float
    balance_residual: float         # max_n |E_n + sum dt*D - E_0|
    fitted_constant: float          # balance_residual / dt

    @property
    def passed(self) -> bool:
        return self.monotone

    def __str__(self):
        tag = "PASS" if self.monotone else "FAIL"
        return (f"[{tag}] energy inequality: worst per-step excess "
                f"{self.worst_violation:.3e} at step {self.worst_step}; "
                f"cumulative balance residual {self.balance_residual:.3e} "
                f"(first-order constant {self.fitted_constant:.3e})")


def check_energy_inequality(traj: Trajectory, M: Optional[MaterialModel] = None,
                            step_tol_coeff: float = 1e-8) -> EnergyInequalityReport:
    """Per-step monotonicity E_{n+1} <= E_n + tol*(1+|E_n|) and the
    cumulative balance E(t) + sum dt*D against E(0)."""
    E = traj.column("E_total")
    D = (traj.column("D_cross") + traj.column("D_q")
         + traj.column("D_eps") + traj.column("D_visc"))
    dt = traj.dt
    excess = E[1:] - E[:-1] - step_tol_coeff * (1.0 + np.abs(E[:-1]))
    worst = int(np.argmax(excess)) if len(excess) else 0
    worst_violation = float(excess[worst]) if len(excess) else 0.0
    cum = E + dt * np.concatenate([[0.0], np.cumsum(D[1:])]) - E[0]
    residual = float(np.abs(cum).max())
    return EnergyInequalityReport(
        monotone=bool(np.all(excess <= 0.0)) if len(excess) else True,
        worst_step=worst + 1,
        worst_violation=worst_violation,
        step_tol_coeff=step_tol_coeff,
        balance_residual=residual,
        fitted_constant=residual / dt,
    )


@dataclass(frozen=True)
class RelativeEnergyReport:
    E_mix: float
    E_bulk: float
    E_kin: float
    D: float

    @property
    def E_total(self) -> float:
        return self.E_mix + self.E_bulk + self.E_kin


def relative_energy(state: State, reference: State,
                    M: MaterialModel) -> RelativeEnergyReport:
    """Distance functional between a state and a smoother reference.

    The mixing part penalizes the gradient difference, the convexity
    defect of F, and the stabilization a*(phi-psi)^2; the relative
    dissipation uses the cross difference
    n(phi)*(grad mu - grad pi) - grad(A(phi)*(q - Q)), where mu and pi
    are the chemical potentials the two states carry.
    """
    if state.grid != reference.grid:
        raise GridMismatchError("state and reference grids differ")
    grid = state.grid
    vol = grid.cell_volume
    phi, psi = state.phi.data, reference.phi.data
    q, Q = state.q.data, reference.q.data
    u, U = state.u.data, reference.u.data
    P = M.potential

    dgrad = grad_arr(phi, grid, 1) - grad_arr(psi, grid, 1)
    convexity = (np.asarray(P.f(phi)) - np.asarray(P.f(psi))
                 - np.asarray(P.df(psi)) * (phi - psi))
    E_mix = float(((0.5 * M.c0) * (dgrad**2).sum(axis=0) + convexity
                   + M.a * (phi - psi) ** 2).sum() * vol)
    E_bulk = float((0.5 * (q - Q) ** 2).sum() * vol)
    E_kin = float((0.5 * ((u - U) ** 2).sum(axis=0)).sum() * vol)

    nv = np.asarray(M.n(phi), dtype=float)
    Av = np.asarray(M.A(phi), dtype=float)
    cross = (nv[None] * (grad_arr(state.mu.data, grid, 1)
                         - grad_arr(reference.mu.data, grid, 1))
             - grad_arr(Av * (q - Q), grid, 1))
    etav = np.asarray(M.eta(phi), dtype=float)
    tauv = np.asarray(M.tau(phi), dtype=float)
    D = float((cross**2).sum() * vol)
    D += float(((q - Q) ** 2 / tauv).sum() * vol)
    dq = grad_arr(q - Q, grid, 1)
    D += float(M.eps1 * (dq**2).sum() * vol)
    for i in range(grid.d):
        du = grad_arr(u[i] - U[i], grid, parity=-1)
        D += float((etav * (du**2).sum(axis=0)).sum() * vol)

    return RelativeEnergyReport(E_mix=E_mix, E_bulk=E_bulk, E_kin=E_kin, D=D)


@dataclass(frozen=True)
class GronwallFit:
    C: float
    residual: float
    degenerate: bool = False          # E_rel(0) below atol: uniqueness branch
    max_E: float = 0.0

    def __str__(self):
        if self.degenerate:
            return (f"gronwall fit: degenerate (E_rel(0) ~ 0); "
                    f"max E_rel = {self.max_E:.3e}")
        return f"gronwall fit: C = {self.C:.4g}, residual = {self.residual:.3e}"


def gronwall_fit(times: Sequence[float], E_rel: Sequence[float],
                 D_half: Sequence[float], atol: float = 1e-12) -> GronwallFit:
    """Smallest constant C with E(t_n) + D_half(t_n) <= E(0)*exp(C t_n)
    for all n; D_half is the accumulated half-dissipation integral.

    When E(0) vanishes the exponent is undefined and the uniqueness
    branch reports max E instead.
    """
    t = np.asarray(times, dtype=float)
    E = np.asarray(E_rel, dtype=float)
    D = np.asarray(D_half, dtype=float)
    if E[0] <= atol:
        return GronwallFit(C=0.0, residual=0.0, degenerate=True,
                           max_E=float(E.max()))
    lhs = E + D
    mask = t > 0
    ratios = np.log(np.maximum(lhs[mask] / E[0], 1e-300)) / t[mask]
    C = float(ratios.max())
    overshoot = lhs[mask] / (E[0] * np.exp(C * t[mask])) - 1.0
    return GronwallFit(C=C, residual=float(max(overshoot.max(), 0.0)))


@dataclass(frozen=True)
class BoundsReport:
    min_phi: float
    max_phi: float
    overshoot: float                  # max(-min_phi, max_phi - 1)
    measure_max: float                # largest near_degenerate measure
    entropy_series: Optional[np.ndarray]
    separation_margin: float          # min(min_phi, 1 - max_phi)

    def __str__(self):
        ent = ("entropy finite" if self.entropy_series is not None
               and np.all(np.isfinite(self.entropy_series)) else "no entropy")
        return (f"phi in [{self.min_phi:.6g}, {self.max_phi:.6g}], "
                f"overshoot {self.overshoot:.3e}, near-degenerate measure "
                f"<= {self.measure_max:.6g}, separation margin "
                f"{self.separation_margin:.4g}, {ent}")


def bounds_report(traj: Trajectory, M: MaterialModel) -> BoundsReport:
    """Space-time extrema of phi, the largest near-degenerate-set measure,
    the entropy time series and the separation margin, all read from the
    columns of a run under M.  A model without an entropy writes neither
    column (see dynamics._diag_row): measure_max is NaN, entropy None."""
    mn = float(traj.column("min_phi").min())
    mx = float(traj.column("max_phi").max())
    has_entropy = M.entropy is not None
    return BoundsReport(
        min_phi=mn, max_phi=mx,
        overshoot=float(max(-mn, mx - 1.0)),
        measure_max=(float(traj.column("near_degenerate").max())
                     if has_entropy else float("nan")),
        entropy_series=traj.column("entropy") if has_entropy else None,
        separation_margin=float(min(mn, 1.0 - mx)),
    )


@dataclass(frozen=True)
class CheckRecord:
    name: str
    value: float
    threshold: float
    passed: bool

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name}: value {self.value:.6g} vs threshold {self.threshold:.6g}"


def write_report(records: Sequence[CheckRecord], txt_path=None, jsonl_path=None) -> str:
    """Render checks as human-readable text and JSON-lines."""
    text = "\n".join(r.line() for r in records)
    if txt_path is not None:
        with open(txt_path, "w") as fh:
            fh.write(text + "\n")
    if jsonl_path is not None:
        with open(jsonl_path, "w") as fh:
            for r in records:
                d = asdict(r)
                d["pass"] = d.pop("passed")
                fh.write(json.dumps(d) + "\n")
    return text
