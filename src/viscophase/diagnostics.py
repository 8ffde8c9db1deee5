"""Energy, dissipation, relative-energy and phase-bound functionals
evaluated on states and trajectories, the diagnostics row of a state and
the Trajectory of a run's rows, plus pass/fail report rendering.  State
and SimConfig in annotations are dynamics', which imports this module."""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict, field as dc_field
from typing import Optional, Sequence

import numpy as np

from .errors import GridMismatchError
from .fields import grad_arr, integrate
from .material import MaterialModel

__all__ = [
    "Trajectory", "EnergyBreakdown", "EnergyInequalityReport",
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


def _integrals(state: State, grad_phi: np.ndarray, bulk: np.ndarray,
               q: np.ndarray, u: np.ndarray, grad_mu: np.ndarray,
               grad_Aq: np.ndarray, grad_q: np.ndarray,
               grad_u: tuple) -> EnergyBreakdown:
    """The energy and dissipation integrals by the midpoint rule on the
    cells of state's grid: E_mix of grad_phi with the potential density
    bulk, E_bulk of q, E_kin of u, D_cross of w = n*grad_mu - grad_Aq, D_q
    of q, D_eps of grad_q and D_visc of grad_u (grad u_i for each i).  c0,
    eps1 and the coefficients n, tau and eta are those of state."""
    vol = state.grid.cell_volume
    M = state.model
    E_mix = float(((0.5 * M.c0) * (grad_phi**2).sum(axis=0) + bulk).sum()
                  * vol)
    E_bulk = float((0.5 * q * q).sum() * vol)
    E_kin = float((0.5 * (u**2).sum(axis=0)).sum() * vol)

    w = state.n[None] * grad_mu - grad_Aq
    D_cross = float((w**2).sum() * vol)
    D_q = float((q * q / state.tau).sum() * vol)
    D_eps = float(M.eps1 * (grad_q**2).sum() * vol)
    D_visc = 0.0
    for gu in grad_u:
        D_visc += float((state.eta * (gu**2).sum(axis=0)).sum() * vol)

    return EnergyBreakdown(E_mix=E_mix, E_bulk=E_bulk, E_kin=E_kin,
                           D_cross=D_cross, D_q=D_q, D_eps=D_eps,
                           D_visc=D_visc)


def energy(state: State) -> EnergyBreakdown:
    """Total energy components and instantaneous dissipation integrands of
    a state under its model.  All but grad mu and F(phi) are read from the
    state's derived arrays (see State), which the next time step reuses."""
    return _integrals(
        state, state.grad_phi, np.asarray(state.model.potential.f(state.phi)),
        state.q, state.u, grad_arr(state.mu, state.grid, parity=1),
        state.grad_Aq, state.grad_q, state.grad_u)


@dataclass
class Trajectory:
    """The diagnostics rows of a run as columns: series maps each column
    name to its per-step values, in the CSV's column order."""

    config: SimConfig
    dt: float
    series: dict = dc_field(default_factory=dict)

    @classmethod
    def from_rows(cls, config: SimConfig, dt: float,
                  rows: list) -> "Trajectory":
        return cls(config=config, dt=dt,
                   series={key: np.array([r[key] for r in rows])
                           for key in rows[0]})

    def column(self, name: str) -> np.ndarray:
        return self.series[name]


NEAR_DEGENERATE = 1e-2


def _diag_row(state: State, dt: float) -> dict:
    """The diagnostics of a state, in column order; cfl is the Courant
    number dt * max|u| / h_min of a step dt with its velocity.  A model
    with an entropy adds the entropy and near_degenerate, the measure of
    {phi <= NEAR_DEGENERATE} | {phi >= 1 - NEAR_DEGENERATE}."""
    eb = energy(state)
    phi = state.phi
    vol = state.grid.cell_volume
    row = {
        "t": state.t,
        "E_mix": eb.E_mix, "E_bulk": eb.E_bulk, "E_kin": eb.E_kin,
        "E_total": eb.E_total,
        "D_cross": eb.D_cross, "D_q": eb.D_q, "D_eps": eb.D_eps,
        "D_visc": eb.D_visc,
        "mass": integrate(phi, state.grid),
        "min_phi": float(phi.min()),
        "max_phi": float(phi.max()),
        "div_u_norm": _div_u_norm(state),
        "cfl": dt * float(np.abs(state.u).max()) / min(state.grid.h),
    }
    entropy = state.model.entropy
    if entropy is not None:
        row["entropy"] = float(entropy.g(phi).sum() * vol)
        row["near_degenerate"] = float(
            ((phi <= NEAR_DEGENERATE) | (phi >= 1.0 - NEAR_DEGENERATE)).sum()
        ) * vol
    return row


def _div_u_norm(state: State) -> float:
    """The L2 norm of div u, the trace of the recorded grad u."""
    d = sum(gu[i] for i, gu in enumerate(state.grad_u))
    return float(np.sqrt((d * d).sum() * state.grid.cell_volume))


@dataclass(frozen=True)
class EnergyInequalityReport:
    monotone: bool
    worst_step: int
    worst_violation: float          # max over steps of E_{n+1}-E_n-tol_n
    balance_residual: float         # max_n |E_n + sum dt*D - E_0|
    fitted_constant: float          # balance_residual / dt

    def __str__(self):
        tag = "PASS" if self.monotone else "FAIL"
        return (f"[{tag}] energy inequality: worst per-step excess "
                f"{self.worst_violation:.3e} at step {self.worst_step}; "
                f"cumulative balance residual {self.balance_residual:.3e} "
                f"(first-order constant {self.fitted_constant:.3e})")


# the relative tolerance of the per-step energy monotonicity check
STEP_TOL = 1e-8


def check_energy_inequality(traj: Trajectory, M: Optional[MaterialModel] = None
                            ) -> EnergyInequalityReport:
    """Per-step monotonicity E_{n+1} <= E_n + STEP_TOL*(1+|E_n|) and the
    cumulative balance E(t) + sum dt*D against E(0); M is not read."""
    E = traj.column("E_total")
    D = (traj.column("D_cross") + traj.column("D_q")
         + traj.column("D_eps") + traj.column("D_visc"))
    dt = traj.dt
    excess = E[1:] - E[:-1] - STEP_TOL * (1.0 + np.abs(E[:-1]))
    worst = int(np.argmax(excess)) if len(excess) else 0
    worst_violation = float(excess[worst]) if len(excess) else 0.0
    cum = E + dt * np.concatenate([[0.0], np.cumsum(D[1:])]) - E[0]
    residual = float(np.abs(cum).max())
    return EnergyInequalityReport(
        monotone=bool(np.all(excess <= 0.0)) if len(excess) else True,
        worst_step=worst + 1,
        worst_violation=worst_violation,
        balance_residual=residual,
        fitted_constant=residual / dt,
    )


def relative_energy(state: State, reference: State) -> EnergyBreakdown:
    """Distance functional between a state and a smoother reference, both
    built under one model: the integrals of energy() applied to the
    differences of the two states' arrays.

    The mixing part penalizes the gradient difference, the convexity
    defect F(phi) - F(psi) - F'(psi)*(phi - psi) of F, and the
    stabilization a*(phi-psi)^2; the relative dissipation uses the cross
    difference n(phi)*(grad mu - grad pi) - grad(A(phi)*(q - Q)), where mu
    and pi are the chemical potentials the two states carry.  The
    coefficients are those of state.
    """
    if state.grid != reference.grid:
        raise GridMismatchError("state and reference grids differ")
    if state.model is not reference.model:
        raise ValueError("state and reference were built under different "
                         "models")
    grid, M, ref = state.grid, state.model, reference
    phi, psi = state.phi, ref.phi
    dq = state.q - ref.q
    convexity = (np.asarray(M.potential.f(phi))
                 - np.asarray(M.potential.f(psi)) - ref.dF * (phi - psi))
    return _integrals(
        state, state.grad_phi - ref.grad_phi,
        convexity + M.a * (phi - psi) ** 2, dq, state.u - ref.u,
        grad_arr(state.mu, grid, 1) - grad_arr(ref.mu, grid, 1),
        grad_arr(state.A * dq, grid, 1), state.grad_q - ref.grad_q,
        tuple(gu - gU for gu, gU in zip(state.grad_u, ref.grad_u)))


@dataclass(frozen=True)
class GronwallFit:
    C: float
    residual: float
    degenerate: bool = False          # E_rel(0) <= GRONWALL_ATOL: uniqueness
    max_E: float = 0.0


GRONWALL_ATOL = 1e-12     # an E_rel(0) at most this is no perturbation


def gronwall_fit(times: Sequence[float], E_rel: Sequence[float],
                 D_half: Sequence[float]) -> GronwallFit:
    """Smallest constant C with E(t_n) + D_half(t_n) <= E(0)*exp(C t_n)
    for all n; D_half is the accumulated half-dissipation integral.

    When E(0) vanishes (at most GRONWALL_ATOL) the exponent is undefined
    and the uniqueness branch reports max E instead.
    """
    t = np.asarray(times, dtype=float)
    E = np.asarray(E_rel, dtype=float)
    D = np.asarray(D_half, dtype=float)
    if E[0] <= GRONWALL_ATOL:
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
    column (see _diag_row): measure_max is NaN, entropy None."""
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
