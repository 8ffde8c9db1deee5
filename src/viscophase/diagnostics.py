"""Energy, dissipation, relative-energy and phase-bound functionals
evaluated on states and trajectories, the diagnostics row of a state and
the Trajectory of a run's rows, the check records of every command with
their thresholds, and pass/fail report rendering.  State and SimConfig in
annotations are dynamics', which imports this module."""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from typing import Optional, Sequence

import numpy as np

from .errors import GridMismatchError
from .fields import grad_arr, integrate
from .material import MaterialModel

__all__ = [
    "Trajectory", "EnergyBreakdown", "EnergyInequalityReport",
    "GronwallFit", "BoundsReport", "CheckRecord",
    "energy", "check_energy_inequality", "relative_energy", "gronwall_fit",
    "bounds_report", "write_report", "run_records", "weakstrong_records",
    "galerkin_records", "sweep_records",
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
               grad_u: np.ndarray) -> EnergyBreakdown:
    """The energy and dissipation integrals by the midpoint rule on the
    cells of state's grid: E_mix of grad_phi with the potential density
    bulk, E_bulk of q, E_kin of u, D_cross of w = n*grad_mu - grad_Aq, D_q
    of q, D_eps of grad_q and D_visc of grad_u (the layout of State).  c0,
    eps1 and the coefficients n, tau and eta are those of state."""
    vol = state.grid.cell_volume
    M = state.model
    E_mix = float((0.5 * M.c0 * np.vdot(grad_phi, grad_phi) + bulk.sum())
                  * vol)
    E_bulk = float(0.5 * np.vdot(q, q) * vol)
    E_kin = float(0.5 * np.vdot(u, u) * vol)

    w = state.n[None] * grad_mu - grad_Aq
    D_cross = float(np.vdot(w, w) * vol)
    D_q = float(np.vdot(q, q / state.tau) * vol)
    D_eps = float(M.eps1 * np.vdot(grad_q, grad_q) * vol)
    D_visc = float(np.vdot(grad_u, state.eta * grad_u) * vol)

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
    name to its per-step values, in the CSV's column order, time in t.
    config and dt are unread, kept for benchmarks/workloads.py."""

    series: dict
    config: Optional[SimConfig] = None
    dt: Optional[float] = None

    @classmethod
    def from_rows(cls, rows: list) -> "Trajectory":
        return cls(series={key: np.array([r[key] for r in rows])
                           for key in rows[0]})

    def column(self, name: str) -> np.ndarray:
        return self.series[name]


NEAR_DEGENERATE = 1e-2

# the largest Courant number of a step (the cfl column): dynamics.dt_max
# sizes the step by it, and run_records' max-cfl fails a run above it
COURANT_MAX = 0.25


def _diag_row(state: State) -> dict:
    """The diagnostics of a state, in column order; cfl is the Courant
    number dt * max|u| / h_min of the state's step dt and velocity.  A model
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
        "cfl": state.dt * float(np.abs(state.u).max()) / min(state.grid.h),
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
    d = np.trace(state.grad_u)
    return float(np.sqrt(np.vdot(d, d) * state.grid.cell_volume))


@dataclass(frozen=True)
class EnergyInequalityReport:
    monotone: bool
    worst_step: int
    worst_violation: float          # max over steps of E_{n+1}-E_n-tol_n
    balance_residual: float         # max_n |E_n + sum (t_k-t_{k-1})*D_k - E_0|

    def __str__(self):
        tag = "PASS" if self.monotone else "FAIL"
        return (f"[{tag}] energy inequality: worst per-step excess "
                f"{self.worst_violation:.3e} at step {self.worst_step}; "
                f"cumulative balance residual {self.balance_residual:.3e}")


# the relative tolerance of the per-step energy monotonicity check
STEP_TOL = 1e-8


def check_energy_inequality(traj: Trajectory, M: Optional[MaterialModel] = None
                            ) -> EnergyInequalityReport:
    """Per-step monotonicity E_{n+1} <= E_n + STEP_TOL*(1+|E_n|) and the
    cumulative balance E(t) + sum (t_k - t_{k-1})*D_k against E(0); M is
    not read (benchmarks/workloads.py passes it)."""
    E = traj.column("E_total")
    D = (traj.column("D_cross") + traj.column("D_q")
         + traj.column("D_eps") + traj.column("D_visc"))
    excess = E[1:] - E[:-1] - STEP_TOL * (1.0 + np.abs(E[:-1]))
    worst = int(np.argmax(excess)) if len(excess) else 0
    worst_violation = float(excess[worst]) if len(excess) else 0.0
    dissipated = np.cumsum(np.diff(traj.column("t")) * D[1:])
    cum = E + np.concatenate([[0.0], dissipated]) - E[0]
    return EnergyInequalityReport(
        monotone=bool(np.all(excess <= 0.0)) if len(excess) else True,
        worst_step=worst + 1,
        worst_violation=worst_violation,
        balance_residual=float(np.abs(cum).max()),
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
        grad_arr(state.mu - ref.mu, grid, 1),
        grad_arr(state.A * dq, grid, 1), state.grad_q - ref.grad_q,
        state.grad_u - ref.grad_u)


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

    @property
    def entropy_finite(self) -> bool:
        """The run has an entropy series, and all of it is finite."""
        return (self.entropy_series is not None
                and bool(np.all(np.isfinite(self.entropy_series))))

    def __str__(self):
        ent = "entropy finite" if self.entropy_finite else "no entropy"
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


# ---------------------------------------------------------------------------
# each command's check records; each threshold is named beside its function

def _at_most(name: str, value, threshold: float) -> CheckRecord:
    """The check value <= threshold; a NaN value fails."""
    value = float(value)
    return CheckRecord(name, value, threshold, value <= threshold)


def _informational(name: str, value) -> CheckRecord:
    """A record with no failing input: it passes at any value, NaN too."""
    return CheckRecord(name, float(value), float("inf"), True)


HOLDS = 1.0   # a yes/no record's threshold, and its value when it holds


def _holds(name: str, ok: bool) -> CheckRecord:
    """A yes/no record, passed when ok."""
    return CheckRecord(name, HOLDS if ok else 0.0, HOLDS, bool(ok))


ENERGY_EXCESS_MAX = 0.0       # energy-monotone: the worst per-step excess
MASS_DRIFT_MAX = 1e-10        # mass-drift: max_n |mass_n - mass_0|


def run_records(traj: Trajectory) -> list[CheckRecord]:
    """The records of ``run`` and ``report``; max-cfl if cfl is recorded."""
    report = check_energy_inequality(traj)
    mass = traj.column("mass")
    records = [
        _at_most("energy-monotone", report.worst_violation, ENERGY_EXCESS_MAX),
        _informational("balance-residual", report.balance_residual),
        _at_most("mass-drift", np.abs(mass - mass[0]).max(), MASS_DRIFT_MAX)]
    if "cfl" in traj.series:
        records.append(_at_most("max-cfl", np.max(traj.column("cfl")),
                                COURANT_MAX))
    return records


UNIQUENESS_MAX = 1e-10        # uniqueness-max-Erel: max_t E_rel at eps = 0
GRONWALL_RESIDUAL_MAX = 0.05  # gronwall-residual-eps...: the fit's residual
EREL_SCALING_MAX = 0.25       # Erel-scaling-e1/e2: |ratio/(e1/e2)^2 - 1|


def weakstrong_records(eps: Sequence[float], samples) -> list[CheckRecord]:
    """The records of ``weakstrong``; samples holds the (t, E_rel, D_rel)
    rows of each eps.  Consecutive positive eps e1 > e2 gate E_rel ~ eps^2
    by the ratio of their final E_rel to (e1/e2)^2."""
    records, final = [], {}
    for e, sample in zip(eps, samples):
        t, E, D = np.array(sample).T
        final[e] = E[-1]
        if e == 0.0:
            records.append(_at_most("uniqueness-max-Erel", E.max(),
                                    UNIQUENESS_MAX))
            continue
        # half the trapezoid-rule integral of D_rel
        D_half = np.cumsum(0.25 * np.diff(t) * (D[1:] + D[:-1]))
        fit = gronwall_fit(t, E, np.concatenate([[0.0], D_half]))
        records.append(_at_most(f"gronwall-residual-eps{e:g}", fit.residual,
                                GRONWALL_RESIDUAL_MAX))
    positive = sorted((e for e in eps if e > 0), reverse=True)
    for e1, e2 in zip(positive, positive[1:]):
        ratio = final[e1] / max(final[e2], 1e-300) / (e1 / e2) ** 2
        records.append(_at_most(f"Erel-scaling-{e1:g}/{e2:g}",
                                abs(ratio - 1.0), EREL_SCALING_MAX))
    return records


GALERKIN_SLACK_MAX = 0.0      # energy-inequality-m...: the run's slack
GALERKIN_ENERGY_RTOL = 1e-6   # the slack's tolerance, relative to E(0)


def galerkin_records(study: dict) -> list[CheckRecord]:
    """The records of ``galerkin`` on its convergence_study: each run's
    slack max_t E(t) + D_cum(t) - E(0) * (1 + GALERKIN_ENERGY_RTOL)."""
    return [_at_most(f"energy-inequality-m{m}",
                     (run.E + run.D_cum
                      - run.E[0] * (1.0 + GALERKIN_ENERGY_RTOL)).max(),
                     GALERKIN_SLACK_MAX)
            for m, run in zip(study["m"], study["runs"])]


OVERSHOOT_MAX = 1e-6          # overshoot-final: the smallest delta's run
OVERSHOOT_TOL = 1e-12         # overshoot-monotone: growth to the next delta


def sweep_records(deltas: Sequence[float],
                  bounds: Sequence[BoundsReport]) -> list[CheckRecord]:
    """The records of ``degenerate-sweep``, deltas strictly decreasing."""
    records = [_holds(f"entropy-finite-delta{d:g}", b.entropy_finite)
               for d, b in zip(deltas, bounds)]
    over = [b.overshoot for b in bounds]
    monotone = all(b <= a + OVERSHOOT_TOL for a, b in zip(over, over[1:]))
    return records + [_at_most("overshoot-final", over[-1], OVERSHOOT_MAX),
                      _holds("overshoot-monotone", monotone)]
