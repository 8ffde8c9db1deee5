"""Time integration of the coupled order-parameter / bulk-stress /
Navier-Stokes system.

Scheme: first-order operator splitting per step.
  1. phi update, implicit in the fourth-order interface term and the
     stabilization a*(phi_new - phi_old), explicit in advection, the
     potential derivative and the stress cross term.  The effective
     chemical potential of the step and the combined cross flux
     w = n*grad(mu) - grad(A q) are reused by the q update so that the
     discrete energy exchange between the two equations collapses to
     -|w|^2, mirroring the continuous dissipation structure.
  2. q update, implicit in the relaxation q/tau and stress diffusion.
  3. velocity: semi-implicit viscous solve with skew-symmetric advection,
     capillary forcing, then a projection onto discretely divergence-free
     fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import (BlowUpError, ConfigError, PotentialDomainError,
                     SnapshotError)
from .fields import (
    Grid, ScalarField, VectorField,
    grad_arr, div_arr, lap_arr, cg, solve_symbol,
    project_divergence_free, integrate,
)
from .material import (MOBILITY_KINDS, MaterialModel, degenerate_model,
                       regular_model)

__all__ = [
    "State", "SimConfig", "Trajectory",
    "chemical_potential", "flux_phi", "step_phi_q", "step_velocity",
    "simulate", "build_grid", "build_material", "initial_state", "dt_max",
    "step_plan", "check_model_kinds",
]

DIAG_COLUMNS = (
    "t", "E_mix", "E_bulk", "E_kin", "E_total",
    "D_cross", "D_q", "D_eps", "D_visc",
    "mass", "min_phi", "max_phi", "div_u_norm",
)


def _dF(M: MaterialModel, s: np.ndarray) -> np.ndarray:
    P = M.potential
    if P.domain is not None:
        lo, hi = P.domain
        if np.any(s <= lo) or np.any(s >= hi):
            raise PotentialDomainError(
                "order parameter left the potential domain; use the "
                "regularized potential for degenerate runs"
            )
    return np.asarray(P.df(s), dtype=float)


@dataclass(frozen=True)
class State:
    """One time slice.  mu is the cached standard chemical potential
    -c0*lap(phi) + F'(phi), recomputed whenever phi changes."""

    t: float
    phi: ScalarField
    q: ScalarField
    u: VectorField
    p: ScalarField
    mu: ScalarField

    @property
    def grid(self) -> Grid:
        return self.phi.grid


def chemical_potential(phi: ScalarField, M: MaterialModel) -> ScalarField:
    """mu = -c0*lap(phi) + F'(phi), the potential of a state.  The step
    uses linear stabilization instead: F'(phi_old) + a*(phi - phi_old)
    in place of F'(phi) (see step_phi_q)."""
    return ScalarField(phi.grid, -M.c0 * lap_arr(phi.data, phi.grid)
                       + _dF(M, phi.data))


def make_state(t: float, phi: ScalarField, q: ScalarField, u: VectorField,
               p: ScalarField, M: MaterialModel) -> State:
    return State(t=t, phi=phi, q=q, u=u, p=p, mu=chemical_potential(phi, M))


def flux_phi(state: State, M: MaterialModel) -> VectorField:
    """Combined order-parameter flux m(phi)*grad(mu) - n(phi)*grad(A q)."""
    grid = state.grid
    phi = state.phi.data
    nv = np.asarray(M.n(phi), dtype=float)
    gmu = grad_arr(state.mu.data, grid, parity=1)
    gAq = grad_arr(np.asarray(M.A(phi), dtype=float) * state.q.data, grid, parity=1)
    return VectorField(grid, (nv * nv)[None] * gmu - nv[None] * gAq)


def _advect_scalar_plain(u: np.ndarray, f: np.ndarray, grid: Grid) -> np.ndarray:
    return (u * grad_arr(f, grid, parity=1)).sum(axis=0)


def _advect_scalar_skew(u: np.ndarray, f: np.ndarray, grid: Grid) -> np.ndarray:
    conv = (u * grad_arr(f, grid, parity=1)).sum(axis=0)
    cons = div_arr(u * f[None], grid, parity=-1)
    return 0.5 * (conv + cons)


def _is_const(arr: np.ndarray) -> bool:
    return float(np.ptp(arr)) <= 1e-13 * max(1.0, float(np.abs(arr).max()))


def step_phi_q(state: State, M: MaterialModel, dt: float,
               solver_tol: float = 1e-11):
    """One semi-implicit update of (phi, q) with frozen u.  Constant
    mobility and relaxation time give direct spectral solves; variable
    ones CG at solver_tol, preconditioned by that solve at the mean
    coefficient.  The phi system (I + dt*L*K) phi = rhs, L = -div(m grad),
    K = a - c0*lap, is solved as (K^-1 + dt*L) y = rhs for y = K phi: it is
    symmetric positive definite and has the same residual."""
    grid = state.grid
    phi = state.phi.data
    q = state.q.data
    u = state.u.data
    c0, a = M.c0, M.a

    nv = np.asarray(M.n(phi), dtype=float)
    mv = nv * nv
    Av = np.asarray(M.A(phi), dtype=float)
    tauv = np.asarray(M.tau(phi), dtype=float)

    mu_expl = _dF(M, phi) - a * phi
    cross = grad_arr(Av * q, grid, parity=1)           # grad(A q)
    rhs = phi + dt * (
        -_advect_scalar_plain(u, phi, grid)
        + div_arr(mv[None] * grad_arr(mu_expl, grid, parity=1), grid, parity=-1)
        - div_arr(nv[None] * cross, grid, parity=-1)
    )

    if _is_const(mv):
        mbar = float(mv.flat[0])
        phi_new = solve_symbol(rhs, grid,
                               lambda s: 1.0 + dt * mbar * (c0 * s * s - a * s))
    else:
        def K_inv(y):
            return solve_symbol(y, grid, lambda s: a - c0 * s)

        def apply_S(y):
            return K_inv(y) - dt * div_arr(mv[None] * grad_arr(y, grid, parity=1),
                                           grid, parity=-1)

        mbar = float(mv.mean())
        y = cg(apply_S, rhs,
               lambda r: solve_symbol(r, grid,
                                      lambda s: 1.0 / (a - c0 * s) - dt * mbar * s),
               tol=solver_tol, x0=state.mu.data - mu_expl)      # K phi_old
        phi_new = K_inv(y)

    if not np.all(np.isfinite(phi_new)) or np.abs(phi_new).max() > 10.0:
        raise BlowUpError("phi blew up", time=state.t + dt)

    mu_eff = -c0 * lap_arr(phi_new, grid) + a * phi_new + mu_expl
    w = nv[None] * grad_arr(mu_eff, grid, parity=1) - cross

    rhs_q = q + dt * (
        -_advect_scalar_skew(u, q, grid)
        - Av * div_arr(w, grid, parity=-1)
    )
    diag = 1.0 + dt / tauv
    const_tau = _is_const(tauv)
    dbar = float(diag.flat[0] if const_tau else diag.mean())

    def q_inv(x):
        return solve_symbol(x, grid, lambda s: dbar - dt * M.eps1 * s)

    q_new = q_inv(rhs_q) if const_tau else cg(
        lambda x: diag * x - dt * M.eps1 * lap_arr(x, grid), rhs_q, q_inv,
        tol=solver_tol, x0=q)

    if not np.all(np.isfinite(q_new)):
        raise BlowUpError("q blew up", time=state.t + dt)

    return ScalarField(grid, phi_new), ScalarField(grid, q_new)


def _advect_velocity(u: np.ndarray, grid: Grid) -> np.ndarray:
    """Skew-symmetric (u . grad)u: exactly energy-neutral discretely."""
    out = np.empty_like(u)
    for i in range(grid.d):
        conv = (u * grad_arr(u[i], grid, parity=-1)).sum(axis=0)
        cons = div_arr(u * u[i][None], grid, parity=1)
        out[i] = 0.5 * (conv + cons)
    return out


def step_velocity(state: State, M: MaterialModel, dt: float,
                  solver_tol: float = 1e-11):
    """Semi-implicit viscous solve followed by a divergence-free projection.
    Capillary force mu*grad(phi) (regular regime) or c0*lap(phi)*grad(phi)
    (degenerate).  Constant viscosity gives a direct odd-parity spectral
    solve per component; variable viscosity CG at solver_tol,
    preconditioned by that solve at the mean viscosity."""
    grid = state.grid
    phi = state.phi.data
    u = state.u.data
    etav = np.asarray(M.eta(phi), dtype=float)

    gphi = grad_arr(phi, grid, parity=1)
    if M.regime == "regular":
        f_cap = state.mu.data[None] * gphi
    else:
        f_cap = (M.c0 * lap_arr(phi, grid))[None] * gphi

    rhs = u + dt * (-_advect_velocity(u, grid) + f_cap)

    u_star = np.empty_like(u)
    const_eta = _is_const(etav)
    ebar = float(etav.flat[0] if const_eta else etav.mean())

    def visc_inv(x):
        return solve_symbol(x, grid, lambda s: 1.0 - dt * ebar * s, parity=-1)

    def apply_visc(x):
        gx = grad_arr(x, grid, parity=-1)
        return x - dt * div_arr(etav[None] * gx, grid, parity=1)

    for i in range(grid.d):
        u_star[i] = visc_inv(rhs[i]) if const_eta else cg(
            apply_visc, rhs[i], visc_inv, tol=solver_tol, x0=u[i])

    if not np.all(np.isfinite(u_star)):
        raise BlowUpError("velocity blew up", time=state.t + dt)

    u_new, p_dt = project_divergence_free(VectorField(grid, u_star))
    p = ScalarField(grid, p_dt.data / dt)
    return u_new, p


# ---------------------------------------------------------------------------
# configuration and orchestration

@dataclass
class SimConfig:
    shape: tuple = (64, 64)
    lengths: tuple = (1.0, 1.0)
    bc: str = "periodic"
    regime: str = "regular"
    dt: Optional[float] = None           # None: dt_max heuristic
    dt_safety: float = 1.0
    t_end: Optional[float] = None
    steps: Optional[int] = None
    output_every: int = 50
    seed: int = 0
    velocity_coupling: bool = True
    solver_tol: float = 1e-11
    # initial data
    init_kind: str = "spinodal"          # uniform | spinodal | tanh-interface | from-snapshot
    init_mean: float = 0.0
    init_amplitude: float = 0.01
    init_width: float = 0.05
    init_path: str = ""
    # material
    potential_kind: str = "auto"
    theta_c: float = 2.5
    mobility_kind: str = "auto"
    delta: float = 1e-3
    c0: float = 2.5e-3
    eps1: float = 1e-2
    a: Optional[float] = None
    eta: float = 1.0
    tau: float = 1.0
    A_const: float = 1.0
    alpha: float = 1.0


def build_grid(cfg: SimConfig) -> Grid:
    return Grid(shape=tuple(cfg.shape), lengths=tuple(cfg.lengths), bc=cfg.bc)


# regime -> accepted (model.potential, model.mobility) values
MODEL_KINDS = {"regular": (("auto", "double-well"), ("auto",)),
               "degenerate": (("auto", "flory-huggins"),
                              ("auto",) + MOBILITY_KINDS)}


def check_model_kinds(cfg: SimConfig) -> None:
    """ConfigError naming the key unless the regime, potential and
    mobility are ones MODEL_KINDS lists; builds nothing."""
    if cfg.regime not in MODEL_KINDS:
        raise ConfigError(f"unknown regime {cfg.regime!r}")
    for key, value, allowed in zip(("model.potential", "model.mobility"),
                                   (cfg.potential_kind, cfg.mobility_kind),
                                   MODEL_KINDS[cfg.regime]):
        if value not in allowed:
            raise ConfigError(f"{key} = {value!r}: the {cfg.regime} regime "
                              f"takes one of {allowed}")


def build_material(cfg: SimConfig) -> MaterialModel:
    check_model_kinds(cfg)
    if cfg.regime == "regular":
        return regular_model(c0=cfg.c0, eps1=cfg.eps1, a=cfg.a,
                             eta=cfg.eta, tau=cfg.tau, A=cfg.A_const, dA=0.0)
    mobility = "s(1-s)" if cfg.mobility_kind == "auto" else cfg.mobility_kind
    return degenerate_model(delta=cfg.delta, theta_c=cfg.theta_c,
                            c0=cfg.c0, eps1=cfg.eps1, a=cfg.a,
                            mobility=mobility, alpha=cfg.alpha,
                            eta=cfg.eta, tau=cfg.tau)


def dt_max(cfg: SimConfig, grid: Grid, M: MaterialModel,
           u0: Optional[VectorField] = None) -> float:
    h_min = min(grid.h)
    bounds = [
        h_min**2 / (8.0 * M.eta_max),
        M.tau_min / 2.0,
        h_min**4 / (16.0 * M.c0 * M.m_max),
    ]
    if u0 is not None:
        umax = float(np.abs(u0.data).max())
        if umax > 0:
            bounds.append(h_min / (4.0 * umax))
    return min(bounds)


def step_plan(cfg: SimConfig, grid: Grid, M: MaterialModel,
              u0: Optional[VectorField] = None):
    """(dt, n_steps): time.dt or dt_safety*dt_max; steps or t_end / dt."""
    dt = cfg.dt
    if dt is None:
        dt = cfg.dt_safety * dt_max(cfg, grid, M, u0=u0)
    if dt <= 0:
        raise ConfigError("dt must be positive")
    if cfg.steps is not None:
        return dt, int(cfg.steps)
    if cfg.t_end is None:
        raise ConfigError("set either steps or t_end")
    if cfg.t_end < dt:
        raise ConfigError("t_end must be at least dt")
    return dt, int(round(cfg.t_end / dt))


def _spinodal_noise(grid: Grid, mean: float, amplitude: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    white = rng.standard_normal(grid.shape)
    mode = "wrap" if grid.bc == "periodic" else "reflect"
    smooth = gaussian_filter(white, sigma=2.0, mode=mode)
    smooth -= smooth.mean()
    peak = np.abs(smooth).max()
    if peak > 0:
        smooth /= peak
    return mean + amplitude * smooth


def initial_state(cfg: SimConfig, grid: Grid, M: MaterialModel):
    """phi0, q0, u0 from the configured initial-data library."""
    if cfg.init_kind == "uniform":
        phi0 = np.full(grid.shape, float(cfg.init_mean))
    elif cfg.init_kind == "spinodal":
        phi0 = _spinodal_noise(grid, cfg.init_mean, cfg.init_amplitude, cfg.seed)
    elif cfg.init_kind == "tanh-interface":
        x = grid.meshgrid()[0]
        L = grid.lengths[0]
        phi0 = cfg.init_mean + cfg.init_amplitude * np.tanh(
            (x - 0.5 * L) / cfg.init_width)
    elif cfg.init_kind == "from-snapshot":
        from .snapshots import read_snapshot
        path = cfg.init_path
        snap_grid, fields_map = read_snapshot(path)
        if (snap_grid.shape, snap_grid.lengths) != (grid.shape, grid.lengths):
            raise ConfigError(
                f"{path}: snapshot grid {snap_grid.shape} with lengths "
                f"{snap_grid.lengths} does not match the configured grid "
                f"{grid.shape} with lengths {grid.lengths}")
        if "phi" not in fields_map:
            raise SnapshotError(f"{path}: snapshot has no 'phi' field "
                                f"(fields: {', '.join(fields_map) or 'none'})")
        phi0 = fields_map["phi"]
    else:
        raise ConfigError(f"unknown init kind {cfg.init_kind!r}")
    phi = ScalarField(grid, np.asarray(phi0, dtype=float))
    q = ScalarField.full(grid, 0.0)
    u = VectorField.zeros(grid)
    return phi, q, u


@dataclass
class Trajectory:
    config: SimConfig
    dt: float
    states: list = dc_field(default_factory=list)     # snapshots at cadence
    series: dict = dc_field(default_factory=dict)     # per-step diagnostics

    @property
    def times(self) -> np.ndarray:
        return self.series["t"]

    def column(self, name: str) -> np.ndarray:
        return self.series[name]

    def write_csv(self, path):
        cols = [c for c in DIAG_COLUMNS if c in self.series]
        cols += [c for c in self.series if c not in cols]
        header = ",".join(cols)
        data = np.column_stack([self.series[c] for c in cols])
        np.savetxt(path, data, delimiter=",", header=header, comments="",
                   fmt="%.17g")


def _diag_row(state: State, M: MaterialModel, extra_entropy: bool) -> dict:
    from .diagnostics import energy
    eb = energy(state, M)
    row = {
        "t": state.t,
        "E_mix": eb.E_mix, "E_bulk": eb.E_bulk, "E_kin": eb.E_kin,
        "E_total": eb.E_total,
        "D_cross": eb.D_cross, "D_q": eb.D_q, "D_eps": eb.D_eps,
        "D_visc": eb.D_visc,
        "mass": integrate(state.phi),
        "min_phi": float(state.phi.data.min()),
        "max_phi": float(state.phi.data.max()),
        "div_u_norm": _div_u_norm(state),
    }
    if extra_entropy:
        row["entropy"] = float(
            M.entropy.g(state.phi.data).sum() * state.grid.cell_volume)
    return row


def _div_u_norm(state: State) -> float:
    d = div_arr(state.u.data, state.grid, parity=-1)
    return float(np.sqrt((d * d).sum() * state.grid.cell_volume))


def simulate(config: SimConfig,
             phi0: Optional[ScalarField] = None,
             q0: Optional[ScalarField] = None,
             u0: Optional[VectorField] = None) -> Trajectory:
    """Advance the full system to t_end, recording diagnostics each step
    and snapshots at the output cadence."""
    grid = build_grid(config)
    M = build_material(config)
    d_phi, d_q, d_u = initial_state(config, grid, M)
    phi = phi0 if phi0 is not None else d_phi
    q = q0 if q0 is not None else d_q
    u = u0 if u0 is not None else d_u
    for f in (phi, q):
        if not np.all(np.isfinite(f.data)):
            raise ConfigError("initial data must be finite")
    if not np.all(np.isfinite(u.data)):
        raise ConfigError("initial data must be finite")

    if config.regime == "degenerate":
        if phi.data.min() < 0.0 or phi.data.max() > 1.0:
            raise ConfigError("degenerate regime requires phi0 in [0,1]")
        start_res = float(np.sum(M.potential.f(phi.data)
                                 + M.entropy.g(phi.data)) * grid.cell_volume)
        if not np.isfinite(start_res):
            raise ConfigError("integral of F(phi0) + G(phi0) must be finite")

    dt, n_steps = step_plan(config, grid, M, u)
    track_entropy = config.regime == "degenerate" and M.entropy is not None

    state = make_state(0.0, phi, q, u,
                       ScalarField.full(grid, 0.0), M)
    rows = [_diag_row(state, M, track_entropy)]
    traj = Trajectory(config=config, dt=dt, states=[state])

    for k in range(n_steps):
        t_new = (k + 1) * dt
        try:
            phi_n, q_n = step_phi_q(state, M, dt, solver_tol=config.solver_tol)
            mid = make_state(t_new, phi_n, q_n, state.u, state.p, M)
            if config.velocity_coupling:
                u_n, p_n = step_velocity(mid, M, dt, solver_tol=config.solver_tol)
                state = State(t=t_new, phi=phi_n, q=q_n, u=u_n, p=p_n,
                              mu=mid.mu)
            else:
                state = mid
        except BlowUpError as err:
            err.time = t_new
            raise
        rows.append(_diag_row(state, M, track_entropy))
        if (k + 1) % config.output_every == 0 or k + 1 == n_steps:
            traj.states.append(state)

    keys = rows[0].keys()
    traj.series = {key: np.array([r[key] for r in rows]) for key in keys}
    return traj
