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
     the capillary force mu*grad(phi), then a projection onto discretely
     divergence-free fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
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
from .material import (MOBILITY_KINDS, MaterialModel, _check_delta,
                       degenerate_model, regular_model)

__all__ = [
    "State", "SimConfig", "Trajectory", "make_state",
    "step_phi_q", "step_velocity",
    "run_steps", "simulate", "build_grid", "build_material", "initial_state",
    "dt_max", "step_plan", "check_model_kinds", "validate_config",
    "KEYMAP", "COURANT_MAX",
]

INIT_KINDS = ("uniform", "spinodal", "tanh-interface", "from-snapshot")

# The automatic step is at most GROWTH_FRACTION e-folding times 1/sigma of
# the fastest linear spinodal mode (see dt_max), about 330 steps per
# e-folding.  The scheme is first order: on the benchmark workloads the
# relative error of the energy drop is about 1.0-1.4 times sigma*dt.
GROWTH_FRACTION = 3e-3

# The largest Courant number dt * max|u| / h_min of a step: dt_max sizes
# the step by it from the initial velocity, and the run's max-cfl check
# (cli) fails a run whose recorded cfl column exceeds it.
COURANT_MAX = 0.25


def _dF(M: MaterialModel, s: np.ndarray) -> np.ndarray:
    """F'(s); PotentialDomainError if s leaves the potential's open
    domain (the bare logarithmic kind)."""
    P = M.potential
    if P.domain is not None:
        lo, hi = P.domain
        if np.any(s <= lo) or np.any(s >= hi):
            raise PotentialDomainError(
                f"{P.kind} potential requires phi in the open interval "
                f"({lo}, {hi}); got range [{s.min()}, {s.max()}]; use the "
                "regularized potential for degenerate runs")
    return np.asarray(P.df(s), dtype=float)


@dataclass(frozen=True)
class PhiQArrays:
    """The arrays of a state's (phi, q) that its step, the next step and
    the diagnostics read: grad phi, lap phi, F'(phi), the coefficients
    n, A, tau, eta at phi, grad q and grad(A(phi) q), all under model."""

    model: MaterialModel
    grad_phi: np.ndarray
    lap_phi: np.ndarray
    dF: np.ndarray
    n: np.ndarray
    A: np.ndarray
    tau: np.ndarray
    eta: np.ndarray
    grad_q: np.ndarray
    grad_Aq: np.ndarray


def _phi_q_arrays(phi: ScalarField, q: ScalarField, M: MaterialModel,
                 grad_phi: Optional[np.ndarray] = None,
                 lap_phi: Optional[np.ndarray] = None) -> PhiQArrays:
    """The PhiQArrays of (phi, q) under M; grad_phi and lap_phi, if given,
    are those of phi."""
    grid = phi.grid
    if grad_phi is None:
        grad_phi = grad_arr(phi.data, grid, parity=1)
        lap_phi = div_arr(grad_phi, grid, parity=-1)
    dF = _dF(M, phi.data)
    n, A, tau, eta = (np.asarray(c(phi.data), dtype=float)
                      for c in (M.n, M.A, M.tau, M.eta))
    return PhiQArrays(
        model=M, grad_phi=grad_phi, lap_phi=lap_phi, dF=dF,
        n=n, A=A, tau=tau, eta=eta,
        grad_q=grad_arr(q.data, grid, parity=1),
        grad_Aq=grad_arr(A * q.data, grid, parity=1))


def _velocity_gradients(u: VectorField) -> tuple:
    """grad u_i (odd parity) for each component i."""
    return tuple(grad_arr(ui, u.grid, parity=-1) for ui in u.data)


@dataclass(frozen=True)
class State:
    """One time slice.  mu is the chemical potential -c0*lap(phi) + F'(phi)
    of phi, made with the state's arrays.

    phi_q (see PhiQArrays) and grad_u (grad u_i for each component i)
    hold the arrays computed from the fields, so that the step, the next
    step and the diagnostics apply each stencil to a state once;
    make_state, step_phi_q and step_velocity fill both.  model, the model
    of phi_q, is the one every step and functional of the state uses.
    The fields must not be changed in place."""

    t: float
    phi: ScalarField
    q: ScalarField
    u: VectorField
    p: ScalarField
    mu: ScalarField
    phi_q: PhiQArrays = dc_field(compare=False, repr=False)
    grad_u: tuple = dc_field(compare=False, repr=False)

    @property
    def grid(self) -> Grid:
        return self.phi.grid

    @property
    def model(self) -> MaterialModel:
        return self.phi_q.model


def _with_records(t: float, phi: ScalarField, q: ScalarField,
                  u: VectorField, p: ScalarField, arrays: PhiQArrays,
                  grad_u: tuple) -> State:
    """The state of these fields with the records arrays (of phi and q)
    and grad_u (of u), and mu = -c0*lap(phi) + F'(phi) from arrays."""
    mu = ScalarField(phi.grid, -arrays.model.c0 * arrays.lap_phi + arrays.dF)
    return State(t=t, phi=phi, q=q, u=u, p=p, mu=mu, phi_q=arrays,
                 grad_u=grad_u)


def make_state(t: float, phi: ScalarField, q: ScalarField, u: VectorField,
               p: ScalarField, M: MaterialModel) -> State:
    """The state of these fields with both its records filled.  Its mu is
    the potential of phi; the step uses linear stabilization instead:
    F'(phi_old) + a*(phi - phi_old) in place of F'(phi) (see step_phi_q)."""
    return _with_records(t, phi, q, u, p, _phi_q_arrays(phi, q, M),
                         _velocity_gradients(u))


def _next_time(t: float, dt: float) -> float:
    """t + dt; a t of a whole number n of steps dt gives (n + 1) * dt, so
    that the k-th state of a run is at exactly k * dt, not at a sum that
    accumulates rounding."""
    n = round(t / dt)
    return (n + 1) * dt if t == n * dt else t + dt


# a step that makes max|phi| exceed this has blown up
PHI_BLOW_UP = 10.0


def _check_blow_up(name: str, values: np.ndarray, t: float,
                   bound: Optional[float] = None) -> None:
    """BlowUpError at t, the time of the state being made, unless values
    are finite and, given a bound, max|values| <= bound."""
    if not np.all(np.isfinite(values)) or (
            bound is not None and np.abs(values).max() > bound):
        raise BlowUpError(f"{name} blew up", time=t)


def _advect_skew(u: np.ndarray, f: np.ndarray, grad_f: np.ndarray,
                 grid: Grid, parity: int) -> np.ndarray:
    """Skew-symmetric advection 0.5*(u . grad f + div(u f)), exactly
    energy-neutral discretely; grad_f is grad(f) at parity."""
    conv = (u * grad_f).sum(axis=0)
    cons = div_arr(u * f[None], grid, parity=-parity)
    return 0.5 * (conv + cons)


def _is_const(arr: np.ndarray) -> bool:
    return float(np.ptp(arr)) <= 1e-13 * max(1.0, float(np.abs(arr).max()))


def _solver(coeff: np.ndarray, symbol: Callable, apply_op: Callable,
            grid: Grid, tol: float, parity: int = 1) -> Callable:
    """(rhs, x0) -> the x with apply_op(x) = rhs, for an operator with the
    coefficient field coeff whose symbol at a constant coefficient c is
    symbol(c, s), s the Laplacian symbol.  A constant coeff gives that
    direct solve_symbol; a variable one gives cg at tol from x0,
    preconditioned by the direct solve at the mean of coeff."""
    const = _is_const(coeff)
    cbar = float(coeff.flat[0] if const else coeff.mean())

    def direct(r):
        return solve_symbol(r, grid, lambda s: symbol(cbar, s), parity=parity)

    if const:
        return lambda rhs, x0: direct(rhs)
    return lambda rhs, x0: cg(apply_op, rhs, direct, tol=tol, x0=x0)


def step_phi_q(state: State, dt: float, solver_tol: float = 1e-11) -> State:
    """One semi-implicit update of (phi, q) with frozen u: the state at
    t + dt (see _next_time) with the new phi and q, their records, and the
    old u, p and grad u.  Constant mobility gives one direct spectral solve
    for phi.  A variable mobility and the q solve go through _solver.  The
    phi system (I + dt*L*K) phi = rhs, L = -div(m grad), K = a - c0*lap,
    is then solved as (K^-1 + dt*L) y = rhs for y = K phi: it is symmetric
    positive definite and has the same residual."""
    grid = state.grid
    phi = state.phi.data
    q = state.q.data
    u = state.u.data
    M = state.model
    c0, a = M.c0, M.a
    t_new = _next_time(state.t, dt)

    arrays = state.phi_q
    nv = arrays.n
    mv = nv * nv

    mu_expl = arrays.dF - a * phi
    cross = arrays.grad_Aq
    rhs = phi + dt * (
        -(u * arrays.grad_phi).sum(axis=0)
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

        solve_y = _solver(mv, lambda m, s: 1.0 / (a - c0 * s) - dt * m * s,
                          apply_S, grid, solver_tol)
        phi_new = K_inv(solve_y(rhs, state.mu.data - mu_expl))  # x0 = K phi_old
    _check_blow_up("phi", phi_new, t_new, bound=PHI_BLOW_UP)

    gphi_new = grad_arr(phi_new, grid, parity=1)
    lap_new = div_arr(gphi_new, grid, parity=-1)
    mu_eff = -c0 * lap_new + a * phi_new + mu_expl
    w = nv[None] * grad_arr(mu_eff, grid, parity=1) - cross

    rhs_q = q + dt * (
        -_advect_skew(u, q, arrays.grad_q, grid, parity=1)
        - arrays.A * div_arr(w, grid, parity=-1)
    )
    diag = 1.0 + dt / arrays.tau
    q_new = _solver(diag, lambda d, s: d - dt * M.eps1 * s,
                    lambda x: diag * x - dt * M.eps1 * lap_arr(x, grid),
                    grid, solver_tol)(rhs_q, q)
    _check_blow_up("q", q_new, t_new)

    phi_n, q_n = ScalarField(grid, phi_new), ScalarField(grid, q_new)
    return _with_records(t_new, phi_n, q_n, state.u, state.p,
                         _phi_q_arrays(phi_n, q_n, M, gphi_new, lap_new),
                         state.grad_u)


def step_velocity(state: State, dt: float, solver_tol: float = 1e-11) -> State:
    """Semi-implicit viscous solve followed by a divergence-free projection:
    the state with the new u, p and grad u, and the same t, phi, q and
    (phi, q) record.  The capillary force is mu*grad(phi) in both regimes:
    its work int mu u.grad(phi) is exactly the mixing power that the
    explicit phi advection by u removes, so the coupling exchanges energy
    and creates none.  Each component is solved by _solver: a direct
    odd-parity spectral solve at constant viscosity, else CG."""
    grid = state.grid
    u = state.u.data
    arrays = state.phi_q
    etav = arrays.eta

    f_cap = state.mu.data[None] * arrays.grad_phi

    advect = np.empty_like(u)          # skew-symmetric (u . grad)u
    for i, gu in enumerate(state.grad_u):
        advect[i] = _advect_skew(u, u[i], gu, grid, parity=-1)
    rhs = u + dt * (-advect + f_cap)

    def apply_visc(x):
        gx = grad_arr(x, grid, parity=-1)
        return x - dt * div_arr(etav[None] * gx, grid, parity=1)

    solve = _solver(etav, lambda e, s: 1.0 - dt * e * s, apply_visc, grid,
                    solver_tol, parity=-1)
    u_star = np.stack([solve(rhs[i], u[i]) for i in range(grid.d)])
    _check_blow_up("velocity", u_star, state.t)

    u_new, p_dt = project_divergence_free(VectorField(grid, u_star))
    return replace(state, u=u_new, p=ScalarField(grid, p_dt.data / dt),
                   grad_u=_velocity_gradients(u_new))


# ---------------------------------------------------------------------------
# configuration and orchestration

@dataclass
class SimConfig:
    shape: tuple = (64, 64)
    lengths: tuple = (1.0, 1.0)
    bc: str = "periodic"
    regime: str = "regular"
    dt: Optional[float] = None           # None (auto): see step_plan
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
    theta_c: float = 2.5
    mobility_kind: str = "auto"
    delta: float = 1e-3
    c0: float = 2.5e-3
    eps1: float = 1e-2
    a: Optional[float] = None
    eta: float = 1.0
    tau: float = 1.0
    alpha: float = 1.0                   # A = alpha * n (n = 1: regular)


def _tuple_int(s): return tuple(int(x) for x in s.replace(",", " ").split())
def _tuple_float(s): return tuple(float(x) for x in s.replace(",", " ").split())
def _opt_float(s): return None if s.lower() in ("auto", "none") else float(s)
def _opt_int(s): return None if s.lower() in ("auto", "none") else int(s)


def _bool(s):
    low = s.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


# a key's rule: a test of its value and the reason a value fails it
_POSITIVE = (lambda v: v > 0, "must be positive")
_POSITIVE_OR_AUTO = (lambda v: v is None or v > 0, "must be positive or auto")
_NON_NEGATIVE = (lambda v: v >= 0, "must be non-negative")
_INIT_KIND = (lambda v: v in INIT_KINDS, f"must be one of {INIT_KINDS}")

# dotted key -> (SimConfig attribute, parser, rule).  A key without a rule
# is checked where it is used: the grid keys by Grid, model.regime and
# model.mobility by check_model_kinds, regularization.delta by
# material._check_delta and stabilization.a by the model (a > c4/2).  The
# growth-rate bound of the step divides by c0, and the implicit viscous,
# relaxation and stress-diffusion solves need eta, tau and eps1 > 0.
KEYMAP = {
    "grid.shape": ("shape", _tuple_int, None),
    "grid.lengths": ("lengths", _tuple_float, None),
    "grid.bc": ("bc", str, None),
    "model.regime": ("regime", str, None),
    "model.theta_c": ("theta_c", float, None),
    "model.mobility": ("mobility_kind", str, None),
    "model.c0": ("c0", float, _POSITIVE),
    "model.eps1": ("eps1", float, _POSITIVE),
    "model.eta": ("eta", float, _POSITIVE),
    "model.tau": ("tau", float, _POSITIVE),
    "model.alpha": ("alpha", float, None),
    "regularization.delta": ("delta", float, None),
    "stabilization.a": ("a", _opt_float, None),
    "time.dt": ("dt", _opt_float, _POSITIVE_OR_AUTO),
    "time.dt_safety": ("dt_safety", float, _POSITIVE),
    "time.t_end": ("t_end", _opt_float, _POSITIVE_OR_AUTO),
    "time.steps": ("steps", _opt_int, _POSITIVE_OR_AUTO),
    "time.output_every": ("output_every", int, _POSITIVE),
    "init.kind": ("init_kind", str, _INIT_KIND),
    "init.mean": ("init_mean", float, None),
    "init.amplitude": ("init_amplitude", float, None),
    "init.width": ("init_width", float, None),
    "init.path": ("init_path", str, None),
    "run.seed": ("seed", int, _NON_NEGATIVE),
    "run.velocity_coupling": ("velocity_coupling", _bool, None),
    "solver.solver_tol": ("solver_tol", float, _POSITIVE),
}


def build_grid(cfg: SimConfig) -> Grid:
    return Grid(shape=tuple(cfg.shape), lengths=tuple(cfg.lengths), bc=cfg.bc)


# regime -> accepted model.mobility values
MODEL_KINDS = {"regular": ("auto",),
               "degenerate": ("auto",) + MOBILITY_KINDS}


def check_model_kinds(cfg: SimConfig) -> None:
    """ConfigError naming the key unless the regime and mobility are ones
    MODEL_KINDS lists; builds nothing."""
    if cfg.regime not in MODEL_KINDS:
        raise ConfigError(f"model.regime = {cfg.regime!r}: must be one of "
                          f"{tuple(MODEL_KINDS)}")
    allowed = MODEL_KINDS[cfg.regime]
    if cfg.mobility_kind not in allowed:
        raise ConfigError(f"model.mobility = {cfg.mobility_kind!r}: the "
                          f"{cfg.regime} regime takes one of {allowed}")


def _check_values(cfg: SimConfig) -> None:
    """ConfigError naming the key of the first bad value; builds the grid,
    which checks the grid keys, and no model."""
    build_grid(cfg)
    for key, (attr, _, rule) in KEYMAP.items():
        value = getattr(cfg, attr)
        if rule is not None and not rule[0](value):
            raise ConfigError(f"{key} = {value!r}: {rule[1]}")
    check_model_kinds(cfg)
    _check_delta(cfg.delta)


def validate_config(cfg: SimConfig) -> SimConfig:
    """cfg, or ConfigError naming the key of the first bad value.  The
    material model owns the rule a > c4/2, so a config that sets
    stabilization.a builds the model once to check it."""
    _check_values(cfg)
    if cfg.a is not None:
        build_material(cfg)
    return cfg


def build_material(cfg: SimConfig) -> MaterialModel:
    check_model_kinds(cfg)
    if cfg.regime == "regular":
        return regular_model(c0=cfg.c0, eps1=cfg.eps1, a=cfg.a,
                             eta=cfg.eta, tau=cfg.tau, A=cfg.alpha, dA=0.0)
    mobility = "s(1-s)" if cfg.mobility_kind == "auto" else cfg.mobility_kind
    return degenerate_model(delta=cfg.delta, theta_c=cfg.theta_c,
                            c0=cfg.c0, eps1=cfg.eps1, a=cfg.a,
                            mobility=mobility, alpha=cfg.alpha,
                            eta=cfg.eta, tau=cfg.tau)


def dt_max(cfg: SimConfig, grid: Grid, M: MaterialModel,
           u0: Optional[VectorField] = None) -> float:
    """The largest automatic step: the least of

    - tau_min / 2, from the relaxation of q;
    - COURANT_MAX * h_min / max|u0|, the advective bound, when u0 moves;
    - GROWTH_FRACTION / sigma, an accuracy bound, where
      sigma = growth_max / (4 c0) is the fastest linear spinodal growth
      rate, max over s and k of m(s) k^2 (-F''(s) - c0 k^2).  It does not
      depend on the grid; a convex potential (growth_max = 0) adds none.

    There is no fourth-order (h^4) bound: the phi step is implicit in the
    interface term and linearly stabilized, so stability does not limit
    it (Shen & Yang, DCDS-A 2010).  Nor is there a viscous (h^2 / eta)
    bound: the viscous term is solved by backward Euler, stable at any
    step (Guermond, Minev & Shen, CMAME 2006)."""
    h_min = min(grid.h)
    bounds = [M.tau_min / 2.0]
    if M.growth_max > 0:
        bounds.append(GROWTH_FRACTION * 4.0 * M.c0 / M.growth_max)
    if u0 is not None:
        umax = float(np.abs(u0.data).max())
        if umax > 0:
            bounds.append(COURANT_MAX * h_min / umax)
    return min(bounds)


def step_plan(cfg: SimConfig, grid: Grid, M: MaterialModel,
              u0: Optional[VectorField] = None):
    """(dt, n_steps).  The step is time.dt, or with time.dt = auto the
    bound dt_safety * dt_max.  The count is time.steps, or else t_end / dt:
    an explicit step is rounded to the nearest count, while an automatic
    one is shortened to t_end / n with n = ceil(t_end / bound), so the run
    ends on t_end and no step exceeds the bound."""
    dt = cfg.dt
    auto = dt is None
    if auto:
        dt = cfg.dt_safety * dt_max(cfg, grid, M, u0=u0)
    if dt <= 0:
        raise ConfigError("dt must be positive")
    if cfg.steps is not None:
        return dt, int(cfg.steps)
    if cfg.t_end is None:
        raise ConfigError("set either steps or t_end")
    if auto:
        # the factor keeps a t_end that is a whole number of bounds, up to
        # rounding, from taking one more step
        n = math.ceil(cfg.t_end / dt * (1.0 - 1e-12))
        return cfg.t_end / n, n
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
    """phi0, q0, u0 from the configured initial-data library.  Only a
    snapshot sets q and u; it must hold phi and, if any velocity component,
    all of them."""
    q0 = np.zeros(grid.shape)
    u0 = np.zeros((grid.d,) + grid.shape)
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
        u_names = ["u_" + "xyz"[i] for i in range(grid.d)]
        has_u = any(name in fields_map for name in u_names)
        for name in ["phi"] + (u_names if has_u else []):
            if name not in fields_map:
                raise SnapshotError(
                    f"{path}: snapshot has no {name!r} field "
                    f"(fields: {', '.join(fields_map) or 'none'})")
        phi0 = fields_map["phi"]
        q0 = fields_map.get("q", q0)
        if has_u:
            u0 = np.stack([fields_map[name] for name in u_names])
    else:
        raise ConfigError(f"init.kind = {cfg.init_kind!r}: must be one of "
                          f"{INIT_KINDS}")
    phi = ScalarField(grid, np.asarray(phi0, dtype=float))
    return phi, ScalarField(grid, q0), VectorField(grid, u0)


@dataclass
class Trajectory:
    """The diagnostics rows of a run as columns: series maps each column
    name to its per-step values, in the CSV's column order."""

    config: SimConfig
    dt: float
    series: dict = dc_field(default_factory=dict)
    model: Optional[MaterialModel] = None             # the model of the run

    @classmethod
    def from_rows(cls, config: SimConfig, dt: float, rows: list,
                  model: Optional[MaterialModel] = None) -> "Trajectory":
        return cls(config=config, dt=dt, model=model,
                   series={key: np.array([r[key] for r in rows])
                           for key in rows[0]})

    @property
    def times(self) -> np.ndarray:
        return self.series["t"]

    def column(self, name: str) -> np.ndarray:
        return self.series[name]


NEAR_DEGENERATE = 1e-2


def _diag_row(state: State, dt: float) -> dict:
    """The diagnostics of a state, in column order; cfl is the Courant
    number dt * max|u| / h_min of a step dt with its velocity.  A model
    with an entropy adds the entropy and near_degenerate, the measure of
    {phi <= NEAR_DEGENERATE} | {phi >= 1 - NEAR_DEGENERATE}."""
    from .diagnostics import energy
    eb = energy(state)
    phi = state.phi.data
    vol = state.grid.cell_volume
    row = {
        "t": state.t,
        "E_mix": eb.E_mix, "E_bulk": eb.E_bulk, "E_kin": eb.E_kin,
        "E_total": eb.E_total,
        "D_cross": eb.D_cross, "D_q": eb.D_q, "D_eps": eb.D_eps,
        "D_visc": eb.D_visc,
        "mass": integrate(state.phi),
        "min_phi": float(phi.min()),
        "max_phi": float(phi.max()),
        "div_u_norm": _div_u_norm(state),
        "cfl": dt * float(np.abs(state.u.data).max()) / min(state.grid.h),
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


def run_steps(config: SimConfig, M: MaterialModel, phi: ScalarField,
              q: ScalarField, u: VectorField):
    """(dt, n_steps, steps) of a run of config under M from (phi, q, u):
    steps yields (k, state) for k = 0 ... n_steps, the k-th state, and
    holds only the current state; _diag_row(state, dt) is its diagnostics
    row.  The initial data are checked first: they must be finite and,
    under a model with an entropy (the degenerate regime), phi in [0, 1]
    with a finite integral of F + G; step_plan then picks dt and
    n_steps."""
    for f in (phi, q, u):
        if not np.all(np.isfinite(f.data)):
            raise ConfigError("initial data must be finite")
    if M.entropy is not None:
        if phi.data.min() < 0.0 or phi.data.max() > 1.0:
            raise ConfigError("degenerate regime requires phi0 in [0,1]")
        start_res = float(np.sum(M.potential.f(phi.data)
                                 + M.entropy.g(phi.data))
                          * phi.grid.cell_volume)
        if not np.isfinite(start_res):
            raise ConfigError("integral of F(phi0) + G(phi0) must be finite")
    dt, n_steps = step_plan(config, phi.grid, M, u)

    def steps():
        state = make_state(0.0, phi, q, u, ScalarField.full(phi.grid, 0.0), M)
        yield 0, state
        for k in range(1, n_steps + 1):
            state = step_phi_q(state, dt, solver_tol=config.solver_tol)
            if config.velocity_coupling:
                state = step_velocity(state, dt, solver_tol=config.solver_tol)
            yield k, state

    return dt, n_steps, steps()


def simulate(config: SimConfig) -> Trajectory:
    """The Trajectory of run_steps from the configured initial data.
    Rejects what validate_config rejects; the model build checks
    stabilization.a."""
    _check_values(config)
    M = build_material(config)
    dt, _, steps = run_steps(config, M, *initial_state(
        config, build_grid(config), M))
    return Trajectory.from_rows(
        config, dt, [_diag_row(state, dt) for _, state in steps], M)
