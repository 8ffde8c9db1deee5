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

import functools
import math
from dataclasses import (dataclass, field as dc_field, fields as dc_fields,
                         replace)
from typing import Callable, Optional

import numpy as np

from .diagnostics import COURANT_MAX, Trajectory, _diag_row
from .errors import BlowUpError, ConfigError, PotentialDomainError
from .fields import (
    Grid, grad_arr, div_arr, cg, lap_symbol, solve_symbol,
    project_divergence_free,
)
from .material import (MOBILITY_KINDS, MaterialModel, _check_delta,
                       degenerate_model, regular_model)
from .snapshots import read_state

__all__ = [
    "State", "SimConfig", "Trajectory", "make_state",
    "step_phi_q", "step_velocity",
    "run_steps", "simulate", "build_grid", "build_material", "initial_state",
    "dt_max", "step_plan", "check_model_kinds", "check_rule",
    "check_run_length", "validate_config",
    "KEYMAP", "COURANT_MAX",
]

INIT_KINDS = ("uniform", "spinodal", "tanh-interface", "from-snapshot")

# The automatic step is at most GROWTH_FRACTION e-folding times 1/sigma of
# the fastest linear spinodal mode (see dt_max), about 330 steps per
# e-folding.  The scheme is first order: on the benchmark workloads the
# relative error of the energy drop is about 1.0-1.4 times sigma*dt.
GROWTH_FRACTION = 3e-3


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


def _phi_q_arrays(phi: np.ndarray, q: np.ndarray, M: MaterialModel,
                  grid: Grid, grad_phi: np.ndarray, lap_phi: np.ndarray):
    """The State fields of (phi, q) under M on grid as keywords, mu
    = -c0*lap(phi) + F'(phi) included; grad_phi and lap_phi are those of
    phi.  A constant bulk modulus (0-d A) gives grad(A q) = A grad(q)
    without a stencil of its own."""
    dF = _dF(M, phi)
    n, A, tau, eta = (np.asarray(c(phi), dtype=float)
                      for c in (M.n, M.A, M.tau, M.eta))
    grad_q = grad_arr(q, grid, parity=1)
    return dict(phi=phi, q=q, mu=-M.c0 * lap_phi + dF,
                grad_phi=grad_phi, dF=dF,
                n=n, A=A, tau=tau, eta=eta, grad_q=grad_q,
                grad_Aq=(A * grad_q if A.ndim == 0
                         else grad_arr(A * q, grid, parity=1)))


def _velocity_gradients(u: np.ndarray, grid: Grid) -> tuple:
    """grad u_i (odd parity) for each component i."""
    return tuple(grad_arr(ui, grid, parity=-1) for ui in u)


@dataclass(frozen=True)
class State:
    """One time slice: plain arrays on one grid, under the model that every
    step and functional of the state uses.  u has shape (d,) + grid.shape,
    the others grid.shape, except that a constant coefficient (n, A, tau
    or eta) is a 0-d array; mu is -c0*lap(phi) + F'(phi).  The arrays after
    mu (grad_u: grad u_i per component) are derived from the fields once,
    by make_state, step_phi_q and step_velocity, for the step, the next
    step and the diagnostics to share.  No array is changed in place.  dt
    is the step that made the state, or at a run's start its first step."""

    t: float
    dt: float
    grid: Grid
    model: MaterialModel
    phi: np.ndarray
    q: np.ndarray
    u: np.ndarray
    p: np.ndarray
    mu: np.ndarray
    grad_phi: np.ndarray
    dF: np.ndarray
    n: np.ndarray
    A: np.ndarray
    tau: np.ndarray
    eta: np.ndarray
    grad_q: np.ndarray
    grad_Aq: np.ndarray
    grad_u: tuple


def make_state(t: float, phi: np.ndarray, q: np.ndarray, u: np.ndarray,
               p: np.ndarray, M: MaterialModel, grid: Grid,
               dt: float = 0.0) -> State:
    """The state of these arrays on grid under M, with its derived arrays
    filled.  Its mu is the potential of phi; the step uses linear
    stabilization instead: F'(phi_old) + a*(phi - phi_old) in place of
    F'(phi) (see step_phi_q)."""
    gphi = grad_arr(phi, grid, parity=1)
    return State(t=t, dt=dt, grid=grid, model=M, u=u, p=p,
                 grad_u=_velocity_gradients(u, grid),
                 **_phi_q_arrays(phi, q, M, grid, gphi,
                                 div_arr(gphi, grid, parity=-1)))


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
    """True for a 0-d coefficient, without a scan, and for an array whose
    spread is within rounding of its magnitude."""
    return arr.ndim == 0 or (
        float(np.ptp(arr)) <= 1e-13 * max(1.0, float(np.abs(arr).max())))


def _solver(coeff: np.ndarray, symbol: Callable, remainder: Callable,
            grid: Grid, tol: float, parity: int = 1) -> Callable:
    """(rhs, x0) -> the x with S x = rhs, where S is an SPD operator with
    the coefficient field coeff, stated by two parts: symbol(c, s), its
    symbol at a constant coefficient c (s the Laplacian symbol of
    parity), and remainder(dc, x), what S adds to that constant-
    coefficient operator at c = mean(coeff), dc = coeff - c.  A constant
    coeff gives the direct solve_symbol at c.  A variable one gives cg at
    tol from x0 on S = P^-1 + R: P^-1 is the spectral operator at the
    mean, whose inverse preconditions, and R = remainder(dc, .).  The
    symbol and its reciprocal (S is SPD, so no mode vanishes) are
    evaluated once here, not per solve or iteration."""
    const = _is_const(coeff)
    cbar = float(coeff.flat[0] if const else coeff.mean())
    sym = symbol(cbar, lap_symbol(grid, parity))
    inv = 1.0 / sym

    def precond(r):
        return solve_symbol(r, grid, inv, parity=parity, inverse=False)

    if const:
        return lambda rhs, x0: precond(rhs)
    dc = coeff - cbar

    def base(x):
        return solve_symbol(x, grid, sym, parity=parity, inverse=False)

    return lambda rhs, x0: cg(lambda x: remainder(dc, x), rhs, precond,
                              tol=tol, x0=x0, base=base)


def step_phi_q(state: State, dt: float, solver_tol: float = 1e-11) -> State:
    """One semi-implicit update of (phi, q) with frozen u: the state at
    t + dt (see _next_time) with the new phi and q, their derived arrays,
    and the old u, p and grad u.  Constant mobility gives one direct
    spectral solve for phi.  A variable mobility and the q solve go
    through _solver.  The phi system (I + dt*L*K) phi = rhs,
    L = -div(m grad), K = a - c0*lap, is then solved as S y = rhs for
    y = K phi, S = K^-1 + dt*L: it is symmetric positive definite and has
    the same residual.  Its spectral part at the mean mobility m_bar is
    K^-1 - dt*m_bar*lap, and its remainder -dt*div((m - m_bar) grad) is
    the one stencil pair of an iteration; K^-1 is applied once more, to
    y, for phi."""
    grid, phi, q, u = state.grid, state.phi, state.q, state.u
    M = state.model
    c0, a = M.c0, M.a
    t_new = _next_time(state.t, dt)

    nv = state.n
    mv = nv * nv

    mu_expl = state.dF - a * phi
    rhs = phi + dt * (
        -(u * state.grad_phi).sum(axis=0)
        + div_arr(mv[None] * grad_arr(mu_expl, grid, parity=1), grid, parity=-1)
        - div_arr(nv[None] * state.grad_Aq, grid, parity=-1)
    )

    s = lap_symbol(grid)
    if _is_const(mv):
        mbar = float(mv.flat[0])
        phi_new = solve_symbol(rhs, grid,
                               1.0 + dt * mbar * (c0 * s * s - a * s))
    else:
        solve_y = _solver(
            mv, lambda m, s: 1.0 / (a - c0 * s) - dt * m * s,
            lambda dm, y: -dt * div_arr(dm[None] * grad_arr(y, grid, parity=1),
                                        grid, parity=-1),
            grid, solver_tol)
        y = solve_y(rhs, state.mu - mu_expl)        # x0 = K phi_old
        phi_new = solve_symbol(y, grid, a - c0 * s)
    _check_blow_up("phi", phi_new, t_new, bound=PHI_BLOW_UP)

    gphi_new = grad_arr(phi_new, grid, parity=1)
    lap_new = div_arr(gphi_new, grid, parity=-1)
    mu_eff = -c0 * lap_new + a * phi_new + mu_expl
    w = nv[None] * grad_arr(mu_eff, grid, parity=1) - state.grad_Aq

    rhs_q = q + dt * (
        -_advect_skew(u, q, state.grad_q, grid, parity=1)
        - state.A * div_arr(w, grid, parity=-1)
    )
    diag = 1.0 + dt / state.tau
    q_new = _solver(diag, lambda d, s: d - dt * M.eps1 * s,
                    lambda dd, x: dd * x, grid, solver_tol)(rhs_q, q)
    _check_blow_up("q", q_new, t_new)

    return replace(state, t=t_new, dt=dt, **_phi_q_arrays(
        phi_new, q_new, M, grid, gphi_new, lap_new))


def step_velocity(state: State, dt: float, solver_tol: float = 1e-11) -> State:
    """Semi-implicit viscous solve followed by a divergence-free projection:
    the state with the new u, p and grad u, and the rest unchanged.  The
    capillary force is mu*grad(phi) in both regimes: its work
    int mu u.grad(phi) is exactly the mixing power that the explicit phi
    advection by u removes, so the coupling exchanges energy and creates
    none.  Each component is solved by _solver: a direct odd-parity
    spectral solve at constant viscosity, else CG."""
    grid, u = state.grid, state.u

    f_cap = state.mu[None] * state.grad_phi

    advect = np.empty_like(u)          # skew-symmetric (u . grad)u
    for i, gu in enumerate(state.grad_u):
        advect[i] = _advect_skew(u, u[i], gu, grid, parity=-1)
    rhs = u + dt * (-advect + f_cap)

    solve = _solver(
        state.eta, lambda e, s: 1.0 - dt * e * s,
        lambda de, x: -dt * div_arr(de[None] * grad_arr(x, grid, parity=-1),
                                    grid, parity=1),
        grid, solver_tol, parity=-1)
    u_star = np.stack([solve(rhs[i], u[i]) for i in range(grid.d)])
    _check_blow_up("velocity", u_star, state.t)

    u_new, p_dt = project_divergence_free(u_star, grid)
    return replace(state, u=u_new, p=p_dt / dt,
                   grad_u=_velocity_gradients(u_new, grid))


# ---------------------------------------------------------------------------
# configuration and orchestration

def _tuple_int(s): return tuple(int(x) for x in s.replace(",", " ").split())
def _tuple_float(s): return tuple(float(x) for x in s.replace(",", " ").split())


def _bool(s):
    low = s.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


# a key's rule: a test of its value and the reason a value fails it
_POSITIVE = (lambda v: 0 < v < math.inf, "must be positive and finite")
_FINITE = (math.isfinite, "must be finite")
_NON_NEGATIVE = (lambda v: v >= 0, "must be non-negative")
_INIT_KIND = (lambda v: v in INIT_KINDS, f"must be one of {INIT_KINDS}")


def _key(key: str, default, parse: Callable, rule=None):
    """A SimConfig field: its default, dotted config key, the parser of
    the key's text and its rule (None: checked where it is used)."""
    return dc_field(default=default,
                    metadata={"key": key, "parse": parse, "rule": rule})


def _auto_key(key: str, parse: Callable, rule):
    """A _key whose default is auto (None): the text auto or none parses
    to None, any other by parse, and None passes the rule."""
    test, reason = rule
    return _key(key, None,
                lambda s: None if s.lower() in ("auto", "none") else parse(s),
                (lambda v: v is None or test(v), reason + ", or auto"))


@dataclass
class SimConfig:
    """A run's configuration, one field per config key.  A key without a
    rule is checked where it is used: the grid keys by Grid, model.regime
    and model.mobility by check_model_kinds, regularization.delta by
    material._check_delta.  The model holds stabilization.a to a > c4/2,
    the step divides by c0 and init.width, and the implicit viscous,
    relaxation and stress-diffusion solves need eta, tau and eps1 > 0."""

    shape: tuple = _key("grid.shape", (64, 64), _tuple_int)
    lengths: tuple = _key("grid.lengths", (1.0, 1.0), _tuple_float)
    bc: str = _key("grid.bc", "periodic", str)
    regime: str = _key("model.regime", "regular", str)
    theta_c: float = _key("model.theta_c", 2.5, float, _FINITE)
    mobility_kind: str = _key("model.mobility", "auto", str)
    c0: float = _key("model.c0", 2.5e-3, float, _POSITIVE)
    eps1: float = _key("model.eps1", 1e-2, float, _POSITIVE)
    eta: float = _key("model.eta", 1.0, float, _POSITIVE)
    tau: float = _key("model.tau", 1.0, float, _POSITIVE)
    # A = alpha * n (n = 1: regular)
    alpha: float = _key("model.alpha", 1.0, float, _FINITE)
    delta: float = _key("regularization.delta", 1e-3, float)
    a: Optional[float] = _auto_key("stabilization.a", float, _FINITE)
    # auto: see step_plan
    dt: Optional[float] = _auto_key("time.dt", float, _POSITIVE)
    dt_safety: float = _key("time.dt_safety", 1.0, float, _POSITIVE)
    t_end: Optional[float] = _auto_key("time.t_end", float, _POSITIVE)
    steps: Optional[int] = _auto_key("time.steps", int, _POSITIVE)
    output_every: int = _key("time.output_every", 50, int, _POSITIVE)
    init_kind: str = _key("init.kind", "spinodal", str, _INIT_KIND)
    init_mean: float = _key("init.mean", 0.0, float, _FINITE)
    init_amplitude: float = _key("init.amplitude", 0.01, float, _FINITE)
    init_width: float = _key("init.width", 0.05, float, _POSITIVE)
    init_path: str = _key("init.path", "", str)
    seed: int = _key("run.seed", 0, int, _NON_NEGATIVE)
    velocity_coupling: bool = _key("run.velocity_coupling", True, _bool)
    solver_tol: float = _key("solver.solver_tol", 1e-11, float, _POSITIVE)


# dotted key -> (SimConfig attribute, parser, rule), in field order
KEYMAP = {f.metadata["key"]: (f.name, f.metadata["parse"], f.metadata["rule"])
          for f in dc_fields(SimConfig)}


@functools.lru_cache(maxsize=64)
def _grid(shape: tuple, lengths: tuple, bc: str) -> Grid:
    return Grid(shape=shape, lengths=lengths, bc=bc)


def build_grid(cfg: SimConfig) -> Grid:
    """The Grid of cfg's grid keys: one object per (shape, lengths, bc), so
    that the operator caches keyed by the grid find it by identity rather
    than by comparing its fields."""
    return _grid(tuple(cfg.shape), tuple(cfg.lengths), cfg.bc)


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


def check_rule(name: str, value, rule) -> None:
    """ConfigError naming name and value unless value passes rule."""
    test, reason = rule
    if not test(value):
        raise ConfigError(f"{name} = {value!r}: {reason}")


def _check_values(cfg: SimConfig) -> None:
    """ConfigError naming the key of the first bad value; builds the grid,
    which checks the grid keys, and no model."""
    build_grid(cfg)
    for key, (attr, _, rule) in KEYMAP.items():
        if rule is not None:
            check_rule(key, getattr(cfg, attr), rule)
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
           u0: Optional[np.ndarray] = None) -> float:
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
        umax = float(np.abs(u0).max())
        if umax > 0:
            bounds.append(COURANT_MAX * h_min / umax)
    return min(bounds)


def check_run_length(cfg: SimConfig) -> None:
    """ConfigError naming the keys unless cfg fixes the run's length: one
    of time.steps and time.t_end, a t_end at least time.dt when that is
    set.  A config that only describes a model or a state needs neither,
    so validate_config does not ask for one; the commands that run check
    this before they write anything, and step_plan before it plans."""
    if cfg.steps is not None and cfg.t_end is not None:
        raise ConfigError(f"time.steps = {cfg.steps!r} and time.t_end = "
                          f"{cfg.t_end!r} are both set: set one of them")
    if cfg.steps is not None:
        return
    if cfg.t_end is None:
        raise ConfigError("time.steps and time.t_end are both auto: set one "
                          "of them")
    if cfg.dt is not None and cfg.t_end < cfg.dt:
        raise ConfigError(f"time.t_end = {cfg.t_end!r}: must be at least "
                          f"time.dt = {cfg.dt!r}")


def step_plan(cfg: SimConfig, grid: Grid, M: MaterialModel,
              u0: Optional[np.ndarray] = None):
    """(dt, n_steps).  The step is time.dt, or with time.dt = auto the
    bound dt_safety * dt_max.  The count is time.steps, or t_end / dt:
    an explicit step is rounded to the nearest count, while an automatic
    one is shortened to t_end / n with n = ceil(t_end / bound), so the run
    ends on t_end and no step exceeds the bound.  ConfigError naming the
    key that sets the step when it is not positive and finite."""
    check_run_length(cfg)
    dt = cfg.dt
    auto = dt is None
    if auto:
        dt = cfg.dt_safety * dt_max(cfg, grid, M, u0=u0)
    if not 0 < dt < math.inf:
        key = "time.dt_safety" if auto else "time.dt"
        raise ConfigError(f"{key}: the step {dt!r} is not positive and "
                          "finite")
    if cfg.steps is not None:
        return dt, int(cfg.steps)
    if auto:
        # the factor keeps a t_end that is a whole number of bounds, up to
        # rounding, from taking one more step
        n = math.ceil(cfg.t_end / dt * (1.0 - 1e-12))
        return cfg.t_end / n, n
    return dt, int(round(cfg.t_end / dt))


# the spinodal noise's Gaussian smoothing: its width in cells, and the
# truncation radius int(4 sigma + 0.5) of scipy.ndimage.gaussian_filter
NOISE_SIGMA = 2.0
NOISE_RADIUS = int(4.0 * NOISE_SIGMA + 0.5)


@functools.lru_cache(maxsize=32)
def _smoothing_matrix(n: int, periodic: bool) -> np.ndarray:
    """The n x n matrix of the truncated Gaussian (NOISE_SIGMA,
    NOISE_RADIUS, weights summing to 1) along one axis of n cells.  A tap
    past an edge folds back in by wrapping (periodic) or by half-sample
    reflection, period 2n (Neumann), which also covers n below the
    radius.  Cached per (n, periodic); read-only."""
    offsets = np.arange(-NOISE_RADIUS, NOISE_RADIUS + 1)
    weights = np.exp(-0.5 / NOISE_SIGMA ** 2 * offsets ** 2)
    weights /= weights.sum()
    cols = (np.arange(n)[:, None] + offsets) % (n if periodic else 2 * n)
    cols = np.where(cols < n, cols, 2 * n - 1 - cols)
    out = np.zeros((n, n))
    rows = np.repeat(np.arange(n), offsets.size)
    np.add.at(out, (rows, cols.ravel()), np.tile(weights, n))
    out.setflags(write=False)
    return out


def _smooth_noise(white: np.ndarray, grid: Grid) -> np.ndarray:
    """white smoothed by _smoothing_matrix along each axis in turn, as a
    C-contiguous array: scipy.ndimage.gaussian_filter(white, NOISE_SIGMA)
    in mode wrap (periodic) or reflect (Neumann) up to rounding, within
    3e-16 on unit white noise."""
    out = white
    for a, n in enumerate(grid.shape):
        M = _smoothing_matrix(n, grid.bc == "periodic")
        out = np.moveaxis(np.tensordot(M, out, axes=(1, a)), 0, a)
    return np.ascontiguousarray(out)


def _spinodal_noise(grid: Grid, mean: float, amplitude: float, seed: int) -> np.ndarray:
    """mean plus amplitude times seeded white noise, smoothed over about
    NOISE_SIGMA cells (_smooth_noise), made mean-zero and scaled to a
    largest magnitude of 1."""
    rng = np.random.default_rng(seed)
    smooth = _smooth_noise(rng.standard_normal(grid.shape), grid)
    smooth -= smooth.mean()
    peak = np.abs(smooth).max()
    if peak > 0:
        smooth /= peak
    return mean + amplitude * smooth


def initial_state(cfg: SimConfig, grid: Grid, M: MaterialModel):
    """The arrays (phi0, q0, u0) on grid from the configured initial-data
    library: phi0 and q0 of the grid's shape, u0 of (d,) + grid.shape.
    Only a snapshot sets q and u (see snapshots.read_state)."""
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
        try:
            phi0, q0, u0 = read_state(cfg.init_path, grid)
        except OSError as err:
            raise ConfigError(f"init.path = {cfg.init_path!r}: "
                              f"{err.strerror}") from None
    else:
        raise ConfigError(f"init.kind = {cfg.init_kind!r}: must be one of "
                          f"{INIT_KINDS}")
    return np.asarray(phi0, dtype=float), q0, u0


def run_steps(config: SimConfig, M: MaterialModel, phi: np.ndarray,
              q: np.ndarray, u: np.ndarray):
    """(n_steps, steps) of a run of config under M from the arrays
    (phi, q, u) on build_grid(config): steps yields (k, state) for
    k = 0 ... n_steps, the k-th state, and holds only the current state;
    _diag_row(state) is its diagnostics row.  The initial data are
    checked first, ConfigError naming the first bad one: phi and q must
    have the grid's shape and u (d,) + grid.shape, all must be finite and,
    under a model with an entropy (the degenerate regime), phi in [0, 1]
    with a finite integral of F + G; step_plan then picks dt and
    n_steps."""
    grid = build_grid(config)
    for name, f, shape in (("phi", phi, grid.shape), ("q", q, grid.shape),
                           ("u", u, (grid.d,) + grid.shape)):
        if np.shape(f) != shape:
            raise ConfigError(f"initial {name} has shape {np.shape(f)}: "
                              f"the grid needs {shape}")
        if not np.all(np.isfinite(f)):
            raise ConfigError("initial data must be finite")
    if M.entropy is not None:
        if phi.min() < 0.0 or phi.max() > 1.0:
            raise ConfigError("degenerate regime requires phi0 in [0,1]")
        start_res = float(np.sum(M.potential.f(phi) + M.entropy.g(phi))
                          * grid.cell_volume)
        if not np.isfinite(start_res):
            raise ConfigError("integral of F(phi0) + G(phi0) must be finite")
    dt, n_steps = step_plan(config, grid, M, u)

    def steps():
        state = make_state(0.0, phi, q, u, np.zeros(grid.shape), M, grid, dt)
        yield 0, state
        for k in range(1, n_steps + 1):
            state = step_phi_q(state, dt, solver_tol=config.solver_tol)
            if config.velocity_coupling:
                state = step_velocity(state, dt, solver_tol=config.solver_tol)
            yield k, state

    return n_steps, steps()


def _build_run(config: SimConfig) -> tuple:
    """(M, n_steps, steps): config's model and run_steps from its initial
    data, made (a snapshot read), checked and planned here, so that a run
    that cannot start raises before its caller writes anything."""
    M = build_material(config)
    return (M,) + run_steps(config, M, *initial_state(
        config, build_grid(config), M))


def simulate(config: SimConfig) -> Trajectory:
    """The Trajectory of run_steps from the configured initial data.
    Rejects what validate_config rejects; the model build checks
    stabilization.a."""
    _check_values(config)
    _, _, steps = _build_run(config)
    return Trajectory.from_rows([_diag_row(state) for _, state in steps])
