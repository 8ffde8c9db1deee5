"""Constitutive functions: potentials, mobilities, relaxation, viscosity,
bulk modulus, their degenerate-case regularizations, and the entropy
function built from a mobility.

All functions accept scalars or numpy arrays and are pure; a model is
immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .errors import DegenerateMobilityError, InvalidDeltaError, PotentialDomainError

__all__ = [
    "Potential",
    "MaterialModel",
    "Entropy",
    "AssumptionCheck",
    "AssumptionReport",
    "double_well",
    "flory_huggins_split",
    "eval_potential",
    "regularize_potential",
    "regularize_mobility",
    "entropy_from_mobility",
    "regular_model",
    "degenerate_model",
    "check_assumptions",
]


def _const(value: float) -> Callable:
    v = float(value)

    def f(s):
        return np.full_like(np.asarray(s, dtype=float), v)

    return f


def _as_callable(c) -> Callable:
    return c if callable(c) else _const(c)


@dataclass(frozen=True)
class Potential:
    """Bulk free-energy density with a consistent derivative stack.

    For split kinds the convex part f1 and concave part f2 satisfy
    f = f1 + f2 pointwise.  ``domain`` restricts evaluation (open
    interval) for the bare logarithmic kind.
    """

    kind: str  # polynomial-double-well | logarithmic-split | regularized-logarithmic
    f: Callable
    df: Callable
    d2f: Callable
    d3f: Callable
    p: float = 4.0
    c3: float = 0.0
    c4: float = 0.0
    f0: float = 0.0  # bound on |f2''|
    f1: Optional[Callable] = None
    df1: Optional[Callable] = None
    d2f1: Optional[Callable] = None
    f2: Optional[Callable] = None
    df2: Optional[Callable] = None
    d2f2: Optional[Callable] = None
    delta: Optional[float] = None
    domain: Optional[tuple] = None

    @property
    def has_split(self) -> bool:
        return self.f1 is not None


def eval_potential(P: Potential, s):
    """Evaluate (F, F', F'', F''') at s, enforcing the domain of the
    unregularized logarithmic kind."""
    s = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(s)):
        raise ValueError("potential argument must be finite")
    if P.domain is not None:
        lo, hi = P.domain
        if np.any(s <= lo) or np.any(s >= hi):
            raise PotentialDomainError(
                f"{P.kind} potential requires values in the open interval "
                f"({lo}, {hi}); got range [{s.min()}, {s.max()}]"
            )
    return P.f(s), P.df(s), P.d2f(s), P.d3f(s)


def double_well() -> Potential:
    """Quartic double well F(s) = (s^2 - 1)^2 / 4 with minima at +-1."""

    def f(s):
        s = np.asarray(s, dtype=float)
        return (s * s - 1.0) ** 2 / 4.0

    def df(s):
        s = np.asarray(s, dtype=float)
        return (s * s - 1.0) * s

    def d2f(s):
        s = np.asarray(s, dtype=float)
        return 3.0 * s * s - 1.0

    def d3f(s):
        return 6.0 * np.asarray(s, dtype=float)

    return Potential(
        kind="polynomial-double-well", f=f, df=df, d2f=d2f, d3f=d3f,
        p=4.0, c3=0.0, c4=1.0,
    )


def flory_huggins_split(theta_c: float = 2.5) -> Potential:
    """Logarithmic mixing entropy plus concave interaction term.

    F1(s) = s ln s + (1-s) ln(1-s)   (convex on (0,1))
    F2(s) = theta_c * s (1 - s)      (concave, |F2''| = 2 theta_c)
    """
    th = float(theta_c)

    def f1(s):
        s = np.asarray(s, dtype=float)
        return s * np.log(s) + (1.0 - s) * np.log1p(-s)

    def df1(s):
        s = np.asarray(s, dtype=float)
        return np.log(s) - np.log1p(-s)

    def d2f1(s):
        s = np.asarray(s, dtype=float)
        return 1.0 / s + 1.0 / (1.0 - s)

    def d3f1(s):
        s = np.asarray(s, dtype=float)
        return -1.0 / s**2 + 1.0 / (1.0 - s) ** 2

    def f2(s):
        s = np.asarray(s, dtype=float)
        return th * s * (1.0 - s)

    def df2(s):
        s = np.asarray(s, dtype=float)
        return th * (1.0 - 2.0 * s)

    def d2f2(s):
        return np.full_like(np.asarray(s, dtype=float), -2.0 * th)

    def d3f2(s):
        return np.zeros_like(np.asarray(s, dtype=float))

    return Potential(
        kind="logarithmic-split",
        f=lambda s: f1(s) + f2(s),
        df=lambda s: df1(s) + df2(s),
        d2f=lambda s: d2f1(s) + d2f2(s),
        d3f=lambda s: d3f1(s) + d3f2(s),
        p=2.0, c3=math.log(2.0), c4=2.0 * th, f0=2.0 * th,
        f1=f1, df1=df1, d2f1=d2f1, f2=f2, df2=df2, d2f2=d2f2,
        domain=(0.0, 1.0),
    )


def _check_delta(delta: float) -> float:
    delta = float(delta)
    if not 0.0 < delta < 0.5:
        raise InvalidDeltaError(f"delta must lie in (0, 1/2); got {delta}")
    return delta


def regularize_potential(P: Potential, delta: float) -> Potential:
    """Quadratic extension of the convex part outside [delta, 1-delta].

    F_{1,delta} equals F1 on [delta, 1-delta]; beyond the knots it is the
    second-order Taylor polynomial taken at the nearest knot, which makes
    F_{1,delta}'' constant there and the whole function C^2.
    """
    delta = _check_delta(delta)
    if not P.has_split:
        raise ValueError("regularize_potential needs a split (F1 + F2) potential")

    a, b = delta, 1.0 - delta
    f1a, f1b = float(P.f1(a)), float(P.f1(b))
    d1a, d1b = float(P.df1(a)), float(P.df1(b))
    d2a, d2b = float(P.d2f1(a)), float(P.d2f1(b))

    def f1d(s):
        s = np.asarray(s, dtype=float)
        sc = np.clip(s, a, b)
        out = np.asarray(P.f1(sc), dtype=float).copy()
        lo = s < a
        hi = s > b
        out = np.where(lo, f1a + d1a * (s - a) + 0.5 * d2a * (s - a) ** 2, out)
        out = np.where(hi, f1b + d1b * (s - b) + 0.5 * d2b * (s - b) ** 2, out)
        return out

    def df1d(s):
        s = np.asarray(s, dtype=float)
        sc = np.clip(s, a, b)
        out = np.asarray(P.df1(sc), dtype=float).copy()
        out = np.where(s < a, d1a + d2a * (s - a), out)
        out = np.where(s > b, d1b + d2b * (s - b), out)
        return out

    def d2f1d(s):
        s = np.asarray(s, dtype=float)
        sc = np.clip(s, a, b)
        out = np.asarray(P.d2f1(sc), dtype=float).copy()
        out = np.where(s < a, d2a, out)
        out = np.where(s > b, d2b, out)
        return out

    def d3f1d(s):
        s = np.asarray(s, dtype=float)
        sc = np.clip(s, a, b)
        # F''' of the base convex part, zero on the quadratic tails
        base = -1.0 / sc**2 + 1.0 / (1.0 - sc) ** 2 if P.kind == "logarithmic-split" else np.zeros_like(sc)
        return np.where((s < a) | (s > b), 0.0, base)

    return replace(
        P,
        kind="regularized-logarithmic",
        f=lambda s: f1d(s) + P.f2(s),
        df=lambda s: df1d(s) + P.df2(s),
        d2f=lambda s: d2f1d(s) + P.d2f2(s),
        d3f=lambda s: d3f1d(s) + np.zeros_like(np.asarray(s, dtype=float)),
        f1=f1d, df1=df1d, d2f1=d2f1d,
        delta=delta, domain=None,
    )


def regularize_mobility(m: Callable, delta: float) -> Callable:
    """Clamp a mobility to its values at delta and 1-delta outside the
    interval [delta, 1-delta], making it uniformly positive."""
    delta = _check_delta(delta)

    def m_delta(s):
        s = np.asarray(s, dtype=float)
        return np.asarray(m(np.clip(s, delta, 1.0 - delta)), dtype=float)

    m_delta.delta = delta
    return m_delta


@dataclass(frozen=True)
class Entropy:
    """Second antiderivative of 1/m normalized at 1/2.

    G''(s) = 1/m(s), G(1/2) = G'(1/2) = 0.  Values come from a dense
    tabulation integrated with the trapezoid rule at ``step``.
    """

    g: Callable
    dg: Callable
    d2g: Callable
    step: float
    delta: Optional[float] = None


def entropy_from_mobility(m_delta: Callable, quadrature_step: float = 1e-4,
                          span: tuple = (-0.5, 1.5)) -> Entropy:
    step = float(quadrature_step)
    if step <= 0:
        raise ValueError("quadrature_step must be positive")
    lo, hi = span
    n_left = int(math.ceil((0.5 - lo) / step))
    n_right = int(math.ceil((hi - 0.5) / step))
    s = 0.5 + step * np.arange(-n_left, n_right + 1)
    i0 = n_left  # index of s = 1/2 exactly

    g2 = np.asarray(m_delta(s), dtype=float)
    if np.any(g2 <= 0.0):
        raise DegenerateMobilityError(
            "mobility vanishes on the tabulation grid; regularize it first"
        )
    g2 = 1.0 / g2
    g1 = cumulative_trapezoid(g2, s, initial=0.0)
    g1 -= g1[i0]
    g0 = cumulative_trapezoid(g1, s, initial=0.0)
    g0 -= g0[i0]

    def g(x):
        return np.interp(np.asarray(x, dtype=float), s, g0)

    def dg(x):
        return np.interp(np.asarray(x, dtype=float), s, g1)

    def d2g(x):
        return 1.0 / np.asarray(m_delta(np.asarray(x, dtype=float)), dtype=float)

    return Entropy(g=g, dg=dg, d2g=d2g, step=step,
                   delta=getattr(m_delta, "delta", None))


@dataclass(frozen=True)
class MaterialModel:
    """All parameter functions of the model plus the scalar constants."""

    n: Callable                 # mobility root
    eta: Callable               # viscosity
    tau: Callable               # relaxation time
    A: Callable                 # bulk modulus
    dA: Callable                # A'
    potential: Potential
    c0: float                   # interface coefficient
    eps1: float                 # stress diffusion
    a: float                    # relative-energy stabilization, a > c4/2
    regime: str = "regular"
    # sampled extrema used by time-step heuristics and assumption checks
    eta_max: float = 1.0
    tau_min: float = 1.0
    m_max: float = 1.0
    entropy: Optional[Entropy] = None
    delta: Optional[float] = None
    # unregularized originals of the degenerate regime, kept for the
    # structural assumption checks (the solver uses the clamped versions)
    n_bare: Optional[Callable] = None

    def m(self, s):
        ns = np.asarray(self.n(s), dtype=float)
        return ns * ns

    @property
    def c4(self) -> float:
        return self.potential.c4


def _sampled(fn: Callable, lo: float, hi: float, k: int = 2001):
    s = np.linspace(lo, hi, k)
    return s, np.asarray(fn(s), dtype=float)


def regular_model(c0: float = 2.5e-3, eps1: float = 1e-2, a: Optional[float] = None,
                  potential: Optional[Potential] = None,
                  n=1.0, eta=1.0, tau=1.0, A=1.0, dA=0.0) -> MaterialModel:
    """Constant-coefficient model with a polynomial double well by default."""
    pot = potential if potential is not None else double_well()
    if a is None:
        a = pot.c4 / 2.0 + 1.0
    n_f, eta_f, tau_f = _as_callable(n), _as_callable(eta), _as_callable(tau)
    A_f, dA_f = _as_callable(A), _as_callable(dA)
    _, ev = _sampled(eta_f, -2.0, 2.0)
    _, tv = _sampled(tau_f, -2.0, 2.0)
    _, nv = _sampled(n_f, -2.0, 2.0)
    return MaterialModel(
        n=n_f, eta=eta_f, tau=tau_f, A=A_f, dA=dA_f, potential=pot,
        c0=float(c0), eps1=float(eps1), a=float(a), regime="regular",
        eta_max=float(ev.max()), tau_min=float(tv.min()), m_max=float((nv**2).max()),
    )


MOBILITY_KINDS = ("s(1-s)", "linear", "s2(1-s)2", "quadratic")   # two aliases each


def _degenerate_mobility(kind: str) -> Callable:
    if kind in MOBILITY_KINDS[:2]:
        def m(s):
            s = np.asarray(s, dtype=float)
            sc = np.clip(s, 0.0, 1.0)
            return sc * (1.0 - sc)
    elif kind in MOBILITY_KINDS[2:]:
        def m(s):
            s = np.asarray(s, dtype=float)
            sc = np.clip(s, 0.0, 1.0)
            return (sc * (1.0 - sc)) ** 2
    else:
        raise ValueError(f"unknown degenerate mobility kind {kind!r}")
    return m


def degenerate_model(delta: float, theta_c: float = 2.5, c0: float = 2.5e-3,
                     eps1: float = 1e-2, a: Optional[float] = None,
                     mobility: str = "s(1-s)", alpha: float = 1.0,
                     eta=1.0, tau=1.0,
                     entropy_step: float = 1e-4) -> MaterialModel:
    """Degenerate mobility with logarithmic potential, both regularized at
    level delta.  The bulk modulus is A = alpha * n so that A/n is constant."""
    delta = _check_delta(delta)
    pot = regularize_potential(flory_huggins_split(theta_c), delta)
    if a is None:
        a = pot.c4 / 2.0 + 1.0
    m_bare = _degenerate_mobility(mobility)
    m_d = regularize_mobility(m_bare, delta)

    def n_d(s):
        return np.sqrt(m_d(s))

    al = float(alpha)

    def A_d(s):
        return al * n_d(s)

    # derivative of alpha*sqrt(m_delta); zero on the clamped plateaus
    if mobility in ("s(1-s)", "linear"):
        def dm(s):
            s = np.asarray(s, dtype=float)
            return 1.0 - 2.0 * s
    else:
        def dm(s):
            s = np.asarray(s, dtype=float)
            return 2.0 * s * (1.0 - s) * (1.0 - 2.0 * s)

    def dA_d(s):
        s = np.asarray(s, dtype=float)
        inside = (s > delta) & (s < 1.0 - delta)
        sc = np.clip(s, delta, 1.0 - delta)
        return np.where(inside, al * dm(sc) / (2.0 * n_d(sc)), 0.0)

    eta_f, tau_f = _as_callable(eta), _as_callable(tau)
    _, ev = _sampled(eta_f, 0.0, 1.0)
    _, tv = _sampled(tau_f, 0.0, 1.0)
    _, mv = _sampled(m_d, 0.0, 1.0)
    def n_bare(s):
        return np.sqrt(np.asarray(m_bare(s), dtype=float))

    return MaterialModel(
        n=n_d, eta=eta_f, tau=tau_f, A=A_d, dA=dA_d, potential=pot,
        c0=float(c0), eps1=float(eps1), a=float(a), regime="degenerate",
        eta_max=float(ev.max()), tau_min=float(tv.min()), m_max=float(mv.max()),
        entropy=entropy_from_mobility(m_d, entropy_step), delta=delta,
        n_bare=n_bare,
    )


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    passed: bool
    worst_point: float
    worst_value: float
    note: str = ""


@dataclass(frozen=True)
class AssumptionReport:
    regime: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self):
        return [c for c in self.checks if not c.passed]

    def __str__(self):
        lines = [f"assumption report ({self.regime} regime)"]
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            lines.append(
                f"  [{tag}] {c.name}: worst {c.worst_value:.6g} at s={c.worst_point:.4g} {c.note}"
            )
        return "\n".join(lines)


def _extremum(name, values, samples, predicate, take="min", note=""):
    idx = int(np.argmin(values) if take == "min" else np.argmax(values))
    worst = float(values[idx])
    return AssumptionCheck(name, bool(predicate(worst)), float(samples[idx]), worst, note)


def check_assumptions(M: MaterialModel, regime: Optional[str] = None,
                      samples: int = 400) -> AssumptionReport:
    """Report pass/fail per structural assumption with the worst sample."""
    if samples < 2:
        raise ValueError("need at least 2 samples")
    regime = regime or M.regime
    checks = []
    tol = 1e-12

    if regime == "regular":
        s = np.linspace(-2.0, 2.0, samples)
        checks.append(_extremum("n lower bound > 0", np.asarray(M.n(s)), s, lambda v: v > 0))
        checks.append(_extremum("eta lower bound > 0", np.asarray(M.eta(s)), s, lambda v: v > 0))
        checks.append(_extremum("tau lower bound > 0", np.asarray(M.tau(s)), s, lambda v: v > 0))
        pot_s = s if M.potential.domain is None else np.linspace(1e-4, 1.0 - 1e-4, samples)
        fv, _, f2v, _ = eval_potential(M.potential, pot_s)
        checks.append(_extremum("F >= -c3", fv, pot_s, lambda v: v >= -M.potential.c3 - tol,
                                note=f"(c3={M.potential.c3:g})"))
        checks.append(_extremum("F'' >= -c4", f2v, pot_s, lambda v: v >= -M.potential.c4 - tol,
                                note=f"(c4={M.potential.c4:g})"))
        checks.append(AssumptionCheck("c0 > 0", M.c0 > 0, 0.0, M.c0))
        checks.append(AssumptionCheck("eps1 > 0", M.eps1 > 0, 0.0, M.eps1))
        checks.append(AssumptionCheck("a > c4/2", M.a > M.c4 / 2.0, 0.0, M.a,
                                      note=f"(c4/2={M.c4 / 2.0:g})"))
    elif regime == "degenerate":
        # vanishing at the pure phases holds for the bare mobility; the
        # solver's clamped version stays positive by construction
        n_str = M.n_bare if M.n_bare is not None else M.n
        ends = np.array([0.0, 1.0])
        nv_ends = np.asarray(n_str(ends))
        checks.append(_extremum("n(0)=n(1)=0", np.abs(nv_ends), ends,
                                lambda v: v <= 1e-8, take="max"))
        outside = np.array([-0.5, 1.5])
        checks.append(_extremum("n = 0 outside [0,1]", np.abs(np.asarray(n_str(outside))),
                                outside, lambda v: v <= 1e-8, take="max"))
        si = np.linspace(0.0, 1.0, samples + 2)[1:-1]
        nv = np.asarray(n_str(si))
        checks.append(_extremum("n > 0 on (0,1)", nv, si, lambda v: v > 0))
        checks.append(_extremum("n_delta > 0 everywhere",
                                np.asarray(M.n(np.linspace(-0.5, 1.5, samples))),
                                np.linspace(-0.5, 1.5, samples),
                                lambda v: v > 0))
        n_solver = np.asarray(M.n(si))
        ratio_a = np.abs(np.asarray(M.A(si)) / n_solver)
        ratio_da = np.abs(np.asarray(M.dA(si)) / n_solver)
        checks.append(_extremum("|A/n| bounded", ratio_a, si, np.isfinite, take="max"))
        checks.append(_extremum("|A'/n| bounded", ratio_da, si, np.isfinite, take="max"))
        P = M.potential
        if P.has_split:
            split_err = np.abs(P.f1(si) + P.f2(si) - P.f(si))
            checks.append(_extremum("F = F1 + F2", split_err, si,
                                    lambda v: v <= 1e-10, take="max"))
            f2pp = np.abs(np.asarray(P.d2f2(si)))
            checks.append(_extremum("|F2''| <= F0", f2pp, si,
                                    lambda v: v <= P.f0 + tol, take="max",
                                    note=f"(F0={P.f0:g})"))
            prod = M.m(si) * np.asarray(P.d2f1(si))
            checks.append(_extremum("m * F1'' bounded", np.abs(prod), si,
                                    np.isfinite, take="max"))
        checks.append(AssumptionCheck("a > c4/2", M.a > M.c4 / 2.0, 0.0, M.a,
                                      note=f"(c4/2={M.c4 / 2.0:g})"))
    else:
        raise ValueError(f"unknown regime {regime!r}")

    return AssumptionReport(regime=regime, checks=tuple(checks))
