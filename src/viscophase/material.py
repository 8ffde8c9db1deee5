"""Constitutive functions: potentials, mobilities, relaxation, viscosity,
bulk modulus, their degenerate-case regularizations, and the entropy
of each degenerate mobility in closed form.

All functions accept scalars or numpy arrays and are pure; a model is
immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, InvalidDeltaError

__all__ = [
    "Potential",
    "MaterialModel",
    "Entropy",
    "double_well",
    "flory_huggins_split",
    "regularize_potential",
    "regularize_mobility",
    "regular_model",
    "degenerate_model",
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
    f = f1 + f2 pointwise.  ``domain`` is the open interval the bare
    logarithmic kind is defined on.
    """

    kind: str  # polynomial-double-well | logarithmic-split | regularized-logarithmic
    f: Callable
    df: Callable
    d2f: Callable
    c3: float = 0.0
    c4: float = 0.0
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

    return Potential(kind="polynomial-double-well", f=f, df=df, d2f=d2f,
                     c3=0.0, c4=1.0)


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

    def f2(s):
        s = np.asarray(s, dtype=float)
        return th * s * (1.0 - s)

    def df2(s):
        s = np.asarray(s, dtype=float)
        return th * (1.0 - 2.0 * s)

    def d2f2(s):
        return np.full_like(np.asarray(s, dtype=float), -2.0 * th)

    return Potential(
        kind="logarithmic-split",
        f=lambda s: f1(s) + f2(s),
        df=lambda s: df1(s) + df2(s),
        d2f=lambda s: d2f1(s) + d2f2(s),
        c3=math.log(2.0), c4=2.0 * th,
        f1=f1, df1=df1, d2f1=d2f1, f2=f2, df2=df2, d2f2=d2f2,
        domain=(0.0, 1.0),
    )


def _check_delta(delta: float) -> float:
    delta = float(delta)
    if not 0.0 < delta < 0.5:
        raise InvalidDeltaError(f"regularization.delta = {delta}: must lie "
                                "in the open interval (0, 1/2)")
    return delta


def _quadratic_extension(f: Callable, df: Callable, d2f: Callable,
                         delta: float) -> tuple:
    """(f, f', f'') of the C^2 function that equals f on [delta, 1-delta]
    and, beyond each knot, its second-order Taylor polynomial at that knot,
    so that its second derivative is constant there."""
    fns = (f, df, d2f)
    knots = tuple((k, [float(fn(k)) for fn in fns])
                  for k in (delta, 1.0 - delta))
    # the Taylor polynomial at a knot with coefficients c, and its derivatives
    taylor = (lambda c, d: c[0] + c[1] * d + 0.5 * c[2] * d ** 2,
              lambda c, d: c[1] + c[2] * d,
              lambda c, d: c[2])

    def derivative(order):
        def extended(s):
            s = np.asarray(s, dtype=float)
            out = np.asarray(fns[order](np.clip(s, delta, 1.0 - delta)),
                             dtype=float)
            for (k, c), beyond in zip(knots, (s < delta, s > 1.0 - delta)):
                if beyond.any():
                    out = np.where(beyond, taylor[order](c, s - k), out)
            return out
        return extended

    return tuple(derivative(order) for order in range(3))


def regularize_potential(P: Potential, delta: float) -> Potential:
    """Quadratic extension of the convex part outside [delta, 1-delta]:
    F_{1,delta} equals F1 on [delta, 1-delta] and is C^2, with
    F_{1,delta}'' constant beyond the knots."""
    delta = _check_delta(delta)
    if not P.has_split:
        raise ValueError("regularize_potential needs a split (F1 + F2) potential")
    f1d, df1d, d2f1d = _quadratic_extension(P.f1, P.df1, P.d2f1, delta)
    return replace(
        P,
        kind="regularized-logarithmic",
        f=lambda s: f1d(s) + P.f2(s),
        df=lambda s: df1d(s) + P.df2(s),
        d2f=lambda s: d2f1d(s) + P.d2f2(s),
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

    return m_delta


@dataclass(frozen=True)
class Entropy:
    """The entropy G_delta of the regularized mobility m_delta:
    G_delta'' = 1/m_delta, G_delta(1/2) = G_delta'(1/2) = 0 (Elliott &
    Garcke, SIAM J. Math. Anal. 1996).  It is the closed-form G of the
    mobility on [delta, 1-delta], extended beyond the knots by the same
    quadratic rule as F_{1,delta}."""

    g: Callable


@dataclass(frozen=True)
class _Mobility:
    """A degenerate mobility m on (0, 1), its derivative dm, and its entropy
    G with G'' = 1/m and G(1/2) = G'(1/2) = 0, in closed form."""

    m: Callable
    dm: Callable
    g: Callable
    dg: Callable
    d2g: Callable


_FH = flory_huggins_split()
# m = s(1-s): G = F1 + ln 2 for the Flory-Huggins F1 = s ln s + (1-s) ln(1-s)
_LOGISTIC = _Mobility(
    m=lambda s: s * (1.0 - s), dm=lambda s: 1.0 - 2.0 * s,
    g=lambda s: _FH.f1(s) + math.log(2.0), dg=_FH.df1, d2g=_FH.d2f1)
# m = s^2(1-s)^2: 1/m = 1/s^2 + 1/(1-s)^2 + 2 (1/s + 1/(1-s)), so
# G = -ln s - ln(1-s) + 2 F1
_QUADRATIC = _Mobility(
    m=lambda s: (s * (1.0 - s)) ** 2,
    dm=lambda s: 2.0 * s * (1.0 - s) * (1.0 - 2.0 * s),
    g=lambda s: -np.log(s) - np.log1p(-s) + 2.0 * _FH.f1(s),
    dg=lambda s: -1.0 / s + 1.0 / (1.0 - s) + 2.0 * _FH.df1(s),
    d2g=lambda s: 1.0 / s ** 2 + 1.0 / (1.0 - s) ** 2 + 2.0 * _FH.d2f1(s))
# mobility kind -> its record
_MOBILITIES = {"s(1-s)": _LOGISTIC, "s2(1-s)2": _QUADRATIC}
MOBILITY_KINDS = tuple(_MOBILITIES)


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
    a: Optional[float] = None   # relative-energy stabilization; None: c4/2 + 1
    regime: str = "regular"
    # sampled extrema that size the automatic time step (dynamics.dt_max):
    # the least relaxation time, and growth_max = max_s m(s) *
    # max(0, -F''(s))^2, which sets the fastest linear spinodal growth rate
    # growth_max / (4 c0)
    tau_min: float = 1.0
    growth_max: float = 1.0
    entropy: Optional[Entropy] = None

    def __post_init__(self):
        # the relative-energy estimate needs a > c4/2 for coercivity
        a = self.c4 / 2.0 + 1.0 if self.a is None else float(self.a)
        if not a > self.c4 / 2.0:
            raise ConfigError(
                f"stabilization.a = {a} violates the coercivity requirement "
                f"a > c4/2 = {self.c4 / 2.0} for this potential")
        object.__setattr__(self, "a", a)

    def m(self, s):
        ns = np.asarray(self.n(s), dtype=float)
        return ns * ns

    @property
    def c4(self) -> float:
        return self.potential.c4


def _sampled(fn: Callable, lo: float, hi: float, k: int = 2001):
    s = np.linspace(lo, hi, k)
    return s, np.asarray(fn(s), dtype=float)


def _growth_max(pot: Potential, s: np.ndarray, mv: np.ndarray) -> float:
    """max of m(s) * max(0, -F''(s))^2 over the samples s inside the
    potential's domain, mv = m(s)."""
    if pot.domain is not None:
        inside = (s > pot.domain[0]) & (s < pot.domain[1])
        s, mv = s[inside], mv[inside]
    neg = np.maximum(0.0, -np.asarray(pot.d2f(s), dtype=float))
    return float((mv * neg * neg).max())


def regular_model(c0: float = 2.5e-3, eps1: float = 1e-2, a: Optional[float] = None,
                  potential: Optional[Potential] = None,
                  n=1.0, eta=1.0, tau=1.0, A=1.0, dA=0.0) -> MaterialModel:
    """Constant-coefficient model with a polynomial double well by default."""
    pot = potential if potential is not None else double_well()
    n_f, eta_f, tau_f = _as_callable(n), _as_callable(eta), _as_callable(tau)
    A_f, dA_f = _as_callable(A), _as_callable(dA)
    _, tv = _sampled(tau_f, -2.0, 2.0)
    s, nv = _sampled(n_f, -2.0, 2.0)
    return MaterialModel(
        n=n_f, eta=eta_f, tau=tau_f, A=A_f, dA=dA_f, potential=pot,
        c0=float(c0), eps1=float(eps1), a=a, regime="regular",
        tau_min=float(tv.min()),
        growth_max=_growth_max(pot, s, nv * nv),
    )


def degenerate_model(delta: float, theta_c: float = 2.5, c0: float = 2.5e-3,
                     eps1: float = 1e-2, a: Optional[float] = None,
                     mobility: str = "s(1-s)", alpha: float = 1.0,
                     eta=1.0, tau=1.0) -> MaterialModel:
    """Degenerate mobility with logarithmic potential, both regularized at
    level delta, and the mobility's entropy.  The bulk modulus is
    A = alpha * n so that A/n is constant."""
    delta = _check_delta(delta)
    if mobility not in _MOBILITIES:
        raise ValueError(f"unknown degenerate mobility kind {mobility!r}")
    kind = _MOBILITIES[mobility]
    pot = regularize_potential(flory_huggins_split(theta_c), delta)
    m_d = regularize_mobility(kind.m, delta)

    def n_d(s):
        return np.sqrt(m_d(s))

    al = float(alpha)

    def A_d(s):
        return al * n_d(s)

    # derivative of alpha*sqrt(m_delta); zero on the clamped plateaus
    def dA_d(s):
        s = np.asarray(s, dtype=float)
        inside = (s > delta) & (s < 1.0 - delta)
        sc = np.clip(s, delta, 1.0 - delta)
        return np.where(inside, al * kind.dm(sc) / (2.0 * n_d(sc)), 0.0)

    g, _, _ = _quadratic_extension(kind.g, kind.dg, kind.d2g, delta)
    eta_f, tau_f = _as_callable(eta), _as_callable(tau)
    _, tv = _sampled(tau_f, 0.0, 1.0)
    s, mv = _sampled(m_d, 0.0, 1.0)
    return MaterialModel(
        n=n_d, eta=eta_f, tau=tau_f, A=A_d, dA=dA_d, potential=pot,
        c0=float(c0), eps1=float(eps1), a=a, regime="degenerate",
        tau_min=float(tv.min()),
        growth_max=_growth_max(pot, s, mv),
        entropy=Entropy(g=g),
    )
