"""Invariance gates: a run commutes with the grid's symmetries.

A run from a transformed datum must end on the transformed final state of
the run from the datum itself: transposing x and y, reflecting x -> -x,
shifting by whole cells on a periodic grid, the model's field symmetry
(phi, q, u) -> (-phi, -q, u) in the regular regime and (1 - phi, -q, u)
in the degenerate one, and in 3-D a permutation of the axes of a
non-cubic grid.  Each case steps both runs through run_steps and compares
phi, q and u after the last step.  A run from a datum that is constant
along an added axis (1-D in 2-D, 2-D in 3-D on 16^2 x 4 cells) must end
on the embedded final state of the lower-dimensional run.  On a Neumann
box that holds only without the velocity: the no-slip walls across the
added axis drag the flow (a gap of about 1e-7 in phi after 50 steps).  A stencil, boundary table or spectral
transform that treats one axis, edge or parity differently from the
others breaks one of these.
"""

import dataclasses
import functools

import numpy as np
import pytest

from viscophase.dynamics import (SimConfig, build_grid, build_material,
                                 run_steps)

ATOL = 1e-12      # measured at most 1e-14 on these runs
STEPS, DT = 50, 2e-4
REGIMES = ("regular", "degenerate")
BCS = ("periodic", "neumann-noslip")


def _config(regime, bc, shape=(16, 16), lengths=(1.0, 1.0)):
    return SimConfig(shape=shape, lengths=lengths, bc=bc, regime=regime,
                     dt=DT, steps=STEPS)


def _datum(cfg):
    """A smooth datum on cfg's grid, in the coordinates x, y (, z) scaled
    to the unit box: phi0 = 0.2 cos2pi x cos2pi y + 0.1 sin4pi x
    + 0.05 cos6pi y (+ 0.05 sin2pi z in 3-D, + 0.5 in the degenerate
    regime), q0 = 0.05 sin2pi y and, on a periodic grid,
    u0 = 0.1 (sin2pi y, sin2pi x (, sin2pi y)); u0 = 0 on a Neumann grid."""
    grid = build_grid(cfg)
    x, y, *z = (X / L for X, L in zip(grid.meshgrid(), grid.lengths))
    phi = (0.2 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
           + 0.1 * np.sin(4 * np.pi * x) + 0.05 * np.cos(6 * np.pi * y))
    if z:
        phi = phi + 0.05 * np.sin(2 * np.pi * z[0])
    if cfg.regime == "degenerate":
        phi = phi + 0.5
    q = 0.05 * np.sin(2 * np.pi * y)
    u = np.zeros((grid.d,) + grid.shape)
    if cfg.bc == "periodic":
        u[0] = 0.1 * np.sin(2 * np.pi * y)
        u[1] = 0.1 * np.sin(2 * np.pi * x)
        if z:
            u[2] = 0.1 * np.sin(2 * np.pi * y)
    return phi, q, u


def _final(cfg, phi, q, u):
    """(phi, q, u) of the last state of cfg's run from the datum."""
    _, steps = run_steps(cfg, build_material(cfg), phi, q, u)
    for _, state in steps:
        pass
    return state.phi, state.q, state.u


@functools.lru_cache(maxsize=None)
def _reference(regime, bc):
    cfg = _config(regime, bc)
    datum = _datum(cfg)
    return datum, _final(cfg, *datum)


def _transpose(phi, q, u, regime):
    return phi.T, q.T, u[::-1].transpose(0, 2, 1)


def _reflect(phi, q, u, regime):
    # x -> -x maps cell i to n - 1 - i on both boundary kinds; u_x flips
    u = u[:, ::-1].copy()
    u[0] *= -1
    return phi[::-1], q[::-1], u


def _shift(phi, q, u, regime):
    return (np.roll(phi, 3, axis=(0, 1)), np.roll(q, 3, axis=(0, 1)),
            np.roll(u, 3, axis=(1, 2)))


def _field_symmetry(phi, q, u, regime):
    # the double well is even and A constant; the Flory-Huggins potential,
    # both mobilities and A = alpha n are symmetric about 1/2
    return (-phi if regime == "regular" else 1.0 - phi), -q, u


TRANSFORMS = {"transpose": _transpose, "reflect": _reflect,
              "shift": _shift, "field-symmetry": _field_symmetry}
CASES = [(name, regime, bc) for name in TRANSFORMS for regime in REGIMES
         for bc in BCS if not (name == "shift" and bc != "periodic")]


def _assert_close(got, want):
    for name, a, b in zip(("phi", "q", "u"), got, want):
        assert np.abs(a - b).max() <= ATOL, name


@pytest.mark.parametrize("name,regime,bc", CASES,
                         ids=["-".join(case) for case in CASES])
def test_run_commutes_with_transformation(name, regime, bc):
    transform = TRANSFORMS[name]
    datum, final = _reference(regime, bc)
    moved = _final(_config(regime, bc), *transform(*datum, regime))
    _assert_close(moved, transform(*final, regime))


@pytest.mark.parametrize("bc", BCS)
def test_3d_run_commutes_with_axis_permutation(bc):
    # a non-cubic grid with equal spacing: axis a of the permuted grid is
    # axis perm[a] of the original, so each axis of fields._transform (the
    # middle one takes its own path) meets another's data
    perm = (2, 0, 1)
    shape, lengths = (6, 8, 10), (0.6, 0.8, 1.0)
    cfg = _config("regular", bc, shape, lengths)
    permuted = dataclasses.replace(
        cfg, shape=tuple(shape[a] for a in perm),
        lengths=tuple(lengths[a] for a in perm))

    def permute(phi, q, u):
        return (phi.transpose(perm), q.transpose(perm),
                u[list(perm)].transpose((0,) + tuple(a + 1 for a in perm)))

    datum = _datum(cfg)
    _assert_close(_final(permuted, *permute(*datum)),
                  permute(*_final(cfg, *datum)))


def _datum_1d(cfg):
    """The 1-D datum phi0 = 0.2 cos2pi x + 0.1 sin4pi x (+ 0.5 in the
    degenerate regime), q0 = 0.05 sin2pi x and, on a periodic grid,
    u0 = 0.1 (1 + sin2pi x); u0 = 0 on a Neumann grid."""
    x = build_grid(cfg).axes()[0] / cfg.lengths[0]
    phi = 0.2 * np.cos(2 * np.pi * x) + 0.1 * np.sin(4 * np.pi * x)
    if cfg.regime == "degenerate":
        phi = phi + 0.5
    u = np.zeros((1,) + x.shape)
    if cfg.bc == "periodic":
        u[0] = 0.1 * (1.0 + np.sin(2 * np.pi * x))
    return phi, 0.05 * np.sin(2 * np.pi * x), u


def _embed(phi, q, u, n):
    """The fields repeated along an added last axis of n cells, with a
    zero velocity component along it."""
    def repeat(f):
        return np.repeat(f[..., None], n, axis=-1)
    return (repeat(phi), repeat(q),
            np.concatenate([repeat(u), np.zeros((1,) + u.shape[1:] + (n,))]))


# (lower shape, lower lengths, cells of the added axis, its length)
EMBEDDINGS = {"1d-in-2d": ((16,), (1.0,), 16, 1.0),
              "2d-in-3d": ((16, 16), (1.0, 1.0), 4, 0.25)}
EMBED_CASES = [(name, regime, bc) for name in EMBEDDINGS for regime in REGIMES
               for bc in BCS]


@pytest.mark.parametrize("name,regime,bc", EMBED_CASES,
                         ids=["-".join(case) for case in EMBED_CASES])
def test_run_commutes_with_embedding(name, regime, bc):
    shape, lengths, n, length = EMBEDDINGS[name]
    low = dataclasses.replace(_config(regime, bc, shape, lengths),
                              velocity_coupling=bc == "periodic")
    high = dataclasses.replace(low, shape=shape + (n,),
                               lengths=lengths + (length,))
    datum = _datum_1d(low) if len(shape) == 1 else _datum(low)
    _assert_close(_final(high, *_embed(*datum, n)),
                  _embed(*_final(low, *datum), n))
