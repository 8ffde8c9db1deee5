import dataclasses
import math

import numpy as np
import pytest

from viscophase.errors import ConfigError, SolverError
from viscophase.fields import (STENCIL_MATRIX_MAX, Grid, _bases, _stencils,
                               cg, div_arr, grad_arr, integrate, lap_arr,
                               lap_symbol, multiplier,
                               project_divergence_free, solve_poisson,
                               solve_symbol)


def periodic_grid(n, d=2):
    return Grid((n,) * d, (1.0,) * d, "periodic")


def dense(apply_op, shape):
    """The matrix of a linear operator on arrays of the given shape,
    assembled column by column from unit vectors."""
    size = int(np.prod(shape))
    cols = [apply_op(e.reshape(shape)).ravel() for e in np.eye(size)]
    return np.stack(cols, axis=1)


# Reference stencils: ghost cells by np.roll (periodic) or by np.concatenate
# of the parity-reflected edge cell (Neumann), then (f[i+1] - f[i-1]) / 2h.
def _ref_nbr(f, axis, step, bc, parity):
    if bc == "periodic":
        return np.roll(f, -step, axis=axis)
    n = f.shape[axis]
    if step == 1:
        core = np.take(f, range(1, n), axis=axis)
        edge = parity * np.take(f, [n - 1], axis=axis)
        return np.concatenate([core, edge], axis=axis)
    core = np.take(f, range(n - 1), axis=axis)
    edge = parity * np.take(f, [0], axis=axis)
    return np.concatenate([edge, core], axis=axis)


def _ref_ddx(f, grid, axis, parity):
    return (_ref_nbr(f, axis, 1, grid.bc, parity)
            - _ref_nbr(f, axis, -1, grid.bc, parity)) / (2.0 * grid.h[axis])


def _ref_grad(f, grid, parity):
    return np.stack([_ref_ddx(f, grid, a, parity) for a in range(grid.d)])


def _ref_div(v, grid, parity):
    out = np.zeros(grid.shape)
    for a in range(grid.d):
        out += _ref_ddx(v[a], grid, a, parity)
    return out


def _ref_spread(f, grid, axis):
    """(|f[i+1]| + |f[i-1]|) / 2h along axis, ghost cells included: the
    scale of one difference's rounding."""
    g = np.abs(f)
    return (_ref_nbr(g, axis, 1, grid.bc, 1)
            + _ref_nbr(g, axis, -1, grid.bc, 1)) / (2.0 * grid.h[axis])


class TestGrid:
    def test_properties(self):
        g = Grid((32, 16), (2.0, 1.0), "periodic")
        assert g.d == 2
        assert g.h == (2.0 / 32, 1.0 / 16)
        assert g.cell_volume == pytest.approx(2.0 / 512)

    def test_derived_values_follow_the_fields(self):
        # the cell volume and hash are computed once per grid, so a grid
        # made by replace() must get its own, and equal grids equal ones
        for shape, lengths in (((7,), (1.3,)), ((6, 5, 9), (1.1, 0.7, 0.3))):
            g = Grid(shape, lengths)
            assert g.cell_volume == float(np.prod(g.h))
        g = Grid((32, 16), (2.0, 1.0), "periodic")
        assert g.cell_volume == float(np.prod(g.h))
        assert "cell_volume" not in repr(g)
        finer = dataclasses.replace(g, shape=(64, 16))
        assert finer.cell_volume == float(np.prod(finer.h)) != g.cell_volume
        same = Grid([32, 16], [2, 1])
        assert same == g and hash(same) == hash(g)
        assert lap_symbol(same) is lap_symbol(g)
        assert finer != g and dataclasses.replace(g, bc="neumann-noslip") != g

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid((32, 32), (1.0, 1.0), "dirichlet")
        with pytest.raises(ValueError):
            Grid((2, 32), (1.0, 1.0), "periodic")
        with pytest.raises(ValueError):
            Grid((32, 32), (1.0,), "periodic")

    @pytest.mark.parametrize("args,key", [
        (((8, 8), (0.0, 1.0)), "grid.lengths"),
        (((8, 8), (-1.0, 1.0)), "grid.lengths"),
        (((8, 3), (1.0, 1.0)), "grid.shape"),
        (((8, 8), (1.0, 1.0), "dirichlet"), "grid.bc"),
    ], ids=["length-zero", "length-negative", "three-cells", "bc"])
    def test_validation_names_key(self, args, key):
        with pytest.raises(ConfigError, match=key):
            Grid(*args)


class TestOperators:
    @pytest.mark.parametrize("n", [32, 64])
    def test_gradient_periodic_accuracy(self, n):
        g = periodic_grid(n)
        x = g.meshgrid()[0]
        gx = grad_arr(np.sin(2 * np.pi * x), g)[0]
        exact = 2 * np.pi * np.cos(2 * np.pi * x)
        err = np.abs(gx - exact).max()
        # central difference: error ~ (2*pi)^3 h^2 / 6
        assert err < 45.0 / n**2

    def test_gradient_second_order(self):
        errs = []
        for n in (32, 64, 128):
            g = periodic_grid(n)
            x, y = g.meshgrid()
            f = np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
            exact = 2 * np.pi * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
            errs.append(np.abs(grad_arr(f, g)[0] - exact).max())
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(np.abs(orders - 2.0) < 0.1)

    def test_laplacian_neumann_accuracy(self):
        errs = []
        for n in (32, 64):
            g = Grid((n, n), (1.0, 1.0), "neumann-noslip")
            x, y = g.meshgrid()
            f = np.cos(np.pi * x) * np.cos(np.pi * y)
            exact = -2 * np.pi**2 * np.cos(np.pi * x) * np.cos(np.pi * y)
            errs.append(np.abs(lap_arr(f, g) - exact).max())
        assert np.log2(errs[0] / errs[1]) == pytest.approx(2.0, abs=0.2)

    def test_laplacian_constant_zero(self):
        for bc in ("periodic", "neumann-noslip"):
            g = Grid((16, 16), (1.0, 1.0), bc)
            f = np.full(g.shape, 3.7)
            assert np.abs(lap_arr(f, g)).max() == 0.0

    @pytest.mark.parametrize("bc", ["periodic", "neumann-noslip"])
    def test_summation_by_parts(self, bc):
        g = Grid((24, 24), (1.0, 1.0), bc)
        rng = np.random.default_rng(0)
        f = rng.standard_normal(g.shape)
        v = rng.standard_normal((2,) + g.shape)
        s1 = (v * grad_arr(f, g, parity=1)).sum() * g.cell_volume
        s2 = (f * div_arr(v, g, parity=-1)).sum() * g.cell_volume
        assert abs(s1 + s2) < 1e-12

    @pytest.mark.parametrize("bc", ["periodic", "neumann-noslip"])
    @pytest.mark.parametrize("shape,lengths", [
        ((7,), (1.3,)),
        ((16, 12), (1.0, 0.7)),
        ((6, 5, 4), (1.0, 2.0, 0.3)),
        ((8,), (2.0,)),
        ((16, 8), (2.0, 0.5)),
        ((8, 4, 16), (1.0, 0.5, 4.0)),
        ((STENCIL_MATRIX_MAX + 36, 8), (1.3, 1.0)),
    ], ids=["1d", "2d", "3d", "1d-pow2", "2d-pow2", "3d-pow2", "2d-slice"])
    def test_stencils_match_reference_exactly(self, shape, lengths, bc):
        # An axis of up to STENCIL_MATRIX_MAX cells applies its difference
        # matrix by BLAS, whose products c*f with c = 1/2h round once (FMA)
        # or twice, so its last bit depends on the BLAS kernel unless c is
        # a power of two; a longer axis takes the slice difference, the
        # reference's own arithmetic.  Where every axis is one or the
        # other the stencils are the reference bit for bit, elsewhere
        # within 2 eps of the scale of the differences per entry.
        g = Grid(shape, lengths, bc)
        exact = all(n > STENCIL_MATRIX_MAX or math.log2(h).is_integer()
                    for n, h in zip(g.shape, g.h))
        rng = np.random.default_rng(1)
        f = rng.standard_normal(shape)
        v = rng.standard_normal((g.d,) + shape)
        eps = np.finfo(float).eps

        def check(kernel, ref, bound):
            if exact:
                assert np.array_equal(kernel, ref)
            else:
                assert np.all(np.abs(kernel - ref) <= bound)

        spread_f = np.stack([_ref_spread(f, g, a) for a in range(g.d)])
        spread_v = sum(_ref_spread(v[a], g, a) for a in range(g.d))
        for parity in (1, -1):
            check(grad_arr(f, g, parity), _ref_grad(f, g, parity),
                  2 * eps * spread_f)
            check(div_arr(v, g, parity), _ref_div(v, g, parity),
                  2 * eps * spread_v)
        # lap: the divergence's own rounding on the reference gradient,
        # plus the gradient's bound carried through the divergence
        ref_grad = _ref_grad(f, g, 1)
        spread_lap = sum(2 * eps * _ref_spread(ref_grad[a], g, a)
                         + _ref_spread(2 * eps * spread_f[a], g, a)
                         for a in range(g.d))
        check(lap_arr(f, g), _ref_div(ref_grad, g, -1), spread_lap)

    def test_difference_operator_cached_read_only(self):
        # one tuple of matrices per (grid, parity): 1/2h above the
        # diagonal, -1/2h below, the ghost cells in the edge rows
        for bc in ("periodic", "neumann-noslip"):
            g = Grid((8, 6), (1.0, 1.5), bc)
            mats = {parity: _stencils(g, parity) for parity in (1, -1)}
            assert mats[1] is not mats[-1]
            for parity, axes in mats.items():
                assert _stencils(g, parity) is axes
                for mat, n, h in zip(axes, g.shape, g.h):
                    c = 1.0 / (2.0 * h)
                    assert mat.shape == (n, n) and not mat.flags.writeable
                    expect = c * (np.eye(n, k=1) - np.eye(n, k=-1))
                    if bc == "periodic":
                        expect[0, -1], expect[-1, 0] = -c, c
                    else:
                        expect[0, 0], expect[-1, -1] = -parity * c, parity * c
                    assert np.array_equal(mat, expect)
                # _along multiplies the last axis by mat.T
                assert axes[-1].T.flags.c_contiguous
        # an axis past the crossover has no matrix: the slice difference
        long = Grid((STENCIL_MATRIX_MAX + 1, 4), (1.0, 1.0))
        assert _stencils(long, 1)[0] is None
        assert _stencils(long, 1)[1].shape == (4, 4)

    def test_integrate(self):
        g = periodic_grid(64)
        f = np.sin(2 * np.pi * g.meshgrid()[0])
        assert abs(integrate(f, g)) < 1e-14
        assert integrate(np.full(g.shape, 2.5), g) == pytest.approx(2.5)


# each boundary kind at unit lengths and at lengths scaled by 1e-9
# (nanometres in SI units) and 1e8: a vanish rule without the symbol's
# scale zeroes too few modes at the first and too many at the second
BC_SCALES = [pytest.param(bc, scale,
                          id=bc if scale == 1.0 else f"{bc}-{scale:g}")
             for scale in (1.0, 1e-9, 1e8)
             for bc in ("periodic", "neumann-noslip")]


def kernel_size(g):
    """The number of modes where the Laplacian symbol of g is 0 in exact
    arithmetic, at either parity: where sin(theta) = 0 on every axis, so
    k = 0 and, for even n, k = n/2 on each periodic axis; on Neumann grids
    the one constant DCT mode (parity 1) or k = n DST mode (parity -1)."""
    if g.bc != "periodic":
        return 1
    return math.prod(2 - n % 2 for n in g.shape)


class TestSolvers:
    @pytest.mark.parametrize("bc", ["periodic", "neumann-noslip"])
    def test_poisson_residual(self, bc):
        g = Grid((32, 32), (1.0, 1.0), bc)
        k = 2 * np.pi if bc == "periodic" else np.pi
        rhs = np.cos(k * g.meshgrid()[0])
        sol = solve_poisson(rhs, g)
        res = np.abs(lap_arr(sol, g) - rhs).max()
        assert res < 1e-9
        assert abs(sol.mean()) < 1e-12

    @pytest.mark.parametrize("bc,shape", [
        ("periodic", (7,)), ("periodic", (48, 48)), ("periodic", (64, 64)),
        ("neumann-noslip", (32, 32)), ("neumann-noslip", (16, 16, 16)),
    ])
    def test_poisson_mean_zero_to_rounding(self, bc, shape):
        # the multiplier is 0 on the constant mode, so no mean is removed
        # after the solve
        g = Grid(shape, (1.0,) * len(shape), bc)
        rhs = np.random.default_rng(2).standard_normal(shape) + 0.5
        p = solve_poisson(rhs, g)
        assert abs(p.mean()) <= 1e-15 * np.abs(p).max()

    @pytest.mark.parametrize("bc, scale", BC_SCALES)
    def test_projection_divergence_free(self, bc, scale):
        g = Grid((32, 32), (scale, scale), bc)
        rng = np.random.default_rng(1)
        v = rng.standard_normal((2,) + g.shape)
        w, p = project_divergence_free(v, g)
        assert (np.linalg.norm(div_arr(w, g))
                <= 1e-14 * np.linalg.norm(div_arr(v, g)))

    @pytest.mark.parametrize("bc", ["periodic", "neumann-noslip"])
    def test_projection_idempotent(self, bc):
        g = Grid((32, 32), (1.0, 1.0), bc)
        rng = np.random.default_rng(2)
        v = rng.standard_normal((2,) + g.shape)
        w, _ = project_divergence_free(v, g)
        w2, _ = project_divergence_free(w, g)
        assert np.abs(w - w2).max() < 1e-10

    def test_projection_preserves_divfree(self):
        # discrete curl field: div(curl psi) = 0 exactly for commuting stencils
        g = periodic_grid(32)
        x, y = g.meshgrid()
        gp = grad_arr(np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y), g)
        v = np.stack([gp[1], -gp[0]])
        assert np.abs(div_arr(v, g)).max() < 1e-10
        w, _ = project_divergence_free(v, g)
        assert np.abs(w - v).max() < 1e-10

    def test_poisson_neumann_3d(self):
        g = Grid((12, 12, 12), (1.0, 1.0, 1.0), "neumann-noslip")
        x, y, z = g.meshgrid()
        rhs = np.cos(np.pi * x) * np.cos(np.pi * z)
        sol = solve_poisson(rhs, g)
        assert np.abs(lap_arr(sol, g) - rhs).max() < 1e-8

    @pytest.mark.parametrize("bc", ["periodic", "neumann-noslip"])
    @pytest.mark.parametrize("shape, lengths", [
        ((16, 12), (1.0, 1.5)),
        ((10, 8, 6), (1.0, 0.8, 1.2)),
        ((9, 7), (1.0, 1.3)),                 # odd: no periodic Nyquist row
        ((4, 4), (1.0, 0.6)),                 # the fewest cells per axis
        ((11,), (1.3,)),                      # one axis
    ], ids=["2d", "3d", "odd", "fewest", "1d"])
    def test_spectral_solves_match_krylov(self, bc, shape, lengths):
        # the direct solves of the constant-coefficient time step, against
        # a dense solve of the matrix-free phi operator and against CG for
        # the others, preconditioned by the identity: the first argument
        # of cg is then the operator minus the identity
        g = Grid(shape, lengths, bc)
        rng = np.random.default_rng(5)
        b = rng.standard_normal(shape)
        dt, m, c0, a, eps1, eta = 1e-3, 0.7, 2.5e-3, 1.2, 1e-2, 2.0
        diag = 1.0 + dt / 0.5

        def lap_odd(x):
            return div_arr(grad_arr(x, g, parity=-1), g, parity=1)

        def close(x, ref):
            return np.abs(x - ref).max() <= 1e-9 * np.abs(ref).max()

        def identity(r):
            return r

        phi = solve_symbol(b, g, multiplier(
            g, 1, (1.0, -dt * m * a, dt * m * c0)))
        ref = np.linalg.solve(
            dense(lambda x: x + dt * m * lap_arr(c0 * lap_arr(x, g) - a * x, g),
                  shape),
            b.ravel()).reshape(shape)
        assert close(phi, ref)

        q = solve_symbol(b, g, multiplier(g, 1, (diag, -dt * eps1)))
        ref = cg(lambda x: (diag - 1.0) * x - dt * eps1 * lap_arr(x, g), b,
                 identity, np.zeros_like(b), identity, tol=1e-12)
        assert close(q, ref)

        u = solve_symbol(b, g, multiplier(g, -1, (1.0, -dt * eta)), parity=-1)
        ref = cg(lambda x: -dt * eta * lap_odd(x), b, identity,
                 np.zeros_like(b), identity, tol=1e-12)
        assert close(u, ref)

        # solve_poisson drops the mean of its right-hand side; the rest
        # is in the Laplacian's range on both boundary kinds (periodic
        # grids of even n also miss the checkerboards)
        rhs = lap_arr(b, g) + 0.3
        p = solve_poisson(rhs, g)
        ref = cg(lambda x: -lap_arr(x, g) - x, -(rhs - rhs.mean()), identity,
                 np.zeros_like(b), identity, tol=1e-12)
        assert close(p, ref - ref.mean())

    @pytest.mark.parametrize("bc", ["periodic", "neumann-noslip"])
    @pytest.mark.parametrize("parity", [1, -1])
    @pytest.mark.parametrize("n", [4, 7, 12])
    def test_bases_diagonalise_the_laplacian(self, bc, parity, n):
        # Q L Q^T = diag(lap_symbol) for the 1-D wide-stencil Laplacian L
        # of parity, with Q orthonormal, cached and read-only
        g = Grid((n,), (1.3,), bc)
        (Q,), (lam,) = _bases(g, parity)
        assert _bases(Grid((n,), (1.3,), bc), parity)[0][0] is Q
        assert not Q.flags.writeable and not lam.flags.writeable
        assert np.abs(Q @ Q.T - np.eye(n)).max() <= 1e-13
        if parity == 1:
            L = dense(lambda x: lap_arr(x, g), (n,))
        else:
            L = dense(lambda x: div_arr(grad_arr(x, g, parity=-1), g,
                                        parity=1), (n,))
        D = Q @ L @ Q.T
        assert np.array_equal(lap_symbol(g, parity), lam)
        assert np.abs(D - np.diag(lam)).max() <= 1e-13 * np.abs(L).max()

    def test_cg_reports_residual_when_maxiter_too_small(self):
        g = Grid((16, 16), (1.0, 1.0), "neumann-noslip")
        b = np.random.default_rng(6).standard_normal(g.shape)
        with pytest.raises(SolverError, match=r"in 3 iterations \(residual \d"):
            cg(lambda x: -1e-2 * lap_arr(x, g), b, lambda r: r,
               np.zeros_like(b), lambda x: x, tol=1e-12, maxiter=3)

    def test_lap_symbol_cached_read_only(self):
        g = Grid((8, 8), (1.0, 1.0), "neumann-noslip")
        assert lap_symbol(g, -1) is lap_symbol(g, -1)
        assert lap_symbol(g, 1) is not lap_symbol(g, -1)
        assert not lap_symbol(g, 1).flags.writeable

    @pytest.mark.parametrize("finite_calls", [0, 1])
    def test_cg_stops_at_first_non_finite_residual(self, finite_calls):
        # a remainder that turns NaN after finite_calls finite results:
        # SolverError at that iteration, not after maxiter more calls
        g = Grid((16, 16), (1.0, 1.0), "neumann-noslip")
        b = np.random.default_rng(6).standard_normal(g.shape)
        calls = []

        def remainder(x):
            calls.append(1)
            out = -1e-2 * lap_arr(x, g)
            return out if len(calls) <= finite_calls else out * np.nan

        with pytest.raises(SolverError, match=rf"residual nan at iteration "
                                              rf"{finite_calls} is not finite"):
            cg(remainder, b, lambda r: r, np.zeros_like(b), lambda x: x,
               tol=1e-12)
        assert len(calls) == finite_calls + 1 <= 2

    @pytest.mark.parametrize("bc, scale", BC_SCALES)
    @pytest.mark.parametrize("parity", [1, -1])
    @pytest.mark.parametrize("shape", [(8, 8), (6, 5, 4)])
    def test_multiplier_is_the_reciprocal_symbol(self, bc, scale, parity,
                                                 shape):
        # the time step's symbols, written out, have no kernel: 1/symbol
        # within 2 ulp at every mode, however large their condition number
        # at small lengths.  The Laplacian's is 0 exactly where it vanishes
        # relative to its largest magnitude, kernel_size modes.  Each is
        # read-only and cached
        g = Grid(shape, tuple(scale * L for L in (1.0, 0.7, 1.3)[:len(shape)]),
                 bc)
        s = lap_symbol(g, parity)
        dt, m, c0, a, eps1 = 1e-3, 0.7, 2.5e-3, 1.2, 1e-2
        vanishes = np.abs(s) <= 1e-14 * np.abs(s).max()
        cases = [((1.0, -dt * m * a, dt * m * c0),
                  1.0 + dt * m * (c0 * s * s - a * s), False),
                 ((a, -c0), a - c0 * s, False),
                 ((1.5, -dt * eps1), 1.5 - dt * eps1 * s, False),
                 ((0.0, 1.0), s, vanishes)]
        for coeffs, symbol, zero in cases:
            mult = multiplier(g, parity, coeffs)
            assert multiplier(g, parity, coeffs) is mult
            assert not mult.flags.writeable
            assert np.array_equal(mult == 0.0, np.broadcast_to(zero, g.shape))
            ref = 1.0 / np.where(zero, 1.0, symbol)
            gap = np.abs(mult - ref)[~zero]
            assert np.all(gap <= 2 * np.spacing(np.abs(ref[~zero])))
        assert np.count_nonzero(vanishes) == kernel_size(g)
