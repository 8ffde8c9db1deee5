import dataclasses

import numpy as np
import pytest

from viscophase.errors import ConfigError, SolverError
from viscophase.fields import (Grid, _bases, _diff_index, cg, div_arr,
                               grad_arr,
                               integrate, lap_arr, lap_symbol, multiplier,
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
    ], ids=["1d", "2d", "3d"])
    def test_stencils_match_reference_exactly(self, shape, lengths, bc):
        g = Grid(shape, lengths, bc)
        rng = np.random.default_rng(1)
        f = rng.standard_normal(shape)
        v = rng.standard_normal((g.d,) + shape)
        for parity in (1, -1):
            assert np.array_equal(grad_arr(f, g, parity), _ref_grad(f, g, parity))
            assert np.array_equal(div_arr(v, g, parity), _ref_div(v, g, parity))
        assert np.array_equal(lap_arr(f, g), _ref_div(_ref_grad(f, g, 1), g, -1))

    def test_difference_operator_cached_read_only(self):
        for bc in ("periodic", "neumann-noslip"):
            g = Grid((8, 6), (1.0, 1.0), bc)
            tables = {(parity, stacked): _diff_index(g, parity, stacked)
                      for parity in (1, -1) for stacked in (True, False)}
            assert len({id(t) for t in tables.values()}) == 4
            for (parity, stacked), table in tables.items():
                assert _diff_index(g, parity, stacked) is table
                plus, minus, two_h = table
                for arr in (plus, minus):
                    assert arr.shape == (2, 8, 6) and not arr.flags.writeable
                assert two_h.shape == (2, 1, 1) and not two_h.flags.writeable
                assert np.array_equal(two_h.ravel(), [2.0 / 8, 2.0 / 6])
                # only Neumann grids at odd parity read the negated copy,
                # which starts after the flattened input
                top = max(plus.max(), minus.max())
                size = 48 if stacked else 2 * 48
                assert (top >= size) == (bc != "periodic" and parity == -1)

    def test_integrate(self):
        g = periodic_grid(64)
        f = np.sin(2 * np.pi * g.meshgrid()[0])
        assert abs(integrate(f, g)) < 1e-14
        assert integrate(np.full(g.shape, 2.5), g) == pytest.approx(2.5)


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

    @pytest.mark.parametrize("bc", ["periodic", "neumann-noslip"])
    def test_projection_divergence_free(self, bc):
        g = Grid((32, 32), (1.0, 1.0), bc)
        rng = np.random.default_rng(1)
        v = rng.standard_normal((2,) + g.shape)
        w, p = project_divergence_free(v, g)
        assert np.abs(div_arr(w, g)).max() < 1e-10

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

    @pytest.mark.parametrize("bc", ["periodic", "neumann-noslip"])
    @pytest.mark.parametrize("parity", [1, -1])
    @pytest.mark.parametrize("shape", [(8, 8), (6, 5, 4)])
    def test_multiplier_is_the_reciprocal_symbol(self, bc, parity, shape):
        # the time step's symbols, written out, and the Laplacian, which
        # vanishes at the constant mode (and on periodic grids of even n
        # at the checkerboards): 1/symbol within 2 ulp, 0 where it
        # vanishes, read-only and cached
        g = Grid(shape, (1.0, 0.7, 1.3)[:len(shape)], bc)
        s = lap_symbol(g, parity)
        dt, m, c0, a, eps1 = 1e-3, 0.7, 2.5e-3, 1.2, 1e-2
        cases = [((1.0, -dt * m * a, dt * m * c0),
                  1.0 + dt * m * (c0 * s * s - a * s)),
                 ((a, -c0), a - c0 * s),
                 ((1.5, -dt * eps1), 1.5 - dt * eps1 * s),
                 ((0.0, 1.0), s)]
        for coeffs, symbol in cases:
            mult = multiplier(g, parity, coeffs)
            assert multiplier(g, parity, coeffs) is mult
            assert not mult.flags.writeable
            vanishes = np.abs(symbol) <= 1e-14
            ref = 1.0 / np.where(vanishes, 1.0, symbol)
            assert np.all(mult[vanishes] == 0.0)
            gap = np.abs(mult - ref)[~vanishes]
            assert np.all(gap <= 2 * np.spacing(np.abs(ref[~vanishes])))
        assert np.count_nonzero(multiplier(g, parity, (0.0, 1.0)) == 0) == (
            np.count_nonzero(np.abs(s) <= 1e-14))
