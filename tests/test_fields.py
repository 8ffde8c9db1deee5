import numpy as np
import pytest

from viscophase.errors import GridMismatchError, SolverError
from viscophase.fields import (Grid, ScalarField, VectorField, _diff_op,
                               cg, divergence, div_arr, grad_arr,
                               gradient, integrate, l2_norm, lap_arr,
                               lap_symbol, laplacian, project_divergence_free,
                               solve_poisson, solve_symbol)


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
        assert g.volume == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid((32, 32), (1.0, 1.0), "dirichlet")
        with pytest.raises(ValueError):
            Grid((2, 32), (1.0, 1.0), "periodic")
        with pytest.raises(ValueError):
            Grid((32, 32), (1.0,), "periodic")

    def test_field_grid_mismatch(self):
        a = ScalarField.full(periodic_grid(8), 1.0)
        b = ScalarField.full(periodic_grid(16), 1.0)
        with pytest.raises(GridMismatchError):
            _ = a + b


class TestOperators:
    @pytest.mark.parametrize("n", [32, 64])
    def test_gradient_periodic_accuracy(self, n):
        g = periodic_grid(n)
        f = ScalarField.from_function(g, lambda x, y: np.sin(2 * np.pi * x))
        gx = gradient(f).data[0]
        x = g.meshgrid()[0]
        exact = 2 * np.pi * np.cos(2 * np.pi * x)
        err = np.abs(gx - exact).max()
        # central difference: error ~ (2*pi)^3 h^2 / 6
        assert err < 45.0 / n**2

    def test_gradient_second_order(self):
        errs = []
        for n in (32, 64, 128):
            g = periodic_grid(n)
            f = ScalarField.from_function(
                g, lambda x, y: np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y))
            x, y = g.meshgrid()
            exact = 2 * np.pi * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
            errs.append(np.abs(gradient(f).data[0] - exact).max())
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(np.abs(orders - 2.0) < 0.1)

    def test_laplacian_neumann_accuracy(self):
        errs = []
        for n in (32, 64):
            g = Grid((n, n), (1.0, 1.0), "neumann-noslip")
            f = ScalarField.from_function(
                g, lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y))
            x, y = g.meshgrid()
            exact = -2 * np.pi**2 * np.cos(np.pi * x) * np.cos(np.pi * y)
            errs.append(np.abs(laplacian(f).data - exact).max())
        assert np.log2(errs[0] / errs[1]) == pytest.approx(2.0, abs=0.2)

    def test_laplacian_constant_zero(self):
        for bc in ("periodic", "neumann-noslip"):
            g = Grid((16, 16), (1.0, 1.0), bc)
            f = ScalarField.full(g, 3.7)
            assert np.abs(laplacian(f).data).max() == 0.0

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
        g = Grid((8, 6), (1.0, 1.0), "neumann-noslip")
        assert _diff_op(g, -1) is _diff_op(g, -1)
        assert _diff_op(g, 1) is not _diff_op(g, -1)
        op = _diff_op(g, 1)
        assert not any(a.flags.writeable for a in (op.data, op.indices, op.indptr))

    def test_integrate(self):
        g = periodic_grid(64)
        f = ScalarField.from_function(g, lambda x, y: np.sin(2 * np.pi * x))
        assert abs(integrate(f)) < 1e-14
        assert integrate(ScalarField.full(g, 2.5)) == pytest.approx(2.5)

    def test_l2_norm(self):
        g = periodic_grid(32)
        assert l2_norm(ScalarField.full(g, 2.0)) == pytest.approx(2.0)


class TestSolvers:
    @pytest.mark.parametrize("bc", ["periodic", "neumann-noslip"])
    def test_poisson_residual(self, bc):
        g = Grid((32, 32), (1.0, 1.0), bc)
        k = 2 * np.pi if bc == "periodic" else np.pi
        rhs = ScalarField.from_function(g, lambda x, y: np.cos(k * x))
        sol = solve_poisson(rhs)
        res = np.abs(laplacian(sol).data - rhs.data).max()
        assert res < 1e-9
        assert abs(sol.data.mean()) < 1e-12

    @pytest.mark.parametrize("bc", ["periodic", "neumann-noslip"])
    def test_projection_divergence_free(self, bc):
        g = Grid((32, 32), (1.0, 1.0), bc)
        rng = np.random.default_rng(1)
        v = VectorField(g, rng.standard_normal((2,) + g.shape))
        w, p = project_divergence_free(v)
        assert np.abs(divergence(w).data).max() < 1e-10

    @pytest.mark.parametrize("bc", ["periodic", "neumann-noslip"])
    def test_projection_idempotent(self, bc):
        g = Grid((32, 32), (1.0, 1.0), bc)
        rng = np.random.default_rng(2)
        v = VectorField(g, rng.standard_normal((2,) + g.shape))
        w, _ = project_divergence_free(v)
        w2, _ = project_divergence_free(w)
        assert np.abs(w.data - w2.data).max() < 1e-10

    def test_projection_preserves_divfree(self):
        # discrete curl field: div(curl psi) = 0 exactly for commuting stencils
        g = periodic_grid(32)
        psi = ScalarField.from_function(
            g, lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y))
        gp = gradient(psi).data
        v = VectorField(g, np.stack([gp[1], -gp[0]]))
        assert np.abs(divergence(v).data).max() < 1e-10
        w, _ = project_divergence_free(v)
        assert np.abs(w.data - v.data).max() < 1e-10

    def test_poisson_neumann_3d(self):
        g = Grid((12, 12, 12), (1.0, 1.0, 1.0), "neumann-noslip")
        rhs = ScalarField.from_function(
            g, lambda x, y, z: np.cos(np.pi * x) * np.cos(np.pi * z))
        sol = solve_poisson(rhs)
        assert np.abs(laplacian(sol).data - rhs.data).max() < 1e-8

    @pytest.mark.parametrize("lengths", [(1.0, 1.5), (1.0, 0.8, 1.2)])
    def test_spectral_solves_match_krylov_on_neumann(self, lengths):
        # the direct DCT/DST solves of the constant-coefficient time step,
        # against a dense solve of the matrix-free phi operator and against
        # CG, unpreconditioned here, for the others
        shape = (16, 12) if len(lengths) == 2 else (10, 8, 6)
        g = Grid(shape, lengths, "neumann-noslip")
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

        phi = solve_symbol(b, g, lambda s: 1.0 + dt * m * (c0 * s * s - a * s))
        ref = np.linalg.solve(
            dense(lambda x: x + dt * m * lap_arr(c0 * lap_arr(x, g) - a * x, g),
                  shape),
            b.ravel()).reshape(shape)
        assert close(phi, ref)

        q = solve_symbol(b, g, lambda s: diag - dt * eps1 * s)
        ref = cg(lambda x: diag * x - dt * eps1 * lap_arr(x, g), b, identity,
                 tol=1e-12)
        assert close(q, ref)

        u = solve_symbol(b, g, lambda s: 1.0 - dt * eta * s, parity=-1)
        ref = cg(lambda x: x - dt * eta * lap_odd(x), b, identity, tol=1e-12)
        assert close(u, ref)

        p = solve_poisson(ScalarField(g, b)).data
        ref = cg(lambda x: -lap_arr(x, g), -(b - b.mean()), identity, tol=1e-12)
        assert close(p, ref - ref.mean())

    def test_cg_reports_residual_when_maxiter_too_small(self):
        g = Grid((16, 16), (1.0, 1.0), "neumann-noslip")
        b = np.random.default_rng(6).standard_normal(g.shape)
        with pytest.raises(SolverError, match=r"in 3 iterations \(residual \d"):
            cg(lambda x: x - 1e-2 * lap_arr(x, g), b, lambda r: r, tol=1e-12,
               maxiter=3)

    def test_lap_symbol_cached_read_only(self):
        g = Grid((8, 8), (1.0, 1.0), "neumann-noslip")
        assert lap_symbol(g, -1) is lap_symbol(g, -1)
        assert lap_symbol(g, 1) is not lap_symbol(g, -1)
        assert not lap_symbol(g, 1).flags.writeable
