import dataclasses
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from viscophase import galerkin
from viscophase.cli import (DATUM_AMPLITUDE, DATUM_MODES,
                            _seeded_band_limited)
from viscophase.diagnostics import galerkin_records
from viscophase.errors import QuadratureResolutionError, SolverError
from viscophase.fields import Grid, grad_arr
from viscophase.galerkin import (CosineBasis, _leading, assemble_rhs,
                                 convergence_study, energy_galerkin,
                                 integrate_galerkin, project)
from viscophase.material import Potential, degenerate_model, regular_model


def linear_material():
    """F' = 0, A = 0, unit mobility: pure biharmonic phi dynamics."""
    M = regular_model()
    zero = lambda s: np.zeros_like(np.asarray(s, dtype=float))
    pot = dataclasses.replace(M.potential, f=zero, df=zero, d2f=zero)
    return dataclasses.replace(M, potential=pot, A=zero, dA=zero)


def variable_material():
    """Regular double well with n, A, A' and tau all varying in phi."""
    return regular_model(n=lambda s: 1.0 + 0.3 * np.asarray(s) ** 2,
                         A=lambda s: 1.0 + 0.5 * np.asarray(s),
                         dA=lambda s: np.full_like(np.asarray(s, float), 0.5),
                         tau=lambda s: 1.0 + 0.2 * np.asarray(s) ** 2)


def oscillating_material():
    """F' = cos(80 phi): unresolvable by a small basis's quadrature."""
    M = regular_model()
    osc = lambda s: np.cos(80.0 * np.asarray(s, dtype=float))
    return dataclasses.replace(
        M, potential=dataclasses.replace(M.potential, df=osc))


class TestBasis:
    def test_orthonormality(self):
        B = CosineBasis((1.0, 1.0), 16)
        gram = B.w * (B.Psi @ B.Psi.T)
        assert np.abs(gram - np.eye(16)).max() < 1e-12

    def test_eigen_identity(self):
        B = CosineBasis((1.0, 1.0), 16)
        stiff = B.w * np.einsum('diq,djq->ij', B.dPsi, B.dPsi)
        assert np.abs(stiff - np.diag(B.lam)).max() < 1e-10

    def test_constant_mode_first(self):
        B = CosineBasis((2.0, 3.0), 8)
        assert B.lam[0] == 0.0
        assert tuple(B.kvecs[0]) == (0, 0)
        assert np.all(np.diff(B.lam) >= 0)

    @pytest.mark.parametrize("lengths,m", [
        ((4.0, 0.25), 16), ((1.0, 0.1), 8), ((1.0, 1.0, 0.2), 100),
        ((1.0, 1.0), 8), ((1.0, 1.0), 16)],
        ids=["4x0.25", "1x0.1", "1x1x0.2", "square-8", "square-16"])
    def test_first_modes_match_enumeration(self, lengths, m):
        # the m smallest of all modes with k <= 24 on every axis, ties in k
        # order; no mode outside that box can be among them
        kmax = 24
        modes = sorted(
            (sum((k * np.pi / L) ** 2 for k, L in zip(kt, lengths)), kt)
            for kt in itertools.product(range(kmax + 1), repeat=len(lengths))
        )[:m]
        assert modes[-1][0] < (kmax * np.pi / max(lengths)) ** 2
        B = CosineBasis(lengths, m)
        assert B.kvecs.tolist() == [list(kt) for _, kt in modes]
        assert np.array_equal(B.lam, [lam for lam, _ in modes])

    @pytest.mark.parametrize("lengths,m,n_quad", [
        ((4.0, 0.25), 16, (32, 4)), ((1.0, 0.1), 8, (16, 4)),
        ((1.0, 1.0, 0.2), 100, (18, 18, 4)), ((1.0, 1.0), 16, (8, 10))],
        ids=["4x0.25", "1x0.1", "1x1x0.2", "square-16"])
    def test_quadrature_sized_per_axis(self, lengths, m, n_quad):
        # each axis gets max(2 (k_max + 1), 4) nodes for its own k_max
        B = CosineBasis(lengths, m)
        assert B.n_quad == tuple(max(2 * (int(k) + 1), 4)
                                 for k in B.kvecs.max(axis=0)) == n_quad
        nq = int(np.prod(n_quad))
        assert B.Psi.shape == (m, nq)
        assert B.dPsi.shape == (len(lengths), m, nq)
        assert B.Psi_f.shape == (m, 2 ** len(lengths) * nq)
        for tab in (B.Psi, B.dPsi, B.Psi_f):
            assert np.shares_memory(tab, B.table)
        for Psi, w in ((B.Psi, B.w), (B.Psi_f, B.w_f)):
            assert np.abs(w * (Psi @ Psi.T) - np.eye(m)).max() < 1e-12
        stiff = B.w * np.einsum('diq,djq->ij', B.dPsi, B.dPsi)
        assert np.abs(stiff - np.diag(B.lam)).max() < 1e-12 * B.lam.max()

    def test_rectangle_eigenvalues(self):
        B = CosineBasis((2.0, 1.0), 6)
        for kv, lam in zip(B.kvecs, B.lam):
            expect = (kv[0] * np.pi / 2.0) ** 2 + (kv[1] * np.pi) ** 2
            assert lam == pytest.approx(expect)


class TestProjection:
    def test_basis_function_projects_to_unit(self):
        B = CosineBasis((1.0, 1.0), 8)
        e3 = np.zeros(8)
        e3[3] = 1.0
        vals = B.values(e3)
        coeffs = B.inner(vals)
        np.testing.assert_allclose(coeffs, e3, atol=1e-12)

    def test_constant_projects_to_constant_mode(self):
        B = CosineBasis((2.0, 2.0), 6)
        c = project(lambda x, y: 3.0 + 0 * x, B)
        # constant mode carries c * sqrt(|Omega|)
        assert c[0] == pytest.approx(3.0 * 2.0)
        assert np.abs(c[1:]).max() < 1e-12

    def test_linear_function_coefficient(self):
        # f = x on [0,1]: cos(pi x) coefficient is -2*sqrt(2)/pi^2
        B = CosineBasis((1.0,), 6, oversample=64)
        c = project(lambda x: x, B)
        idx = int(np.where(B.kvecs[:, 0] == 1)[0][0])
        assert c[idx] == pytest.approx(-2 * np.sqrt(2) / np.pi**2, rel=1e-4)

    def test_reconstruction_on_external_axes(self):
        B = CosineBasis((1.0, 1.0), 5)
        coeffs = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
        axes = [np.linspace(0.05, 0.95, 10), np.linspace(0.05, 0.95, 12)]
        vals = B.evaluate(coeffs, axes)
        assert vals.shape == (10, 12)


class TestAssembleRhs:
    def test_zero_state(self):
        B = CosineBasis((1.0, 1.0), 8)
        M = regular_model()
        dlam, dzeta, _ = assemble_rhs(np.zeros((1, 8)), np.zeros((1, 8)),
                                      B, M)
        assert np.abs(dlam).max() < 1e-12
        assert np.abs(dzeta).max() < 1e-12

    def test_constant_mode_relaxation(self):
        B = CosineBasis((1.0, 1.0), 1)
        M = regular_model()
        dlam, dzeta, _ = assemble_rhs(np.array([[0.3]]), np.array([[0.7]]),
                                      B, M)
        assert dlam[0, 0] == pytest.approx(0.0, abs=1e-13)
        assert dzeta[0, 0] == pytest.approx(-0.7, rel=1e-12)  # -zeta / tau

    def test_linear_biharmonic_spectrum(self):
        B = CosineBasis((1.0, 1.0), 10)
        M = linear_material()
        rng = np.random.default_rng(0)
        lam = rng.standard_normal(10)
        dlam, _, _ = assemble_rhs(lam[None], np.zeros((1, 10)), B, M)
        np.testing.assert_allclose(dlam[0], -M.c0 * B.lam**2 * lam,
                                   rtol=1e-10, atol=1e-12)

    def test_quadrature_resolution_error(self):
        # wildly oscillatory F' cannot be resolved by the coarse quadrature
        B = CosineBasis((1.0,), 2)
        with pytest.raises(QuadratureResolutionError):
            assemble_rhs(np.array([[0.0, 2.0]]), np.zeros((1, 2)), B,
                         oscillating_material())

    @pytest.mark.parametrize("model,mean,amplitude", [
        (regular_model, 0.0, 0.05), (variable_material, 0.0, 0.05),
        (lambda: degenerate_model(1e-3), 0.5, 0.004)],
        ids=["regular", "variable", "degenerate"])
    @pytest.mark.parametrize("lengths,m", [
        ((1.0,), 8), ((1.0, 0.5), 16), ((1.0, 1.0, 0.5), 20)],
        ids=["1d", "2d", "3d"])
    def test_discrete_dissipation_law(self, model, mean, amplitude,
                                      lengths, m):
        # dE/dt = theta . dlam + zeta . dzeta = -D_total for every state,
        # with theta built here from Psi alone
        M, B = model(), CosineBasis(lengths, m)
        rng = np.random.default_rng(3)
        lam = amplitude * rng.standard_normal(m)
        lam[0] = mean * np.sqrt(np.prod(lengths))
        zeta = 0.05 * rng.standard_normal(m)
        dlam, dzeta, D = assemble_rhs(lam[None], zeta[None], B, M)
        theta = M.c0 * B.lam * lam + B.inner(M.potential.df(B.values(lam)))
        balance = theta @ dlam[0] + zeta @ dzeta[0] + D[0]
        assert D[0] > 0.0
        assert abs(balance) <= 1e-12 * D[0]

    @pytest.mark.parametrize("model,mean,amplitude", [
        (regular_model, 0.0, 0.05), (variable_material, 0.0, 0.05),
        (lambda: degenerate_model(1e-3), 0.5, 0.004)],
        ids=["regular", "variable", "degenerate"])
    @pytest.mark.parametrize("lengths,m", [
        ((1.0,), 8), ((1.0, 0.5), 16), ((1.0, 1.0, 0.5), 20)],
        ids=["1d", "2d", "3d"])
    def test_batch_matches_single_states(self, model, mean, amplitude,
                                         lengths, m):
        # a (K, m) batch gives what K batches of one give, to rounding
        M, B = model(), CosineBasis(lengths, m)
        rng = np.random.default_rng(7)
        lam = amplitude * rng.standard_normal((5, m))
        lam[:, 0] = mean * np.sqrt(np.prod(lengths))
        zeta = 0.05 * rng.standard_normal((5, m))
        batched = (*assemble_rhs(lam, zeta, B, M),
                   *energy_galerkin(lam, zeta, B, M))
        singles = [(*assemble_rhs(lam[k:k + 1], zeta[k:k + 1], B, M),
                    *energy_galerkin(lam[k:k + 1], zeta[k:k + 1], B, M))
                   for k in range(5)]
        for i, name in enumerate(("dlam", "dzeta", "D", "E", "D of E")):
            assert batched[i].shape[0] == 5, name
            expect = np.concatenate([single[i] for single in singles])
            assert np.abs(batched[i] - expect).max() <= (
                1e-13 * np.abs(expect).max()), name

    def test_one_under_resolved_member_fails_the_batch(self):
        B, M = CosineBasis((1.0,), 2), oscillating_material()
        lam, zeta = np.array([[0.0, 0.0], [0.0, 2.0]]), np.zeros((2, 2))
        assemble_rhs(lam[:1], zeta[:1], B, M)        # F' = 1 is resolved
        with pytest.raises(QuadratureResolutionError):
            assemble_rhs(lam, zeta, B, M)


class TestIntegration:
    def test_constant_mode_decay(self):
        B = CosineBasis((1.0, 1.0), 1)
        M = regular_model()
        run = integrate_galerkin(np.array([0.3]), np.array([0.7]), B, M,
                                 1.0, rtol=1e-8)
        z = run.zeta[:, 0]
        assert np.abs(z - 0.7 * np.exp(-run.times)).max() < 1e-8

    def test_batched_jacobian_matches_lsoda_differences(self, monkeypatch):
        # at m = 64 LSODA goes stiff; its Jacobian is one batched
        # right-hand side of 2m + 1 states instead of 2m + 1 single ones
        scipy_integrate = pytest.importorskip("scipy.integrate")
        m, lengths = 64, (1.0, 1.0)
        lam0 = _leading(_seeded_band_limited(0, lengths), m)
        calls = []

        def counted(*args):
            calls.append(len(args[0]))
            return assemble_rhs(*args)

        monkeypatch.setattr(galerkin, "assemble_rhs", counted)
        args = (lam0, np.zeros(m), CosineBasis(lengths, m), regular_model(),
                0.5)
        run = integrate_galerkin(*args)
        assert len(calls) < 1000 and max(calls) == 2 * m + 1
        odeint = scipy_integrate.odeint

        def without_jacobian(*a, Dfun=None, **kw):
            return odeint(*a, **kw)

        monkeypatch.setattr(scipy_integrate, "odeint", without_jacobian)
        ref = integrate_galerkin(*args)
        final = np.concatenate([run.lam[-1], run.zeta[-1]])
        ref_final = np.concatenate([ref.lam[-1], ref.zeta[-1]])
        assert (np.linalg.norm(final - ref_final)
                <= 1e-8 * np.linalg.norm(ref_final))

    def test_zero_initial_data(self):
        B = CosineBasis((1.0, 1.0), 4)
        M = regular_model()
        run = integrate_galerkin(np.zeros(4), np.zeros(4), B, M, 0.1)
        assert np.abs(run.lam[-1]).max() < 1e-12
        assert run.E[0] == pytest.approx(0.25)      # F(0) |Omega|

    def test_energy_inequality_nonlinear(self):
        rng = np.random.default_rng(2)
        B = CosineBasis((1.0, 1.0), 16)
        M = regular_model()
        lam0 = 0.05 * rng.standard_normal(16)
        lam0[0] = 0.0
        run = integrate_galerkin(lam0, 0.05 * rng.standard_normal(16), B, M,
                                 0.5, rtol=1e-8)
        (record,) = galerkin_records({"m": [16], "runs": [run]})
        assert record.passed and record.value <= 0.0

    def test_mass_invariance(self):
        rng = np.random.default_rng(5)
        B = CosineBasis((1.0, 1.0), 12)
        M = regular_model()
        lam0 = 0.05 * rng.standard_normal(12)
        lam0[0] = 0.4
        run = integrate_galerkin(lam0, np.zeros(12), B, M, 0.2)
        consts = run.lam[:, 0]
        assert np.abs(consts - 0.4).max() < 1e-9


    @pytest.fixture(scope="class")
    def seed0_runs(self):
        # the m = 16 study of `viscophase galerkin` at its defaults
        B = CosineBasis((1.0, 1.0), 16)
        lam0 = _leading(_seeded_band_limited(0, (1.0, 1.0)), 16)
        return {rtol: integrate_galerkin(lam0, np.zeros(16), B,
                                         regular_model(), 0.5, rtol=rtol)
                for rtol in (1e-8, 1e-12)}

    def test_default_rtol_matches_tight_run(self, seed0_runs):
        run, tight = seed0_runs[1e-8], seed0_runs[1e-12]
        assert np.array_equal(run.times, tight.times)
        assert np.abs(run.lam - tight.lam).max() <= 1e-8
        assert np.abs(run.zeta - tight.zeta).max() <= 1e-8

    def test_energy_balance_closes(self, seed0_runs):
        run = seed0_runs[1e-8]
        assert np.abs(run.E + run.D_cum - run.E[0]).max() <= 1e-9

    def test_repeated_runs_hold_no_integrator_memory(self):
        # LSODA's workspace must not outlive the run that used it, so a
        # process running many studies does not grow
        B = CosineBasis((1.0, 1.0), 8)
        M = regular_model()
        lam0 = _leading(_seeded_band_limited(0, (1.0, 1.0)), 8)

        def run():
            integrate_galerkin(lam0, np.zeros(8), B, M, 0.1)

        run()
        only_scipy = [tracemalloc.Filter(True, "*scipy/integrate/*")]
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot().filter_traces(only_scipy)
            for _ in range(5):
                run()
            after = tracemalloc.take_snapshot().filter_traces(only_scipy)
        finally:
            tracemalloc.stop()
        held = sum(d.size_diff for d in after.compare_to(before, "lineno"))
        assert held < 1024

    def test_failure_is_a_solver_error_without_warning(self):
        # q grows like exp(100 t) under a negative relaxation time, until
        # LSODA gives up
        M = dataclasses.replace(
            regular_model(),
            tau=lambda s: np.full_like(np.asarray(s, dtype=float), -1e-2))
        B = CosineBasis((1.0,), 1)
        with warnings.catch_warnings(record=True) as caught, \
                np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("always")
            with pytest.raises(SolverError, match="Galerkin integration "
                               "failed .*; LSODA could not meet"):
                integrate_galerkin(np.array([0.3]), np.array([0.7]), B, M,
                                   100.0)
        assert not [w for w in caught if "ODEint" in w.category.__name__]

    def test_rhs_error_escapes_integrator(self):
        # the integrator calls the right-hand side from compiled code
        B = CosineBasis((1.0,), 2)
        with pytest.raises(QuadratureResolutionError,
                           match=r"under-resolved .* \(Richardson gap "):
            integrate_galerkin(np.array([0.0, 2.0]), np.zeros(2), B,
                               oscillating_material(), 0.1)


class TestEnergy:
    def test_pure_mode_energy(self):
        B = CosineBasis((1.0, 1.0), 6)
        M = linear_material()
        coeff = 0.37
        lam = np.zeros(6)
        lam[2] = coeff
        E, _ = energy_galerkin(lam[None], np.zeros((1, 6)), B, M)
        assert E[0] == pytest.approx(M.c0 * B.lam[2] * coeff**2 / 2, rel=1e-10)

    def test_cross_module_consistency(self):
        # energy of the reconstructed fields on a fine grid matches the
        # basis-quadrature energy
        B = CosineBasis((1.0,), 5)
        M = regular_model()
        rng = np.random.default_rng(1)
        lam = 0.1 * rng.standard_normal(5)
        zeta = 0.1 * rng.standard_normal(5)
        (E_spec,), _ = energy_galerkin(lam[None], zeta[None], B, M)
        grid = Grid((100000,), (1.0,), "neumann-noslip")
        axes = grid.axes()
        phi = B.evaluate(lam, axes)
        q = B.evaluate(zeta, axes)
        gphi = grad_arr(phi, grid, parity=1)
        E_grid = float((0.5 * M.c0 * (gphi**2).sum(axis=0)
                        + np.asarray(M.potential.f(phi))
                        + 0.5 * q * q).sum() * grid.cell_volume)
        assert E_grid == pytest.approx(E_spec, abs=1e-8)


def _coefficients(phi0):
    """The coefficients of phi0(x, y) on the first 16 modes of the unit
    square."""
    return project(phi0, CosineBasis((1.0, 1.0), 16))


class TestConvergence:
    def test_linear_spectral_accuracy(self):
        M = linear_material()
        lam0 = _coefficients(lambda x, y: (
            0.3 * np.cos(np.pi * x) * np.cos(np.pi * y)
            + 0.1 * np.cos(2 * np.pi * x)))
        study = convergence_study([4, 8, 16], lam0, np.zeros(1), M,
                                  (1.0, 1.0), 0.2, rtol=1e-10)
        # once m covers the band limit the solutions coincide
        assert study["diffs"][-1] < 1e-8
        assert np.all(np.diff(study["diffs"]) <= 0)

    def test_band_limited_projection_exact(self):
        B = CosineBasis((1.0, 1.0), 8)
        phi0 = lambda x, y: 0.5 * np.cos(np.pi * x)
        c = project(phi0, B)
        recon = B.values(c)
        mesh = np.meshgrid(*B.axes, indexing="ij")
        exact = phi0(*mesh).reshape(-1)
        assert np.abs(recon - exact).max() < 1e-12

    def test_nonlinear_study_reports(self):
        M = regular_model()
        lam0 = _coefficients(
            lambda x, y: 0.2 * np.cos(np.pi * x) * np.cos(np.pi * y))
        study = convergence_study([4, 8, 16], lam0, np.zeros(1), M,
                                  (1.0, 1.0), 0.05, rtol=1e-9)
        assert sorted(study) == ["diffs", "m", "runs"]
        assert len(study["diffs"]) == 2
        assert np.all(np.isfinite(study["diffs"]))

    @pytest.mark.parametrize("lengths", [(1.0, 1.0), (2.0, 1.0), (1.0,)])
    def test_cauchy_entries_are_l2_distances(self, lengths):
        # Parseval: the coefficient distance is the L2 distance of the
        # fields on the last basis's doubled quadrature
        m_list = [4, 8, 16]
        study = convergence_study(m_list, _seeded_band_limited(1, lengths,
                                                               mean=0.3),
                                  np.zeros(1), regular_model(), lengths, 0.05)
        B = CosineBasis(lengths, m_list[-1])
        fields = [B.evaluate(_leading(run.lam[-1], B.m), B.axes_f)
                  for run in study["runs"]]
        l2 = [np.sqrt(B.w_f * ((b - a) ** 2).sum())
              for a, b in zip(fields, fields[1:])]
        np.testing.assert_allclose(study["diffs"], l2, rtol=1e-12)

    def test_study_stays_in_coefficient_space(self, monkeypatch):
        def no_call(*args):
            raise AssertionError("the study left coefficient space")
        monkeypatch.setattr(galerkin, "project", no_call)
        monkeypatch.setattr(CosineBasis, "evaluate", no_call)
        study = convergence_study([4, 8], _seeded_band_limited(0, (1.0, 1.0)),
                                  np.zeros(1), regular_model(), (1.0, 1.0),
                                  0.01)
        assert len(study["diffs"]) == 1

    def test_bases_of_one_box_share_their_leading_modes(self):
        for lengths in [(1.0, 1.0), (2.0, 1.0), (1.0, 1.0, 1.0), (3.0,)]:
            big = CosineBasis(lengths, 40)
            for m in (1, 4, 6, 9, 16):
                B = CosineBasis(lengths, m)
                np.testing.assert_array_equal(B.kvecs, big.kvecs[:m])

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            convergence_study([8, 4], np.zeros(1), np.zeros(1),
                              regular_model(), (1.0, 1.0), 0.1)


class TestDatum:
    @pytest.mark.parametrize("lengths", [(1.0, 1.0), (2.0, 1.0), (1.0,)])
    def test_mean_in_the_constant_mode(self, lengths):
        lam0 = _seeded_band_limited(3, lengths, mean=0.3)
        assert lam0.shape == (DATUM_MODES,)
        assert lam0[0] == 0.3 * np.sqrt(np.prod(lengths))
        # the peak about the mean on the datum basis's quadrature
        vals = CosineBasis(lengths, DATUM_MODES).values(lam0)
        assert np.abs(vals - 0.3).max() == pytest.approx(DATUM_AMPLITUDE,
                                                         rel=1e-12)

    def test_seeded(self):
        a, b = (_seeded_band_limited(s, (1.0, 1.0)) for s in (0, 1))
        assert not np.array_equal(a, b)
        np.testing.assert_array_equal(a, _seeded_band_limited(0, (1.0, 1.0)))
