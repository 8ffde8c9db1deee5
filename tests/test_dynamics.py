import dataclasses

import numpy as np
import pytest

import viscophase.dynamics
from viscophase.diagnostics import energy
from viscophase.dynamics import (SimConfig, State, build_grid, build_material,
                                 chemical_potential, dt_max, flux_phi,
                                 initial_state, make_state, simulate,
                                 step_phi_q, step_velocity)
from viscophase.errors import BlowUpError, ConfigError
from viscophase.fields import (Grid, ScalarField, VectorField, div_arr,
                               grad_arr, integrate, lap_arr)
from viscophase.material import degenerate_model, regular_model


def small_cfg(**kw):
    base = dict(shape=(16, 16), steps=10, output_every=10, seed=0)
    base.update(kw)
    return SimConfig(**base)


class TestChemicalPotential:
    def test_constant_field(self):
        cfg = small_cfg()
        grid = build_grid(cfg)
        M = build_material(cfg)
        phi = ScalarField.full(grid, 0.5)
        mu = chemical_potential(phi, M)
        # mu = F'(0.5) = 0.125 - 0.5
        assert np.abs(mu.data - (-0.375)).max() < 1e-14

    def test_cosine_mode(self):
        cfg = small_cfg(shape=(256, 8))
        grid = build_grid(cfg)
        M = build_material(cfg)
        phi = ScalarField.from_function(grid, lambda x, y: 0.1 * np.cos(2 * np.pi * x))
        mu = chemical_potential(phi, M)
        x = grid.meshgrid()[0]
        c = 0.1 * np.cos(2 * np.pi * x)
        exact = M.c0 * (2 * np.pi) ** 2 * c + (c**3 - c)
        assert np.abs(mu.data - exact).max() < 1e-4


class TestFlux:
    def test_uniform_state_no_flux(self):
        cfg = small_cfg()
        grid = build_grid(cfg)
        M = build_material(cfg)
        state = make_state(0.0, ScalarField.full(grid, 0.2),
                           ScalarField.full(grid, 0.4),
                           VectorField.zeros(grid),
                           ScalarField.full(grid, 0.0), M)
        assert np.abs(flux_phi(state, M).data).max() < 1e-14


class TestVariableCoefficientSolves:
    @pytest.mark.parametrize("dt_factor", [1, 1000])
    @pytest.mark.parametrize("bc", ["periodic", "neumann-noslip"])
    @pytest.mark.parametrize("shape,lengths", [((12, 10), (1.0, 0.8)),
                                               ((6, 5, 4), (1.0, 0.9, 0.7))],
                             ids=["2d", "3d"])
    def test_phi_pcg_matches_dense_solve(self, shape, lengths, bc, dt_factor):
        # degenerate mobility with F' = 0, A = 0 and u = 0: the step solves
        # (I + dt*L*K) phi = rhs, L = -div(m grad), K = a - c0*lap, with
        # rhs = phi + dt*div(m grad(-a*phi))
        grid = Grid(shape, lengths, bc)
        M = degenerate_model(delta=1e-3)
        zero = lambda s: np.zeros_like(np.asarray(s, dtype=float))
        M = dataclasses.replace(
            M, potential=dataclasses.replace(M.potential, df=zero), A=zero)
        phi = np.random.default_rng(3).uniform(0.0, 1.0, shape)
        dt = dt_factor * min(grid.h) ** 4 / (16.0 * M.c0 * M.m_max)
        mv = M.m(phi)
        a, c0 = M.a, M.c0

        def flux_div(x):
            return div_arr(mv[None] * grad_arr(x, grid, parity=1), grid,
                           parity=-1)

        rhs = phi + dt * flux_div(-a * phi)
        size = phi.size
        A = np.stack([(e - dt * flux_div(a * e - c0 * lap_arr(e, grid))).ravel()
                      for e in np.eye(size).reshape((size,) + shape)], axis=1)
        ref = np.linalg.solve(A, rhs.ravel()).reshape(shape)

        state = make_state(0.0, ScalarField(grid, phi),
                           ScalarField.full(grid, 0.0), VectorField.zeros(grid),
                           ScalarField.full(grid, 0.0), M)
        phi_new, _ = step_phi_q(state, M, dt, solver_tol=1e-12)
        assert np.abs(phi_new.data - ref).max() <= 1e-9 * np.abs(ref).max()

    @pytest.mark.parametrize("bc", ["periodic", "neumann-noslip"])
    def test_variable_tau_eta_energy_and_mass(self, bc, monkeypatch):
        solves = []
        real_cg = viscophase.dynamics.cg

        def counting_cg(*args, **kwargs):
            solves.append(1)
            return real_cg(*args, **kwargs)

        monkeypatch.setattr(viscophase.dynamics, "cg", counting_cg)
        grid = Grid((16, 16), (1.0, 1.0), bc)
        M = regular_model(tau=lambda s: 0.5 + 0.3 * np.tanh(np.asarray(s)),
                          eta=lambda s: 1.0 + 0.5 * np.sin(3.0 * np.asarray(s)))
        x, y = grid.meshgrid()
        phi = ScalarField(grid, 0.6 * np.cos(2 * np.pi * x) * np.cos(np.pi * y))
        q = ScalarField(grid, 0.3 * np.sin(np.pi * x))
        state = make_state(0.0, phi, q, VectorField.zeros(grid),
                           ScalarField.full(grid, 0.0), M)
        dt, steps = 1e-3, 30
        E = [energy(state, M).E_total]
        mass = [integrate(state.phi)]
        for _ in range(steps):
            phi_n, q_n = step_phi_q(state, M, dt)
            mid = make_state(state.t + dt, phi_n, q_n, state.u, state.p, M)
            u_n, p_n = step_velocity(mid, M, dt)
            state = State(t=mid.t, phi=phi_n, q=q_n, u=u_n, p=p_n, mu=mid.mu)
            E.append(energy(state, M).E_total)
            mass.append(integrate(state.phi))
        # one q solve and one viscous solve per velocity component per step
        assert len(solves) == steps * (1 + grid.d)
        assert np.diff(E).max() <= 0.0
        assert np.abs(np.array(mass) - mass[0]).max() <= 1e-14


class TestSimulate:
    def test_stationary_run_flat(self):
        cfg = small_cfg(init_kind="uniform", init_mean=1.0, steps=10)
        traj = simulate(cfg)
        E = traj.column("E_total")
        # phi = 1 sits at the double-well minimum: zero energy, no motion
        assert np.abs(E).max() < 1e-13
        for col in ("mass", "min_phi", "max_phi"):
            vals = traj.column(col)
            assert np.abs(vals - vals[0]).max() < 1e-13

    def test_mass_conserved(self):
        cfg = small_cfg(init_kind="spinodal", init_amplitude=0.05, steps=50)
        traj = simulate(cfg)
        mass = traj.column("mass")
        assert np.abs(mass - mass[0]).max() < 1e-14

    def test_determinism(self):
        cfg = small_cfg(init_kind="spinodal", steps=20)
        t1 = simulate(cfg)
        t2 = simulate(cfg)
        for col in t1.series:
            np.testing.assert_array_equal(t1.series[col], t2.series[col])

    def test_snapshot_cadence(self):
        cfg = small_cfg(steps=40, output_every=10)
        traj = simulate(cfg)
        assert len(traj.states) == 5
        assert traj.states[0].t == 0.0
        assert traj.states[-1].t == pytest.approx(40 * traj.dt)

    def test_initial_condition_exact(self):
        cfg = small_cfg(steps=1)
        grid = build_grid(cfg)
        M = build_material(cfg)
        phi0, q0, u0 = initial_state(cfg, grid, M)
        traj = simulate(cfg, phi0, q0, u0)
        np.testing.assert_array_equal(traj.states[0].phi.data, phi0.data)

    def test_taylor_green_decay(self):
        # uniform phi, decaying vortex: rate within 10% of 2*eta*(2*pi/L)^2
        cfg = SimConfig(shape=(64, 64), steps=100, output_every=100,
                        init_kind="uniform", init_mean=0.0, seed=0)
        grid = build_grid(cfg)
        M = build_material(cfg)
        phi0, q0, _ = initial_state(cfg, grid, M)
        x, y = grid.meshgrid()
        u0 = VectorField(grid, np.stack([
            np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y),
            -np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y)]))
        traj = simulate(cfg, phi0, q0, u0)
        E = traj.column("E_kin")
        t = traj.times
        rate = -np.log(E[-1] / E[0]) / (2.0 * t[-1])
        expect = 2.0 * (2 * np.pi) ** 2
        assert rate == pytest.approx(expect, rel=0.1)

    def test_blow_up_detected(self):
        cfg = small_cfg(shape=(32, 32), dt=0.5, steps=50,
                        init_kind="spinodal", init_amplitude=0.8, seed=3)
        with pytest.raises(BlowUpError) as exc:
            simulate(cfg)
        assert exc.value.time is not None


class TestValidation:
    def test_needs_steps_or_t_end(self):
        with pytest.raises(ConfigError):
            simulate(SimConfig(shape=(16, 16)))

    def test_degenerate_bounds_enforced(self):
        cfg = small_cfg(regime="degenerate", init_kind="uniform",
                        init_mean=1.5)
        with pytest.raises(ConfigError):
            simulate(cfg)

    def test_nonfinite_rejected(self):
        cfg = small_cfg()
        grid = build_grid(cfg)
        M = build_material(cfg)
        phi0, q0, u0 = initial_state(cfg, grid, M)
        bad = ScalarField(grid, np.full(grid.shape, np.nan))
        with pytest.raises(ConfigError):
            simulate(cfg, bad, q0, u0)

    def test_unknown_regime(self):
        with pytest.raises(ConfigError):
            build_material(SimConfig(regime="weird"))

    def test_dt_heuristic_positive(self):
        cfg = small_cfg()
        grid = build_grid(cfg)
        M = build_material(cfg)
        dt = dt_max(cfg, grid, M)
        assert 0 < dt < 1e-3

    def test_csv_export(self, tmp_path):
        cfg = small_cfg(steps=5)
        traj = simulate(cfg)
        path = tmp_path / "diag.csv"
        traj.write_csv(path)
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert data.shape == (6,)
        np.testing.assert_allclose(data["E_total"], traj.column("E_total"))
