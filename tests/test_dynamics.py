import dataclasses

import numpy as np
import pytest

import viscophase.diagnostics
import viscophase.dynamics
import viscophase.fields
from viscophase.cli import _run_to_csv
from viscophase.diagnostics import Trajectory, _diag_row, energy
from viscophase.dynamics import (SimConfig, _build_run, _check_blow_up,
                                 _smooth_noise,
                                 _smoothing_matrix, build_grid,
                                 build_material, dt_max, initial_state,
                                 make_state, run_steps, simulate, step_phi_q,
                                 step_plan, step_velocity)
from viscophase.errors import BlowUpError, ConfigError
from viscophase.fields import (Grid, div_arr, grad_arr, integrate, lap_arr,
                               multiplier, solve_symbol)
from viscophase.material import degenerate_model, regular_model


def small_cfg(**kw):
    base = dict(shape=(16, 16), steps=10, output_every=10, seed=0)
    base.update(kw)
    return SimConfig(**base)


def run_of(cfg, *fields):
    """run_steps of cfg from fields (phi, q, u), or else from the
    configured initial data."""
    M = build_material(cfg)
    return run_steps(cfg, M, *(fields or initial_state(cfg, build_grid(cfg),
                                                       M)))


def trajectory_of(cfg, *fields):
    """The Trajectory of run_of(cfg, *fields)."""
    _, steps = run_of(cfg, *fields)
    return Trajectory.from_rows([_diag_row(s) for _, s in steps])


def at_rest(phi, M, grid):
    """make_state of phi on grid at t = 0 with q = 0, u = 0 and p = 0."""
    return make_state(0.0, phi, np.full(grid.shape, 0.0),
                      np.zeros((grid.d,) + grid.shape),
                      np.full(grid.shape, 0.0), M, grid)


class TestChemicalPotential:
    def test_constant_field(self):
        cfg = small_cfg()
        grid = build_grid(cfg)
        M = build_material(cfg)
        phi = np.full(grid.shape, 0.5)
        mu = at_rest(phi, M, grid).mu
        # mu = F'(0.5) = 0.125 - 0.5
        assert np.abs(mu - (-0.375)).max() < 1e-14

    def test_cosine_mode(self):
        cfg = small_cfg(shape=(256, 8))
        grid = build_grid(cfg)
        M = build_material(cfg)
        x = grid.meshgrid()[0]
        c = 0.1 * np.cos(2 * np.pi * x)
        mu = at_rest(c, M, grid).mu
        exact = M.c0 * (2 * np.pi) ** 2 * c + (c**3 - c)
        assert np.abs(mu - exact).max() < 1e-4


class TestUniformState:
    @pytest.mark.parametrize("q0", [0.0, 0.4])
    @pytest.mark.parametrize("bc", ["periodic", "neumann-noslip"])
    def test_fixed_point_of_step(self, bc, q0):
        # no flux m*grad(mu) - n*grad(A q) and no force: phi and u stay put,
        # q only relaxes, q_new = q/(1 + dt/tau); q = 0 is a fixed point
        cfg = small_cfg(bc=bc)
        grid = build_grid(cfg)
        M = build_material(cfg)
        dt = 1e-3
        state = make_state(0.0, np.full(grid.shape, 0.2),
                           np.full(grid.shape, q0),
                           np.zeros((grid.d,) + grid.shape),
                           np.full(grid.shape, 0.0), M, grid)
        mid = step_phi_q(state, dt)
        new = step_velocity(mid, dt)
        assert mid.t == new.t == dt
        assert np.abs(new.phi - 0.2).max() < 1e-14
        assert np.abs(new.q - q0 / (1.0 + dt / cfg.tau)).max() < 1e-14
        assert np.abs(new.u).max() < 1e-14
        assert np.abs(new.p).max() < 1e-14


class TestSharedDerived:
    COLUMNS = ("E_mix", "E_bulk", "E_kin", "E_total",
               "D_cross", "D_q", "D_eps", "D_visc")

    @pytest.mark.parametrize("bc", ["periodic", "neumann-noslip"])
    @pytest.mark.parametrize("regime", ["regular", "degenerate"])
    def test_diagnostics_match_fresh_states(self, regime, bc):
        # the per-step columns read gradients shared with the step; each
        # must equal energy() of a state rebuilt from the yielded fields
        extra = (dict(init_mean=0.5, init_amplitude=0.2)
                 if regime == "degenerate" else dict(init_amplitude=0.3))
        cfg = small_cfg(regime=regime, bc=bc, steps=8, **extra)
        M = build_material(cfg)
        _, steps = run_of(cfg)
        rows, fresh = [], []
        for _, s in steps:
            rows.append(_diag_row(s))
            fresh.append(energy(make_state(s.t, s.phi, s.q, s.u, s.p, M,
                                           s.grid)))
        assert len(rows) == 9
        assert max(abs(row["E_kin"]) for row in rows) > 0
        for col in self.COLUMNS:
            assert [row[col] for row in rows] == \
                [getattr(eb, col) for eb in fresh], col

    @pytest.mark.parametrize("bc", ["periodic", "neumann-noslip"])
    def test_div_u_is_the_trace_of_grad_u(self, bc):
        # grad_u[a, i] is the difference of u_i along axis a, so its trace
        # is div u, the same stencils summed in the same order
        cfg = small_cfg(bc=bc, steps=2, init_amplitude=0.3)
        _, steps = run_of(cfg)
        *_, (_, state) = steps
        grid = state.grid
        assert state.grad_u.shape == (grid.d, grid.d) + grid.shape
        assert np.abs(state.u).max() > 0
        assert np.array_equal(np.trace(state.grad_u),
                              div_arr(state.u, grid, -1))

    def test_energy_follows_the_model(self):
        # the energy of a state is that of the model that built its record
        cfg = small_cfg(init_amplitude=0.3)
        grid = build_grid(cfg)
        M = build_material(cfg)
        other = regular_model(tau=0.5, A=2.0, eta=3.0)
        phi, _, _ = initial_state(cfg, grid, M)
        q = phi.copy()

        def state_under(model):
            return make_state(0.0, phi, q, np.zeros((grid.d,) + grid.shape),
                              np.full(grid.shape, 0.0), model, grid)

        state = state_under(other)
        assert state.model is other
        assert energy(state) == energy(state_under(other))
        assert energy(state) != energy(state_under(M))

    def test_stencil_calls_per_step(self, monkeypatch):
        # 13 distinct stencils per regular periodic step (the step before
        # shared gradients applied 27, 18 while div u was a stencil of its
        # own rather than the trace of the recorded grad u, 17 while a
        # constant A took a stencil for grad(A q), 16 while the phi
        # right-hand side took one divergence per flux, and 15 while the
        # velocity's gradient and advection took one per component)
        calls = []
        for name in ("grad_arr", "div_arr"):
            real = getattr(viscophase.fields, name)

            def counted(*args, _real=real, **kwargs):
                calls.append(1)
                return _real(*args, **kwargs)

            for mod in (viscophase.fields, viscophase.dynamics,
                        viscophase.diagnostics):
                if getattr(mod, name, None) is real:
                    monkeypatch.setattr(mod, name, counted)
        per_run = []
        for steps in (2, 12):
            calls.clear()
            simulate(small_cfg(steps=steps))
            per_run.append(len(calls))
        assert (per_run[1] - per_run[0]) / 10 <= 13


def _full(value):
    """A coefficient that returns an array of value in the shape of s."""
    return lambda s: np.full_like(np.asarray(s, dtype=float), value)


class TestConstantCoefficients:
    """A coefficient given as a number is a NumPy scalar (0-d in the
    State); the same model given as callables that return full arrays
    takes the scanned branch of _solver's constant-coefficient test and
    the grad(A q) stencil, and must give the same diagnostics.  The test
    is relative: a coefficient of small magnitude that varies is not
    taken for a constant."""

    @staticmethod
    def rows(cfg, M):
        _, steps = run_steps(cfg, M, *initial_state(cfg, build_grid(cfg), M))
        return [_diag_row(s) for _, s in steps]

    def test_state_keeps_scalar_coefficients(self):
        cfg = small_cfg()
        state = at_rest(np.zeros(cfg.shape), build_material(cfg),
                        build_grid(cfg))
        assert [np.ndim(c) for c in (state.n, state.A, state.tau,
                                     state.eta)] == [0, 0, 0, 0]

    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    @pytest.mark.parametrize("bc", ["periodic", "neumann-noslip"])
    def test_array_coefficients_give_the_same_rows(self, bc, alpha):
        cfg = small_cfg(bc=bc, alpha=alpha, steps=12, init_mean=0.2,
                        init_amplitude=0.3)
        arrays = regular_model(c0=cfg.c0, eps1=cfg.eps1, n=_full(1.0),
                               eta=_full(cfg.eta), tau=_full(cfg.tau),
                               A=_full(alpha), dA=_full(0.0))
        assert np.shape(arrays.n(np.zeros(cfg.shape))) == cfg.shape
        scalar = self.rows(cfg, build_material(cfg))
        array = self.rows(cfg, arrays)
        assert max(row["E_kin"] for row in scalar) > 0
        if alpha == 1.0:
            # A q = q, so A grad(q) and grad(A q) agree bit for bit
            assert array == scalar
            return
        # otherwise they differ by rounding; div_u_norm is the rounding
        # residual of the projection, so it is held to its level instead
        for col in scalar[0]:
            a = np.array([row[col] for row in array])
            b = np.array([row[col] for row in scalar])
            if col == "div_u_norm":
                assert max(a.max(), b.max()) < 1e-14
            else:
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=0,
                                           err_msg=col)

    def test_small_varying_viscosity_is_not_constant(self, monkeypatch):
        # a viscosity of magnitude 1e-14 (a model stated in SI units) with
        # 50 % spread: each velocity component is solved by cg, not
        # directly at the first cell's value
        solves = []
        real_cg = viscophase.dynamics.cg

        def counting_cg(*args, **kwargs):
            solves.append(1)
            return real_cg(*args, **kwargs)

        monkeypatch.setattr(viscophase.dynamics, "cg", counting_cg)
        grid = Grid((16, 16), (1.0, 1.0), "periodic")
        M = regular_model(eta=lambda s: 1e-14 * (1.0 + 0.5 * np.asarray(s)))
        x, y = grid.meshgrid()
        phi = 0.9 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
        state = at_rest(phi, M, grid)
        assert np.ptp(state.eta) >= 0.5 * np.abs(state.eta).max()
        step_velocity(state, 1e-3)
        assert len(solves) == grid.d


class TestSolverStatements:
    @pytest.mark.parametrize("bc", ["periodic", "neumann-noslip"])
    @pytest.mark.parametrize("regime", ["regular", "degenerate"])
    def test_every_solve_goes_through_solver(self, regime, bc, monkeypatch):
        # the phi, q and velocity systems of a 2-D step are each stated
        # by one _solver call, the one place to record solver stats; the
        # velocity's takes the whole (d,) + grid.shape right-hand side
        calls = []
        real = viscophase.dynamics._solver

        def counted(rhs, *args, **kwargs):
            calls.append(rhs.shape)
            return real(rhs, *args, **kwargs)

        monkeypatch.setattr(viscophase.dynamics, "_solver", counted)
        cfg = small_cfg(regime=regime, bc=bc, steps=1, init_mean=0.5,
                        init_amplitude=0.2)
        _, steps = run_of(cfg)
        next(steps)                     # the initial state: no solve
        assert calls == []
        next(steps)
        grid = build_grid(cfg)
        assert calls == [grid.shape, grid.shape, (grid.d,) + grid.shape]

    @pytest.mark.parametrize("bc", ["periodic", "neumann-noslip"])
    def test_variable_eta_stack_is_solved_per_member(self, bc):
        # on the CG branch each member of a stack is solved on its own:
        # the stacked viscous solve is the per-member solves bit for bit
        grid = Grid((16, 12), (1.0, 0.8), bc)
        x, y = grid.meshgrid()
        eta = 1.0 + 0.5 * np.sin(2 * np.pi * x) * np.cos(np.pi * y)
        rng = np.random.default_rng(4)
        rhs = rng.standard_normal((grid.d,) + grid.shape)
        y0 = 0.5 * rhs
        dt = 1e-2

        def solve(b, start):
            return viscophase.dynamics._solver(
                b, start, eta, lambda e: (1.0, -dt * e),
                lambda de, x: -dt * div_arr(
                    de[None] * grad_arr(x, grid, parity=-1), grid, parity=1),
                grid, 1e-11, parity=-1)

        stacked = solve(rhs, y0)
        assert stacked.shape == rhs.shape
        for i in range(grid.d):
            assert np.array_equal(stacked[i], solve(rhs[i], y0[i]))


class TestGridInterning:
    def test_equal_configs_give_one_grid(self):
        grid = build_grid(small_cfg())
        assert build_grid(small_cfg()) is grid
        assert build_grid(small_cfg(shape=[16, 16], lengths=[1, 1])) is grid
        assert build_grid(small_cfg(bc="neumann-noslip")) is not grid

    def test_second_simulate_compares_no_grids(self, monkeypatch):
        # every operator cache finds the interned grid by identity.  The
        # caches start empty: an equal grid built outside build_grid (as
        # other test files do) would stay a key, matched through __eq__
        for cached in (viscophase.fields._stencils, viscophase.fields._bases,
                       viscophase.fields.lap_symbol,
                       viscophase.fields.multiplier):
            cached.cache_clear()
        compared = []
        real_eq = Grid.__eq__

        def counted(self, other):
            compared.append(1)
            return real_eq(self, other)

        monkeypatch.setattr(Grid, "__eq__", counted)
        cfg = small_cfg(bc="neumann-noslip", steps=3)
        simulate(cfg)
        compared.clear()
        simulate(cfg)
        assert compared == []


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
        m_max = (M.n(np.linspace(0.0, 1.0, 2001)) ** 2).max()
        dt = dt_factor * min(grid.h) ** 4 / (16.0 * M.c0 * m_max)
        mv = M.n(phi) ** 2
        a, c0 = M.a, M.c0

        def flux_div(x):
            return div_arr(mv[None] * grad_arr(x, grid, parity=1), grid,
                           parity=-1)

        rhs = phi + dt * flux_div(-a * phi)
        size = phi.size
        A = np.stack([(e - dt * flux_div(a * e - c0 * lap_arr(e, grid))).ravel()
                      for e in np.eye(size).reshape((size,) + shape)], axis=1)
        ref = np.linalg.solve(A, rhs.ravel()).reshape(shape)

        state = make_state(0.0, phi, np.full(grid.shape, 0.0),
                           np.zeros((grid.d,) + grid.shape),
                           np.full(grid.shape, 0.0), M, grid)
        phi_new = step_phi_q(state, dt, solver_tol=1e-12).phi
        assert np.abs(phi_new - ref).max() <= 1e-9 * np.abs(ref).max()

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
        phi = 0.6 * np.cos(2 * np.pi * x) * np.cos(np.pi * y)
        q = 0.3 * np.sin(np.pi * x)
        state = make_state(0.0, phi, q, np.zeros((grid.d,) + grid.shape),
                           np.full(grid.shape, 0.0), M, grid)
        dt, steps = 1e-3, 30
        E = [energy(state).E_total]
        mass = [integrate(state.phi, grid)]
        for _ in range(steps):
            state = step_velocity(step_phi_q(state, dt), dt)
            E.append(energy(state).E_total)
            mass.append(integrate(state.phi, grid))
        # one q solve and one viscous solve per velocity component per step
        assert len(solves) == steps * (1 + grid.d)
        assert np.diff(E).max() <= 0.0
        assert np.abs(np.array(mass) - mass[0]).max() <= 1e-14


    @pytest.mark.parametrize("bc", ["periodic", "neumann-noslip"])
    def test_split_solves_meet_tol_on_the_true_residual(self, bc,
                                                        monkeypatch):
        # the phi, variable-tau q and variable-eta viscous solves of a
        # degenerate step: the residual of each returned x, computed from
        # the unsplit operator, is within tol, so a drift of cg's
        # recurrences cannot pass unseen
        solves = []
        real_cg = viscophase.dynamics.cg

        def recording_cg(remainder, b, *args, **kwargs):
            x = real_cg(remainder, b, *args, **kwargs)
            solves.append((b, x))
            return x

        monkeypatch.setattr(viscophase.dynamics, "cg", recording_cg)
        grid = Grid((16, 12), (1.0, 0.8), bc)
        M = degenerate_model(
            delta=1e-3, tau=lambda s: 0.5 + 0.3 * np.asarray(s),
            eta=lambda s: 1.0 + 0.5 * np.sin(3.0 * np.asarray(s)))
        x, y = grid.meshgrid()
        wave = np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y / 0.8)
        state = make_state(
            0.0, 0.5 + 0.3 * wave,
            0.2 * np.sin(2 * np.pi * x),
            np.stack([0.1 * wave, -0.2 * wave]),
            np.full(grid.shape, 0.0), M, grid)
        dt, tol = 2e-3, 1e-11
        mid = step_phi_q(state, dt, solver_tol=tol)
        step_velocity(mid, dt, solver_tol=tol)

        mv, tau, eta = state.n ** 2, state.tau, mid.eta

        def S_phi(y):
            K_inv = solve_symbol(y, grid, multiplier(grid, 1, (M.a, -M.c0)))
            return K_inv - dt * div_arr(mv[None] * grad_arr(y, grid, 1),
                                        grid, -1)

        def S_q(x):
            return (1.0 + dt / tau) * x - dt * M.eps1 * lap_arr(x, grid)

        def S_u(x):
            return x - dt * div_arr(eta[None] * grad_arr(x, grid, -1),
                                    grid, 1)

        assert len(solves) == 2 + grid.d
        for (b, x), S in zip(solves, [S_phi, S_q] + [S_u] * grid.d):
            assert np.linalg.norm(b - S(x)) <= tol * np.linalg.norm(b)

    @pytest.mark.parametrize("bc", ["periodic", "neumann-noslip"])
    @pytest.mark.parametrize("regime", ["regular", "degenerate"])
    def test_step_at_nanometre_lengths(self, regime, bc):
        # unit model values on a grid of lengths 1e-9: the phi symbol's
        # condition number passes 1e14 and that of K = a - c0*lap nears
        # 1e18, yet no mode of either is zeroed.  The degenerate CG stays
        # finite, and both regimes keep phi's mean: the degenerate phi is
        # K^-1 of y = K phi, whose entries are up to ~1e17 times phi's
        # mean, and without the step setting it to mean(rhs) that mean
        # moved by 21 % (periodic) and 0.57 % (Neumann)
        L = 1e-9
        grid = Grid((16, 16), (L, L), bc)
        M = regular_model() if regime == "regular" else degenerate_model(
            delta=1e-3)
        x, y = grid.meshgrid()
        phi = 0.5 + 0.3 * np.cos(2 * np.pi * x / L) * np.cos(2 * np.pi * y / L)
        state = make_state(0.0, phi, np.zeros(grid.shape),
                           np.zeros((grid.d,) + grid.shape),
                           np.zeros(grid.shape), M, grid)
        phi_new = step_phi_q(state, 1e-24).phi
        assert np.isfinite(phi_new).all()
        assert abs(phi_new.mean() - phi.mean()) <= 1e-14 * phi.mean()

    def test_variable_tau_q_iterations_apply_no_stencil(self, monkeypatch):
        # the remainder of the q operator is pointwise: (d - d_bar) x
        stencils, during_cg = [], []
        for mod in (viscophase.fields, viscophase.dynamics):
            for name in ("grad_arr", "div_arr"):
                real = getattr(viscophase.fields, name)

                def counted(*args, _real=real, **kwargs):
                    stencils.append(1)
                    return _real(*args, **kwargs)

                monkeypatch.setattr(mod, name, counted)
        real_cg = viscophase.dynamics.cg

        def counting_cg(*args, **kwargs):
            before = len(stencils)
            x = real_cg(*args, **kwargs)
            during_cg.append(len(stencils) - before)
            return x

        monkeypatch.setattr(viscophase.dynamics, "cg", counting_cg)
        grid = Grid((16, 16), (1.0, 1.0), "neumann-noslip")
        M = regular_model(tau=lambda s: 0.5 + 0.3 * np.tanh(np.asarray(s)))
        x, y = grid.meshgrid()
        phi = 0.6 * np.cos(np.pi * x) * np.cos(np.pi * y)
        state = make_state(0.0, phi, 0.3 * np.cos(np.pi * x),
                           np.zeros((grid.d,) + grid.shape),
                           np.full(grid.shape, 0.0), M, grid)
        step_phi_q(state, 1e-3)
        assert during_cg == [0]


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

    def test_initial_condition_exact(self):
        cfg = small_cfg(steps=1)
        grid = build_grid(cfg)
        M = build_material(cfg)
        phi0, q0, u0 = initial_state(cfg, grid, M)
        _, state = next(run_of(cfg, phi0, q0, u0)[1])
        np.testing.assert_array_equal(state.phi, phi0)

    def test_tanh_interface(self):
        # phi0 = mean + amplitude * tanh((x - L/2) / width) along x, and a
        # step from it lowers the energy
        cfg = small_cfg(init_kind="tanh-interface", init_mean=0.1,
                        init_amplitude=0.8, init_width=0.05,
                        lengths=(2.0, 1.0), steps=1)
        grid = build_grid(cfg)
        phi0, _, _ = initial_state(cfg, grid, build_material(cfg))
        x = grid.meshgrid()[0]
        np.testing.assert_allclose(
            phi0, 0.1 + 0.8 * np.tanh((x - 1.0) / 0.05),
            rtol=0, atol=1e-15)
        E = simulate(cfg).column("E_total")
        assert len(E) == 2 and E[1] < E[0]

    def test_taylor_green_decay(self):
        # uniform phi, decaying vortex: rate within 10% of 2*eta*(2*pi/L)^2
        cfg = SimConfig(shape=(64, 64), steps=100, output_every=100,
                        init_kind="uniform", init_mean=0.0, seed=0)
        grid = build_grid(cfg)
        M = build_material(cfg)
        phi0, q0, _ = initial_state(cfg, grid, M)
        x, y = grid.meshgrid()
        u0 = np.stack([
            np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y),
            -np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y)])
        traj = trajectory_of(cfg, phi0, q0, u0)
        E = traj.column("E_kin")
        t = traj.column("t")
        rate = -np.log(E[-1] / E[0]) / (2.0 * t[-1])
        expect = 2.0 * (2 * np.pi) ** 2
        assert rate == pytest.approx(expect, rel=0.1)

    def test_cfl_column(self):
        # Courant number of each step with its velocity; h_min is the
        # finer axis
        cfg = small_cfg(shape=(16, 8), steps=6, init_amplitude=0.3)
        dt = step_plan(cfg, build_grid(cfg), build_material(cfg))[0]
        _, steps = run_of(cfg)
        h_min = 1.0 / 16
        cfl, expect = zip(*((_diag_row(s)["cfl"],
                             dt * np.abs(s.u).max() / h_min)
                            for _, s in steps))
        assert cfl == expect
        assert cfl[-1] > 0

    def test_blow_up_detected(self):
        # the 35th step is the first to blow up: the error carries its time
        cfg = small_cfg(shape=(32, 32), dt=0.5, steps=50,
                        init_kind="spinodal", init_amplitude=0.8, seed=3)
        with pytest.raises(BlowUpError) as exc:
            simulate(cfg)
        assert exc.value.time == 35 * 0.5
        simulate(dataclasses.replace(cfg, steps=34))

    def test_blow_up_time_is_that_of_the_state_made(self):
        # a non-finite u spoils phi through its advection, at t + dt, and
        # the velocity step, which keeps t, at t
        cfg = small_cfg()
        grid = build_grid(cfg)
        M = build_material(cfg)
        phi, q, u = initial_state(cfg, grid, M)
        u[0, 3, 4] = np.nan
        state = make_state(0.25, phi, q, u, np.full(grid.shape, 0.0), M, grid)
        dt = 0.5
        with pytest.raises(BlowUpError, match="phi") as exc:
            step_phi_q(state, dt)
        assert exc.value.time == state.t + dt
        with pytest.raises(BlowUpError, match="velocity") as exc:
            step_velocity(state, dt)
        assert exc.value.time == state.t


    @pytest.mark.parametrize("value,bound,blows_up", [
        (np.nan, None, True), (np.inf, None, True), (-np.inf, None, True),
        (1e300, None, False),
        (np.nan, 10.0, True), (np.inf, 10.0, True), (-np.inf, 10.0, True),
        (-10.5, 10.0, True), (10.0, 10.0, False), (-10.0, 10.0, False),
    ])
    def test_check_blow_up(self, value, bound, blows_up):
        # one bad entry among finite ones; a value at the bound passes
        values = np.full((4, 4), 0.5)
        values[1, 2] = value
        if blows_up:
            with pytest.raises(BlowUpError, match="phi") as exc:
                _check_blow_up("phi", values, 0.75, bound=bound)
            assert exc.value.time == 0.75
        else:
            _check_blow_up("phi", values, 0.75, bound=bound)


class TestMultiplierCache:
    """Every direct solve of a run multiplies by a multiplier built once
    per run; the degenerate preconditioner, which changes every step, is
    built per step and not cached."""

    @staticmethod
    def _misses_and_size(cfg, after):
        """cache_info() of fields.multiplier, cleared first, after each
        step count in after of cfg's run."""
        viscophase.fields.multiplier.cache_clear()
        infos = []
        _, steps = run_of(cfg)
        for k, _ in steps:
            if k in after:
                info = viscophase.fields.multiplier.cache_info()
                infos.append((info.misses, info.currsize))
        return infos

    @pytest.mark.parametrize("bc", ["periodic", "neumann-noslip"])
    def test_regular_run_builds_four(self, bc):
        # phi, q, the viscous solve (odd parity) and the pressure Poisson
        # solve; ten more steps add none
        infos = self._misses_and_size(small_cfg(bc=bc, steps=11), (1, 11))
        assert infos == [(4, 4), (4, 4)]

    def test_degenerate_run_does_not_grow(self):
        # K^-1 of the phi solve, q, viscous and Poisson: not one per step
        cfg = small_cfg(regime="degenerate", init_mean=0.5, steps=12)
        infos = self._misses_and_size(cfg, (2, 12))
        assert infos[0] == infos[1] == (4, 4)


class TestTimeAxis:
    """A run whose step alternates between dt and dt/2: the row of a state
    reads the state's own step, and the energy balance reads the t
    column."""

    def test_alternating_step(self):
        cfg = small_cfg(init_amplitude=0.3)
        grid, M = build_grid(cfg), build_material(cfg)
        dt = step_plan(cfg, grid, M)[0]
        phi0, q0, u0 = initial_state(cfg, grid, M)
        state = make_state(0.0, phi0, q0, u0, np.zeros(grid.shape), M, grid,
                           dt=dt)
        steps, rows = [dt], [_diag_row(state)]
        for k in range(12):
            h = dt if k % 2 == 0 else dt / 2
            state = step_velocity(step_phi_q(state, h), h)
            assert state.dt == h
            steps.append(h)
            rows.append(_diag_row(state))
            assert rows[-1]["cfl"] == h * np.abs(state.u).max() / min(grid.h)
        assert rows[-1]["cfl"] > 0
        traj = Trajectory.from_rows(rows)
        t = traj.column("t")
        np.testing.assert_allclose(t, np.cumsum(steps) - dt, rtol=1e-14)
        mass = traj.column("mass")
        assert np.abs(mass - mass[0]).max() <= 1e-10
        E = traj.column("E_total")
        D = sum(traj.column(c) for c in ("D_cross", "D_q", "D_eps", "D_visc"))
        assert np.all(np.diff(E) < 0)
        rep = viscophase.diagnostics.check_energy_inequality(traj)
        assert rep.monotone
        balance = max(abs(E[n] + sum((t[k] - t[k - 1]) * D[k]
                                     for k in range(1, n + 1)) - E[0])
                      for n in range(len(t)))
        assert rep.balance_residual == pytest.approx(balance, rel=1e-12)


class TestSpinodalNoise:
    @pytest.mark.parametrize("bc", ["periodic", "neumann-noslip"])
    @pytest.mark.parametrize("shape", [(7,), (12,), (16, 12), (64, 64),
                                       (6, 5, 4)],
                             ids=["1d-7", "1d-12", "2d", "2d-64", "3d"])
    def test_smoothing_matches_gaussian_filter(self, shape, bc):
        # the axes of 1d-7 and 3d are shorter than the 8-cell kernel
        # radius, so the wrap or the reflection folds the kernel in more
        # than once
        from scipy.ndimage import gaussian_filter
        g = Grid(shape, (1.0,) * len(shape), bc)
        white = np.random.default_rng(5).standard_normal(shape)
        mode = "wrap" if bc == "periodic" else "reflect"
        smooth = _smooth_noise(white, g)
        assert smooth.flags.c_contiguous
        reference = gaussian_filter(white, 2.0, mode=mode)
        assert np.abs(smooth - reference).max() <= 1e-15

    def test_smoothing_matrix_cached_read_only(self):
        for periodic in (True, False):
            M = _smoothing_matrix(9, periodic)
            assert M is _smoothing_matrix(9, periodic)
            assert not M.flags.writeable
            assert np.allclose(M.sum(axis=1), 1.0, rtol=0, atol=1e-15)


class TestCapillaryForce:
    @pytest.mark.parametrize("bc", ["periodic", "neumann-noslip"])
    @pytest.mark.parametrize("regime", ["regular", "degenerate"])
    def test_work_cancels_mixing_power(self, regime, bc):
        # from u = 0 with dt = 1 and a viscosity so small that the viscous
        # solve is the identity in floating point, the velocity step returns
        # the projected capillary force; against a discretely
        # divergence-free v its work must be int mu v.grad(phi), the power
        # the explicit phi advection by v takes from the mixing energy
        extra = (dict(init_mean=0.5, init_amplitude=0.3)
                 if regime == "degenerate" else dict(init_amplitude=0.5))
        cfg = small_cfg(regime=regime, bc=bc, eta=1e-300, **extra)
        grid = build_grid(cfg)
        M = build_material(cfg)
        phi, q, _ = initial_state(cfg, grid, M)
        state = make_state(0.0, phi, q, np.zeros((grid.d,) + grid.shape),
                           np.full(grid.shape, 0.0), M, grid)
        rng = np.random.default_rng(1)
        v, _ = viscophase.fields.project_divergence_free(
            rng.standard_normal((grid.d,) + grid.shape), grid)
        u_new = step_velocity(state, 1.0).u
        work = integrate((v * u_new).sum(axis=0), grid)
        power = integrate(state.mu * (
            v * grad_arr(phi, grid, parity=1)).sum(axis=0), grid)
        assert abs(work - power) <= 1e-12 * abs(power)

    def test_energy_balance_converges_with_flow(self):
        # degenerate stripe advected by a Taylor-Green vortex: the coupling
        # exchanges energy and creates none, so the balance residual
        # max|E_n + sum dt D - E_0| is O(dt) and falls about 4x when dt is
        # cut 4x; a force that does work of its own leaves a residual that
        # does not shrink with dt
        residual = []
        for dt in (4e-4, 1e-4):
            cfg = small_cfg(regime="degenerate", eta=1e-2, dt=dt, steps=None,
                            t_end=0.02, output_every=1000)
            grid = build_grid(cfg)
            x, y = grid.meshgrid()
            phi0 = 0.5 + 0.3 * np.cos(2 * np.pi * x)
            u0 = 2.0 * np.stack([
                np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y),
                -np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y)])
            traj = trajectory_of(cfg, phi0, np.full(grid.shape, 0.0), u0)
            residual.append(
                viscophase.diagnostics.check_energy_inequality(traj)
                .balance_residual)
        assert residual[0] >= 2.0 * residual[1]


class TestValidation:
    def test_needs_steps_or_t_end(self):
        with pytest.raises(ConfigError):
            simulate(SimConfig(shape=(16, 16)))

    def test_degenerate_bounds_enforced(self):
        cfg = small_cfg(regime="degenerate", init_kind="uniform",
                        init_mean=1.5)
        with pytest.raises(ConfigError):
            simulate(cfg)

    def test_model_decides_the_degenerate_checks(self):
        # run_steps checks the initial data against the model it runs, not
        # the regime of the config: a degenerate model rejects phi0 < 0
        # under a regular config, and a regular model runs a degenerate one
        cfg = small_cfg(steps=2)
        grid = build_grid(cfg)
        phi0, q0, u0 = initial_state(cfg, grid, build_material(cfg))
        assert phi0.min() < 0.0
        with pytest.raises(ConfigError, match=r"phi0 in \[0,1\]"):
            run_steps(cfg, degenerate_model(delta=1e-3), phi0, q0, u0)
        _, steps = run_steps(dataclasses.replace(cfg, regime="degenerate"),
                             regular_model(), phi0, q0, u0)
        rows = [_diag_row(s) for _, s in steps]
        assert len(rows) == 3 and "entropy" not in rows[-1]

    def test_nonfinite_rejected(self):
        cfg = small_cfg()
        grid = build_grid(cfg)
        M = build_material(cfg)
        phi0, q0, u0 = initial_state(cfg, grid, M)
        bad = np.full(grid.shape, np.nan)
        with pytest.raises(ConfigError):
            run_steps(cfg, M, bad, q0, u0)

    @pytest.mark.parametrize("name", ["phi", "q", "u"])
    def test_wrong_shape_rejected_naming_field(self, name):
        # the grid is the config's: an array of another shape names its
        # field before anything is planned or stepped
        cfg = small_cfg()
        grid = build_grid(cfg)
        M = build_material(cfg)
        fields = dict(zip(("phi", "q", "u"), initial_state(cfg, grid, M)))
        fields[name] = fields[name][..., :-1]
        with pytest.raises(ConfigError, match=f"initial {name} has shape"):
            run_steps(cfg, M, **fields)

    @pytest.mark.parametrize("bad,key", [
        (dict(steps=0), "time.steps"),
        (dict(eta=0.0), "model.eta"),
        (dict(a=0.1), "stabilization.a"),
        (dict(eps1=-1.0), "model.eps1"),
    ], ids=["steps-zero", "eta-zero", "a-below-c4-half", "eps1-negative"])
    def test_simulate_rejects_bad_value_naming_key(self, bad, key):
        with pytest.raises(ConfigError, match=key):
            simulate(small_cfg(**bad))

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
        # the run's writer keeps the row's column order and every digit
        cfg = small_cfg(steps=5, regime="degenerate", init_mean=0.5)
        traj = simulate(cfg)
        path = tmp_path / "diag.csv"
        assert _run_to_csv(path, cfg, _build_run(cfg)).series.keys() == \
            traj.series.keys()
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert data.shape == (6,)
        assert list(data.dtype.names) == list(traj.series)
        for col in traj.series:
            np.testing.assert_array_equal(data[col], traj.column(col))


class TestStepSize:
    # sigma = growth_max / (4 c0) is the fastest linear spinodal growth rate
    def test_growth_max(self):
        assert regular_model().growth_max == pytest.approx(1.0, rel=1e-12)
        M = degenerate_model(delta=1e-3, theta_c=2.5)
        assert M.growth_max == pytest.approx(0.25, rel=1e-12)

    def test_auto_step_does_not_shrink_with_h(self):
        for n in (32, 64):
            cfg = SimConfig(shape=(n, n), steps=1)
            assert dt_max(cfg, build_grid(cfg), build_material(cfg)) == \
                pytest.approx(3e-5, rel=1e-12)

    def test_deeper_quench_takes_smaller_step(self):
        dts = []
        for theta_c in (2.5, 6.0):
            cfg = SimConfig(shape=(48, 48), regime="degenerate",
                            theta_c=theta_c, steps=1)
            dts.append(dt_max(cfg, build_grid(cfg), build_material(cfg)))
        # the growth-rate bound at both: theta_c = 2.5 has growth_max =
        # 0.25 (sigma = 25), theta_c = 6 has sigma = 1600
        assert dts[0] == pytest.approx(3e-3 * 4 * 2.5e-3 / 0.25, rel=1e-12)
        assert dts[1] == pytest.approx(3e-3 / 1600, rel=1e-12)

    def test_auto_step_does_not_depend_on_viscosity(self):
        # the viscous solve is implicit, so eta sets no bound
        cfg = SimConfig(shape=(48, 48), regime="degenerate", steps=1)
        dts = [dt_max(c, build_grid(c), build_material(c))
               for c in (cfg, dataclasses.replace(cfg, eta=100.0))]
        assert dts[0] == dts[1]
        # and a step at eta = 100 is stable: 20 steps of the growth bound
        run = SimConfig(shape=(32, 32), regime="degenerate", eta=100.0,
                        init_mean=0.5, init_amplitude=0.2, t_end=2.4e-3,
                        output_every=1000, seed=0)
        traj = simulate(run)
        assert len(traj.column("t")) == 21
        assert viscophase.diagnostics.check_energy_inequality(traj).monotone
        assert traj.column("div_u_norm").max() <= 1e-14

    def test_moving_u0_sets_advective_bound(self):
        cfg = SimConfig(shape=(32, 16), lengths=(1.0, 1.0), steps=1)
        grid, M = build_grid(cfg), build_material(cfg)
        u0 = np.zeros((grid.d,) + grid.shape)
        assert dt_max(cfg, grid, M, u0=u0) == dt_max(cfg, grid, M)
        u0[1, 3, 5] = -1000.0
        assert dt_max(cfg, grid, M, u0=u0) == \
            viscophase.dynamics.COURANT_MAX * (1 / 32) / 1000.0

    def test_auto_step_lands_on_t_end(self):
        cfg = SimConfig(shape=(48, 48), regime="degenerate", t_end=5e-3)
        grid, M = build_grid(cfg), build_material(cfg)
        bound = dt_max(cfg, grid, M)
        dt, n = step_plan(cfg, grid, M)
        # 5e-3 / 1.2e-4 = 41.7 growth-bound steps
        assert n == 42 and dt <= bound
        assert n * dt == pytest.approx(5e-3, rel=1e-14)
        # a whole number of bounds takes no extra step
        whole = dataclasses.replace(cfg, t_end=20 * bound)
        assert step_plan(whole, grid, M)[1] == 20
        # an explicit step is kept and the count rounded
        assert step_plan(dataclasses.replace(cfg, dt=2e-3), grid, M) == \
            (2e-3, 2)

    @pytest.mark.parametrize("kw,dt_old,steps_old", [
        (dict(bc="neumann-noslip"), 2.384185791015625e-05, 200),
        (dict(regime="degenerate", init_mean=0.5, init_amplitude=0.2),
         9.5367431640625e-05, 50),
    ], ids=["neumann-regular", "periodic-degenerate"])
    def test_energy_drop_matches_former_step(self, kw, dt_old, steps_old):
        # dt_old is the step of the former bound h^4/(16 c0 m_max) at 32^2;
        # both runs end at t = steps_old * dt_old
        cfg = SimConfig(shape=(32, 32), output_every=1000, seed=0, **kw)
        t_end = steps_old * dt_old
        drops = []
        for run in (dataclasses.replace(cfg, dt=dt_old, steps=steps_old),
                    dataclasses.replace(cfg, t_end=t_end)):
            traj = simulate(run)
            assert traj.column("t")[-1] == pytest.approx(t_end, rel=1e-12)
            E = traj.column("E_total")
            assert np.diff(E).max() <= 0.0
            drops.append(E[0] - E[-1])
        assert abs(drops[1] - drops[0]) <= 1e-2 * drops[0]
