import numpy as np
import pytest

from viscophase.diagnostics import (CheckRecord, Trajectory, _diag_row,
                                    bounds_report, check_energy_inequality,
                                    energy, gronwall_fit, relative_energy,
                                    write_report)
from viscophase.dynamics import (SimConfig, build_grid, build_material,
                                 make_state, run_steps, simulate)
from viscophase.errors import GridMismatchError
from viscophase.fields import Grid, grad_arr
from viscophase.material import degenerate_model, regular_model
import dataclasses
import json


def _state(grid, M, phi, q=None, u=None):
    qf = np.full(grid.shape, 0.0) if q is None else q
    uf = np.zeros((grid.d,) + grid.shape) if u is None else u
    return make_state(0.0, phi, qf, uf, np.full(grid.shape, 0.0), M, grid)


@pytest.fixture
def setup():
    cfg = SimConfig(shape=(32, 32))
    grid = build_grid(cfg)
    M = build_material(cfg)
    return grid, M


class TestEnergy:
    def test_minimum_state(self, setup):
        grid, M = setup
        eb = energy(_state(grid, M, np.full(grid.shape, 1.0)))
        assert eb.E_total == pytest.approx(0.0, abs=1e-14)
        assert eb.D_total == pytest.approx(0.0, abs=1e-14)

    def test_constant_integrand(self, setup):
        grid, M = setup
        eb = energy(_state(grid, M, np.full(grid.shape, 0.0)))
        assert eb.E_total == pytest.approx(0.25)
        assert eb.E_mix == pytest.approx(0.25)

    def test_gradient_energy_mode(self):
        # E_mix = (2 pi)^2 / 4 = pi^2 for phi = cos(2 pi x), c0 = 1, F = 0
        cfg = SimConfig(shape=(256, 8))
        grid = build_grid(cfg)
        M = regular_model(c0=1.0)
        zero_pot = dataclasses.replace(
            M.potential,
            f=lambda s: np.zeros_like(np.asarray(s, float)),
            df=lambda s: np.zeros_like(np.asarray(s, float)))
        M = dataclasses.replace(M, potential=zero_pot)
        phi = np.cos(2 * np.pi * grid.meshgrid()[0])
        eb = energy(_state(grid, M, phi))
        assert eb.E_mix == pytest.approx(np.pi**2, rel=1e-3)

    def test_totals_additive(self, setup):
        grid, M = setup
        rng = np.random.default_rng(0)
        st = _state(grid, M, rng.standard_normal(grid.shape),
                    rng.standard_normal(grid.shape),
                    rng.standard_normal((2,) + grid.shape))
        eb = energy(st)
        assert eb.E_total == pytest.approx(eb.E_mix + eb.E_bulk + eb.E_kin)
        assert min(eb.D_cross, eb.D_q, eb.D_eps, eb.D_visc) >= 0.0


class TestEnergyInequality:
    def test_stationary_exact(self):
        cfg = SimConfig(shape=(16, 16), steps=10, init_kind="uniform",
                        init_mean=1.0)
        traj = simulate(cfg)
        rep = check_energy_inequality(traj)
        assert rep.monotone
        assert rep.balance_residual < 1e-13

    def test_spinodal_passes(self):
        cfg = SimConfig(shape=(32, 32), steps=100, init_kind="spinodal",
                        seed=1, output_every=100)
        traj = simulate(cfg)
        rep = check_energy_inequality(traj)
        assert rep.monotone
        assert "PASS" in str(rep)

    def test_detector_flags_increase(self):
        # synthetic run whose energy grows must be reported as a failure
        t = np.linspace(0, 1, 11)
        series = {"t": t, "E_total": 1.0 + 0.1 * t,
                  "D_cross": np.zeros(11), "D_q": np.zeros(11),
                  "D_eps": np.zeros(11), "D_visc": np.zeros(11)}
        traj = Trajectory(series=series)
        rep = check_energy_inequality(traj)
        assert not rep.monotone
        assert rep.worst_violation > 0
        assert "FAIL" in str(rep)


class TestRelativeEnergy:
    def test_self_distance_zero(self, setup):
        grid, M = setup
        rng = np.random.default_rng(2)
        st = _state(grid, M, 0.3 * rng.standard_normal(grid.shape))
        rep = relative_energy(st, st)
        assert rep.E_total == pytest.approx(0.0, abs=1e-14)
        assert rep.D_total == pytest.approx(0.0, abs=1e-14)

    def test_constant_shift_closed_form(self, setup):
        grid, M = setup
        eps = 0.3
        st = _state(grid, M, np.full(grid.shape, eps))
        ref = _state(grid, M, np.full(grid.shape, 0.0))
        rep = relative_energy(st, ref)
        P = M.potential
        expect = float(P.f(eps) - P.f(0.0) - P.df(0.0) * eps + M.a * eps**2)
        assert rep.E_mix == pytest.approx(expect, rel=1e-12)

    def test_kinetic_only(self, setup):
        grid, M = setup
        beta = 0.7
        phi = np.full(grid.shape, 0.2)
        u = np.stack([np.full(grid.shape, beta),
                                        np.zeros(grid.shape)])
        st = _state(grid, M, phi, u=u)
        ref = _state(grid, M, phi)
        rep = relative_energy(st, ref)
        assert rep.E_total == pytest.approx(0.5 * beta**2)
        assert rep.E_mix == pytest.approx(0.0, abs=1e-14)

    def test_bulk_kin_symmetric_mix_not(self, setup):
        grid, M = setup
        rng = np.random.default_rng(3)
        a = _state(grid, M, 0.4 * rng.standard_normal(grid.shape),
                   rng.standard_normal(grid.shape))
        b = _state(grid, M, 0.4 * rng.standard_normal(grid.shape),
                   rng.standard_normal(grid.shape))
        fwd = relative_energy(a, b)
        bwd = relative_energy(b, a)
        assert fwd.E_bulk == pytest.approx(bwd.E_bulk, rel=1e-12)
        assert fwd.E_kin == pytest.approx(bwd.E_kin, rel=1e-12)
        assert abs(fwd.E_mix - bwd.E_mix) > 1e-6

    def test_coercivity(self, setup):
        grid, M = setup
        rng = np.random.default_rng(4)
        gap = M.a - M.c4 / 2.0
        for _ in range(20):
            pa = 0.8 * rng.standard_normal(grid.shape)
            pb = 0.8 * rng.standard_normal(grid.shape)
            rep = relative_energy(_state(grid, M, pa), _state(grid, M, pb))
            l2sq = float(((pa - pb) ** 2).sum() * grid.cell_volume)
            assert rep.E_mix >= gap * l2sq - 1e-10

    def test_grid_mismatch(self, setup):
        grid, M = setup
        other = build_grid(SimConfig(shape=(16, 16)))
        with pytest.raises(GridMismatchError):
            relative_energy(_state(grid, M, np.full(grid.shape, 0.0)),
                            _state(other, M, np.full(other.shape, 0.0)))

    def test_model_mismatch(self, setup):
        grid, M = setup
        zero = np.full(grid.shape, 0.0)
        with pytest.raises(ValueError, match="different models"):
            relative_energy(_state(grid, M, zero),
                            _state(grid, regular_model(), zero))

    @pytest.mark.parametrize("bc", ["periodic", "neumann-noslip"])
    @pytest.mark.parametrize("regime", ["regular", "degenerate"])
    @pytest.mark.parametrize("shape", [(24,), (12, 10), (6, 5, 4)],
                             ids=["1d", "2d", "3d"])
    def test_matches_field_by_field_formula(self, shape, regime, bc):
        grid = Grid(shape, tuple(1.0 - 0.1 * a for a in range(len(shape))), bc)
        if regime == "degenerate":
            M, mean, amp = degenerate_model(delta=1e-3), 0.5, 0.2
        else:
            M, mean, amp = regular_model(), 0.0, 0.6
        rng = np.random.default_rng(5)

        def random_state(base=None):
            noise = rng.uniform(-1.0, 1.0, (2 + grid.d,) + shape)
            phi = (mean + amp * noise[0] if base is None
                   else base.phi + 0.05 * noise[0])
            return _state(grid, M, phi,
                          noise[1],
                          noise[2:])

        reference = random_state()
        state = random_state(reference)
        got = relative_energy(state, reference)
        expect = _field_by_field(state, reference, M)
        for key, value in expect.items():
            assert getattr(got, key) == pytest.approx(value, rel=1e-12), key


def _field_by_field(state, reference, M):
    """The relative energy of state to reference under M, each term
    computed afresh from the fields: E_mix, E_bulk, E_kin, E_total and
    D_total."""
    grid = state.grid
    vol = grid.cell_volume
    phi, psi = state.phi, reference.phi
    q, Q = state.q, reference.q
    u, U = state.u, reference.u
    P = M.potential

    dgrad = grad_arr(phi, grid, 1) - grad_arr(psi, grid, 1)
    convexity = (np.asarray(P.f(phi)) - np.asarray(P.f(psi))
                 - np.asarray(P.df(psi)) * (phi - psi))
    E_mix = float(((0.5 * M.c0) * (dgrad**2).sum(axis=0) + convexity
                   + M.a * (phi - psi) ** 2).sum() * vol)
    E_bulk = float((0.5 * (q - Q) ** 2).sum() * vol)
    E_kin = float((0.5 * ((u - U) ** 2).sum(axis=0)).sum() * vol)

    nv = np.asarray(M.n(phi), dtype=float)
    Av = np.asarray(M.A(phi), dtype=float)
    cross = (nv[None] * (grad_arr(state.mu, grid, 1)
                         - grad_arr(reference.mu, grid, 1))
             - grad_arr(Av * (q - Q), grid, 1))
    etav = np.asarray(M.eta(phi), dtype=float)
    tauv = np.asarray(M.tau(phi), dtype=float)
    D = float((cross**2).sum() * vol)
    D += float(((q - Q) ** 2 / tauv).sum() * vol)
    dq = grad_arr(q - Q, grid, 1)
    D += float(M.eps1 * (dq**2).sum() * vol)
    for i in range(grid.d):
        du = grad_arr(u[i] - U[i], grid, parity=-1)
        D += float((etav * (du**2).sum(axis=0)).sum() * vol)
    return {"E_mix": E_mix, "E_bulk": E_bulk, "E_kin": E_kin,
            "E_total": E_mix + E_bulk + E_kin, "D_total": D}


class TestGronwall:
    def test_exact_exponential(self):
        t = np.linspace(0, 1, 50)
        E = 0.3 * np.exp(2.0 * t)
        fit = gronwall_fit(t, E, np.zeros_like(t))
        assert fit.C == pytest.approx(2.0, abs=1e-10)
        assert fit.residual <= 1e-10

    def test_uniqueness_branch(self):
        t = np.linspace(0, 1, 20)
        fit = gronwall_fit(t, np.zeros_like(t), np.zeros_like(t))
        assert fit.degenerate
        assert fit.max_E == 0.0

    def test_decaying_series(self):
        t = np.linspace(0, 1, 50)
        E = 0.3 * np.exp(-5.0 * t)
        fit = gronwall_fit(t, E, np.zeros_like(t))
        assert fit.C == pytest.approx(-5.0, abs=1e-10)
        assert fit.residual <= 1e-12


def _first_row_trajectory(phi_data):
    """The Trajectory of the first diagnostics row of a degenerate 32^2
    run from phi_data, and its model."""
    cfg = SimConfig(shape=(32, 32), regime="degenerate", steps=1)
    grid = build_grid(cfg)
    M = build_material(cfg)
    _, steps = run_steps(cfg, M, phi_data, np.full(grid.shape, 0.0),
                         np.zeros((grid.d,) + grid.shape))
    _, state = next(steps)
    return Trajectory.from_rows([_diag_row(state)]), M


class TestBounds:
    def test_constant_half(self):
        traj, M = _first_row_trajectory(np.full((32, 32), 0.5))
        rep = bounds_report(traj, M)
        assert rep.min_phi == rep.max_phi == 0.5
        assert rep.measure_max == 0.0
        assert rep.separation_margin == 0.5

    def test_single_hot_cell(self):
        data = np.full((32, 32), 0.5)
        data[3, 7] = 0.999
        traj, M = _first_row_trajectory(data)
        rep = bounds_report(traj, M)
        assert rep.measure_max == pytest.approx(1.0 / 1024.0)

    def test_degenerate_run_entropy(self):
        cfg = SimConfig(shape=(16, 16), steps=20, regime="degenerate",
                        init_kind="spinodal", init_mean=0.5,
                        init_amplitude=0.1, seed=2, output_every=5)
        traj = simulate(cfg)
        rep = bounds_report(traj, build_material(cfg))
        assert rep.entropy_series is not None
        assert np.all(np.isfinite(rep.entropy_series))
        assert rep.overshoot <= 0.0


class TestReportOutput:
    def test_write_report_formats(self, tmp_path):
        recs = [CheckRecord("alpha", 1.0, 2.0, True),
                CheckRecord("beta", 3.0, 2.0, False)]
        txt = tmp_path / "r.txt"
        jsl = tmp_path / "r.jsonl"
        text = write_report(recs, txt_path=txt, jsonl_path=jsl)
        assert "[PASS] alpha" in text and "[FAIL] beta" in text
        lines = jsl.read_text().strip().splitlines()
        assert len(lines) == 2
        rec = json.loads(lines[0])
        assert set(rec) == {"name", "value", "threshold", "pass"}
