import numpy as np
import pytest

from viscophase.diagnostics import (BoundsReport, CheckRecord, Trajectory,
                                    _diag_row, bounds_report,
                                    check_energy_inequality, energy,
                                    galerkin_records, gronwall_fit,
                                    relative_energy, run_records,
                                    sweep_records, weakstrong_records,
                                    write_report)
from viscophase.dynamics import (SimConfig, build_grid, build_material,
                                 make_state, run_steps, simulate)
from viscophase.errors import GridMismatchError
from viscophase.fields import Grid, grad_arr
from viscophase.galerkin import GalerkinRun
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


# ---------------------------------------------------------------------------
# each command's records, from hand-made data


def _failed(records):
    return [r.name for r in records if not r.passed]


def _run_traj(E=(1.0, 0.9, 0.8), mass=(0.5, 0.5, 0.5), cfl=(0.0, 0.1, 0.2)):
    """The columns run_records reads: t = 0, 0.1 ..., E_total E, no
    dissipation, mass and, unless None, cfl."""
    zero = np.zeros(len(E))
    series = {"t": 0.1 * np.arange(len(E)), "E_total": np.array(E),
              "D_cross": zero, "D_q": zero, "D_eps": zero, "D_visc": zero,
              "mass": np.array(mass)}
    if cfl is not None:
        series["cfl"] = np.array(cfl)
    return Trajectory(series=series)


class TestRunRecords:
    def test_pass(self):
        records = run_records(_run_traj())
        assert [r.name for r in records] == [
            "energy-monotone", "balance-residual", "mass-drift", "max-cfl"]
        assert _failed(records) == []

    def test_no_cfl_column_no_max_cfl(self):
        names = [r.name for r in run_records(_run_traj(cfl=None))]
        assert names == ["energy-monotone", "balance-residual", "mass-drift"]

    @pytest.mark.parametrize("name, columns", [
        ("energy-monotone", {"E": (1.0, 1.1, 1.0)}),
        ("mass-drift", {"mass": (0.5, 0.5, 0.5 + 1e-9)}),
        ("max-cfl", {"cfl": (0.0, 0.3, 0.1)}),
    ])
    def test_fail(self, name, columns):
        assert _failed(run_records(_run_traj(**columns))) == [name]

    @pytest.mark.parametrize("name, column", [
        ("energy-monotone", "E"), ("mass-drift", "mass"), ("max-cfl", "cfl")])
    def test_nan_fails(self, name, column):
        values = {"E": [1.0, 0.9, 0.8], "mass": [0.5] * 3,
                  "cfl": [0.0, 0.1, 0.2]}[column]
        values[1] = np.nan
        records = {r.name: r for r in run_records(_run_traj(
            **{column: values}))}
        assert _failed(records.values()) == [name]
        assert np.isnan(records[name].value)

    def test_balance_residual_passes_on_nan(self):
        records = {r.name: r for r in run_records(_run_traj(
            E=(1.0, np.nan, 0.8)))}
        balance = records["balance-residual"]
        assert np.isnan(balance.value) and balance.passed
        assert balance.threshold == np.inf


def _samples(E_rel, t=(0.0, 0.1, 0.2)):
    """One (t, E_rel, D_rel) row per time, no relative dissipation."""
    return [(tk, Ek, 0.0) for tk, Ek in zip(t, E_rel)]


class TestWeakstrongRecords:
    def test_pass(self):
        records = weakstrong_records(
            [0.0, 1e-3, 5e-4],
            [_samples([0.0] * 3), _samples([4e-6, 3e-6, 2e-6]),
             _samples([1e-6, 0.75e-6, 0.5e-6])])
        assert [r.name for r in records] == [
            "uniqueness-max-Erel", "gronwall-residual-eps0.001",
            "gronwall-residual-eps0.0005", "Erel-scaling-0.001/0.0005"]
        assert _failed(records) == []
        assert records[-1].value == pytest.approx(0.0, abs=1e-12)

    def test_perturbed_uniqueness_fails(self):
        records = weakstrong_records([0.0], [_samples([0.0, 1e-9, 0.0])])
        assert _failed(records) == ["uniqueness-max-Erel"]

    def test_linear_scaling_fails(self):
        # halving eps halves the final E_rel where eps^2 quarters it
        records = weakstrong_records(
            [1e-3, 5e-4], [_samples([2e-6] * 3), _samples([1e-6] * 3)])
        assert _failed(records) == ["Erel-scaling-0.001/0.0005"]
        assert records[-1].value == pytest.approx(0.5)

    @pytest.mark.parametrize("eps, name", [
        ((0.0,), "uniqueness-max-Erel"),
        ((1e-3, 5e-4), "Erel-scaling-0.001/0.0005")])
    def test_nan_fails(self, eps, name):
        samples = [_samples([4e-6, 3e-6, 2e-6])] * len(eps)
        samples[-1] = _samples([0.0, 0.0, np.nan])
        records = {r.name: r for r in weakstrong_records(list(eps), samples)}
        assert not records[name].passed and np.isnan(records[name].value)

    def test_gronwall_residual_passes(self):
        # No finite samples fail this record (ROADMAP item 17):
        # gronwall_fit takes C as the largest growth rate the samples show,
        # so E_rel + D_half <= E_rel(0) exp(C t) holds at every sample and
        # the residual is rounding.  Even a relative energy that grows
        # a hundredfold passes; only its passing is tested.
        growing = _samples([1e-6, 1e-5, 1e-4])
        (record,) = weakstrong_records([1e-3], [growing])
        assert record.name == "gronwall-residual-eps0.001"
        assert record.passed and record.value <= 1e-12


def _galerkin_study(*energies):
    """A study dict of one GalerkinRun per E series, m = 4, 8 ..., with
    no dissipation."""
    runs = []
    for E in energies:
        n = len(E)
        zero = np.zeros(n)
        runs.append(GalerkinRun(times=np.linspace(0, 1, n),
                                lam=np.zeros((n, 4)), zeta=np.zeros((n, 4)),
                                E=np.array(E), D=zero, D_cum=zero))
    return {"m": [4 * 2 ** k for k in range(len(runs))], "runs": runs}


class TestGalerkinRecords:
    def test_pass(self):
        records = galerkin_records(_galerkin_study([1.0, 0.9], [1.0, 0.8]))
        assert [r.name for r in records] == ["energy-inequality-m4",
                                             "energy-inequality-m8"]
        assert _failed(records) == []

    def test_energy_gain_fails(self):
        records = galerkin_records(_galerkin_study([1.0, 0.9], [1.0, 1.1]))
        assert _failed(records) == ["energy-inequality-m8"]

    def test_nan_fails(self):
        (record,) = galerkin_records(_galerkin_study([1.0, np.nan]))
        assert not record.passed and np.isnan(record.value)


def _bounds(overshoot, entropy=(1.0, 0.9)):
    """A BoundsReport with the given overshoot and entropy series."""
    return BoundsReport(min_phi=-overshoot, max_phi=0.5, overshoot=overshoot,
                        measure_max=0.0, separation_margin=-overshoot,
                        entropy_series=(None if entropy is None
                                        else np.array(entropy)))


class TestSweepRecords:
    DELTAS = (1e-2, 1e-3, 1e-4)

    def _records(self, overshoots, entropies=None):
        entropies = entropies or [(1.0, 0.9)] * len(overshoots)
        return sweep_records(self.DELTAS, [
            _bounds(o, e) for o, e in zip(overshoots, entropies)])

    def test_pass(self):
        records = self._records([1e-3, 1e-5, 0.0])
        assert [r.name for r in records] == [
            "entropy-finite-delta0.01", "entropy-finite-delta0.001",
            "entropy-finite-delta0.0001", "overshoot-final",
            "overshoot-monotone"]
        assert _failed(records) == []
        assert records[0].value == records[0].threshold == 1.0

    @pytest.mark.parametrize("entropy", [(1.0, np.inf), (np.nan, 1.0), None],
                             ids=["inf", "nan", "none"])
    def test_entropy_not_finite_fails(self, entropy):
        records = self._records([0.0] * 3,
                                [(1.0, 0.9), entropy, (1.0, 0.9)])
        assert _failed(records) == ["entropy-finite-delta0.001"]
        assert records[1].value == 0.0

    def test_final_overshoot_fails(self):
        records = self._records([1e-3, 1e-4, 1e-5])
        assert _failed(records) == ["overshoot-final"]

    def test_growing_overshoot_fails(self):
        records = self._records([0.0, 1e-7, 1e-7])
        assert _failed(records) == ["overshoot-monotone"]
        assert records[-1].value == 0.0

    def test_nan_fails(self):
        records = {r.name: r for r in self._records([0.0, 0.0, np.nan])}
        assert np.isnan(records["overshoot-final"].value)
        assert _failed(records.values()) == ["overshoot-final",
                                             "overshoot-monotone"]
