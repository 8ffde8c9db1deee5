"""Acceptance suite: one test per criterion, each printing a single
PASS/FAIL line with the measured values."""

import dataclasses
import json

import numpy as np
import pytest

from viscophase.cli import main
from viscophase.diagnostics import check_energy_inequality, relative_energy
from viscophase.dynamics import SimConfig, build_grid, build_material, simulate
from viscophase.fields import (Grid, div_arr, grad_arr, lap_arr,
                               project_divergence_free)
from viscophase.galerkin import (CosineBasis, convergence_study,
                                 integrate_galerkin, project)
from viscophase.material import regular_model


def _verdict(num, name, ok, detail):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def _run(argv, out, report):
    """Exit code of ``viscophase argv --out out`` and the records of its
    report file out/report.jsonl, by name."""
    code = main(argv + ["--out", str(out)])
    lines = (out / f"{report}.jsonl").read_text().splitlines()
    return code, {r["name"]: r for r in map(json.loads, lines)}


def _thresholds(records):
    return {name: r["threshold"] for name, r in records.items()}


# ---------------------------------------------------------------------------
# shared runs

# the 64^2 step of the former explicit bound h^4/(16 c0 m_max): the gates
# below were set at this step (balance order 0.982; at the automatic step
# the same runs would measure 0.725)
DT_64 = 1.4901161193847656e-06


@pytest.fixture(scope="module")
def spinodal_run():
    """Regular-regime spinodal benchmark: 64^2 periodic, 1000 steps."""
    cfg = SimConfig(shape=(64, 64), dt=DT_64, steps=1000, output_every=1000,
                    init_kind="spinodal", seed=3)
    return simulate(cfg)


@pytest.fixture(scope="module")
def halving_runs():
    """The same benchmark at dt, dt/2, dt/4 over a fixed time window."""
    base = SimConfig(shape=(64, 64), steps=100, output_every=1000,
                     init_kind="spinodal", seed=3)
    return [simulate(dataclasses.replace(base, dt=DT_64 / 2**k,
                                         steps=100 * 2**k))
            for k in range(3)]


def test_1_mass_conservation(spinodal_run):
    traj = spinodal_run
    mass = traj.column("mass")
    drift = float(np.abs(mass - mass[0]).max())
    ok = _verdict(1, "mass conservation", drift <= 1e-10,
                  f"max |mass(t)-mass(0)| = {drift:.3e} over 1000 steps")
    assert ok


def test_2_energy_inequality(spinodal_run, halving_runs):
    traj = spinodal_run
    rep = check_energy_inequality(traj)
    residuals = [check_energy_inequality(t).balance_residual
                 for t in halving_runs]
    orders = np.log2(np.array(residuals[:-1]) / np.array(residuals[1:]))
    order = float(orders.mean())
    ok = rep.monotone and 0.7 <= order <= 1.3
    ok = _verdict(2, "energy inequality", ok,
                  f"worst per-step excess {rep.worst_violation:.3e}, "
                  f"balance order {order:.3f} (residuals "
                  + ", ".join(f"{r:.2e}" for r in residuals) + ")")
    assert ok


def test_3_relative_energy_identity_coercivity():
    cfg = SimConfig(shape=(32, 32))
    grid = build_grid(cfg)
    M = build_material(cfg)
    rng = np.random.default_rng(7)

    def rand_state(scale=0.8):
        from viscophase.dynamics import make_state
        phi = scale * rng.standard_normal(grid.shape)
        q = rng.standard_normal(grid.shape)
        u = rng.standard_normal((2,) + grid.shape)
        return make_state(0.0, phi, q, u, np.full(grid.shape, 0.0), M, grid)

    worst_self = 0.0
    for _ in range(20):
        st = rand_state()
        rep = relative_energy(st, st)
        worst_self = max(worst_self, abs(rep.E_total))

    gap = M.a - M.c4 / 2.0
    worst_coerc = np.inf
    for _ in range(100):
        a, b = rand_state(), rand_state()
        rep = relative_energy(a, b)
        l2sq = float(((a.phi - b.phi) ** 2).sum() * grid.cell_volume)
        worst_coerc = min(worst_coerc, rep.E_mix - gap * l2sq)

    ok = worst_self <= 1e-12 and worst_coerc >= -1e-10
    ok = _verdict(3, "relative-energy identity/coercivity", ok,
                  f"max |E_rel(x|x)| = {worst_self:.2e}, "
                  f"min coercivity slack = {worst_coerc:.2e}")
    assert ok


def test_4_weak_strong(tmp_path):
    # the 64^2 spinodal benchmark at the automatic step, 200 steps
    common = ["weakstrong", "--seed", "3", "--override", "grid.shape=64,64",
              "--override", "time.steps=200",
              "--override", "init.kind=spinodal"]
    pair = tmp_path / "pair"
    pair_code, records = _run(common + ["--eps", "1e-3", "--eps", "5e-4"],
                              pair, "weakstrong_report")
    # coinciding initial data to t = 0.1
    twin_code, twin = _run(common + ["--eps", "0",
                                     "--override", "time.dt=5e-4"],
                           tmp_path / "twin", "weakstrong_report")
    records.update(twin)
    finals = [np.loadtxt(pair / f"relative_energy_eps{eps}.csv",
                         delimiter=",", skiprows=1)[-1, 1]
              for eps in ("0.001", "0.0005")]

    ok = pair_code == twin_code == 0 and all(
        r["pass"] for r in records.values())
    ok = _verdict(4, "weak-strong behavior", ok,
                  f"twin max E_rel = "
                  f"{records['uniqueness-max-Erel']['value']:.2e}, "
                  f"eps-ratio = {finals[0] / finals[1]:.3f}, gronwall "
                  f"residual = "
                  f"{records['gronwall-residual-eps0.001']['value']:.3e}")
    assert ok
    assert _thresholds(records) == {
        "uniqueness-max-Erel": 1e-10, "gronwall-residual-eps0.001": 0.05,
        "gronwall-residual-eps0.0005": 0.05,
        "Erel-scaling-0.001/0.0005": 0.25}


def test_5_degenerate_bounds(tmp_path):
    out = tmp_path / "sweep"
    code, records = _run(
        ["degenerate-sweep", "--seed", "5", "--deltas", "1e-2,1e-3,1e-4",
         "--override", "grid.shape=48,48", "--override", "time.steps=500",
         "--override", "time.output_every=100",
         "--override", "init.kind=spinodal", "--override", "init.mean=0.5",
         "--override", "init.amplitude=0.2"], out, "sweep_report")
    overshoots = np.loadtxt(out / "sweep_table.csv", delimiter=",",
                            skiprows=1)[:, 1]
    entropy_ok = all(r["pass"] for name, r in records.items()
                     if name.startswith("entropy-finite"))
    ok = code == 0 and all(r["pass"] for r in records.values())
    ok = _verdict(5, "degenerate bounds", ok,
                  "overshoots " + ", ".join(f"{o:.3e}" for o in overshoots)
                  + f"; monotone={records['overshoot-monotone']['pass']}, "
                  f"entropy finite={entropy_ok}")
    assert ok
    assert _thresholds(records) == {
        "entropy-finite-delta0.01": 1.0, "entropy-finite-delta0.001": 1.0,
        "entropy-finite-delta0.0001": 1.0, "overshoot-final": 1e-6,
        "overshoot-monotone": 1.0}


def test_6_galerkin_harness():
    M = regular_model()
    # constant-mode q decay
    B1 = CosineBasis((1.0, 1.0), 1)
    run1 = integrate_galerkin(np.array([0.3]), np.array([0.7]), B1, M, 1.0,
                              rtol=1e-8)
    z = run1.zeta[:, 0]
    decay_err = float(np.abs(z - 0.7 * np.exp(-run1.times)).max())

    # m = 16 nonlinear energy inequality
    rng = np.random.default_rng(2)
    B16 = CosineBasis((1.0, 1.0), 16)
    lam0 = 0.05 * rng.standard_normal(16)
    lam0[0] = 0.0
    run16 = integrate_galerkin(lam0, 0.05 * rng.standard_normal(16), B16, M,
                               0.5, rtol=1e-8)
    slack = run16.energy_slack

    # linear spectral convergence past the band limit
    zero = lambda s: np.zeros_like(np.asarray(s, dtype=float))
    pot = dataclasses.replace(M.potential, f=zero, df=zero, d2f=zero)
    Mlin = dataclasses.replace(M, potential=pot, A=zero, dA=zero)
    phi0 = lambda x, y: (0.3 * np.cos(np.pi * x) * np.cos(np.pi * y)
                         + 0.1 * np.cos(2 * np.pi * x))
    study = convergence_study(
        [4, 8, 16], phi0, lambda x, y: np.zeros_like(x), Mlin,
        (1.0, 1.0), 0.2, rtol=1e-10)
    tail = float(study["diffs"][-1])

    ok = decay_err <= 1e-8 and slack <= 0.0 and tail < 1e-8
    ok = _verdict(6, "galerkin harness", ok,
                  f"m=1 decay err {decay_err:.2e}, m=16 inequality slack "
                  f"{slack:.2e}, linear Cauchy tail {tail:.2e}")
    assert ok


def test_7_operator_oracles():
    # finite-difference Laplacian vs the exact spectral value, order ~ 2
    errs = []
    for n in (32, 64):
        g = Grid((n, n), (1.0, 1.0), "periodic")
        x, y = g.meshgrid()
        f = np.sin(2 * np.pi * x) + np.cos(4 * np.pi * y)
        exact = (-(2 * np.pi) ** 2 * np.sin(2 * np.pi * x)
                 - (4 * np.pi) ** 2 * np.cos(4 * np.pi * y))
        errs.append(np.abs(lap_arr(f, g) - exact).max())
    order = float(np.log2(errs[0] / errs[1]))

    # summation by parts on a periodic grid
    g = Grid((24, 24), (1.0, 1.0), "periodic")
    rng = np.random.default_rng(0)
    fr = rng.standard_normal(g.shape)
    vr = rng.standard_normal((2,) + g.shape)
    sbp = abs((vr * grad_arr(fr, g, 1)).sum() * g.cell_volume
              + (fr * div_arr(vr, g, -1)).sum() * g.cell_volume)

    # projection idempotence
    v = rng.standard_normal((2,) + g.shape)
    w, _ = project_divergence_free(v, g)
    w2, _ = project_divergence_free(w, g)
    idem = float(np.abs(w - w2).max())

    ok = 1.9 <= order <= 2.1 and sbp <= 1e-12 and idem <= 1e-10
    ok = _verdict(7, "operator oracles", ok,
                  f"laplacian order {order:.3f}, SBP defect {sbp:.2e}, "
                  f"projection idempotence {idem:.2e}")
    assert ok


def test_8_small_3d_smoke():
    cfg = SimConfig(shape=(24, 24, 24), lengths=(1.0, 1.0, 1.0), steps=100,
                    output_every=100, init_kind="spinodal", seed=11)
    traj = simulate(cfg)
    mass = traj.column("mass")
    drift = float(np.abs(mass - mass[0]).max())
    rep = check_energy_inequality(traj)
    ok = drift <= 1e-10 and rep.monotone
    ok = _verdict(8, "small-3D smoke", ok,
                  f"mass drift {drift:.2e}, worst per-step excess "
                  f"{rep.worst_violation:.2e}")
    assert ok
