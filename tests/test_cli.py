import json

import numpy as np
import pytest

import viscophase.cli
import viscophase.dynamics
from viscophase.cli import (RunManifest, config_to_text, main,
                            material_fingerprint, parse_config)
from viscophase.dynamics import SimConfig, simulate
from viscophase.errors import ConfigError, InvalidDeltaError


class TestParseConfig:
    def test_empty_gives_defaults(self):
        cfg = parse_config("")
        assert cfg == SimConfig()
        assert cfg.shape == (64, 64)
        assert cfg.bc == "periodic"
        assert cfg.regime == "regular"
        assert cfg.dt is None

    def test_comments_and_values(self):
        cfg = parse_config(
            "# a comment\n"
            "grid.shape = 32, 32\n"
            "model.regime = degenerate  # inline comment\n"
            "time.steps = 250\n"
            "run.velocity_coupling = false\n")
        assert cfg.shape == (32, 32)
        assert cfg.regime == "degenerate"
        assert cfg.steps == 250
        assert cfg.velocity_coupling is False

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("grid.bc = periodic\nbogus.key = 1\n")

    def test_bad_value_reported(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("time.steps = soon\n")

    def test_delta_constraint(self):
        with pytest.raises(InvalidDeltaError):
            parse_config("regularization.delta = 0.7\n")

    @pytest.mark.parametrize("regime,a", [("regular", 0.4),
                                          ("degenerate", 2.4)])
    def test_stabilization_constraint(self, regime, a):
        # c4 = 1 for the double well, 2*theta_c = 5 for Flory-Huggins
        with pytest.raises(ConfigError, match="c4/2"):
            parse_config(f"model.regime = {regime}\nstabilization.a = {a}\n")

    def test_stabilization_valid(self):
        cfg = parse_config("stabilization.a = 0.8\n")
        assert cfg.a == 0.8


class TestManifest:
    def test_round_trip(self, tmp_path):
        cfg = parse_config("grid.shape = 32,32\ntime.steps = 5\n")
        m = RunManifest.for_run(cfg, tmp_path)
        back = RunManifest.parse(m.emit())
        assert back == m

    def test_config_round_trip(self):
        cfg = parse_config("grid.shape = 24,24\nmodel.c0 = 0.004\n"
                           "time.steps = 9\n")
        m = RunManifest.for_run(cfg, "out")
        assert m.to_config() == cfg

    def test_fingerprint_tracks_material(self):
        base = parse_config("")
        other = parse_config("model.c0 = 0.004\n")
        assert material_fingerprint(base) != material_fingerprint(other)
        assert material_fingerprint(base) == material_fingerprint(parse_config(""))

    def test_fingerprint_ignores_grid(self):
        a = parse_config("grid.shape = 32,32\n")
        b = parse_config("grid.shape = 64,64\n")
        assert material_fingerprint(a) == material_fingerprint(b)


def _write(path, text):
    path.write_text(text)
    return str(path)


class TestRunCommand:
    def test_run_success(self, tmp_path):
        cfg = _write(tmp_path / "cfg.txt",
                     "grid.shape = 16,16\ntime.steps = 20\n")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()
        assert (out / "diagnostics.csv").exists()
        assert (out / "energy_report.jsonl").exists()
        assert list((out / "snapshots").glob("*.vpf"))

    def test_stationary_run_flat_csv(self, tmp_path):
        cfg = _write(tmp_path / "cfg.txt",
                     "grid.shape = 16,16\ntime.steps = 10\n"
                     "init.kind = uniform\ninit.mean = 1.0\n")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        data = np.genfromtxt(out / "diagnostics.csv", delimiter=",", names=True)
        assert np.abs(data["E_total"]).max() < 1e-13

    def test_config_error_exit(self, tmp_path):
        cfg = _write(tmp_path / "cfg.txt", "regularization.delta = 0.7\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_numerical_failure_exit(self, tmp_path):
        cfg = _write(tmp_path / "cfg.txt",
                     "grid.shape = 32,32\ntime.dt = 0.5\ntime.steps = 50\n"
                     "init.kind = spinodal\ninit.amplitude = 0.8\n"
                     "run.seed = 3\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    def test_determinism(self, tmp_path):
        cfg = _write(tmp_path / "cfg.txt",
                     "grid.shape = 16,16\ntime.steps = 15\nrun.seed = 9\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", cfg, "--out", str(out1)])
        main(["run", "--config", cfg, "--out", str(out2)])
        assert (out1 / "diagnostics.csv").read_bytes() == \
            (out2 / "diagnostics.csv").read_bytes()

    @pytest.mark.parametrize("overrides,key", [
        (["grid.bc=dirichlet"], "grid.bc"),
        (["grid.shape=3,16"], "grid.shape"),
        (["model.regime=degenerate", "init.mean=0.5", "model.mobility=cubic"],
         "model.mobility"),
        (["time.output_every=0"], "time.output_every"),
        (["solver.solver_tol=0"], "solver.solver_tol"),
        (["solver.solver_tol=-1e-6"], "solver.solver_tol"),
        (["model.regime=degenerate", "init.mean=0.5",
          "model.potential=double-well"], "model.potential"),
        (["model.mobility=s(1-s)"], "model.mobility"),
    ], ids=["bc", "shape", "degenerate-mobility", "output-every", "tol-zero",
            "tol-negative", "degenerate-potential", "regular-mobility"])
    def test_bad_value_exit_2_naming_key(self, tmp_path, capsys, overrides,
                                         key):
        out = tmp_path / "o"
        argv = ["run", "--out", str(out), "--override", "grid.shape=16,16",
                "--override", "time.steps=2"]
        for item in overrides:
            argv += ["--override", item]
        assert main(argv) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_override_flag(self, tmp_path):
        out = tmp_path / "o"
        code = main(["run", "--out", str(out),
                     "--override", "grid.shape=16,16",
                     "--override", "time.steps=5"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["grid.shape"] == "16,16"

    @pytest.mark.parametrize("extra,builds", [("stabilization.a = 3.0\n", 2),
                                              ("", 1)])
    def test_material_built_once_per_run(self, tmp_path, monkeypatch, extra,
                                         builds):
        calls = []
        real = viscophase.dynamics.degenerate_model

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(viscophase.dynamics, "degenerate_model", counting)
        cfg = _write(tmp_path / "cfg.txt",
                     "grid.shape = 8,8\ntime.steps = 2\n"
                     "model.regime = degenerate\ninit.mean = 0.5\n" + extra)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--override", "time.steps=3"]) == 0
        # validation (only with stabilization.a) and simulate
        assert len(calls) == builds


class TestReportCommand:
    def test_pass_and_fail(self, tmp_path):
        cfg = _write(tmp_path / "cfg.txt",
                     "grid.shape = 16,16\ntime.steps = 20\n")
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out", str(out)])
        assert main(["report", "--dir", str(out)]) == 0
        # corrupt the energy column: report must fail
        path = out / "diagnostics.csv"
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        idx = header.index("E_total")
        rows = [line.split(",") for line in lines[1:]]
        for k, row in enumerate(rows):
            row[idx] = repr(1.0 + 0.1 * k)
        path.write_text("\n".join([lines[0]] +
                                  [",".join(r) for r in rows]) + "\n")
        assert main(["report", "--dir", str(out)]) == 4

    def test_missing_dir(self, tmp_path):
        assert main(["report", "--dir", str(tmp_path / "nope")]) == 2


class TestWeakStrongCommand:
    def test_uniqueness_and_scaling(self, tmp_path):
        cfg = _write(tmp_path / "cfg.txt",
                     "grid.shape = 24,24\ntime.steps = 40\nrun.seed = 3\n")
        out = tmp_path / "ws"
        code = main(["weakstrong", "--config", cfg, "--out", str(out),
                     "--eps", "0", "--eps", "1e-3", "--eps", "5e-4"])
        assert code == 0
        lines = (out / "weakstrong_report.jsonl").read_text().splitlines()
        recs = {json.loads(l)["name"]: json.loads(l) for l in lines}
        assert recs["uniqueness-max-Erel"]["pass"]
        ratio = recs["Erel-scaling-0.001/0.0005"]["value"]
        assert 3.0 <= ratio <= 5.0

    def test_refine_runs_reference_once(self, tmp_path, monkeypatch):
        runs = []

        def recording_simulate(cfg, *fields):
            traj = simulate(cfg, *fields)
            runs.append(traj)
            return traj

        monkeypatch.setattr(viscophase.cli, "simulate", recording_simulate)
        cfg = _write(tmp_path / "cfg.txt",
                     "grid.shape = 8,8\ntime.steps = 4\nrun.seed = 3\n")
        main(["weakstrong", "--config", cfg, "--out", str(tmp_path / "ws"),
              "--eps", "0", "--eps", "1e-3", "--refine", "2"])
        assert len(runs) == 3                   # reference + one per eps
        reference, perturbed = runs[0], runs[1]
        assert reference.dt == perturbed.dt / 2
        assert len(reference.times) - 1 == 2 * (len(perturbed.times) - 1)


class TestGalerkinCommand:
    def test_single_m_empty_cauchy(self, tmp_path):
        out = tmp_path / "gal"
        code = main(["galerkin", "--out", str(out), "--m", "4",
                     "--t-end", "0.1"])
        assert code == 0
        table = (out / "cauchy_table.csv").read_text().strip().splitlines()
        assert len(table) == 1          # header only

    @pytest.mark.parametrize("modes", [["16", "8"], ["0"]],
                             ids=["decreasing", "zero"])
    def test_bad_mode_counts_exit_2(self, tmp_path, modes, capsys):
        argv = ["galerkin", "--out", str(tmp_path / "gal"), "--t-end", "0.1"]
        for m in modes:
            argv += ["--m", m]
        assert main(argv) == 2
        assert "strictly increasing" in capsys.readouterr().err
        assert not list((tmp_path / "gal").glob("galerkin_m*.csv"))

    def test_multi_m(self, tmp_path):
        out = tmp_path / "gal"
        code = main(["galerkin", "--out", str(out), "--m", "4", "--m", "8",
                     "--t-end", "0.1"])
        assert code == 0
        data = np.genfromtxt(out / "galerkin_m4.csv", delimiter=",",
                             names=True)
        assert set(data.dtype.names) == {"t", "E_m", "D_total", "const_mode"}


class TestSweepCommand:
    def test_small_sweep(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(["degenerate-sweep", "--out", str(out),
                     "--override", "grid.shape=16,16",
                     "--override", "time.steps=20",
                     "--override", "model.regime=degenerate",
                     "--deltas", "1e-2,1e-3"])
        assert code == 0
        rows = np.genfromtxt(out / "sweep_table.csv", delimiter=",",
                             names=True)
        assert rows.shape == (2,)

    def test_sweep_config_validated_as_degenerate(self, tmp_path):
        # the sweep fixes the regime, so a degenerate mobility needs no
        # model.regime line
        out = tmp_path / "sweep"
        code = main(["degenerate-sweep", "--out", str(out),
                     "--override", "grid.shape=16,16",
                     "--override", "time.steps=5",
                     "--override", "model.mobility=quadratic",
                     "--deltas", "1e-2"])
        assert code == 0
        assert json.loads((out / "sweep_report.jsonl").read_text()
                          .splitlines()[0])["pass"]
