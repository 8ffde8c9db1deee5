import ast
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import viscophase.cli
import viscophase.dynamics
import viscophase.snapshots
from viscophase import __version__
from viscophase.cli import (config_to_text, main, material_fingerprint,
                            parse_config, run_manifest)
from viscophase.dynamics import SimConfig, make_state
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

    def test_line_without_equals_reported(self):
        with pytest.raises(ConfigError,
                           match="line 2: expected 'key = value'"):
            parse_config("grid.bc = periodic\ngrid.shape 32,32\n")

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
        cfg = parse_config("grid.shape = 32,32\ntime.steps = 5\n"
                           "run.seed = 4\n")
        text = run_manifest(cfg, tmp_path)
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2)
        manifest = json.loads(text)
        assert (manifest["config"]["grid.shape"],
                manifest["config"]["time.steps"]) == ("32,32", "5")
        assert manifest == {
            "config": config_to_text(cfg),
            "fingerprint": material_fingerprint(cfg), "seed": 4,
            "outdir": str(tmp_path), "version": __version__}

    def test_config_round_trip(self):
        cfg = parse_config("grid.shape = 24,24\nmodel.c0 = 0.004\n"
                           "time.steps = 9\n")
        assert _manifest_config(run_manifest(cfg, "out")) == cfg

    def test_fingerprint_tracks_material(self):
        base = parse_config("")
        other = parse_config("model.c0 = 0.004\n")
        assert material_fingerprint(base) != material_fingerprint(other)
        assert material_fingerprint(base) == material_fingerprint(parse_config(""))

    def test_fingerprint_ignores_grid(self):
        a = parse_config("grid.shape = 32,32\n")
        b = parse_config("grid.shape = 64,64\n")
        assert material_fingerprint(a) == material_fingerprint(b)

    # a value other than the default for every KEYMAP key
    OTHER_VALUES = {
        "grid.shape": "32,32", "grid.lengths": "2,1",
        "grid.bc": "neumann-noslip", "model.regime": "degenerate",
        "model.theta_c": "3",
        "model.mobility": "s2(1-s)2", "model.c0": "0.004",
        "model.eps1": "0.02", "model.eta": "2", "model.tau": "2",
        "model.alpha": "2", "regularization.delta": "0.01",
        "stabilization.a": "2", "time.dt": "0.001", "time.dt_safety": "0.5",
        "time.t_end": "1", "time.steps": "5", "time.output_every": "5",
        "init.kind": "uniform", "init.mean": "0.5", "init.amplitude": "0.1",
        "init.width": "0.1", "init.path": "x.vpf", "run.seed": "7",
        "run.velocity_coupling": "false", "solver.solver_tol": "1e-8",
    }

    def test_fingerprint_of_defaults_pinned(self):
        assert material_fingerprint(SimConfig()) == "298e53fc305b6ea5"

    def test_text_of_other_values_pinned(self):
        # a field reorder or a formatting change would move every manifest
        cfg = SimConfig()
        for key, value in self.OTHER_VALUES.items():
            viscophase.cli._set_key(cfg, f"{key} = {value}", "test")
        assert list(config_to_text(cfg).items()) == [
            ("grid.shape", "32,32"), ("grid.lengths", "2.0,1.0"),
            ("grid.bc", "neumann-noslip"), ("model.regime", "degenerate"),
            ("model.theta_c", "3.0"), ("model.mobility", "s2(1-s)2"),
            ("model.c0", "0.004"), ("model.eps1", "0.02"),
            ("model.eta", "2.0"), ("model.tau", "2.0"),
            ("model.alpha", "2.0"), ("regularization.delta", "0.01"),
            ("stabilization.a", "2.0"), ("time.dt", "0.001"),
            ("time.dt_safety", "0.5"), ("time.t_end", "1.0"),
            ("time.steps", "5"), ("time.output_every", "5"),
            ("init.kind", "uniform"), ("init.mean", "0.5"),
            ("init.amplitude", "0.1"), ("init.width", "0.1"),
            ("init.path", "x.vpf"), ("run.seed", "7"),
            ("run.velocity_coupling", "false"),
            ("solver.solver_tol", "1e-08")]
        assert material_fingerprint(cfg) == "e1d6a968fe361b81"

    def test_fingerprint_reads_the_material_sections(self):
        assert set(self.OTHER_VALUES) == set(viscophase.cli.KEYMAP)
        base = material_fingerprint(SimConfig())
        for key, value in self.OTHER_VALUES.items():
            cfg = SimConfig()
            viscophase.cli._set_key(cfg, f"{key} = {value}", "test")
            material = key.split(".")[0] in ("model", "regularization",
                                             "stabilization")
            assert (material_fingerprint(cfg) != base) == material, key


def _manifest_config(text):
    """The config a manifest.json text records, parsed back."""
    return parse_config("\n".join(
        f"{k} = {v}" for k, v in json.loads(text)["config"].items()))


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
        checks = [json.loads(line) for line in
                  (out / "energy_report.jsonl").read_text().splitlines()]
        cfl = [c for c in checks if c["name"] == "max-cfl"]
        assert cfl and cfl[0]["pass"] and cfl[0]["threshold"] == 0.25

    def test_stationary_run_flat_csv(self, tmp_path):
        cfg = _write(tmp_path / "cfg.txt",
                     "grid.shape = 16,16\ntime.steps = 10\n"
                     "init.kind = uniform\ninit.mean = 1.0\n")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        data = np.genfromtxt(out / "diagnostics.csv", delimiter=",", names=True)
        assert np.abs(data["E_total"]).max() < 1e-13

    def test_mass_drift_fails_run(self, tmp_path, monkeypatch, capsys):
        real = viscophase.dynamics.run_steps

        def drifting(cfg, M, *fields):
            n_steps, steps = real(cfg, M, *fields)

            def last_state_drifts():
                # phi + c on the last step adds c |Omega| = 1e-9 of mass
                for k, state in steps:
                    if k == n_steps:
                        state = make_state(state.t, state.phi + 1e-9,
                                           state.q, state.u, state.p, M,
                                           state.grid, dt=state.dt)
                    yield k, state
            return n_steps, last_state_drifts()

        monkeypatch.setattr(viscophase.dynamics, "run_steps", drifting)
        out = tmp_path / "out"
        assert main(["run", "--out", str(out), "--override", "grid.shape=16,16",
                     "--override", "time.steps=5"]) == 4
        assert "[FAIL] mass-drift: value 1e-09 " in capsys.readouterr().out

    def test_config_error_exit(self, tmp_path):
        cfg = _write(tmp_path / "cfg.txt", "regularization.delta = 0.7\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_numerical_failure_exit(self, tmp_path):
        cfg = _write(tmp_path / "cfg.txt",
                     "grid.shape = 32,32\ntime.dt = 0.5\ntime.steps = 50\n"
                     "init.kind = spinodal\ninit.amplitude = 0.8\n"
                     "run.seed = 3\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    def test_failed_run_keeps_its_rows_and_snapshots(self, tmp_path, capsys):
        # the 35th step blows up at t = 17.5: the directory holds the
        # manifest, the 35 rows up to t = 17 and every snapshot before it
        cfg = _write(tmp_path / "cfg.txt",
                     "grid.shape = 32,32\ntime.dt = 0.5\ntime.steps = 50\n"
                     "init.kind = spinodal\ninit.amplitude = 0.8\n"
                     "run.seed = 3\ntime.output_every = 10\n")
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 3
        assert "at t=17.5" in capsys.readouterr().err
        assert _manifest_config((out / "manifest.json").read_text()) \
            == parse_config(Path(cfg).read_text())
        t = np.genfromtxt(out / "diagnostics.csv", delimiter=",",
                          names=True)["t"]
        assert len(t) == 35 and t[-1] == 17.0
        names = sorted(p.name for p in (out / "snapshots").iterdir())
        assert names == [f"state_{k:06d}.vpf" for k in (0, 10, 20, 30)]

    def test_snapshot_cadence(self, tmp_path):
        # named by step: every output_every steps, and the last step
        out = tmp_path / "o"
        assert main(["run", "--out", str(out), "--override", "grid.shape=8,8",
                     "--override", "time.steps=25",
                     "--override", "time.output_every=10"]) == 0
        names = sorted(p.name for p in (out / "snapshots").iterdir())
        assert names == [f"state_{k:06d}.vpf" for k in (0, 10, 20, 25)]
        _, fields = viscophase.snapshots.read_snapshot(
            out / "snapshots" / "state_000025.vpf")
        data = np.genfromtxt(out / "diagnostics.csv", delimiter=",",
                             names=True)
        assert fields["phi"].min() == data["min_phi"][-1]

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
        (["model.eta=0"], "model.eta"),
        (["model.tau=0"], "model.tau"),
        (["model.c0=-1"], "model.c0"),
        (["grid.lengths=0,1"], "grid.lengths"),
        (["time.steps=0"], "time.steps"),
        (["time.steps=-3"], "time.steps"),
        (["model.eps1=-1"], "model.eps1"),
        (["stabilization.a=0.4"], "stabilization.a"),
        (["init.kind=foo"], "init.kind"),
        (["time.steps=auto", "time.t_end=0"], "time.t_end"),
        (["run.seed=-1"], "run.seed"),
        (["model.regime=degenerate", "init.mean=0.5",
          "model.potential=flory-huggins"], "model.potential"),
        (["model.A=2"], "model.A"),
        (["model.regime=degenerate", "init.mean=0.5",
          "model.mobility=linear"], "model.mobility"),
        (["model.regime=degenerate", "init.mean=0.5",
          "model.mobility=quadratic"], "model.mobility"),
        (["model.regime=bulk"], "model.regime"),
        (["time.dt=0"], "time.dt"),
        (["time.steps=auto", "time.t_end=inf"], "time.t_end"),
        (["time.steps=auto", "time.t_end=1e-3", "time.dt_safety=inf"],
         "time.dt_safety"),
        (["time.dt=nan"], "time.dt"),
        (["grid.lengths=inf,1"], "grid.lengths"),
        (["run.velocity_coupling=maybe"], "run.velocity_coupling"),
        (["model.regime=degenerate", "init.mean=0.5", "model.theta_c=1",
          "model.tau=1e300", "time.dt_safety=1e10", "time.steps=auto",
          "time.t_end=1e-3"], "time.dt_safety"),
        (["model.regime=degenerate", "init.mean=0.5", "model.theta_c=nan"],
         "model.theta_c"),
        (["model.alpha=nan"], "model.alpha"),
        (["model.regime=degenerate", "init.mean=0.5", "model.alpha=inf"],
         "model.alpha"),
        (["stabilization.a=inf"], "stabilization.a"),
        (["init.mean=nan"], "init.mean"),
        (["init.amplitude=inf"], "init.amplitude"),
        (["init.kind=tanh-interface", "init.width=0"], "init.width"),
    ], ids=["bc", "shape", "degenerate-mobility", "output-every", "tol-zero",
            "tol-negative", "degenerate-potential", "regular-mobility",
            "eta-zero", "tau-zero", "c0-negative", "lengths-zero",
            "steps-zero", "steps-negative", "eps1-negative", "a-below-c4-half",
            "init-kind", "t-end-zero", "seed-negative", "removed-potential",
            "removed-A", "removed-mobility-linear",
            "removed-mobility-quadratic", "regime", "dt-zero", "t-end-inf",
            "dt-safety-inf", "dt-nan", "lengths-inf",
            "velocity-coupling-not-boolean", "auto-step-inf", "theta-c-nan",
            "alpha-nan", "degenerate-alpha-inf", "a-inf", "init-mean-nan",
            "init-amplitude-inf", "init-width-zero"])
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

    def _edit_column(self, path, name, value):
        """Set column name of every row to value; None drops the column."""
        lines = path.read_text().splitlines()
        rows = [line.split(",") for line in lines]
        idx = rows[0].index(name)
        for row in rows[1:]:
            row[idx] = value
        if value is None:
            rows = [row[:idx] + row[idx + 1:] for row in rows]
        path.write_text("\n".join(",".join(r) for r in rows) + "\n")

    def test_max_cfl(self, tmp_path, capsys):
        cfg = _write(tmp_path / "cfg.txt",
                     "grid.shape = 16,16\ntime.steps = 20\n")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        path = out / "diagnostics.csv"
        original = path.read_text()
        capsys.readouterr()
        assert main(["report", "--dir", str(out)]) == 0
        assert "[PASS] max-cfl" in capsys.readouterr().out
        # a Courant number above COURANT_MAX fails the report
        self._edit_column(path, "cfl", "0.3")
        assert main(["report", "--dir", str(out)]) == 4
        assert "[FAIL] max-cfl: value 0.3 " in capsys.readouterr().out
        # diagnostics without a cfl column are not failed for it
        path.write_text(original)
        self._edit_column(path, "cfl", None)
        assert main(["report", "--dir", str(out)]) == 0
        assert "max-cfl: not recorded" in capsys.readouterr().out

    def test_same_records_as_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--out", str(out), "--override", "grid.shape=16,16",
                     "--override", "time.steps=20",
                     "--override", "init.kind=spinodal"]) == 0
        run_text = capsys.readouterr().out
        assert main(["report", "--dir", str(out)]) == 0
        assert capsys.readouterr().out == run_text
        names = [line.split(":")[0] for line in run_text.splitlines()]
        assert names == ["[PASS] energy-monotone", "[PASS] balance-residual",
                         "[PASS] mass-drift", "[PASS] max-cfl"]

    def test_missing_dir(self, tmp_path):
        assert main(["report", "--dir", str(tmp_path / "nope")]) == 2

    def test_single_row_passes_with_nothing_to_check(self, tmp_path, capsys):
        # the first row of a run's diagnostics, as a run cut after its
        # initial state leaves it
        out = tmp_path / "out"
        assert main(["run", "--out", str(out), "--override", "grid.shape=8,8",
                     "--override", "time.steps=2"]) == 0
        path = out / "diagnostics.csv"
        path.write_text("\n".join(path.read_text().splitlines()[:2]) + "\n")
        capsys.readouterr()
        assert main(["report", "--dir", str(out)]) == 0
        assert capsys.readouterr().out == (
            "[PASS] single-row diagnostics: nothing to check\n")

    @staticmethod
    def _write_rows(directory, t=(), E=(), D=()):
        """directory/diagnostics.csv with the columns report reads: t, E_total
        and D_cross from t, E and D (1.0 and 0 where E and D are empty), the
        other dissipations 0 and a constant mass."""
        path = directory / "diagnostics.csv"
        lines = ["t,E_total,D_cross,D_q,D_eps,D_visc,mass"] + [
            f"{tk!r},{Ek!r},{Dk!r},0,0,0,0.5"
            for tk, Ek, Dk in zip(t, E or [1.0] * len(t), D or [0] * len(t))]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_header_without_rows_exit_2_naming_file(self, tmp_path, capsys):
        path = self._write_rows(tmp_path)
        assert main(["report", "--dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(path) in captured.err and "no rows" in captured.err

    @pytest.mark.parametrize("text", ["", "\n \n"], ids=["zero-byte", "blank"])
    def test_empty_file_exit_2_naming_file(self, tmp_path, capsys, text):
        path = tmp_path / "diagnostics.csv"
        path.write_text(text)
        assert main(["report", "--dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {path}: empty file\n"

    @pytest.mark.parametrize("times", [(0.0, 0.0, 0.1), (0.0, 0.2, 0.1)],
                             ids=["repeated", "decreasing"])
    def test_t_not_increasing_exit_2_naming_file_and_column(
            self, tmp_path, capsys, times):
        path = self._write_rows(tmp_path, times)
        assert main(["report", "--dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "column t " in err
        assert "strictly increasing" in err

    def test_balance_on_a_non_uniform_time_axis(self, tmp_path, capsys):
        # each D_k is weighted by its own step t_k - t_{k-1}: 0.1, then 0.2
        t, E, D = (0.0, 0.1, 0.3), (1.0, 0.95, 0.8), (0.0, 0.25, 0.5)
        self._write_rows(tmp_path, t, E, D)
        expected = max(abs(E[n] + sum((t[k] - t[k - 1]) * D[k]
                                      for k in range(1, n + 1)) - E[0])
                       for n in range(3))
        assert expected == pytest.approx(0.075, rel=1e-12)
        assert main(["report", "--dir", str(tmp_path)]) == 0
        assert (f"[PASS] balance-residual: value {expected:.6g} vs threshold"
                in capsys.readouterr().out)

    def test_missing_column_exit_2_naming_it(self, tmp_path, capsys):
        path = tmp_path / "diagnostics.csv"
        path.write_text("t,E_total\n0,1.0\n0.1,0.9\n0.2,0.8\n")
        assert main(["report", "--dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "D_cross" in err


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
        scaling = recs["Erel-scaling-0.001/0.0005"]
        assert scaling["pass"] and scaling["threshold"] == 0.25

    def test_linear_growth_fails_scaling(self, tmp_path, monkeypatch):
        # a relative energy linear in eps halves, not quarters, with eps
        real = viscophase.cli.relative_energy

        def linear(state, reference):
            rep = real(state, reference)
            return dataclasses.replace(rep, E_mix=np.sqrt(rep.E_total),
                                       E_bulk=0.0, E_kin=0.0)

        monkeypatch.setattr(viscophase.cli, "relative_energy", linear)
        cfg = _write(tmp_path / "cfg.txt",
                     "grid.shape = 16,16\ntime.steps = 10\nrun.seed = 3\n")
        out = tmp_path / "ws"
        assert main(["weakstrong", "--config", cfg, "--out", str(out),
                     "--eps", "1e-3", "--eps", "5e-4"]) == 4
        lines = (out / "weakstrong_report.jsonl").read_text().splitlines()
        recs = {json.loads(l)["name"]: json.loads(l) for l in lines}
        scaling = recs["Erel-scaling-0.001/0.0005"]
        assert not scaling["pass"]
        assert scaling["value"] == pytest.approx(0.5, abs=0.05)

    def test_reference_runs_once(self, tmp_path, monkeypatch):
        # one model build, and the reference and each perturbed run all
        # step through the same times
        runs, builds = [], []
        real_steps = viscophase.cli.run_steps
        real_model = viscophase.dynamics.degenerate_model

        def recording(cfg, M, *fields):
            n_steps, steps = real_steps(cfg, M, *fields)
            times = []
            runs.append(times)

            def record():
                for k, state in steps:
                    times.append((state.t, state.dt))
                    yield k, state
            return n_steps, record()

        def counting(*args, **kwargs):
            builds.append(1)
            return real_model(*args, **kwargs)

        monkeypatch.setattr(viscophase.cli, "run_steps", recording)
        monkeypatch.setattr(viscophase.dynamics, "degenerate_model", counting)
        cfg = _write(tmp_path / "cfg.txt",
                     "grid.shape = 8,8\ntime.steps = 4\nrun.seed = 3\n"
                     "model.regime = degenerate\ninit.mean = 0.5\n")
        assert main(["weakstrong", "--config", cfg,
                     "--out", str(tmp_path / "ws"),
                     "--eps", "0", "--eps", "1e-3"]) == 0
        assert len(builds) == 1
        assert len(runs) == 3                   # reference + one per eps
        reference = runs[0]
        assert len(reference) == 5
        for run in runs:
            assert run == reference

    def test_snapshot_read_once(self, tmp_path, monkeypatch):
        # the command reads the initial data and hands all of it to each run
        snap = tmp_path / "start.vpf"
        phi = 0.05 * np.random.default_rng(0).standard_normal((8, 8))
        viscophase.snapshots.write_snapshot(snap, (8, 8), (1.0, 1.0),
                                            {"phi": phi})
        reads = []
        real = viscophase.snapshots.read_snapshot

        def counting(*args, **kwargs):
            reads.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(viscophase.snapshots, "read_snapshot", counting)
        cfg = _write(tmp_path / "cfg.txt",
                     "grid.shape = 8,8\ntime.steps = 3\n"
                     f"init.kind = from-snapshot\ninit.path = {snap}\n")
        assert main(["weakstrong", "--config", cfg,
                     "--out", str(tmp_path / "ws"),
                     "--eps", "1e-3", "--eps", "5e-4"]) == 0
        assert len(reads) == 1


@pytest.mark.parametrize("command", [
    ["weakstrong"], ["run", "--override", "time.output_every=1"]],
    ids=["weakstrong", "run"])
def test_memory_does_not_grow_with_steps(tmp_path, command):
    # no consumer keeps the states of the run: the traced peak at 200
    # steps is within 1 MB of that at 20
    peaks = []
    for steps in (20, 200):
        argv = command + ["--out", str(tmp_path / f"o{steps}"),
                          "--override", "grid.shape=32,32",
                          "--override", f"time.steps={steps}"]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1e6


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
        # the flags are checked before --out is made
        argv = ["galerkin", "--out", str(tmp_path / "gal"), "--t-end", "0.1"]
        for m in modes:
            argv += ["--m", m]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--m" in err and "strictly increasing" in err
        assert not (tmp_path / "gal").exists()

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
                     "--override", "model.mobility=s2(1-s)2",
                     "--deltas", "1e-2"])
        assert code == 0
        assert json.loads((out / "sweep_report.jsonl").read_text()
                          .splitlines()[0])["pass"]

    def _first_min_phi(self, out, overrides):
        argv = ["degenerate-sweep", "--out", str(out), "--deltas", "1e-2",
                "--override", "grid.shape=16,16",
                "--override", "time.steps=2"]
        for item in overrides:
            argv += ["--override", item]
        assert main(argv) == 0
        return np.genfromtxt(out / "diagnostics_delta0.01.csv", delimiter=",",
                             names=True)["min_phi"][0]

    def test_sweep_honours_init_overrides(self, tmp_path):
        # the base mean 0.5 and amplitude 0.2 give min phi 0.3; a user's
        # amplitude replaces the base one
        assert self._first_min_phi(tmp_path / "a", []) == pytest.approx(0.3)
        assert self._first_min_phi(tmp_path / "b", ["init.amplitude=0.05"]) \
            == pytest.approx(0.45)

    def test_sweep_rejects_another_regime(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["degenerate-sweep", "--out", str(out),
                     "--override", "grid.shape=8,8",
                     "--override", "time.steps=2",
                     "--override", "model.regime=regular"]) == 2
        assert "model.regime" in capsys.readouterr().err
        assert not out.exists()

    def test_model_built_once_per_delta(self, tmp_path, monkeypatch):
        calls = []
        real = viscophase.dynamics.degenerate_model

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(viscophase.dynamics, "degenerate_model", counting)
        main(["degenerate-sweep", "--out", str(tmp_path / "sweep"),
              "--override", "grid.shape=8,8", "--override", "time.steps=2",
              "--deltas", "1e-2,1e-3"])
        assert len(calls) == 2

    def test_run_that_cannot_start_writes_nothing(self, tmp_path, capsys):
        # every delta's run is planned before the output directory is made
        out = tmp_path / "o"
        assert main(["degenerate-sweep", "--out", str(out),
                     "--override", "model.theta_c=1",
                     "--override", "model.tau=1e300",
                     "--override", "time.dt_safety=1e10",
                     "--override", "time.t_end=1e-3",
                     "--override", "grid.shape=8,8"]) == 2
        assert "time.dt_safety" in capsys.readouterr().err
        assert not out.exists()


class TestCommandFlags:
    @pytest.mark.parametrize("argv,flag", [
        (["galerkin", "--rtol", "0"], "--rtol"),
        (["galerkin", "--t-end", "0"], "--t-end"),
        (["galerkin", "--t-end", "-1"], "--t-end"),
        (["galerkin", "--lengths", "0", "1"], "--lengths"),
        (["galerkin", "--lengths", "1", "1", "1", "1"], "--lengths"),
        (["galerkin", "--seed", "-1"], "--seed"),
        (["galerkin", "--t-end", "inf"], "--t-end"),
        (["galerkin", "--rtol", "inf"], "--rtol"),
        (["galerkin", "--lengths", "inf", "1"], "--lengths"),
        (["galerkin", "--mean", "nan"], "--mean"),
        (["galerkin", "--mean", "inf"], "--mean"),
        (["degenerate-sweep", "--deltas", "1e-4,1e-2"], "--deltas"),
        (["degenerate-sweep", "--deltas", "1e-2,1e-2"], "--deltas"),
        (["weakstrong", "--eps", "1e-3", "--eps", "1e-3"], "--eps"),
    ], ids=["rtol-zero", "t-end-zero",
            "t-end-negative", "lengths-zero", "lengths-four", "seed-negative",
            "t-end-inf", "rtol-inf", "lengths-inf", "mean-nan", "mean-inf",
            "deltas-increasing", "deltas-repeated", "eps-repeated"])
    def test_bad_flag_exit_2_naming_flag(self, tmp_path, capsys, argv, flag):
        # the sweep's and weakstrong's configs run as they are: only the
        # flag is at fault
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)] + (
            ["--override", "grid.shape=8,8", "--override", "time.steps=2"]
            if argv[0] in ("degenerate-sweep", "weakstrong") else [])) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("eps,message", [
        ("nan", "--eps = nan: must be finite"),
        ("inf", "--eps = inf: must be finite"),
        ("-1", "--eps = -1.0: must be non-negative"),
    ], ids=["nan", "inf", "negative"])
    def test_bad_eps_exit_2_naming_it(self, tmp_path, capsys, eps, message):
        out = tmp_path / "o"
        assert main(["weakstrong", "--out", str(out), "--eps", "1e-3",
                     "--eps", eps, "--override", "grid.shape=8,8",
                     "--override", "time.steps=2"]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestSharedParser:
    """main parses with one parser per process; each call sees only its
    own flags and the defaults."""

    def test_built_once(self):
        assert viscophase.cli.build_parser() is viscophase.cli.build_parser()

    def test_no_default_is_a_list(self):
        parsers = [viscophase.cli.build_parser()]
        for parser in parsers:
            for action in parser._actions:
                assert not isinstance(action.default, list), action.dest
                if action.choices and isinstance(action.choices, dict):
                    parsers.extend(action.choices.values())
        assert len(parsers) == 6

    def test_calls_see_only_their_own_flags(self, monkeypatch):
        # each command hands its parsed flags to _load_config (weakstrong,
        # degenerate-sweep) or _outdir (galerkin) once they pass their
        # checks; stop it there and keep what it saw
        seen = []

        def record(args, *rest):
            seen.append({k: getattr(args, k, None)
                         for k in ("m", "lengths", "eps", "deltas")})
            raise ConfigError("recorded")

        monkeypatch.setattr(viscophase.cli, "_load_config", record)
        monkeypatch.setattr(viscophase.cli, "_outdir", record)
        calls = [
            (["galerkin", "--m", "4", "--m", "6", "--lengths", "2", "1"],
             dict(m=[4, 6], lengths=[2.0, 1.0])),
            (["galerkin", "--m", "5"], dict(m=[5], lengths=(1.0, 1.0))),
            (["galerkin"], dict(m=[8, 16], lengths=(1.0, 1.0))),
            (["weakstrong", "--eps", "1e-2"], dict(eps=[1e-2])),
            (["weakstrong"], dict(eps=[1e-3, 5e-4])),
            (["degenerate-sweep", "--deltas", "1e-1,1e-2"],
             dict(deltas=(1e-1, 1e-2))),
            (["degenerate-sweep"], dict(deltas=(1e-2, 1e-3, 1e-4))),
        ]
        for argv, want in calls:
            assert main(argv) == 2
            got = seen.pop()
            assert {k: got[k] for k in want} == want, argv


@pytest.mark.parametrize("command", ["run", "weakstrong", "degenerate-sweep"])
@pytest.mark.parametrize("overrides,message", [
    ([], "time.steps and time.t_end"),
    (["time.dt=1e-3", "time.t_end=1e-4"], "time.t_end"),
    (["time.steps=2", "time.t_end=5"], "time.steps = 2 and time.t_end = 5.0"),
], ids=["no-length", "t-end-below-dt", "steps-and-t-end"])
def test_run_length_checked_before_any_write(tmp_path, capsys, command,
                                             overrides, message):
    out = tmp_path / "o"
    argv = [command, "--out", str(out), "--override", "grid.shape=8,8"]
    for item in overrides:
        argv += ["--override", item]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", ["config-dir", "out-file",
                                  "galerkin-out-file", "init-path-dir",
                                  "init-path-empty"])
def test_path_of_wrong_kind_exit_2_naming_it(tmp_path, capsys, case):
    # a directory where a file is read, a file where a directory is made
    # and an empty snapshot path each name the flag or key and the path
    afile = tmp_path / "afile"
    afile.write_text("")
    run = ["run", "--override", "grid.shape=8,8", "--override",
           "time.steps=2"]
    from_snapshot = run + ["--out", str(tmp_path / "o"), "--override",
                           "init.kind=from-snapshot", "--override"]
    argv, name, path = {
        "config-dir": (run + ["--config", str(tmp_path), "--out",
                              str(tmp_path / "o")], "--config", tmp_path),
        "out-file": (run + ["--out", str(afile)], "--out", afile),
        "galerkin-out-file": (["galerkin", "--m", "4", "--out", str(afile)],
                              "--out", afile),
        "init-path-dir": (from_snapshot + [f"init.path={tmp_path}"],
                          "init.path", tmp_path),
        "init-path-empty": (from_snapshot + ["init.path="], "init.path",
                            "''"),
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert name in err and str(path) in err
    if case.startswith("init-path"):
        assert not (tmp_path / "o").exists()


# In a fresh interpreter: the SciPy modules loaded after importing the
# package and making a periodic run, weak-strong run and degenerate sweep,
# then after a Neumann run, and the exit codes of those four and of a
# Galerkin study made afterwards.
_LOADED_MODULES_SCRIPT = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import viscophase
from viscophase.cli import main
grid = ["--override", "grid.shape=8,8", "--override", "time.steps=2",
        "--override", "init.kind=spinodal"]
codes = [main(["run", "--out", "run"] + grid),
         main(["weakstrong", "--out", "ws"] + grid),
         main(["degenerate-sweep", "--out", "sweep", "--deltas", "1e-2"]
              + grid)]
periodic = scipy_modules()
codes.append(main(["run", "--out", "neumann", "--override",
                   "grid.bc=neumann-noslip"] + grid))
neumann = scipy_modules()
codes.append(main(["galerkin", "--out", "gal", "--m", "4", "--m", "8"]))
print(json.dumps({"periodic": periodic, "neumann": neumann, "codes": codes}))
"""


def _fresh_interpreter(script, cwd):
    """The JSON on the last line that script prints, run by a new Python
    with this checkout's sources first on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_commands_load_only_the_scipy_they_call(tmp_path):
    result = _fresh_interpreter(_LOADED_MODULES_SCRIPT, tmp_path)
    assert result["codes"] == [0] * 5
    # grids of both boundary kinds run on NumPy alone
    assert result["periodic"] == []
    assert result["neumann"] == []


def test_no_function_imports_a_package_module():
    # the package's modules import each other at their tops only; the
    # lazy SciPy imports inside functions are absolute and stay allowed
    lazy = []
    for path in sorted(Path(viscophase.cli.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                    relative = node.level > 0
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                    relative = False
                else:
                    continue
                if relative or any(name.split(".")[0] == "viscophase"
                                   for name in names):
                    lazy.append(f"{path.name}:{node.lineno}")
    assert lazy == []
