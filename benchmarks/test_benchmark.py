"""Self-tests of the benchmark's gates and tracer.

Run from the root of the checkout:  python3 -m pytest benchmarks -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import run

viscophase = run._import_program()
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.ApiWorkload(
    name="tiny-neumann",
    config="grid.shape = 16, 16\ngrid.bc = neumann-noslip\n"
           "model.regime = regular\ninit.kind = spinodal\n",
    t_end=2e-3, ref_dt=0.0)


def _model(workload):
    cfg = viscophase.cli.parse_config(workload.config_text(0))
    grid = viscophase.build_grid(cfg)
    return cfg, grid, viscophase.build_material(cfg)


# the accuracy reference runs at the step the program picks today
TINY = dataclasses.replace(TINY, ref_dt=viscophase.dt_max(*_model(TINY)))


def _tiny_reference(seed):
    return workloads.Reference(TINY.pinned_drop(seed), _model(TINY)[2])


def _result(capsys, workload, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, workload.name, workload)
    assert run.main(["--workload", workload.name, "--seed", "3",
                     "--seconds", "0", "--trace", "0"]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_correct_run_passes(capsys, monkeypatch):
    # no drop is pinned for this workload: the run says so and passes
    result = _result(capsys, TINY, monkeypatch)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1


def test_references_are_pinned_for_seeds_0_to_99():
    for wl in workloads.WORKLOADS.values():
        if isinstance(wl, workloads.GridWorkload):
            drops = workloads.REFERENCE_DROPS[wl.name]
            assert sorted(map(int, drops)) == list(range(100))
            assert all(d > 0 for d in drops.values())
            assert wl.reference(7).drop == drops["7"]
            assert wl.reference(100).drop is None


def test_blow_up_counts_as_failed_sample(capsys, monkeypatch):
    # dt far beyond any stability limit: phi blows up within a few steps
    blow_up = dataclasses.replace(
        TINY, name="tiny-blow-up", t_end=2e4, ref_dt=1e3,
        config="grid.shape = 16, 16\ngrid.bc = periodic\n"
               "init.kind = spinodal\ntime.dt_safety = 1e6\n")
    result = _result(capsys, blow_up, monkeypatch)
    assert not result["correct"]
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]


def test_non_finite_initial_datum_counts_as_failed_sample(capsys, monkeypatch):
    original = viscophase.dynamics.initial_state

    def poisoned(cfg, grid, M):
        phi, q, u = original(cfg, grid, M)
        phi.data[0, 0] = np.nan
        return phi, q, u

    monkeypatch.setattr(viscophase.dynamics, "initial_state", poisoned)
    result = _result(capsys, TINY, monkeypatch)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_wrong_energy_drop_fails_the_gate():
    sampler = run.Sampler(TINY, 3, _tiny_reference(3))
    sampler.sample()
    assert sampler.failures == []
    sampler.reference = sampler.reference._replace(
        drop=1.02 * sampler.reference.drop)
    sampler.sample()
    assert len(sampler.failures) == 1
    assert "energy drop" in sampler.failures[0][0]


def test_changed_answer_at_fixed_step_fails_the_gate():
    # a loose Krylov tolerance changes the answer, not the step
    loose = dataclasses.replace(
        TINY, config=TINY.config + "solver.solver_tol = 1e-3\n")
    sampler = run.Sampler(loose, 3, _tiny_reference(3))
    sampler.sample()
    assert len(sampler.failures) == 1
    assert any("energy drop" in p for p in sampler.failures[0])


def test_traced_counts_repeat_and_patches_are_undone():
    originals = (viscophase.dynamics.cg, viscophase.fields.cg,
                 viscophase.cli.simulate, viscophase.galerkin.CosineBasis.__init__)
    sampler = run.Sampler(TINY, 3, _tiny_reference(3))
    t = tracer.Tracer()
    runs = []
    for _ in range(2):
        sampler.sample(t)
        runs.append(t.layer_metrics())
    assert sampler.failures == []
    assert (viscophase.dynamics.cg, viscophase.fields.cg,
            viscophase.cli.simulate,
            viscophase.galerkin.CosineBasis.__init__) == originals
    counts = [{k: v for k, v in r.items() if run._layer_unit(k) == "count"}
              for r in runs]
    assert counts[0] == counts[1]
    steps = counts[0]["dynamics.steps"]
    assert steps == round(TINY.t_end / TINY.ref_dt)
    assert counts[0]["fields.cg.solves"] == 4 * steps
    assert counts[0]["fields.cg.matvecs"] > counts[0]["fields.cg.solves"]
    assert counts[0]["material.evals"] > 0
    assert counts[0]["fields.solver_errors"] == 0
    # the gate's energy check runs untraced
    assert runs[0]["diagnostics.checks.busy_s"] == 0.0


def test_bare_directory_exits_nonzero(tmp_path):
    here = Path(run.__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".*"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "regular-64",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_snapshot_bytes_are_the_written_file_sizes(tmp_path):
    t = tracer.Tracer()
    t.install(viscophase)
    try:
        for n in (4, 8):
            viscophase.snapshots.write_snapshot(
                tmp_path / f"s{n}.vpf", (n, n), (1.0, 1.0),
                {"phi": np.zeros((n, n))})
    finally:
        t.uninstall()
    sizes = sum(f.stat().st_size for f in tmp_path.glob("*.vpf"))
    assert t.counts["snapshots.bytes"] == sizes
    assert t.layer_metrics()["snapshots.writes"] == 2
