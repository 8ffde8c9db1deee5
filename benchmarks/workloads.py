"""The four benchmark workloads: how each one is set up, solved and gated.

Every workload takes the benchmark seed and hands the program only the
generated config (``run.seed`` or ``galerkin --seed``).  The grid workloads
fix the physical end time and leave the step size to the program
(``time.dt = auto``), so a change of step-size policy shows up in the
time to solution.

A workload has three parts:

- ``setup(seed)``: the work before the first step (config parse and
  validation, grid, material, initial state or cosine-basis tables);
- ``reference(seed)``: what the gate compares against, made once per
  benchmark run outside the timed region;
- ``solve(seed, workdir)`` then ``check(output, reference)``: one timed
  sample.  ``solve`` is the program's work and the only part that is
  traced; ``check`` is the gate and returns the list of failures (empty
  when correct).

The program is reached through module attributes at call time
(``dynamics.simulate``, ``cli.main`` ...), so the tracer sees these calls.

The accuracy reference of a grid workload is an energy drop pinned in
``reference_drops.json`` for seeds 0-99, made once by
``python3 benchmarks/make_references.py`` with the step the program
picked when the benchmark was defined (``ref_dt``).  It is never
recomputed by the code under test.  Other seeds have no accuracy
reference, and the run says so.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from viscophase import cli, diagnostics, dynamics, galerkin, material, snapshots

MASS_DRIFT_MAX = 1e-10
# relative tolerance on the energy drop E_total(0) - E_total(t_end) against
# the pinned reference
DROP_RTOL = 1e-2
REFERENCE_DROPS_PATH = Path(__file__).resolve().parent / "reference_drops.json"
REFERENCE_DROPS = json.loads(REFERENCE_DROPS_PATH.read_text())
# projection level: measured at most 5.2e-18 (neumann-32, CG projection)
# and 1e-19 (periodic, FFT projection); an unprojected velocity on
# neumann-32 has |div u| of at least 4.5e-8
DIV_U_MAX = 1e-14
GALERKIN_STUDIES = 4


def _series_from_csv(path: Path) -> dict:
    data = np.genfromtxt(path, delimiter=",", names=True)
    return {name: np.atleast_1d(data[name]) for name in data.dtype.names}


def _grid_problems(series: dict, t_end: float, ref_drop: Optional[float],
                   M=None) -> list:
    """Gate shared by the grid workloads; returns failure descriptions."""
    problems = []
    t = series["t"]
    if len(t) < 2:
        return [f"only {len(t)} diagnostics rows"]
    if abs(t[-1] - t_end) > 0.5 * (t[-1] - t[-2]) * (1 + 1e-9):
        problems.append(f"ended at t={t[-1]:.6g}, not t_end={t_end:g}")
    div = float(series["div_u_norm"].max())
    if not div <= DIV_U_MAX:
        problems.append(f"div u {div:.3e} > {DIV_U_MAX:g}")
    mass = series["mass"]
    drift = float(np.abs(mass - mass[0]).max())
    if not drift <= MASS_DRIFT_MAX:
        problems.append(f"mass drift {drift:.3e} > {MASS_DRIFT_MAX:g}")
    traj = dynamics.Trajectory(config=dynamics.SimConfig(),
                               dt=float(t[1] - t[0]), series=series)
    report = diagnostics.check_energy_inequality(traj, M)
    if not report.monotone:
        problems.append(f"energy not monotone: excess "
                        f"{report.worst_violation:.3e} at step "
                        f"{report.worst_step}")
    E = series["E_total"]
    drop = float(E[0] - E[-1])
    if ref_drop is not None and not (
            abs(drop - ref_drop) <= DROP_RTOL * abs(ref_drop)):
        problems.append(f"energy drop {drop:.9e} differs from reference "
                        f"{ref_drop:.9e} by more than {DROP_RTOL:g}")
    return problems


class Reference(NamedTuple):
    """Gate data of a grid workload: the pinned energy drop (None when the
    seed has none) and the material model, built once per run."""

    drop: Optional[float]
    M: material.MaterialModel


@dataclasses.dataclass(frozen=True)
class GridWorkload:
    """A grid run at a fixed physical end time; ``ref_dt`` is the step the
    program chose when the benchmark was defined, at which the pinned
    reference drops were made."""

    name: str
    config: str
    t_end: float
    ref_dt: float

    def config_text(self, seed: int, dt: str = "auto") -> str:
        return (f"{self.config}time.dt = {dt}\ntime.t_end = {self.t_end!r}\n"
                f"time.steps = auto\nrun.seed = {seed}\n")

    def setup(self, seed: int):
        cfg = cli.parse_config(self.config_text(seed))
        grid = dynamics.build_grid(cfg)
        M = dynamics.build_material(cfg)
        return dynamics.initial_state(cfg, grid, M)

    def pinned_drop(self, seed: int) -> float:
        """Energy drop at ``ref_dt``; only for making the reference table."""
        cfg = cli.parse_config(self.config_text(seed, repr(self.ref_dt)))
        E = dynamics.simulate(cfg).column("E_total")
        return float(E[0] - E[-1])

    def reference(self, seed: int) -> Reference:
        drop = REFERENCE_DROPS.get(self.name, {}).get(str(seed))
        M = dynamics.build_material(cli.parse_config(self.config_text(seed)))
        return Reference(drop, M)


@dataclasses.dataclass(frozen=True)
class ApiWorkload(GridWorkload):
    """Driven through the public API: ``simulate``; the gate runs the
    energy and bounds checks."""

    def solve(self, seed: int, workdir: Path):
        return dynamics.simulate(cli.parse_config(self.config_text(seed)))

    def check(self, traj, ref: Reference) -> list:
        M = ref.M
        problems = _grid_problems(traj.series, self.t_end, ref.drop, M)
        if M.regime == "degenerate":
            bounds = diagnostics.bounds_report(traj, M)
            if not (bounds.min_phi >= 0.0 and bounds.max_phi <= 1.0):
                problems.append(f"phi left [0, 1]: [{bounds.min_phi:.6g}, "
                                f"{bounds.max_phi:.6g}]")
            ent = bounds.entropy_series
            if ent is None or not np.all(np.isfinite(ent)):
                problems.append("entropy not finite")
        return problems


@dataclasses.dataclass(frozen=True)
class RunWorkload(GridWorkload):
    """Driven through ``viscophase run``: diagnostics.csv, VPF1 snapshots
    and the energy report."""

    def solve(self, seed: int, workdir: Path):
        cfg_path = workdir / "run.cfg"
        cfg_path.write_text(self.config_text(seed))
        out = workdir / "out"
        code, text = _call_cli(["run", "--config", str(cfg_path),
                                "--out", str(out)])
        return code, text, out

    def check(self, output, ref: Reference) -> list:
        code, text, out = output
        if code != cli.EXIT_OK:
            return [f"viscophase run exited {code}: {text}"]
        series = _series_from_csv(out / "diagnostics.csv")
        problems = _grid_problems(series, self.t_end, ref.drop, ref.M)
        last = sorted((out / "snapshots").glob("state_*.vpf"))[-1]
        header, fields = snapshots.read_snapshot(last)
        copy = out / "roundtrip.vpf"
        snapshots.write_snapshot(copy, header.shape, header.lengths, fields)
        if copy.read_bytes() != last.read_bytes():
            problems.append(f"{last.name} does not round-trip bit-exactly")
        phi = fields["phi"]
        if (float(phi.min()), float(phi.max())) != (
                series["min_phi"][-1], series["max_phi"][-1]):
            problems.append(f"{last.name} is not the final state")
        return problems


@dataclasses.dataclass(frozen=True)
class GalerkinWorkload:
    """Driven through ``viscophase galerkin`` at several mode counts.

    The adaptive integrator's work depends on the initial datum (RHS
    evaluations vary by about 7 % between seeds), so one sample runs the
    study for GALERKIN_STUDIES seeds, ``GALERKIN_STUDIES * seed`` onwards,
    and the time to solution depends less on which benchmark seed was
    drawn."""

    name: str
    modes: tuple
    t_end: float
    rtol: float

    def seeds(self, seed: int) -> range:
        return range(GALERKIN_STUDIES * seed, GALERKIN_STUDIES * (seed + 1))

    def argv(self, seed: int, out: Path) -> list:
        argv = ["galerkin", "--out", str(out), "--seed", str(seed),
                "--t-end", repr(self.t_end), "--rtol", repr(self.rtol)]
        for m in self.modes:
            argv += ["--m", str(m)]
        return argv

    def setup(self, seed: int):
        args = cli.build_parser().parse_args(self.argv(seed, Path("unused")))
        M = material.regular_model()
        return M, [galerkin.CosineBasis(tuple(args.lengths), m)
                   for m in args.m]

    def reference(self, seed: int):
        return None

    def solve(self, seed: int, workdir: Path):
        runs = []
        for study_seed in self.seeds(seed):
            out = workdir / f"out-{study_seed}"
            runs.append((*_call_cli(self.argv(study_seed, out)), out))
        return runs

    def check(self, runs, reference) -> list:
        problems = []
        for code, text, out in runs:
            problems += [f"{out.name}: {problem}"
                         for problem in self._check_one(code, text, out)]
        return problems

    def _check_one(self, code, text, out: Path) -> list:
        if code != cli.EXIT_OK:
            return [f"viscophase galerkin exited {code}: {text}"]
        problems = []
        lines = (out / "galerkin_report.jsonl").read_text().splitlines()
        records = {r["name"]: r for r in map(json.loads, lines)}
        for m in self.modes:
            # value is max over t of E + D_cum - E0*(1 + 1e-6)
            rec = records.get(f"energy-inequality-m{m}")
            if rec is None or not (rec["pass"] and rec["value"] <= 0.0):
                problems.append(f"energy inequality at m={m}: {rec}")
            t = np.genfromtxt(out / f"galerkin_m{m}.csv", delimiter=",",
                              names=True)["t"]
            if t[-1] != self.t_end:
                problems.append(f"m={m} ended at t={t[-1]:g}")
        table = np.atleast_2d(np.genfromtxt(out / "cauchy_table.csv",
                                            delimiter=",", skip_header=1))
        if table.shape != (len(self.modes) - 1, 2) or not np.all(
                np.isfinite(table)):
            problems.append(f"cauchy table malformed: {table.tolist()}")
        return problems


def _call_cli(argv: list):
    """cli.main(argv) with its printed report captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(argv)
    return code, buf.getvalue().strip().replace("\n", " | ")


WORKLOADS = {w.name: w for w in (
    RunWorkload(
        name="regular-64",
        config="grid.shape = 64, 64\ngrid.bc = periodic\n"
               "model.regime = regular\ninit.kind = spinodal\n",
        t_end=6e-4, ref_dt=1.4901161193847656e-06),
    ApiWorkload(
        name="degenerate-48",
        config="grid.shape = 48, 48\ngrid.bc = periodic\n"
               "model.regime = degenerate\nregularization.delta = 1e-3\n"
               "init.kind = spinodal\ninit.mean = 0.5\n"
               "init.amplitude = 0.2\n",
        t_end=5e-3, ref_dt=1.88380111882716e-05),
    ApiWorkload(
        name="neumann-32",
        config="grid.shape = 32, 32\ngrid.bc = neumann-noslip\n"
               "model.regime = regular\ninit.kind = spinodal\n",
        t_end=4.8e-3, ref_dt=2.384185791015625e-05),
    GalerkinWorkload(
        name="galerkin-m16",
        modes=(8, 16), t_end=0.5, rtol=1e-8),
)}
