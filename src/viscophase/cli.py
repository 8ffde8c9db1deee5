"""Command-line entry point: config parsing, experiment orchestration and
artifact emission.

Config files are flat ``dotted.key = value`` lines with ``#`` comments.
Exit codes: 0 success, 2 config error, 3 numerical failure, 4 an
acceptance-style check failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import __version__
from .errors import (BlowUpError, ConfigError, InvalidDeltaError,
                     QuadratureResolutionError, SolverError)
from .fields import BCS
from .dynamics import (SimConfig, Trajectory, build_grid, build_material,
                       check_model_kinds, initial_state, simulate, step_plan)
from .diagnostics import (CheckRecord, bounds_report, check_energy_inequality,
                          gronwall_fit, relative_energy, write_report)
from .galerkin import CosineBasis, convergence_study
from .material import regular_model
from .snapshots import write_state

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CHECK = 4


# ---------------------------------------------------------------------------
# config parsing

def _tuple_int(s): return tuple(int(x) for x in s.replace(",", " ").split())
def _tuple_float(s): return tuple(float(x) for x in s.replace(",", " ").split())
def _opt_float(s): return None if s.lower() in ("auto", "none") else float(s)
def _opt_int(s): return None if s.lower() in ("auto", "none") else int(s)


def _bool(s):
    low = s.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


# dotted key -> (SimConfig attribute, parser)
KEYMAP = {
    "grid.shape": ("shape", _tuple_int),
    "grid.lengths": ("lengths", _tuple_float),
    "grid.bc": ("bc", str),
    "model.regime": ("regime", str),
    "model.potential": ("potential_kind", str),
    "model.theta_c": ("theta_c", float),
    "model.mobility": ("mobility_kind", str),
    "model.c0": ("c0", float),
    "model.eps1": ("eps1", float),
    "model.eta": ("eta", float),
    "model.tau": ("tau", float),
    "model.A": ("A_const", float),
    "model.alpha": ("alpha", float),
    "regularization.delta": ("delta", float),
    "stabilization.a": ("a", _opt_float),
    "time.dt": ("dt", _opt_float),
    "time.dt_safety": ("dt_safety", float),
    "time.t_end": ("t_end", _opt_float),
    "time.steps": ("steps", _opt_int),
    "time.output_every": ("output_every", int),
    "init.kind": ("init_kind", str),
    "init.mean": ("init_mean", float),
    "init.amplitude": ("init_amplitude", float),
    "init.width": ("init_width", float),
    "init.path": ("init_path", str),
    "run.seed": ("seed", int),
    "run.velocity_coupling": ("velocity_coupling", _bool),
    "solver.solver_tol": ("solver_tol", float),
}

_FORMATTERS = {
    "shape": lambda v: ",".join(str(x) for x in v),
    "lengths": lambda v: ",".join(repr(float(x)) for x in v),
}


def validate_config(cfg: SimConfig) -> SimConfig:
    if len(cfg.shape) != len(cfg.lengths) or not 1 <= len(cfg.shape) <= 3:
        raise ConfigError("grid.shape and grid.lengths must agree, 1-3 axes")
    if min(cfg.shape) < 4:
        raise ConfigError(f"grid.shape = {cfg.shape}: need at least 4 cells "
                          "per axis")
    if cfg.bc not in BCS:
        raise ConfigError(f"grid.bc = {cfg.bc!r}: must be one of {BCS}")
    check_model_kinds(cfg)
    if not 0.0 < cfg.delta < 0.5:
        raise InvalidDeltaError(
            f"regularization.delta = {cfg.delta} outside the admissible "
            "range (0, 1/2)")
    if cfg.a is not None:
        c4 = build_material(cfg).c4
        if not cfg.a > c4 / 2.0:
            raise ConfigError(
                f"stabilization.a = {cfg.a} violates the coercivity "
                f"requirement a > c4/2 = {c4 / 2.0} for this potential")
    if cfg.dt is not None and cfg.dt <= 0:
        raise ConfigError("time.dt must be positive")
    if cfg.dt_safety <= 0:
        raise ConfigError("time.dt_safety must be positive")
    if cfg.output_every <= 0:
        raise ConfigError("time.output_every must be positive")
    if not cfg.solver_tol > 0:
        raise ConfigError("solver.solver_tol must be positive")
    return cfg


def parse_config(text: str) -> SimConfig:
    """Flat dotted-key config text -> fully defaulted, validated SimConfig."""
    return validate_config(_parse_unvalidated(text))


def _parse_unvalidated(text: str) -> SimConfig:
    cfg = SimConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KEYMAP:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        attr, parser = KEYMAP[key]
        try:
            setattr(cfg, attr, parser(value))
        except ValueError as err:
            raise ConfigError(f"line {lineno}: bad value for {key}: {err}")
    return cfg


def config_to_text(cfg: SimConfig) -> Dict[str, str]:
    """Canonical dotted-key string form of a config (for the manifest)."""
    out = {}
    for key, (attr, _) in KEYMAP.items():
        v = getattr(cfg, attr)
        if attr in _FORMATTERS:
            out[key] = _FORMATTERS[attr](v)
        elif v is None:
            out[key] = "auto"
        elif isinstance(v, bool):
            out[key] = "true" if v else "false"
        elif isinstance(v, float):
            out[key] = repr(v)
        else:
            out[key] = str(v)
    return out


def material_fingerprint(cfg: SimConfig) -> str:
    keys = ("model.regime", "model.potential", "model.theta_c",
            "model.mobility", "model.c0", "model.eps1", "model.eta",
            "model.tau", "model.A", "model.alpha", "regularization.delta",
            "stabilization.a")
    txt = config_to_text(cfg)
    blob = "\n".join(f"{k}={txt[k]}" for k in keys)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class RunManifest:
    config: Dict[str, str]
    fingerprint: str
    seed: int
    outdir: str
    version: str

    def emit(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2)

    @classmethod
    def parse(cls, text: str) -> "RunManifest":
        return cls(**json.loads(text))

    @classmethod
    def for_run(cls, cfg: SimConfig, outdir) -> "RunManifest":
        return cls(config=config_to_text(cfg),
                   fingerprint=material_fingerprint(cfg),
                   seed=cfg.seed, outdir=str(outdir), version=__version__)

    def to_config(self) -> SimConfig:
        text = "\n".join(f"{k} = {v}" for k, v in self.config.items())
        return parse_config(text)


# ---------------------------------------------------------------------------
# shared plumbing

def _load_config(args, regime: Optional[str] = None) -> SimConfig:
    """Config file, then overrides, seed and the regime a command fixes,
    validated once at the end."""
    if getattr(args, "config", None):
        cfg = _parse_unvalidated(Path(args.config).read_text())
    else:
        cfg = SimConfig()
    for item in getattr(args, "override", None) or []:
        if "=" not in item:
            raise ConfigError(f"--override needs key=value, got {item!r}")
        key, _, value = item.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KEYMAP:
            raise ConfigError(f"--override: unknown key {key!r}")
        attr, parser = KEYMAP[key]
        try:
            setattr(cfg, attr, parser(value))
        except ValueError as err:
            raise ConfigError(f"--override: bad value for {key}: {err}")
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if regime is not None:
        cfg.regime = regime
    return validate_config(cfg)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_run_artifacts(out: Path, cfg: SimConfig, traj: Trajectory) -> None:
    (out / "manifest.json").write_text(RunManifest.for_run(cfg, out).emit())
    traj.write_csv(out / "diagnostics.csv")
    snapdir = out / "snapshots"
    snapdir.mkdir(exist_ok=True)
    for state in traj.states:
        step = int(round(state.t / traj.dt))
        write_state(snapdir / f"state_{step:06d}.vpf", state)


# ---------------------------------------------------------------------------
# subcommands

def cmd_run(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args)
    traj = simulate(cfg)
    _write_run_artifacts(out, cfg, traj)
    report = check_energy_inequality(traj)
    text = write_report(
        [CheckRecord("energy-monotone", report.worst_violation, 0.0,
                     report.monotone),
         CheckRecord("balance-residual", report.balance_residual,
                     float("inf"), True)],
        txt_path=out / "energy_report.txt",
        jsonl_path=out / "energy_report.jsonl")
    print(text)
    return EXIT_OK if report.monotone else EXIT_CHECK


def cmd_weakstrong(args) -> int:
    cfg = _load_config(args)
    cfg.output_every = 1
    out = _outdir(args)
    M = build_material(cfg)
    grid = build_grid(cfg)
    phi0, q0, u0 = initial_state(cfg, grid, M)

    refine = max(1, args.refine)
    dt, n_steps = step_plan(cfg, grid, M, u0)
    ref_cfg = dataclasses.replace(cfg, dt=dt / refine, steps=n_steps * refine)
    reference = simulate(ref_cfg, phi0, q0, u0)

    records: List[CheckRecord] = []
    results = {}
    for eps in args.eps:
        pert = dataclasses.replace(cfg)
        rng = np.random.default_rng(cfg.seed + 1)
        bump = rng.standard_normal(grid.shape)
        bump /= max(np.abs(bump).max(), 1.0)
        phi_p = type(phi0)(grid, phi0.data + eps * bump)
        traj = simulate(pert, phi_p, q0, u0)
        n = len(traj.states)
        E_rel, D_rel = [], []
        for k in range(n):
            ref_state = reference.states[k * refine]
            rep = relative_energy(traj.states[k], ref_state, M)
            E_rel.append(rep.E_total)
            D_rel.append(rep.D)
        E_rel = np.array(E_rel)
        D_rel = np.array(D_rel)
        t = traj.times[:n]
        dts = np.diff(t)
        D_half = np.concatenate(
            [[0.0], np.cumsum(0.25 * dts * (D_rel[1:] + D_rel[:-1]))])
        fit = gronwall_fit(t, E_rel, D_half)
        results[eps] = (t, E_rel, D_rel, fit)
        np.savetxt(out / f"relative_energy_eps{eps:g}.csv",
                   np.column_stack([t, E_rel, D_rel]), delimiter=",",
                   header="t,E_rel,D_rel", comments="")
        if eps == 0.0:
            records.append(CheckRecord("uniqueness-max-Erel",
                                       float(E_rel.max()), 1e-10,
                                       bool(E_rel.max() <= 1e-10)))
        else:
            records.append(CheckRecord(f"gronwall-residual-eps{eps:g}",
                                       fit.residual, 0.05,
                                       fit.residual <= 0.05))

    eps_pos = sorted((e for e in args.eps if e > 0), reverse=True)
    for e1, e2 in zip(eps_pos, eps_pos[1:]):
        r = results[e1][1][-1] / max(results[e2][1][-1], 1e-300)
        scale = (e1 / e2) ** 2
        records.append(CheckRecord(
            f"Erel-scaling-{e1:g}/{e2:g}", float(r), scale, True))

    if cfg.regime == "degenerate":
        br = bounds_report(reference, M)
        if br.separation_margin < args.kappa_min:
            print(f"conditional hypothesis not met: separation margin "
                  f"{br.separation_margin:.4g} < kappa_min {args.kappa_min}")

    text = write_report(records, txt_path=out / "weakstrong_report.txt",
                        jsonl_path=out / "weakstrong_report.jsonl")
    print(text)
    return EXIT_OK if all(r.passed for r in records) else EXIT_CHECK


def _seeded_band_limited(seed: int, lengths, n_modes: int = 6,
                         mean: float = 0.0, amplitude: float = 0.05):
    """Callable initial datum: a few low cosine modes, seeded."""
    B = CosineBasis(lengths, n_modes)
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(n_modes)
    coeffs[0] = 0.0
    peak = np.abs(B.values(coeffs)).max()
    if peak > 0:
        coeffs *= amplitude / peak

    def f(*mesh):
        axes = [np.unique(m) for m in mesh]
        vals = B.evaluate(coeffs, axes)
        return mean + vals
    return f


def cmd_galerkin(args) -> int:
    out = _outdir(args)
    M = regular_model()
    lengths = tuple(args.lengths)
    phi0 = _seeded_band_limited(args.seed, lengths, mean=args.mean)
    q0 = lambda *mesh: np.zeros_like(mesh[0])
    study = convergence_study(args.m, phi0, q0, M, lengths, args.t_end,
                              rtol=args.rtol)
    records = []
    for m, run in zip(study["m"], study["runs"]):
        lam0 = np.array([s.lam[0] for s in run.states])
        np.savetxt(out / f"galerkin_m{m}.csv",
                   np.column_stack([run.times, run.E, run.D, lam0]),
                   delimiter=",", header="t,E_m,D_total,const_mode",
                   comments="")
        slack = run.E + run.D_cum - run.E[0] * (1.0 + 1e-6)
        records.append(CheckRecord(f"energy-inequality-m{m}",
                                   float(slack.max()), 0.0,
                                   bool(slack.max() <= 0.0)))
    np.savetxt(out / "cauchy_table.csv",
               np.column_stack([study["m"][1:], study["diffs"]]),
               delimiter=",", header="m,diff_to_previous", comments="")
    text = write_report(records, txt_path=out / "galerkin_report.txt",
                        jsonl_path=out / "galerkin_report.jsonl")
    print(text)
    return EXIT_OK if all(r.passed for r in records) else EXIT_CHECK


def cmd_degenerate_sweep(args) -> int:
    cfg = _load_config(args, regime="degenerate")
    if cfg.init_kind == "spinodal" and cfg.init_mean == 0.0:
        cfg.init_mean, cfg.init_amplitude = 0.5, 0.2
    out = _outdir(args)
    rows = []
    records = []
    overshoots = []
    for delta in args.deltas:
        dcfg = dataclasses.replace(cfg, delta=delta)
        validate_config(dcfg)
        M = build_material(dcfg)
        traj = simulate(dcfg)
        br = bounds_report(traj, M)
        traj.write_csv(out / f"diagnostics_delta{delta:g}.csv")
        ent_ok = (br.entropy_series is not None
                  and bool(np.all(np.isfinite(br.entropy_series))))
        rows.append((delta, br.overshoot, br.measure_max,
                     br.separation_margin, float(ent_ok)))
        overshoots.append(br.overshoot)
        records.append(CheckRecord(f"entropy-finite-delta{delta:g}",
                                   1.0 if ent_ok else 0.0, 1.0, ent_ok))
        print(f"delta={delta:g}: {br}")
    mono = all(b <= a + 1e-12 for a, b in zip(overshoots, overshoots[1:]))
    records.append(CheckRecord("overshoot-final", overshoots[-1], 1e-6,
                               overshoots[-1] <= 1e-6))
    records.append(CheckRecord("overshoot-monotone", float(mono), 1.0, mono))
    np.savetxt(out / "sweep_table.csv", np.array(rows), delimiter=",",
               header="delta,overshoot,measure_max,separation_margin,"
                      "entropy_finite", comments="")
    text = write_report(records, txt_path=out / "sweep_report.txt",
                        jsonl_path=out / "sweep_report.jsonl")
    print(text)
    return EXIT_OK if all(r.passed for r in records) else EXIT_CHECK


def cmd_report(args) -> int:
    path = Path(args.dir) / "diagnostics.csv"
    if not path.exists():
        raise ConfigError(f"no diagnostics.csv in {args.dir}")
    data = np.genfromtxt(path, delimiter=",", names=True)
    t = np.atleast_1d(data["t"])
    if len(t) < 2:
        print("[PASS] single-row diagnostics: nothing to check")
        return EXIT_OK
    series = {name: np.atleast_1d(data[name]) for name in data.dtype.names}
    traj = Trajectory(config=SimConfig(), dt=float(t[1] - t[0]),
                      states=[], series=series)
    report = check_energy_inequality(traj)
    print(report)
    mass = series["mass"]
    drift = float(np.abs(mass - mass[0]).max())
    print(f"[{'PASS' if drift <= 1e-10 else 'FAIL'}] mass drift: {drift:.3e}")
    ok = report.monotone and drift <= 1e-10
    return EXIT_OK if ok else EXIT_CHECK


# ---------------------------------------------------------------------------

def _add_common(p, seed_default: Optional[int] = None):
    p.add_argument("--config", help="path to a dotted-key config file")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--seed", type=int, default=seed_default)
    p.add_argument("--override", action="append", metavar="KEY=VALUE",
                   help="config override, repeatable")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="viscophase",
        description="Phase-separation / bulk-stress / flow simulator")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="single simulation with energy report")
    _add_common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("weakstrong",
                       help="reference/perturbed pair and Gronwall fit")
    _add_common(p)
    p.add_argument("--eps", type=float, action="append", default=None,
                   help="perturbation size, repeatable")
    p.add_argument("--refine", type=int, default=1,
                   help="time-step refinement of the reference run")
    p.add_argument("--kappa-min", type=float, default=0.05)
    p.set_defaults(func=cmd_weakstrong)

    p = sub.add_parser("galerkin", help="spectral verification runs")
    p.add_argument("--out", default="out")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", type=int, action="append", default=None,
                   help="mode count, repeatable")
    p.add_argument("--t-end", type=float, default=0.5)
    p.add_argument("--rtol", type=float, default=1e-8)
    p.add_argument("--lengths", type=float, nargs="+", default=[1.0, 1.0])
    p.add_argument("--mean", type=float, default=0.0)
    p.set_defaults(func=cmd_galerkin)

    p = sub.add_parser("degenerate-sweep",
                       help="delta-sequence bound verification")
    _add_common(p)
    p.add_argument("--deltas", type=lambda s: [float(x) for x in s.split(",")],
                   default=[1e-2, 1e-3, 1e-4])
    p.set_defaults(func=cmd_degenerate_sweep)

    p = sub.add_parser("report", help="re-check a diagnostics CSV")
    p.add_argument("--dir", default="out")
    p.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "weakstrong" and args.eps is None:
        args.eps = [1e-3, 5e-4]
    if args.command == "galerkin" and args.m is None:
        args.m = [8, 16]
    try:
        return args.func(args)
    except (ConfigError, InvalidDeltaError, FileNotFoundError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (BlowUpError, SolverError, QuadratureResolutionError) as err:
        extra = ""
        if isinstance(err, BlowUpError) and err.time is not None:
            extra = f" at t={err.time:g}"
        print(f"numerical failure{extra}: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
