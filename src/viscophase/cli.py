"""Command-line entry point: config parsing, experiment orchestration and
artifact emission.  The check records a command emits, and their
thresholds, are diagnostics'.

Config files are flat ``dotted.key = value`` lines with ``#`` comments.
Exit codes: 0 success, 2 config error, 3 numerical failure, 4 an
acceptance-style check failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import __version__
from .errors import (BlowUpError, ConfigError, QuadratureResolutionError,
                     SolverError)
from .dynamics import (KEYMAP, SimConfig, _FINITE, _NON_NEGATIVE, _POSITIVE,
                       _build_run, build_grid, build_material, check_rule,
                       initial_state, run_steps, validate_config)
from .diagnostics import (CheckRecord, Trajectory, _diag_row, bounds_report,
                          galerkin_records, relative_energy, run_records,
                          sweep_records, weakstrong_records, write_report)
from .galerkin import CosineBasis, check_mode_counts, convergence_study
from .material import regular_model
from .snapshots import write_state

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CHECK = 4


# ---------------------------------------------------------------------------
# config parsing

def parse_config(text: str) -> SimConfig:
    """Flat dotted-key config text -> fully defaulted, validated SimConfig."""
    return validate_config(_apply_lines(SimConfig(), text))


def _set_key(cfg: SimConfig, item: str, where: str) -> None:
    """Apply one ``key = value`` item; ConfigError prefixed with where."""
    if "=" not in item:
        raise ConfigError(f"{where}: expected 'key = value', got {item!r}")
    key, _, value = item.partition("=")
    key, value = key.strip(), value.strip()
    if key not in KEYMAP:
        raise ConfigError(f"{where}: unknown key {key!r}")
    attr, parser, _ = KEYMAP[key]
    try:
        setattr(cfg, attr, parser(value))
    except ValueError as err:
        raise ConfigError(f"{where}: bad value for {key}: {err}")


def _apply_lines(cfg: SimConfig, text: str) -> SimConfig:
    """cfg with each ``key = value`` line of text applied on it."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            _set_key(cfg, line, f"line {lineno}")
    return cfg


def _format(v) -> str:
    """The config text of a value, which its key's parser reads back: a
    tuple's items joined by commas, None as auto, a float by repr."""
    if isinstance(v, tuple):
        return ",".join(_format(x) for x in v)
    if v is None:
        return "auto"
    if isinstance(v, bool):
        return "true" if v else "false"
    return repr(v) if isinstance(v, float) else str(v)


def config_to_text(cfg: SimConfig) -> Dict[str, str]:
    """Canonical dotted-key string form of a config (for the manifest)."""
    return {key: _format(getattr(cfg, attr))
            for key, (attr, _, _) in KEYMAP.items()}


# the KEYMAP sections that define the material model
MATERIAL_SECTIONS = ("model.", "regularization.", "stabilization.")


def material_fingerprint(cfg: SimConfig) -> str:
    """A hash of the config's MATERIAL_SECTIONS keys, in KEYMAP order."""
    blob = "\n".join(f"{k}={v}" for k, v in config_to_text(cfg).items()
                     if k.startswith(MATERIAL_SECTIONS))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run_manifest(cfg: SimConfig, outdir) -> str:
    """The JSON text of a run's manifest.json: its config in canonical
    text form, material fingerprint, seed, output directory and package
    version."""
    return json.dumps({"config": config_to_text(cfg),
                       "fingerprint": material_fingerprint(cfg),
                       "seed": cfg.seed, "outdir": str(outdir),
                       "version": __version__}, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# shared plumbing

def _load_config(args, base: SimConfig) -> SimConfig:
    """The config of a command that runs: its base config, then the config
    file, the overrides and the seed applied on it, validated once at the
    end.  The run length is checked by step_plan, when the command plans
    its runs before it writes anything."""
    cfg = dataclasses.replace(base)
    if args.config:
        try:
            text = Path(args.config).read_text()
        except OSError as err:
            raise ConfigError(
                f"--config = {args.config}: {err.strerror}") from None
        _apply_lines(cfg, text)
    for item in args.override or []:
        _set_key(cfg, item, "--override")
    if args.seed is not None:
        cfg.seed = args.seed
    return validate_config(cfg)


def _outdir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"--out = {args.out}: {err.strerror}") from None
    return out


def _run_to_csv(path: Path, cfg: SimConfig, run: tuple,
                snapdir: Optional[Path] = None) -> Trajectory:
    """Step run, the _build_run of cfg, writing each row to the CSV at
    path as it is made and, given snapdir, the state of each step
    k = 0, output_every, 2*output_every ... and the last as
    snapdir/state_<k>.vpf, flushing the CSV at each of those steps."""
    _, n_steps, steps = run
    rows = []
    with open(path, "w") as fh:
        for k, state in steps:
            row = _diag_row(state)
            if not rows:
                fh.write(",".join(row) + "\n")
            fh.write(",".join("%.17g" % v for v in row.values()) + "\n")
            rows.append(row)
            if k % cfg.output_every == 0 or k == n_steps:
                if snapdir is not None:
                    write_state(snapdir / f"state_{k:06d}.vpf", state)
                fh.flush()
    return Trajectory.from_rows(rows)


def _write_run_artifacts(out: Path, cfg: SimConfig, run: tuple) -> Trajectory:
    """manifest.json, then _run_to_csv of run, the _build_run of cfg, into
    diagnostics.csv and snapshots/."""
    (out / "manifest.json").write_text(run_manifest(cfg, out))
    snapdir = out / "snapshots"
    snapdir.mkdir(exist_ok=True)
    return _run_to_csv(out / "diagnostics.csv", cfg, run, snapdir)


def _emit(records: List[CheckRecord], out: Optional[Path] = None,
          stem: str = "") -> int:
    """Print the records (and write them as out/stem.txt and
    out/stem.jsonl); EXIT_CHECK when any failed."""
    paths = {}
    if out is not None:
        paths = {"txt_path": out / f"{stem}.txt",
                 "jsonl_path": out / f"{stem}.jsonl"}
    print(write_report(records, **paths))
    return EXIT_OK if all(r.passed for r in records) else EXIT_CHECK


# ---------------------------------------------------------------------------
# subcommands

def cmd_run(args) -> int:
    cfg = _load_config(args, SimConfig())
    run = _build_run(cfg)
    out = _outdir(args)
    traj = _write_run_artifacts(out, cfg, run)
    return _emit(run_records(traj), out, "energy_report")


def cmd_weakstrong(args) -> int:
    for eps in args.eps:
        for rule in (_FINITE, _NON_NEGATIVE):
            check_rule("--eps", eps, rule)
    cfg = _load_config(args, SimConfig())
    M = build_material(cfg)
    grid = build_grid(cfg)
    phi0, q0, u0 = initial_state(cfg, grid, M)
    rng = np.random.default_rng(cfg.seed + 1)
    bump = rng.standard_normal(grid.shape)
    bump /= max(np.abs(bump).max(), 1.0)

    # the runs advance in lock-step: each pair of current states gives one
    # sample (t, E_rel, D_rel) of each eps; only a model with an entropy
    # (the degenerate regime) reads the reference's diagnostics rows (its
    # bounds report)
    has_entropy = M.entropy is not None
    _, reference = run_steps(cfg, M, phi0, q0, u0)
    perturbed = [run_steps(cfg, M, phi0 + eps * bump, q0, u0)[1]
                 for eps in args.eps]
    out = _outdir(args)
    ref_rows, samples = [], [[] for _ in args.eps]
    for (_, ref_state), *states in zip(reference, *perturbed):
        if has_entropy:
            ref_rows.append(_diag_row(ref_state))
        for sample, (_, state) in zip(samples, states):
            rep = relative_energy(state, ref_state)
            sample.append((state.t, rep.E_total, rep.D_total))
    for eps, sample in zip(args.eps, samples):
        np.savetxt(out / f"relative_energy_eps{eps:g}.csv", np.array(sample),
                   delimiter=",", header="t,E_rel,D_rel", comments="")
    if has_entropy:
        ref = Trajectory.from_rows(ref_rows)
        print(f"reference: {bounds_report(ref, M)}")
    return _emit(weakstrong_records(args.eps, samples), out,
                 "weakstrong_report")


DATUM_MODES = 6           # galerkin's datum: modes that --m 8 and 16 hold
DATUM_AMPLITUDE = 0.05    # its peak about --mean: a small perturbation


def _seeded_band_limited(seed: int, lengths, mean: float = 0.0):
    """Callable initial datum: a few low cosine modes, seeded."""
    B = CosineBasis(lengths, DATUM_MODES)
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(DATUM_MODES)
    coeffs[0] = 0.0
    peak = np.abs(B.values(coeffs)).max()
    if peak > 0:
        coeffs *= DATUM_AMPLITUDE / peak

    def f(*mesh):
        axes = [np.unique(m) for m in mesh]
        vals = B.evaluate(coeffs, axes)
        return mean + vals
    return f


def cmd_galerkin(args) -> int:
    lengths = tuple(args.lengths)
    if not 1 <= len(lengths) <= 3 or not all(0 < L < math.inf
                                             for L in lengths):
        raise ConfigError(f"--lengths = {' '.join(map(str, lengths))}: "
                          "need 1-3 positive finite lengths")
    for flag, value, rule in (("--t-end", args.t_end, _POSITIVE),
                              ("--rtol", args.rtol, _POSITIVE),
                              ("--mean", args.mean, _FINITE),
                              ("--seed", args.seed, _NON_NEGATIVE)):
        check_rule(flag, value, rule)
    check_mode_counts(args.m, "--m")
    out = _outdir(args)
    M = regular_model()
    phi0 = _seeded_band_limited(args.seed, lengths, mean=args.mean)
    q0 = lambda *mesh: np.zeros_like(mesh[0])
    study = convergence_study(args.m, phi0, q0, M, lengths, args.t_end,
                              rtol=args.rtol)
    for m, run in zip(study["m"], study["runs"]):
        lam0 = run.lam[:, 0]
        np.savetxt(out / f"galerkin_m{m}.csv",
                   np.column_stack([run.times, run.E, run.D, lam0]),
                   delimiter=",", header="t,E_m,D_total,const_mode",
                   comments="")
    np.savetxt(out / "cauchy_table.csv",
               np.column_stack([study["m"][1:], study["diffs"]]),
               delimiter=",", header="m,diff_to_previous", comments="")
    return _emit(galerkin_records(study), out, "galerkin_report")


# the config that degenerate-sweep's file and overrides apply on
SWEEP_BASE = SimConfig(regime="degenerate", init_mean=0.5, init_amplitude=0.2)


def cmd_degenerate_sweep(args) -> int:
    # overshoot-monotone reads the list in order and overshoot-final judges
    # its last entry, the smallest delta
    if tuple(sorted(set(args.deltas), reverse=True)) != args.deltas:
        raise ConfigError(f"--deltas = {','.join(f'{d:g}' for d in args.deltas)}"
                          ": must be strictly decreasing")
    cfg = _load_config(args, SWEEP_BASE)
    if cfg.regime != SWEEP_BASE.regime:
        raise ConfigError(f"model.regime = {cfg.regime!r}: degenerate-sweep "
                          f"runs only the {SWEEP_BASE.regime} regime")
    # every run is built (checked and planned, not stepped) before the
    # output directory is made
    dcfgs = [dataclasses.replace(cfg, delta=delta) for delta in args.deltas]
    runs = [_build_run(dcfg) for dcfg in dcfgs]
    out = _outdir(args)
    bounds = []
    for delta, dcfg, run in zip(args.deltas, dcfgs, runs):
        traj = _run_to_csv(out / f"diagnostics_delta{delta:g}.csv", dcfg, run)
        bounds.append(bounds_report(traj, run[0]))
        print(f"delta={delta:g}: {bounds[-1]}")
    np.savetxt(out / "sweep_table.csv",
               np.array([(delta, b.overshoot, b.measure_max,
                          b.separation_margin, float(b.entropy_finite))
                         for delta, b in zip(args.deltas, bounds)]),
               delimiter=",", header="delta,overshoot,measure_max,"
                                     "separation_margin,entropy_finite",
               comments="")
    return _emit(sweep_records(args.deltas, bounds), out, "sweep_report")


def cmd_report(args) -> int:
    path = Path(args.dir) / "diagnostics.csv"
    if not path.exists():
        raise ConfigError(f"no diagnostics.csv in {args.dir}")
    if not path.read_text().strip():
        raise ConfigError(f"{path}: empty file")
    data = np.genfromtxt(path, delimiter=",", names=True)
    series = {name: np.atleast_1d(data[name]) for name in data.dtype.names}
    try:
        t = series["t"]
        if len(t) == 0:
            raise ConfigError(f"{path}: no rows")
        if len(t) == 1:
            print("[PASS] single-row diagnostics: nothing to check")
            return EXIT_OK
        if not np.all(np.diff(t) > 0):
            raise ConfigError(f"{path}: column t is not strictly increasing")
        records = run_records(Trajectory(series=series))
    except KeyError as err:
        raise ConfigError(f"{path}: no {err.args[0]} column") from None
    code = _emit(records)
    if "cfl" not in series:
        print("[SKIP] max-cfl: not recorded")
    return code


# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--config", help="path to a dotted-key config file")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--override", action="append", metavar="KEY=VALUE",
                   help="config override, repeatable")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    main call: no default is a mutable object that a call could change."""
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
    p.set_defaults(func=cmd_weakstrong)

    p = sub.add_parser("galerkin", help="spectral verification runs")
    p.add_argument("--out", default="out")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", type=int, action="append", default=None,
                   help="mode count, repeatable")
    p.add_argument("--t-end", type=float, default=0.5)
    p.add_argument("--rtol", type=float, default=1e-8)
    p.add_argument("--lengths", type=float, nargs="+", default=(1.0, 1.0))
    p.add_argument("--mean", type=float, default=0.0)
    p.set_defaults(func=cmd_galerkin)

    p = sub.add_parser("degenerate-sweep",
                       help="delta-sequence bound verification")
    _add_common(p)
    p.add_argument("--deltas",
                   type=lambda s: tuple(float(x) for x in s.split(",")),
                   default=(1e-2, 1e-3, 1e-4))
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
    except ConfigError as err:
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
