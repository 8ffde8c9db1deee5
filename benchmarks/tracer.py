"""Outside-in tracer for the viscophase benchmark.

The tracer changes no file of the package.  While installed it replaces
module attributes of ``viscophase`` with timing wrappers, at every place a
caller looks the name up: ``from .fields import cg`` binds ``cg`` inside
``viscophase.dynamics`` too, so patching only ``viscophase.fields`` would
miss the solves of the time step.  ``uninstall`` puts every original back.

Each call of a wrapped function is one span ``(name, parent, start, end)``;
spans are kept in memory and written out when the benchmark ends.  A span's
self time is its duration minus the time its child spans cover.  Counts
that are not calls (Krylov matvecs, solver errors, snapshot bytes) are
taken at the same boundaries; ``snapshots.bytes`` is the size of each
written file, measured after the write.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import os
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("fields", "dynamics", "material", "diagnostics", "galerkin",
          "snapshots", "cli")

# metric group -> span names.  A group's self time is the sum of its spans'
# self times; its busy time is the union of its spans' intervals.
GROUPS = {
    "fields.stencil": ("fields.grad_arr", "fields.div_arr", "fields.lap_arr"),
    "fields.solve_symbol": ("fields.solve_symbol", "fields.lap_symbol"),
    "fields.cg": ("fields.cg",),
    "fields.bicgstab": ("fields.bicgstab",),
    "fields.project": ("fields.project_divergence_free",),
    "dynamics.step_phi_q": ("dynamics.step_phi_q",),
    "dynamics.step_velocity": ("dynamics.step_velocity",),
    "dynamics.simulate": ("dynamics.simulate",),
    "material.eval": (),                      # filled in: every model callable
    "material.build": ("dynamics.build_material", "material.regular_model",
                       "material.degenerate_model"),
    "diagnostics.energy": ("diagnostics.energy",),
    "diagnostics.checks": ("diagnostics.check_energy_inequality",
                           "diagnostics.bounds_report",
                           "diagnostics.relative_energy",
                           "diagnostics.gronwall_fit"),
    "galerkin.assemble_rhs": ("galerkin.assemble_rhs",),
    "galerkin.energy": ("galerkin.energy_galerkin",),
    "galerkin.basis": ("galerkin.CosineBasis",),
    "snapshots.write": ("snapshots.write_snapshot", "snapshots.write_state"),
    "cli.artifacts": ("cli._write_run_artifacts", "diagnostics.write_report",
                      "numpy.savetxt"),
}

_MODEL_CALLABLES = ("n", "eta", "tau", "A", "dA", "n_bare")
_POTENTIAL_CALLABLES = ("f", "df", "d2f", "d3f", "f1", "df1", "d2f1",
                        "f2", "df2", "d2f2")
_ENTROPY_CALLABLES = ("g", "dg", "d2g")


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans = []          # (name, parent index or -1, start, end)
        self.counts = Counter()
        self._stack = []
        self._patches = []       # (owner, attribute, original)
        self.material_names = set()

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn):
        """fn, recording one span per call."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (name, parent, t0, t1)

        return traced

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _krylov(self, name, fn, errors):
        counts = self.counts
        matvecs = name + ".matvecs"

        def counted_solver(apply_op, *args, **kwargs):
            def counted_op(x):
                counts[matvecs] += 1
                return apply_op(x)
            try:
                return fn(counted_op, *args, **kwargs)
            except errors:
                counts["fields.solver_errors"] += 1
                raise

        return self.wrap(name, functools.wraps(fn)(counted_solver))

    def _snapshot_writer(self, fn):
        counts = self.counts

        def counted_write(path, *args, **kwargs):
            result = fn(path, *args, **kwargs)
            counts["snapshots.bytes"] += os.path.getsize(path)
            return result

        return self.wrap("snapshots.write_snapshot",
                         functools.wraps(fn)(counted_write))

    def _instrument_model(self, M):
        def wrapped(obj, names, prefix):
            changes = {}
            for attr in names:
                fn = getattr(obj, attr, None)
                if fn is not None:
                    span = f"material.eval.{prefix}{attr}"
                    self.material_names.add(span)
                    changes[attr] = self.wrap(span, fn)
            return dataclasses.replace(obj, **changes)

        changes = {"potential": wrapped(M.potential, _POTENTIAL_CALLABLES,
                                        "potential.")}
        if M.entropy is not None:
            changes["entropy"] = wrapped(M.entropy, _ENTROPY_CALLABLES,
                                         "entropy.")
        return dataclasses.replace(wrapped(M, _MODEL_CALLABLES, ""), **changes)

    def _model_factory(self, name, fn):
        instrument = self._instrument_model

        def build(*args, **kwargs):
            return instrument(fn(*args, **kwargs))

        return self.wrap(name, functools.wraps(fn)(build))

    def install(self, package):
        """Wrap the public functions of every layer module of ``package``."""
        from viscophase.errors import SolverError

        modules = [package] + [sys.modules[f"{package.__name__}.{layer}"]
                               for layer in LAYERS]
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if attr in ("cg", "bicgstab"):
                    new = self._krylov(name, fn, SolverError)
                elif attr in ("regular_model", "degenerate_model"):
                    new = self._model_factory(name, fn)
                elif attr == "write_snapshot":
                    new = self._snapshot_writer(fn)
                else:
                    new = self.wrap(name, fn)
                for owner in modules:
                    for other, value in list(vars(owner).items()):
                        if value is fn:
                            self._set(owner, other, new)

        cli = sys.modules[f"{package.__name__}.cli"]
        self._set(cli, "_write_run_artifacts",
                  self.wrap("cli._write_run_artifacts", cli._write_run_artifacts))
        self._set(cli.np, "savetxt", self.wrap("numpy.savetxt", cli.np.savetxt))
        basis = sys.modules[f"{package.__name__}.galerkin"].CosineBasis
        self._set(basis, "__init__",
                  self.wrap("galerkin.CosineBasis", basis.__init__))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def layer_metrics(self):
        """Per-layer counts and times of the spans recorded since reset."""
        groups = dict(GROUPS)
        groups["material.eval"] = tuple(sorted(self.material_names))
        bit_of = {}
        for k, names in enumerate(groups.values()):
            for name in names:
                bit_of[name] = bit_of.get(name, 0) | (1 << k)
        spans = self.spans
        n = len(spans)
        calls = Counter()
        self_time = Counter()
        busy = [0.0] * len(groups)
        child = [0.0] * n
        above = [0] * n        # group bits of each span's ancestors
        for i, (name, parent, t0, t1) in enumerate(spans):
            dur = t1 - t0
            calls[name] += 1
            if parent >= 0:
                child[parent] += dur
                above[i] = above[parent] | bit_of.get(spans[parent][0], 0)
        for i, (name, parent, t0, t1) in enumerate(spans):
            self_time[name] += (t1 - t0) - child[i]
            bits = bit_of.get(name, 0) & ~above[i]
            k = 0
            while bits:
                if bits & 1:
                    busy[k] += t1 - t0
                bits >>= 1
                k += 1
        busy_of = dict(zip(groups, busy))

        def group_calls(group):
            return sum(calls[name] for name in groups[group])

        def group_self(group):
            return sum(self_time[name] for name in groups[group])

        c = self.counts
        steps = calls["dynamics.step_phi_q"]
        return {
            "fields.stencil.calls": group_calls("fields.stencil"),
            "fields.stencil.self_s": group_self("fields.stencil"),
            "fields.solve_symbol.calls": calls["fields.solve_symbol"],
            "fields.solve_symbol.self_s": group_self("fields.solve_symbol"),
            "fields.cg.solves": calls["fields.cg"],
            "fields.cg.matvecs": c["fields.cg.matvecs"],
            "fields.cg.self_s": group_self("fields.cg"),
            "fields.project.calls": calls["fields.project_divergence_free"],
            "fields.project.busy_s": busy_of["fields.project"],
            "fields.bicgstab.solves": calls["fields.bicgstab"],
            "fields.bicgstab.matvecs": c["fields.bicgstab.matvecs"],
            "fields.bicgstab.self_s": group_self("fields.bicgstab"),
            "fields.solver_errors": c["fields.solver_errors"],
            "dynamics.steps": steps,
            "dynamics.step_ms": (1e3 * busy_of["dynamics.simulate"] / steps
                                 if steps else 0.0),
            "dynamics.step_phi_q.self_s": group_self("dynamics.step_phi_q"),
            "dynamics.step_velocity.self_s": group_self("dynamics.step_velocity"),
            "dynamics.simulate.self_s": group_self("dynamics.simulate"),
            "material.evals": group_calls("material.eval"),
            "material.busy_s": busy_of["material.eval"],
            "material.build_s": busy_of["material.build"],
            "diagnostics.energy.calls": calls["diagnostics.energy"],
            "diagnostics.energy.busy_s": busy_of["diagnostics.energy"],
            "diagnostics.checks.busy_s": busy_of["diagnostics.checks"],
            "galerkin.rhs_evals": calls["galerkin.assemble_rhs"],
            "galerkin.assemble_rhs.busy_s": busy_of["galerkin.assemble_rhs"],
            "galerkin.energy.calls": calls["galerkin.energy_galerkin"],
            "galerkin.energy.busy_s": busy_of["galerkin.energy"],
            "galerkin.basis_build_s": busy_of["galerkin.basis"],
            "snapshots.writes": calls["snapshots.write_snapshot"],
            "snapshots.bytes": c["snapshots.bytes"],
            "snapshots.write_s": busy_of["snapshots.write"],
            "cli.artifacts_s": busy_of["cli.artifacts"],
        }

    def write_spans(self, path):
        """Spans since reset as CSV, times in seconds from the first start."""
        origin = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{t0 - origin:.9f},"
                         f"{t1 - origin:.9f}\n")
