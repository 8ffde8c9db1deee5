"""viscophase benchmark: time to solution on four workloads.

Run from the root of a source checkout:

    python3 benchmarks/run.py --workload regular-64 --seed 0 --seconds 20 --trace 0

One process, closed loop, one sample at a time.  Each sample solves the
workload to its fixed end time and checks the output; a sample that raises
or fails its gate counts in ``failed`` and is never dropped.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced samples
alternate and the JSON carries the per-layer metrics of the traced ones,
plus the tracing overhead.  Human-readable lines, the environment and
(when tracing) the spans go to standard output and ``.bench_out/``.
"""

import os

# cap BLAS/OpenMP threads before NumPy loads
os.environ["VISCOPHASE_THREADS"] = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# set-up batches timed before each sample, so that the set-up median spans
# the same stretch of machine time as the samples; one set-up takes
# 0.2-3 ms, so a batch of several is timed as one set-up sample
SETUP_BATCHES = 4
SETUP_BATCH = 10


def _import_program():
    """Put the checkout's own sources first on the path, never an installed
    copy; exit with code 1 when the checkout has none."""
    if not (SRC / "viscophase" / "__init__.py").is_file():
        sys.exit(f"benchmark: no viscophase sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import viscophase
    if Path(viscophase.__file__).resolve().parent != SRC / "viscophase":
        sys.exit(f"benchmark: imported {viscophase.__file__}, not {SRC}")
    return viscophase


def environment(seed):
    import numpy
    import scipy
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size, shared = (
                (index / f).read_text().strip()
                for f in ("level", "type", "size", "shared_cpu_list"))
        except OSError:
            continue
        caches.append(f"L{level} {kind} {size} (cpus {shared})")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in (
            "VISCOPHASE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS")},
        "cpu_caches": caches,
        "seed": seed,
        "load": "closed loop, one client, one sample at a time",
    }


class Sampler:
    """Runs timed, gated samples of one workload and keeps every outcome."""

    def __init__(self, workload, seed, reference):
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.workdir = OUT / "work" / workload.name
        self.times = {False: [], True: []}     # traced? -> wall seconds
        self.cpu = []                           # untraced CPU seconds
        self.failures = []
        self.attempted = 0

    def sample(self, tracer=None):
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        wl = self.workload
        if tracer is not None:
            tracer.reset()
        self.attempted += 1
        w0, t0 = perf_counter(), process_time()
        try:
            # only the program's work is traced, not the gate
            if tracer is not None:
                tracer.install(sys.modules["viscophase"])
            try:
                output = wl.solve(self.seed, self.workdir)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            problems = wl.check(output, self.reference)
        except Exception as err:   # every failure is counted, none dropped
            problems = [f"{type(err).__name__}: {err}"]
        wall, cpu = perf_counter() - w0, process_time() - t0
        self.times[tracer is not None].append(wall)
        if tracer is None:
            self.cpu.append(cpu)
        if problems:
            self.failures.append(problems)
        return wall


def _layer_unit(key):
    if key.endswith("_s"):
        return "s"
    if key.endswith("_ms"):
        return "ms"
    return "B" if key.endswith(".bytes") else "count"


def _summary(name, values, unit, what="samples"):
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = f"; quartiles {q1:.4g}..{q3:.4g}, min {min(values):.4g}, max {max(values):.4g}"
    else:
        spread = ""
    return (f"{name:<22} {statistics.median(values):.6g} {unit} "
            f"(median of {len(values)} {what}{spread})")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS
    from tracer import Tracer
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    env = environment(args.seed)
    OUT.mkdir(exist_ok=True)

    why = {w["name"]: w["why"] for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["workloads"]}
    print(f"workload {wl.name}: {why.get(wl.name, '')}")

    wl.setup(args.seed)    # warm-up: first-call costs are not set-up work
    setup_times = []
    try:
        reference = wl.reference(args.seed)
    except Exception as err:   # the gates then fail every sample
        print(f"gate reference failed: {type(err).__name__}: {err}")
        reference = None
    if hasattr(reference, "drop"):
        print("accuracy reference: " + (
            f"energy drop {reference.drop:.9e}, pinned for seed {args.seed}"
            if reference.drop is not None else
            f"none pinned for seed {args.seed}; energy drop not checked"))

    sampler = Sampler(wl, args.seed, reference)
    tracer = Tracer() if args.trace else None
    layer_runs = []
    start = perf_counter()
    while True:
        for _ in range(SETUP_BATCHES):
            t0 = process_time()
            for _ in range(SETUP_BATCH):
                wl.setup(args.seed)
            setup_times.append((process_time() - t0) / SETUP_BATCH)
        cost = sampler.sample()
        if tracer is not None:
            cost += sampler.sample(tracer)
            layer_runs.append(tracer.layer_metrics())
        budget_left = args.seconds - (perf_counter() - start)
        if budget_left < cost:
            break
    setup_s = statistics.median(setup_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    untraced = sampler.times[False]
    failed = len(sampler.failures)
    print("environment " + json.dumps(env))
    print(_summary("time_to_solution_s", untraced, "s"))
    print(_summary("  as CPU time", sampler.cpu, "s"))
    print(_summary("setup_s", setup_times, "s of CPU",
                   f"batches of {SETUP_BATCH} set-ups"))
    print(f"{'peak_rss_mb':<22} {peak_rss_mb:.6g} MB (peak resident memory "
          f"of this process)")
    print(f"{'error_rate':<22} {failed / sampler.attempted:.6g} ratio "
          f"({failed} of {sampler.attempted} samples failed)")
    for problems in sampler.failures:
        print("failed sample: " + "; ".join(problems))

    if tracer is None:
        metrics = {
            "time_to_solution_s": (statistics.median(untraced), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        traced = sampler.times[True]
        overhead = statistics.median(traced) - statistics.median(untraced)
        print(_summary("traced time", traced, "s"))
        print(f"tracing overhead {overhead:.4g} s "
              f"({100 * overhead / statistics.median(untraced):.3g} %)")
        metrics = {}
        for key, value in layer_runs[-1].items():
            values = [run[key] for run in layer_runs]
            unit = _layer_unit(key)
            if unit in ("count", "B"):
                if len(set(values)) != 1:
                    print(f"count {key} differs between traced samples: {values}")
            else:
                value = statistics.median(values)
            metrics[key] = (value, unit)
        metrics["trace.overhead_s"] = (overhead, "s")
        spans = OUT / f"spans-{wl.name}-seed{args.seed}.csv"
        tracer.write_spans(spans)
        print(f"spans of the last traced sample: {spans.relative_to(ROOT)}")
        for key, (value, unit) in metrics.items():
            print(f"  {key:<32} {value:.6g} {unit}")

    result = {
        "correct": failed == 0,
        "attempted": sampler.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=wl.name, environment=env,
                  samples={"untraced_s": untraced,
                           "untraced_cpu_s": sampler.cpu,
                           "traced_s": sampler.times[True],
                           "setup_s": setup_times})
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
