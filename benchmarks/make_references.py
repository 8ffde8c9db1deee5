"""Make the pinned accuracy references of the grid workloads.

Run once, from the root of a source checkout, when the benchmark is
defined or a workload changes:

    python3 benchmarks/make_references.py [first_seed last_seed]

For every grid workload and seed (default 0-99) it runs the workload with
the step pinned to ``ref_dt`` and writes the energy drop
``E_total(0) - E_total(t_end)`` to ``benchmarks/reference_drops.json``.
The benchmark compares against these numbers and never recomputes them.
"""

import json
import sys

import run

run._import_program()
import workloads  # noqa: E402


def main(argv):
    first, last = map(int, argv) if argv else (0, 99)
    table = {}
    for wl in workloads.WORKLOADS.values():
        if not isinstance(wl, workloads.GridWorkload):
            continue
        table[wl.name] = {str(seed): wl.pinned_drop(seed)
                          for seed in range(first, last + 1)}
        print(f"{wl.name}: seeds {first}-{last}", flush=True)
    text = json.dumps(table, indent=1) + "\n"
    workloads.REFERENCE_DROPS_PATH.write_text(text)


if __name__ == "__main__":
    main(sys.argv[1:])
