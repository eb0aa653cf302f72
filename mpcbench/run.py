"""Benchmark entry point: one workload, one seed, one fresh interpreter.

Usage, from the repository root::

    python3 mpcbench/run.py --workload batch-shallow --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` makes the
separate traced run, prints every per-layer metric and writes its spans to
``mpcbench/out/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are a table of the same metrics with their sample counts.
The library is imported from ``src/`` next to this directory and nowhere
else: without it the run fails before printing a result.  Every process the
run starts (exec workers, multiprocessing's resource tracker) is stopped and
reaped before the result is printed (``procs.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("batch-shallow", "batch-deep", "serve-rw")


def _import_library() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"mpcbench: no library source at {src}/repro; run from a full checkout")
    here = os.path.join(ROOT, "mpcbench")
    sys.path[:] = [src, ROOT] + [p for p in sys.path if os.path.abspath(p or ".") != here]
    # The benchmark measures the library's defaults; REPRO_* overrides
    # (exec backend, obs mode, serving knobs...) would change what runs.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        sys.exit(f"mpcbench: imported repro from {repro.__file__}, not from {src}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "smoke"),
                    help="input size; 'smoke' is the self-test's small size")
    args = ap.parse_args(argv)
    _import_library()

    from mpcbench import procs

    procs.install()
    from mpcbench.metrics import END_TO_END, PER_LAYER
    from mpcbench.run_state import RunState

    state = RunState(args.workload, args.seed, args.seconds, args.size, ROOT)
    if args.workload == "serve-rw":
        from mpcbench.serve import ServeRun as Run
    else:
        from mpcbench.batch import BatchRun as Run
    runner = Run(state)
    try:
        values = runner.run_traced() if args.trace else runner.run()
    finally:
        killed = procs.stop_children()
    if killed:
        print(f"mpcbench: killed child processes {sorted(killed)} that did not exit",
              file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    missing = sorted(set(units) - set(values))
    if missing:
        sys.exit(f"mpcbench: no value for {missing}")

    print(f"{args.workload} seed={args.seed} trace={args.trace} size={args.size}")
    for name, unit in units.items():
        samples = state.samples.get(name, 1)
        print(f"  {name:34s} {values[name]:>16.6g} {unit:6s} samples={samples}")
    print(f"  attempted={state.attempted} failed={state.failed} correct={state.correct}")
    result = {
        "correct": state.correct,
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
