"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload frontier --seed 1 --seconds 25 --trace 0

Run from the repository root. The package is imported from `src/`. The
run makes the workload's measured passes, then, unless traced, repeats whole
passes while another still fits in `--seconds`. It checks every
operation of every pass and prints as its last line
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` every public function
of the package is wrapped in a span, the per-layer metrics are printed
instead, and the spans are written to `bench/out/`.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools read these once, when numpy loads.
THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = THREADS

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 7


def _import_package():
    """Put the checkout's `src/` first on the path and import from it."""
    if not (SRC / "vinefolio" / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {SRC / 'vinefolio'}")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import vinefolio
    if Path(vinefolio.__file__).resolve().parent != SRC / "vinefolio":
        sys.exit(f"bench: imported vinefolio from {vinefolio.__file__}, not {SRC}")


def probe(workload: str) -> None:
    """Set up as a run does, say `ready`, and exit."""
    _import_package()
    import inputs
    import workloads  # noqa: F401 - imports every package module a run uses
    inputs.build(workload)
    print("ready", flush=True)


def measure_setup(workload: str) -> float:
    """Median wall time from spawning a fresh interpreter until its
    inputs are ready."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe",
             "--workload", workload],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        ) as child:
            line = child.stdout.readline()
            times.append(time.perf_counter() - start)
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            sys.exit(f"bench: set-up probe failed ({child.returncode}): {line!r}")
    return statistics.median(times)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_s = measure_setup(workload)
    _import_package()
    import inputs
    import layers
    import tracer as tracing
    import workloads

    panel, inst = inputs.build(workload)
    run_pass = workloads.PASSES[workload]
    measured = workloads.MEASURED_PASSES[workload]

    # Innermost first: counters, then spans, then the operation recorder.
    patches = tracing.Patches()
    tracer = counters = None
    if trace:
        counters = layers.LayerCounters()
        counters.install(patches)
        tracer = tracing.Tracer()
        tracing.instrument(tracer, layers.MODULES, patches)
    recorder = workloads.Recorder()
    recorder.install(patches)

    passes = []                      # (seconds, output, ops)
    start = time.perf_counter()
    try:
        while True:
            if counters:
                counters.new_pass()
            first_op = len(recorder.ops)
            t0 = time.perf_counter()
            try:
                output = run_pass(panel, inst, workloads.pass_seed(seed, len(passes)))
            except Exception:  # noqa: BLE001 - the raising operation is counted
                traceback.print_exc()
                output = None
            elapsed = time.perf_counter() - t0
            passes.append((elapsed, output, recorder.ops[first_op:]))
            if len(passes) < measured:
                continue
            # A traced run makes only the measured passes, so that its
            # per-layer counts do not depend on the program's speed.
            typical = statistics.median(p[0] for p in passes)
            if trace or time.perf_counter() - start + typical > seconds:
                break
    finally:
        patches.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = []
    for _, output, ops in passes:
        problems += workloads.check_pass(workload, panel, output, ops)
    ops = recorder.ops
    for op in ops:
        problems += [f"{op.kind}: {p}" for p in op.problems]
        if op.error:
            print(f"# {op.kind} raised {op.error}", file=sys.stderr)
    for message in problems:
        print(f"# check failed: {message}", file=sys.stderr)

    # The slowest of the first `measured` passes, and their lowest GA
    # rate. On a shared 2-vCPU machine the speed drifts by up to 40% with
    # the neighbours' load, and the slowest of a few passes repeated a
    # little better than their mean or their fastest (bench/README.md).
    # The passes and their seeds are the same in every run of a
    # workload, however fast it is; later passes are checked but not
    # timed.
    run_s = max(p[0] for p in passes[:measured])
    rates = []
    for _, _, pass_ops in passes[:measured]:
        solves = [op for op in pass_ops if op.kind == "solve"]
        ga_seconds = sum(op.seconds for op in solves)
        if ga_seconds > 0.0:
            rates.append(sum(workloads.evals_of(op) for op in solves
                             if op.error is None) / ga_seconds)
    solved = [op for op in ops if op.kind == "solve" and op.error is None]
    evals = sum(workloads.evals_of(op) for op in solved)
    best = [op.result.evaluation for op in solved]
    print(f"# {workload} seed {seed}: {len(passes)} passes, "
          f"pass seconds {[round(p[0], 3) for p in passes]}, "
          f"feasible best in {sum(map(layers.feasible, best))} of {len(best)} solves",
          file=sys.stderr)

    if trace:
        summary = tracer.summary()
        coverage = tracer.top_level_seconds() / sum(p[0] for p in passes)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(str(OUT_DIR / f"trace-{workload}-seed{seed}.json"))
        print("info " + json.dumps({"run_s": run_s, "passes": len(passes),
                                    "top_level_coverage": coverage}))
        metrics = layers.per_layer_metrics(summary, counters, evals, best)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "ga_evals_per_s": {"value": min(rates, default=0.0), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return {
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": metrics,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("frontier", "recourse", "stability"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.probe:
        probe(args.workload)
        return
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
