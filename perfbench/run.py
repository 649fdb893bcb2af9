"""Benchmark entry point for the rghw package.

    python3 perfbench/run.py --workload scan_ladder --seed 1 --seconds 35 --trace 0

Runs one workload from the checkout's src/ (nothing is installed), checks
every output against perfbench/reference.json, and prints as its last line
one JSON object {"correct", "attempted", "failed", "metrics"}.  The line
before it records the environment (Python, numpy, nproc, pool size W), the
sample counts behind each metric, the calibration factors and the figures
before calibration.

The whole run is pinned to one CPU beside a calibration child
(calibrate.py); every CPU time is rescaled by the host speed the child
measured in the same window, and every set-up time by a reference
interpreter started just before it.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the same
untraced passes, then one traced pass, and reports the per-layer metrics
and the tracing overhead; the spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import NOMINAL_START_S, Calibrator, local_factors

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 60

# Each runs in a fresh interpreter and prints the seconds since the parent's
# launch timestamp (CLOCK_MONOTONIC is system-wide on Linux), so interpreter
# teardown is not counted.  SETUP_CHILD imports the package and builds every
# CodeSpec the workload uses with cold field caches; REFERENCE_CHILD only
# imports numpy, and calibrates the set-up (see calibrate.NOMINAL_START_S).
SETUP_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[2])
import rghw.cli
from rghw.codes import build_code
for params in json.loads(sys.argv[3]):
    build_code(*params)
print(time.monotonic() - float(sys.argv[1]))
"""
REFERENCE_CHILD = """
import sys, time
import numpy
print(time.monotonic() - float(sys.argv[1]))
"""


def time_child(code: str, *args: str) -> float:
    child = subprocess.run(
        [sys.executable, "-c", code, repr(time.monotonic()), *args],
        cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S, stdout=subprocess.PIPE, text=True,
    )
    return float(child.stdout.split()[-1])


def measure_setup(specs: list) -> tuple[list[float], list[float]]:
    """Seconds of SETUP_REPEATS fresh interpreters doing the set-up, each
    right after a reference interpreter, and the seconds of those."""
    setup, reference = [], []
    for _ in range(SETUP_REPEATS):
        reference.append(time_child(REFERENCE_CHILD))
        setup.append(time_child(SETUP_CHILD, str(SRC), json.dumps(specs)))
    return setup, reference


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile: the same for one pass as for several of
    the same operations, so the number of passes in a run does not move it."""
    return sorted(values)[math.ceil(pct / 100 * len(values)) - 1]


def peak_rss_mib() -> float:
    """Largest RSS of this process or any child it waited for (ru_maxrss, KiB)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def calibrated_pass(workload, calibrator) -> tuple[list, float]:
    """One pass and the calibration factor of the window it ran in."""
    mark = calibrator.mark()
    ops = workload.run_pass()
    return ops, calibrator.factor(mark)


def run_passes(workload, calibrator, seconds: float) -> list[tuple[list, float]]:
    """Closed-loop passes until the next one would overrun the wall budget."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(calibrated_pass(workload, calibrator))
        elapsed = time.perf_counter() - t0
        if (len(passes) >= workload.min_passes
                and elapsed + elapsed / len(passes) > seconds):
            return passes


def layer_metrics(tracer, traced_cpu: float, untraced_cpu: float, factor: float) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}; times
    are rescaled by the pass's calibration factor."""
    import rghw.verify
    from tracing import SCAN_ROUTES

    out = {}
    for name in ("gf.build_field", "codes.build_code", "linalg.rref",
                 "linalg.matmul", "linalg.rows_in_rowspace",
                 "charsum.nj_via_charsum", "charsum.gauss_sum"):
        out[f"{name}.calls"] = (tracer.calls(name), "count")
        out[f"{name}.s"] = (tracer.seconds(name), "s")
    enumerated = tracer.calls("subspaces.enumerate")
    scanned = tracer.calls("subspaces.enumerate", SCAN_ROUTES)
    # evaluated = passed the admissibility filter: a support count on the
    # bruteforce side, a group-point count on the dual side
    useful = (tracer.calls("weights.support_size",
                           ("weights.bruteforce", "weights.ghw_bruteforce"))
              + tracer.calls("linalg.rows_in_rowspace", ("weights.dual_count",)))
    out["subspaces.enumerated"] = (enumerated, "count")
    out["subspaces.enumerate.s"] = (tracer.seconds("subspaces.enumerate"), "s")
    out["subspaces.useful_frac"] = (useful / scanned if scanned else 0.0, "ratio")
    out["weights.bruteforce.s"] = (tracer.seconds("weights.bruteforce"), "s")
    out["weights.dual_count.s"] = (tracer.seconds("weights.dual_count"), "s")
    out["weights.pools"] = (tracer.calls("weights.pools"), "count")
    out["weights.tasks"] = (tracer.calls("weights.tasks"), "count")
    out["weights.pool.s"] = (tracer.seconds("weights.pool"), "s")
    for name in ("codes.build_code", "linalg.rows_in_rowspace", "weights.bruteforce",
                 "weights.dual_count", "charsum.nj_via_charsum"):
        out[f"{name}.self_s"] = (tracer.self_seconds(name), "s")
    out["closed_forms.evaluate.s"] = (tracer.seconds("closed_forms.evaluate"), "s")
    for suite in rghw.verify.SUITES:
        out[f"verify.{suite}.s"] = (tracer.seconds(f"verify.{suite}"), "s")
    out["cli.overhead.s"] = (tracer.self_seconds("cli.main"), "s")
    out = {k: (v * factor if u == "s" else v, u) for k, (v, u) in out.items()}
    out["trace.overhead_frac"] = (traced_cpu / untraced_cpu - 1, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rghw" / "__init__.py").is_file():
        print(f"error: no rghw sources under {SRC}", file=sys.stderr)
        return 2
    # The calibration child is forked before numpy or rghw start any thread.
    with Calibrator() as calibrator:
        return run(parser, args, calibrator)


def run(parser, args, calibrator) -> int:
    sys.path.insert(0, str(SRC))
    import numpy
    import rghw
    if Path(rghw.__file__).resolve().parent != SRC / "rghw":
        print(f"error: imported rghw from {rghw.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](
        args.seed, workloads.load_reference(), workloads.cli_workers(calibrator.cpus))
    setup_raw, reference_s = ([], []) if args.trace else measure_setup(workload.setup_specs())
    setup_s = [t * NOMINAL_START_S / r for t, r in zip(setup_raw, reference_s)]
    workload.setup()
    workload.mark = calibrator.mark
    passes = run_passes(workload, calibrator, args.seconds)
    ops = [op for batch, _ in passes for op in batch]
    op_factors = [f for batch, pass_factor in passes
                  for f in local_factors([op.marks for op in batch], pass_factor)]
    pass_cpu = [sum(op.cpu_s for op in batch) * f for batch, f in passes]
    pass_wall = [sum(op.seconds for op in batch) for batch, _ in passes]
    traced_ops = []
    if args.trace:
        mark = calibrator.mark()
        with Tracer() as tracer:
            traced_ops = workload.run_pass()
        traced_factor = calibrator.factor(mark)
        traced_cpu = sum(op.cpu_s for op in traced_ops) * traced_factor

    failures = []
    failed = 0
    for op in ops + traced_ops:
        bad = [f"{op.label}: {op.error}"] if op.error else workload.check(op)
        failed += bool(bad)
        failures += bad
    attempted = len(ops) + len(traced_ops)

    table_cpu_ms = [op.cpu_s * f * 1e3 for op, f in zip(ops, op_factors)]
    table_ms = [op.seconds * 1e3 for op in ops]
    info = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "affinity": len(calibrator.cpus),
        "pinned_cpu": calibrator.cpu, "workers": workload.workers,
        "passes": len(passes),
        "pass_cpu_s": [round(t, 4) for t in pass_cpu],
        "pass_factor": [round(f, 4) for _, f in passes],
        "pass_wall_s": [round(t, 4) for t in pass_wall],
        "tables": len(ops),
        "uncalibrated": {
            "solve_cpu_s": statistics.median(sum(op.cpu_s for op in b) for b, _ in passes),
            "table_cpu_ms.p50": percentile([op.cpu_s * 1e3 for op in ops], 50),
            "table_cpu_ms.p90": percentile([op.cpu_s * 1e3 for op in ops], 90)},
        "wall": {"solve_s": statistics.median(pass_wall),
                 "table_ms.p50": percentile(table_ms, 50),
                 "table_ms.p90": percentile(table_ms, 90)},
        "setup_raw_s": [round(t, 4) for t in setup_raw],
        "setup_reference_s": [round(t, 4) for t in reference_s],
        "failed_frac": failed / attempted, "failures": failures[:10],
        **workload.describe(),
    }
    if args.trace:
        values = layer_metrics(tracer, traced_cpu, statistics.median(pass_cpu), traced_factor)
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        tracer.dump(trace_path, info)
        info["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        values = {
            "setup_s": (statistics.median(setup_s), "s"),
            "solve_cpu_s": (statistics.median(pass_cpu), "s"),
            "table_cpu_ms.p50": (percentile(table_cpu_ms, 50), "ms"),
            "table_cpu_ms.p90": (percentile(table_cpu_ms, 90), "ms"),
            "peak_rss_mb": (peak_rss_mib(), "MiB"),
        }
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
