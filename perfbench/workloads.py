"""The three benchmark workloads, their inputs and their correctness checks.

Every workload is a closed loop: one client issues the next call only when
the previous one returns.  A pass is one sweep over the workload's
operations; an operation is one table (all j of one code spec) for
scan_ladder and cli_tables, and one run_suites over all seven suites for
verify.  Outputs are kept during a pass and checked after it, so that
checking never runs under the tracer or inside a timed region.

Import this module only after the checkout's src/ is on sys.path.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import resource
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import rghw.cli
import rghw.verify
import rghw.weights
from rghw.codes import build_code
from rghw.errors import RghwError
from rghw.subspaces import gaussian_binomial, intersect_with_cyclic_group, subspace_from_rows

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# scan_ladder: mod-p and GF(4) table paths, a long code (n=744), and the
# ROADMAP reference cell (2,3,5) j=3.
LADDER = ((2, 3, 4, 1, 1), (4, 2, 3, 1, 3), (5, 2, 3, 1, 4), (2, 3, 5, 1, 1))
# cli_tables: the mid-size specs where a process pool pays for itself.
MID_SPECS = ((2, 3, 4, 1, 1), (4, 2, 3, 1, 3))
GRID_LIMIT = 81  # q^(k1+k2) bound of the small grid
VERIFY_SAMPLES = 1000
# cli_tables repeats its list until this many tables lie beyond p90.
TAIL_SAMPLES = 10


def small_grid(limit: int = GRID_LIMIT) -> list[tuple[int, ...]]:
    """Every (q,k1,k2,e1,e2) that build_code accepts with q^(k1+k2) <= limit."""
    out = []
    for q in range(2, math.isqrt(limit) + 1):
        for k1 in range(1, limit.bit_length()):  # 2^k <= limit bounds k
            for k2 in range(1, limit.bit_length()):
                if q ** (k1 + k2) > limit:
                    continue
                for e1 in range(1, q**k1):
                    for e2 in range(1, q**k2):
                        if (q**k1 - 1) % e1 or (q**k2 - 1) % e2:
                            continue
                        try:
                            build_code(q, k1, k2, e1, e2)
                        except RghwError:  # not a prime power, degenerate, ...
                            continue
                        out.append((q, k1, k2, e1, e2))
    return out


def grid_specs(seed: int) -> list[tuple[int, ...]]:
    """The cli_tables list (small grid plus MID_SPECS) in seeded order."""
    specs = small_grid() + list(MID_SPECS)
    random.Random(seed).shuffle(specs)
    return specs


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        document = json.load(fh)
    cells = {(tuple(c["spec"]), c["j"]): (c["m"], c["n_j"]) for c in document["cells"]}
    return {"cells": cells, "verify_checks": document["verify_checks"]}


@dataclass
class Op:
    """One timed operation and whatever it returned (or raised)."""

    label: str
    seconds: float  # wall clock
    cpu_s: float  # CPU of this process and of the children it reaped
    output: Any = None
    error: Optional[str] = None
    # calibration marks (child CPU seconds, units) at the start and the end
    marks: tuple = ((0.0, 0), (0.0, 0))


def cpu_seconds() -> float:
    """User+system CPU of this process plus its reaped children (pool workers)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def no_mark() -> tuple[float, int]:
    return (0.0, 0)


def _timed_op(label: str, fn, mark=no_mark) -> Op:
    m0 = mark()
    c0, t0 = cpu_seconds(), time.perf_counter()
    output, error = None, None
    try:
        output = fn()
    except Exception as exc:  # a failed operation is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    seconds, cpu_s = time.perf_counter() - t0, cpu_seconds() - c0
    return Op(label, seconds, cpu_s, output, error, (m0, mark()))


def _check_cell(ref: dict, spec, j: int, routes: dict) -> list[str]:
    """Route values of one (spec, j) against the reference and each other."""
    params = (spec.q, spec.k1, spec.k2, spec.e1, spec.e2)
    want = ref["cells"].get((params, j))
    if want is None:
        return [f"{params} j={j}: no reference value"]
    m_ref, n_ref = want
    bad = []
    for name, out in routes.items():
        if out["m"] != m_ref:
            bad.append(f"{params} j={j} {name}: M={out['m']} != {m_ref}")
        if out.get("n_j", n_ref) != n_ref:
            bad.append(f"{params} j={j} {name}: N={out['n_j']} != {n_ref}")
    argmax = routes.get("dual_count", {}).get("argmax")
    if argmax is None:
        bad.append(f"{params} j={j}: dual_count argmax missing")
    else:
        basis = subspace_from_rows(spec.q, spec.ambient_dim, argmax, "product")
        got = intersect_with_cyclic_group(basis, spec)
        if got != n_ref:
            bad.append(f"{params} j={j}: argmax meets the group in {got} != {n_ref}")
    return bad


class Workload:
    name = ""
    min_passes = 1

    def __init__(self, seed: int, reference: dict, workers: Optional[int] = None):
        self.seed = seed
        self.reference = reference
        self.workers = workers or cli_workers()
        self.specs: dict = {}
        # Calibrator.mark, read around every operation when set
        self.mark = no_mark

    def setup_specs(self) -> list[tuple[int, ...]]:
        """Every CodeSpec parameter tuple the workload uses."""
        raise NotImplementedError

    def setup(self) -> None:
        self.specs = {p: build_code(*p) for p in self.setup_specs()}

    def run_pass(self) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op) -> list[str]:
        raise NotImplementedError

    def describe(self) -> dict:
        return {}


class ScanLadder(Workload):
    """In-process compute_report, workers=1, all routes, every j."""

    name = "scan_ladder"

    def setup_specs(self):
        return list(LADDER)

    def run_pass(self):
        ops = []
        for params, spec in self.specs.items():
            ops.append(_timed_op(str(params), lambda spec=spec: (spec, [
                rghw.weights.compute_report(spec, j, workers=1)
                for j in range(1, spec.k1 + 1)
            ]), self.mark))
        return ops

    def check(self, op):
        spec, reports = op.output
        if len(reports) != spec.k1:
            return [f"{op.label}: {len(reports)} reports for k1={spec.k1}"]
        bad = []
        for report in reports:
            doc = report.as_dict()
            if not doc["agree"]:
                bad.append(f"{op.label} j={report.j}: routes disagree")
            bad += _check_cell(self.reference, spec, report.j, doc["routes"])
        return bad

    def analytic_enumerated(self) -> int:
        """Subspaces one pass enumerates: [K,j]_q by bruteforce, [K,K-j]_q dually."""
        return sum(
            gaussian_binomial(s.ambient_dim, j, s.q)
            + gaussian_binomial(s.ambient_dim, s.ambient_dim - j, s.q)
            for s in self.specs.values() for j in range(1, s.k1 + 1)
        )

    def describe(self):
        return {"subspaces.enumerated_analytic": self.analytic_enumerated()}


def cli_workers(cpus=None) -> int:
    """W: the pool size of cli_tables, from the CPUs the benchmark was given."""
    return min(2, len(cpus or os.sched_getaffinity(0)))


class CliTables(Workload):
    """In-process `rghw table ... --format json --workers W` over the grid."""

    name = "cli_tables"

    def __init__(self, seed, reference, workers=None):
        super().__init__(seed, reference, workers)
        self.order = grid_specs(seed)
        # enough passes that TAIL_SAMPLES tables lie beyond p90
        self.min_passes = -(-TAIL_SAMPLES * 10 // len(self.order))

    def setup_specs(self):
        return list(self.order)

    def _table(self, params):
        q, k1, k2, e1, e2 = params
        argv = ["table", "--q", str(q), "--k1", str(k1), "--k2", str(k2),
                "--e1", str(e1), "--e2", str(e2), "--format", "json",
                "--workers", str(self.workers)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = rghw.cli.main(argv)
        return params, code, out.getvalue(), err.getvalue()

    def run_pass(self):
        return [_timed_op(str(p), lambda p=p: self._table(p), self.mark)
                for p in self.order]

    def check(self, op):
        params, code, out, err = op.output
        if code != 0:
            return [f"{params}: exit code {code} {err.strip()}"]
        spec = self.specs[params]
        try:
            document = json.loads(out)
        except ValueError as exc:
            return [f"{params}: output is not JSON ({exc})"]
        if document["spec"] != spec.summary():
            return [f"{params}: spec summary {document['spec']} != {spec.summary()}"]
        rows = document["results"]
        if [r["j"] for r in rows] != list(range(1, spec.k1 + 1)):
            return [f"{params}: rows for j={[r['j'] for r in rows]}"]
        bad = []
        for row in rows:
            if not row["agree"]:
                bad.append(f"{params} j={row['j']}: routes disagree")
            bad += _check_cell(self.reference, spec, row["j"], row["routes"])
        return bad

    def describe(self):
        return {"tables_per_pass": len(self.order)}


class Verify(Workload):
    """run_suites over all seven suites, samples=1000, workers=1, seeded."""

    name = "verify"

    def setup_specs(self):
        # DEFAULT_INSTANCES plus the cases of the closed_forms suite
        extra = ((2, 2, 5, 1, 1), (2, 3, 4, 1, 1), (3, 3, 2, 2, 1))
        return list(dict.fromkeys(rghw.verify.DEFAULT_INSTANCES + extra))

    def run_pass(self):
        return [_timed_op("run_suites", lambda: rghw.verify.run_suites(
            seed=self.seed, samples=VERIFY_SAMPLES, workers=1), self.mark)]

    def check(self, op):
        want = self.reference["verify_checks"]
        got = {r.name: r.checks for r in op.output}
        bad = [] if got == want else [f"check counts {got}, reference {want}"]
        for result in op.output:
            bad += [f"{result.name}: {m}" for m in result.failures[:5]]
            if not result.passed and not result.failures:
                bad.append(f"{result.name}: failed")
        return bad


WORKLOADS = {w.name: w for w in (ScanLadder, CliTables, Verify)}
