"""Regenerate perfbench/reference.json from the package in this checkout.

(M_j, N_j) come from closed_forms where detect_family covers the spec, and
otherwise from the bruteforce and dual_count scans, which must agree.  The
verify check counts are those of run_suites at the benchmark's sample count.

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from rghw.closed_forms import detect_family, evaluate_closed_form
    from rghw.codes import build_code
    from rghw.verify import run_suites
    from rghw.weights import mj_dual_count, rghw_bruteforce

    cells = []
    for params in sorted(set(workloads.LADDER) | set(workloads.grid_specs(0))):
        spec = build_code(*params)
        family = detect_family(*params)
        for j in range(1, spec.k1 + 1):
            if family is not None:
                n_j, m = evaluate_closed_form(*params, j)
                source = "closed_form"
            else:
                m = rghw_bruteforce(spec, j)
                dual = mj_dual_count(spec, j)
                if dual.m != m:
                    raise SystemExit(f"{params} j={j}: scans disagree ({m} vs {dual.m})")
                n_j = dual.n_j
                source = "scan_agreement"
            cells.append({"spec": list(params), "j": j, "m": m, "n_j": n_j,
                          "source": source})
    results = run_suites(seed=0, samples=workloads.VERIFY_SAMPLES, workers=1)
    failed = [r.name for r in results if not r.passed]
    if failed:
        raise SystemExit(f"verify suites failed: {failed}")
    checks = {r.name: r.checks for r in results}
    # one cell per line keeps the file diffable
    cell_lines = ",\n".join("  " + json.dumps(c) for c in cells)
    text = (f'{{\n "cells": [\n{cell_lines}\n ],\n'
            f' "verify_samples": {workloads.VERIFY_SAMPLES},\n'
            f' "verify_checks": {json.dumps(checks)}\n}}\n')
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
