"""Tests of the benchmark itself: inputs, reference table and tracer.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import calibrate  # noqa: E402
import rghw.verify  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from rghw.closed_forms import detect_family, evaluate_closed_form  # noqa: E402
from rghw.codes import build_code  # noqa: E402
from rghw.linalg import TableOps  # noqa: E402
from rghw.subspaces import gaussian_binomial  # noqa: E402
from rghw.weights import compute_report  # noqa: E402


def test_grid_is_36_specs_in_a_seeded_order():
    first = workloads.grid_specs(7)
    assert first == workloads.grid_specs(7)
    assert len(first) == 36
    assert len(workloads.small_grid()) == 34
    assert set(workloads.MID_SPECS) <= set(first)
    assert all(q ** (k1 + k2) <= 81 for q, k1, k2, _, _ in workloads.small_grid())
    assert sorted(workloads.grid_specs(8)) == sorted(first)


def test_reference_covers_every_cell_and_matches_closed_forms():
    cells = workloads.load_reference()["cells"]
    covered = 0
    for params in set(workloads.LADDER) | set(workloads.grid_specs(0)):
        for j in range(1, params[1] + 1):
            m, n_j = cells[(params, j)]
            if detect_family(*params) is not None:
                assert evaluate_closed_form(*params, j) == (n_j, m)
                covered += 1
    assert covered > 0


def test_reference_ladder_values():
    cells = workloads.load_reference()["cells"]
    got = {p: [cells[(p, j)][0] for j in range(1, p[1] + 1)] for p in workloads.LADDER}
    assert got == {
        (2, 3, 4, 1, 1): [52, 78, 91],
        (4, 2, 3, 1, 3): [78, 98],
        (5, 2, 3, 1, 4): [595, 714],
        (2, 3, 5, 1, 1): [108, 162, 189],
    }


@pytest.mark.parametrize("route,dim", [("bruteforce", lambda K, j: j),
                                       ("dual_count", lambda K, j: K - j)])
def test_enumerated_count_is_the_gaussian_binomial(route, dim):
    spec = build_code(2, 3, 4, 1, 1)
    j = 2
    with tracing.Tracer() as tracer:
        compute_report(spec, j, routes=(route,), workers=1)
    K = spec.ambient_dim
    assert tracer.calls("subspaces.enumerate") == gaussian_binomial(K, dim(K, j), spec.q)


def _patchable_state():
    state = {}
    for module in tracing._rghw_modules():
        for key, value in vars(module).items():
            state[(module.__name__, key)] = value
    for key in tracing.LINALG_METHODS:
        state[("TableOps", key)] = TableOps.__dict__[key]
    for key, value in rghw.verify.SUITES.items():
        state[("SUITES", key)] = value
    return state


def test_traced_run_restores_every_attribute():
    before = _patchable_state()
    reference = workloads.load_reference()
    for name in ("cli_tables", "verify"):
        workload = workloads.WORKLOADS[name](3, reference)
        workload.setup()
        with tracing.Tracer() as tracer:
            assert len(tracer.patches) > 20
            assert rghw.verify.SUITES["gf"] is not before[("SUITES", "gf")]
            op = workload.run_pass()[0]
        assert op.error is None and workload.check(op) == []
    after = _patchable_state()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracing._ACTIVE_PATCHES == []


def test_local_factors_widen_short_windows():
    n = calibrate.MIN_UNITS
    # three windows of n/2 units each, one unit costing 2 * NOMINAL_UNIT_S
    windows = [((i * n * calibrate.NOMINAL_UNIT_S, i * n // 2),
                ((i + 1) * n * calibrate.NOMINAL_UNIT_S, (i + 1) * n // 2))
               for i in range(3)]
    assert calibrate.local_factors(windows, 9.0) == pytest.approx([0.5] * 3)
    assert calibrate.local_factors(windows[:1], 9.0) == [9.0]


def test_calibrator_pins_measures_and_stops():
    cpus = os.sched_getaffinity(0)
    with calibrate.Calibrator() as calibrator:
        assert os.sched_getaffinity(0) == {calibrator.cpu}
        pid = calibrator.pid
        assert calibrator.factor(calibrator.mark()) > 0
    assert os.sched_getaffinity(0) == cpus
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
