"""The benchmark's correctness checks against this package's outputs.

perfbench/workloads.py checks every operation of a benchmark pass: route
values against perfbench/reference.json, and the dual_count argmax, read
back from JSON, through subspace_from_rows and intersect_with_cyclic_group.
Tier-1 does not collect perfbench, so a change to the types those checks
consume would fail only a benchmark run; these tests run the checks here.
"""

import runpy
from pathlib import Path

import pytest

import rghw.verify
from rghw.linalg import TableOps

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    return runpy.run_path(str(PERFBENCH / "workloads.py"))


@pytest.fixture(scope="module")
def tracing():
    return runpy.run_path(str(PERFBENCH / "tracing.py"))


def test_one_scan_ladder_pass_passes_its_checks(workloads):
    ladder = workloads["ScanLadder"](seed=1, reference=workloads["load_reference"]())
    ladder.setup()
    ops = ladder.run_pass()
    assert [op.error for op in ops] == [None] * len(workloads["LADDER"])
    assert {op.label: ladder.check(op) for op in ops} == {op.label: [] for op in ops}
    # the argmax check is live: a basis short of one row meets fewer points
    spec, reports = ops[-1].output
    routes = reports[-1].as_dict()["routes"]
    routes["dual_count"]["argmax"] = routes["dual_count"]["argmax"][1:]
    assert workloads["_check_cell"](ladder.reference, spec, reports[-1].j, routes) == [
        f"{workloads['LADDER'][-1]} j={reports[-1].j}: argmax meets the group in 12 != 28"]


def test_one_cli_table_passes_its_checks(workloads):
    tables = workloads["CliTables"](seed=1, reference=workloads["load_reference"](), workers=1)
    tables.setup()
    params = workloads["MID_SPECS"][1]
    op = workloads["_timed_op"](str(params), lambda: tables._table(params))
    assert op.error is None
    assert tables.check(op) == []


def _patchable_state(tracing):
    """Every attribute the tracer may rebind: the rghw module globals, the
    TableOps methods and the verify suites."""
    state = {(module.__name__, key): value for module in tracing["_rghw_modules"]()
             for key, value in vars(module).items()}
    state.update({("TableOps", key): value for key, value in vars(TableOps).items()})
    state.update({("SUITES", key): value for key, value in rghw.verify.SUITES.items()})
    return state


def test_the_tracer_reaches_the_route_functions(workloads, tracing):
    """The per-layer metrics count the calls of the names the tracer
    rebinds, so compute_report must reach each route through them."""
    ladder = workloads["ScanLadder"](seed=1, reference=workloads["load_reference"](), workers=1)
    ladder.setup()
    before = _patchable_state(tracing)
    with tracing["Tracer"]() as tracer:
        ops = ladder.run_pass()
        rghw.verify.run_suites(["weights", "closed_forms"])
    assert [op.error for op in ops] == [None] * len(ops)
    assert tracer.calls("weights.compute_report") > 0
    assert tracer.calls("weights.ghw_bruteforce") > 0
    for name in ("weights.bruteforce", "weights.dual_count", "closed_forms.evaluate"):
        assert tracer.calls(name, parents={"weights.compute_report"}) > 0, name
    after = _patchable_state(tracing)
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
