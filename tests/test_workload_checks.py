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

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    return runpy.run_path(str(WORKLOADS))


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
