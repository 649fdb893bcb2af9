"""The verify suites as run_suites dispatches them."""

import json
from pathlib import Path

import pytest

from rghw.verify import SUITES, SuiteResult, run_suites

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def test_check_counts_match_the_benchmark_reference():
    # the benchmark's verify workload checks these counts too; pinning them
    # here catches a dispatch change that drops or adds checks
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    results = run_suites(seed=0, samples=reference["verify_samples"], workers=1)
    assert {r.name: r.checks for r in results} == reference["verify_checks"]
    assert [r.name for r in results] == list(SUITES)
    assert all(r.passed for r in results), [r.failures[:3] for r in results]


def test_check_residual_keeps_the_largest_residual():
    res = SuiteResult("demo")
    for diff in (1e-12, 3e-10, 2e-11):
        res.check_residual(diff, 1e-9, f"residual {diff}")
    assert (res.checks, res.failures, res.notes) == (3, [], {"max_residual": 3e-10})
    res.check_residual(0.5, 1e-9, "residual 0.5")
    assert (res.checks, res.failures, res.notes) == (4, ["residual 0.5"], {"max_residual": 0.5})


def test_unknown_suite_is_a_key_error():
    with pytest.raises(KeyError):
        run_suites(["nope"])
