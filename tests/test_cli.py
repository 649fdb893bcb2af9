"""Command-line interface: formats, exit codes, determinism."""

import ast
import csv
import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rghw
import rghw.cli
from rghw.cli import main
from rghw import errors, gf, verify, weights
from rghw.codes import build_code
from rghw.errors import (CapExceeded, HypothesisViolated, InvariantViolated, NonPrime,
                         PrecisionFailure, RangeError)

SRC = Path(rghw.__file__).resolve().parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TABLE_ARGS = ("table", "--q", "2", "--k1", "2", "--k2", "3", "--workers", "1")


def test_table_pretty(capsys):
    code, out, err = run_cli(capsys, *TABLE_ARGS)
    assert code == 0 and err == ""
    assert "j=1" in out and "M=10" in out and "M=15" in out and "DISAGREE" not in out


def test_table_json_document(capsys):
    code, out, _ = run_cli(capsys, *TABLE_ARGS, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["spec"] == {
        "q": 2, "k1": 2, "k2": 3, "e1": 1, "e2": 1, "n1": 3, "n2": 7, "n": 21,
    }
    ms = [row["routes"]["bruteforce"]["m"] for row in doc["results"]]
    assert ms == [10, 15]
    assert all(row["agree"] for row in doc["results"])
    assert all("millis" not in row for row in doc["results"])


def test_table_without_workers_starts_no_pool(capsys, monkeypatch, recording_pool):
    # three CPUs, so a default of the CPU count would construct a pool
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    code, out, _ = run_cli(capsys, "table", "--q", "2", "--k1", "3", "--k2", "2",
                           "--format", "json")
    assert code == 0 and all(row["agree"] for row in json.loads(out)["results"])
    assert recording_pool == []


def test_table_timings_flag(capsys):
    code, out, _ = run_cli(capsys, *TABLE_ARGS, "--format", "json", "--timings")
    doc = json.loads(out)
    assert all("millis" in row for row in doc["results"])


def test_table_timings_in_csv_and_pretty(capsys):
    """--timings adds a trailing millis column to csv and each route's ms
    to pretty; the other fields are those of the output without it."""
    _, plain, _ = run_cli(capsys, *TABLE_ARGS, "--format", "csv")
    _, timed, _ = run_cli(capsys, *TABLE_ARGS, "--format", "csv", "--timings")
    plain_rows = list(csv.reader(io.StringIO(plain)))
    timed_rows = list(csv.reader(io.StringIO(timed)))
    assert timed_rows[0] == plain_rows[0] + ["millis"]
    assert [row[:-1] for row in timed_rows] == plain_rows
    assert all(float(row[-1]) >= 0 for row in timed_rows[1:])
    _, plain, _ = run_cli(capsys, *TABLE_ARGS, "--format", "pretty")
    _, timed, _ = run_cli(capsys, *TABLE_ARGS, "--format", "pretty", "--timings")
    lines = timed.splitlines()
    assert len(lines) == len(plain.splitlines()) and lines[0] == plain.splitlines()[0]
    for line, want in zip(lines[1:], plain.splitlines()[1:]):
        # each route's fields, then its time in ms
        assert re.sub(r" \([0-9.]+ ms\)", "", line) == want
        assert line.count(" ms)") == want.count("M=")


def test_csv_and_json_carry_identical_numbers(capsys):
    _, out_json, _ = run_cli(capsys, *TABLE_ARGS, "--format", "json")
    _, out_csv, _ = run_cli(capsys, *TABLE_ARGS, "--format", "csv")
    doc = json.loads(out_json)
    rows = list(csv.DictReader(io.StringIO(out_csv)))
    flat = {
        (int(r["j"]), r["route"]): (
            int(r["m"]),
            int(r["n_j"]) if r["n_j"] else None,
            r["agree"] == "True",
        )
        for r in rows
    }
    for result in doc["results"]:
        for route, payload in result["routes"].items():
            m, n_j, agree = flat[(result["j"], route)]
            assert m == payload["m"]
            assert n_j == payload.get("n_j")
            assert agree == result["agree"]
    spec_row = rows[0]
    for key, value in doc["spec"].items():
        assert int(spec_row[key]) == value


def test_output_byte_stable(capsys):
    _, first, _ = run_cli(capsys, *TABLE_ARGS, "--format", "json")
    _, second, _ = run_cli(capsys, *TABLE_ARGS, "--format", "json")
    assert first == second
    _, v1, _ = run_cli(capsys, "verify", "--suite", "charsum", "--samples", "5",
                       "--seed", "3", "--format", "json", "--workers", "1")
    _, v2, _ = run_cli(capsys, "verify", "--suite", "charsum", "--samples", "5",
                       "--seed", "3", "--format", "json", "--workers", "1")
    assert v1 == v2


# SHA-256 of the full stdout of each command line; the renderers must keep
# every byte.
PINNED_STDOUT = {
    (*TABLE_ARGS, "--format", "json"):
        "7efb20ee0e35728cd8c059243ed8c7785faf98c99aaee2e970589e5db5794f96",
    (*TABLE_ARGS, "--format", "csv"):
        "52366c8e8ca3f0338cc15c52ad0f28460008bacb07122e1feb5fb610dd2511ca",
    (*TABLE_ARGS, "--format", "pretty"):
        "590211fdc1987b30318139651043251797c372408e201baf7dce85ec16780166",
    ("gauss", "--size", "9", "--format", "json"):
        "455639718a35a3a3f361ab242db7ee443a2b618c9cf873c3a932302e944c9860",
    ("gauss", "--size", "9", "--format", "csv"):
        "7caa274c8041b83cdce96e4fbdd61245615b26fc6406adea784fb3db3d81af2c",
    ("gauss", "--size", "9", "--format", "pretty"):
        "d82303974dbee4c685f7de56840782247865776fea03c9cdfa412676f7b9cf11",
    ("verify", "--suite", "gf", "--seed", "0", "--workers", "1", "--format", "json"):
        "650e824d62cf3eefaf54fad87b958464e410231a6011f5090600aaa86503a77f",
    ("verify", "--suite", "gf", "--seed", "0", "--workers", "1", "--format", "pretty"):
        "2ecf4ce2d89065a960c09cb4d329bb4828f079c9663ab026b55120ec2e2f5055",
}


@pytest.mark.parametrize("argv", list(PINNED_STDOUT), ids=" ".join)
def test_pinned_stdout_bytes(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[argv]


# SHA-256 of the stdout of a full verify run: it pins every suite's check
# count, failure list and max_residual bits.
VERIFY_STDOUT = "154733a2bae683abbd1feed5106c0a24e6e77275ec6b9e253fb9e203cad19b56"


def test_pinned_verify_stdout_bytes(capsys):
    code, out, err = run_cli(capsys, "verify", "--seed", "7", "--samples", "300",
                             "--format", "json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_STDOUT


def test_bad_index_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "table", "--q", "3", "--k1", "2", "--k2", "3", "--e2", "5",
        "--workers", "1",
    )
    assert code == 2
    payload = json.loads(err)
    assert payload["error"]["code"] == "BadIndex"


def test_cap_exits_3(capsys):
    code, _, err = run_cli(capsys, *TABLE_ARGS, "--cap", "5")
    assert code == 3
    assert json.loads(err)["error"]["code"] == "CapExceeded"


@pytest.mark.parametrize("command", ["table", "bench"])
def test_a_refusal_at_any_j_comes_before_the_first_scan(capsys, monkeypatch, command):
    """(2,6,7,1,1) passes j = 1..3 and exceeds the subspace cap at j = 4:
    the command exits 3 without scanning j = 1."""
    def no_scan(*args):
        raise AssertionError("a scan ran before the refusal")

    monkeypatch.setattr(rghw.weights, "_run_scan", no_scan)
    code, out, err = run_cli(capsys, command, "--q", "2", "--k1", "6", "--k2", "7",
                             "--workers", "1")
    assert (code, out) == (3, "")
    message = json.loads(err)["error"]["message"]
    assert message.startswith("650117120 admissible subspaces of dimension 4 ")


def test_samples_beyond_the_cap_run_no_suite(capsys, monkeypatch):
    calls = []
    for name in list(rghw.verify.SUITES):
        monkeypatch.setitem(rghw.verify.SUITES, name,
                            lambda *args, name=name, **kwargs: calls.append(name))
    code, out, err = run_cli(capsys, "verify", "--samples", "1" + "0" * 12, "--workers", "1")
    assert (code, json.loads(err)["error"]["code"]) == (3, "CapExceeded")
    assert out == "" and calls == []


def test_j_selection_and_validation(capsys):
    code, out, _ = run_cli(capsys, *TABLE_ARGS, "--j", "2", "--format", "json")
    doc = json.loads(out)
    assert [r["j"] for r in doc["results"]] == [2]
    code2, _, err = run_cli(capsys, *TABLE_ARGS, "--j", "9")
    assert code2 == 2 and json.loads(err)["error"]["code"] == "RangeError"


def test_explicit_closed_form_on_foreign_spec_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "table", "--q", "3", "--k1", "2", "--k2", "2", "--e2", "2",
        "--routes", "closed_form", "--workers", "1",
    )
    assert code == 2
    assert json.loads(err)["error"]["code"] == "HypothesisViolated"


@pytest.mark.parametrize("routes", ["bruteforce,closed_form", "closed_form,bruteforce"])
def test_closed_form_refusal_comes_before_any_scan_in_either_order(capsys, routes):
    # the cap of 1 would refuse the bruteforce scan with exit 3
    code, _, err = run_cli(
        capsys, "table", "--q", "3", "--k1", "2", "--k2", "1", "--e1", "2",
        "--cap", "1", "--routes", routes, "--workers", "1",
    )
    assert code == 2
    assert json.loads(err)["error"]["code"] == "HypothesisViolated"


@pytest.mark.parametrize("command", ["table", "bench"])
def test_closed_form_refusal_comes_before_the_code_is_built(capsys, monkeypatch, command):
    """A named closed form is refused on the parameters alone: building
    GF(2^18) and GF(2^19) would take seconds."""
    def no_build(*args):
        raise AssertionError("the code was built before the refusal")

    monkeypatch.setattr(rghw.cli, "build_code", no_build)
    code, out, err = run_cli(
        capsys, command, "--q", "2", "--k1", "18", "--k2", "19", "--e1", "3",
        "--routes", "closed_form", "--j", "1", "--workers", "1",
    )
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["code"] == "HypothesisViolated"


def test_bench_refuses_a_closed_form_that_does_not_apply(capsys):
    # bench follows the rule of table: a named route runs or the run exits 2
    code, out, err = run_cli(
        capsys, "bench", "--q", "3", "--k1", "2", "--k2", "2", "--e2", "2",
        "--routes", "closed_form", "--workers", "1",
    )
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["code"] == "HypothesisViolated"


def test_bench_rows_follow_the_routes_that_apply(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--q", "3", "--k1", "2", "--k2", "2", "--e2", "2",
        "--repeat", "2", "--format", "json", "--workers", "1",
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(r["j"], r["route"], r["m"]) for r in rows] == [
        (1, "bruteforce", 4), (1, "dual_count", 4), (2, "bruteforce", 6), (2, "dual_count", 6)]


def test_routes_subset(capsys):
    code, out, _ = run_cli(
        capsys, *TABLE_ARGS, "--routes", "dual_count", "--format", "json"
    )
    doc = json.loads(out)
    assert code == 0
    for row in doc["results"]:
        assert set(row["routes"]) == {"dual_count"}


# SHA-256 of the int16 bytes of the two n-row tables of (2, 2, 3, 1, 1), as
# CodeSpec built them eagerly
PINNED_N_ROW_TABLES = {
    "coordinate_functionals": "c396d2465d10b18c532bdb5cc5dfea0aed3ea6e3e2d545d72ef6bf16d5aab924",
    "group_vectors": "226df4cd1a62609529b826fe6a74ec5e7f24544989d2551f33e48537862f23cd",
}


def test_a_closed_form_table_builds_neither_n_row_table(capsys, monkeypatch):
    """Each n-row table is built on first read, and a closed-form table reads
    neither, so it allocates nothing that grows with n."""
    specs = []

    def recording(*params):
        specs.append(build_code(*params))
        return specs[-1]

    monkeypatch.setattr(rghw.cli, "build_code", recording)
    code, out, _ = run_cli(capsys, *TABLE_ARGS, "--routes", "closed_form")
    assert code == 0 and "closed_form: M=10" in out and len(specs) == 1
    spec = specs[0]
    assert not PINNED_N_ROW_TABLES.keys() & vars(spec).keys()
    for name, digest in PINNED_N_ROW_TABLES.items():
        table = getattr(spec, name)
        assert table.dtype == np.int16 and table.shape == (spec.n, spec.ambient_dim)
        assert hashlib.sha256(table.tobytes()).hexdigest() == digest, name


def test_gauss_gf5(capsys):
    code, out, _ = run_cli(capsys, "gauss", "--size", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 4
    nontrivial = [r for r in doc["rows"] if r["lam"] != 0]
    assert all(abs(r["modulus"] - 5**0.5) < 1e-9 for r in nontrivial)


def test_gauss_gf2_single_trivial_character(capsys):
    code, out, _ = run_cli(
        capsys, "gauss", "--size", "2", "--beta", "0", "--format", "json"
    )
    doc = json.loads(out)
    assert len(doc["rows"]) == 1
    assert doc["rows"][0]["re"] == 1.0 and doc["rows"][0]["im"] == 0.0


def test_gauss_gf9_trivial_at_zero(capsys):
    code, out, _ = run_cli(
        capsys, "gauss", "--size", "9", "--lam", "0", "--beta", "0",
        "--format", "json",
    )
    doc = json.loads(out)
    assert doc["rows"] == [
        {"lam": 0, "beta": 0, "re": 8.0, "im": 0.0, "modulus": 8.0}
    ]


def test_bruteforce_cap_counts_the_smaller_scan(capsys):
    # at j = k1 the full scan (9 subspaces) is smaller than the anchored one (12)
    code, out, err = run_cli(
        capsys, "table", "--q", "3", "--k1", "2", "--k2", "1", "--e1", "2", "--e2", "1",
        "--routes", "bruteforce", "--cap", "10", "--workers", "1", "--format", "json",
    )
    assert (code, err) == (0, "")
    assert [row["routes"]["bruteforce"]["m"] for row in json.loads(out)["results"]] == [2, 3]


def test_gauss_one_character_of_a_field_beyond_the_cap(capsys):
    # --lam all over GF(10007) is refused (see BAD_INPUTS); one character is not
    code, out, err = run_cli(capsys, "gauss", "--size", "10007", "--lam", "5",
                             "--format", "json")
    assert (code, err) == (0, "")
    rows = json.loads(out)["rows"]
    assert [r["lam"] for r in rows] == [5]
    assert abs(rows[0]["modulus"] - 10007**0.5) < 1e-9


def test_gauss_rejects_non_prime_power(capsys):
    code, _, err = run_cli(capsys, "gauss", "--size", "12")
    assert code == 2
    assert json.loads(err)["error"]["code"] == "NonPrime"


def test_gauss_refuses_before_building_the_field(capsys, monkeypatch):
    # an empty field cache for this test, and no field can be built: the
    # size cap, the prime-power test and the term cap all come first
    monkeypatch.setattr(gf, "_field", functools.cache(gf._field.__wrapped__))

    def no_field(p, m):
        raise AssertionError(f"GF({p}^{m}) built before a refusal")

    monkeypatch.setattr(gf, "_construct", no_field)
    for argv, want in ((("--size", "1048576"), (3, "CapExceeded")),
                       (("--size", "524288", "--lam", "all"), (3, "CapExceeded")),
                       (("--size", "1000000"), (2, "NonPrime"))):
        code, _, err = run_cli(capsys, "gauss", *argv)
        assert (code, json.loads(err)["error"]["code"]) == want, argv


def test_exit_codes_live_on_the_error_classes():
    # README's exit codes: 1 a failed internal cross-check, 3 a cap
    # exceeded, 2 every other error (bad input)
    want = {"InvariantViolated": 1, "PrecisionFailure": 1,
            "CapExceeded": 3, "SizeCapExceeded": 3}
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.RghwError)]
    assert len(classes) == 20
    for cls in classes:
        assert cls.exit_code == want.get(cls.__name__, 2), cls


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "gauss", "--workers", "1"
    )
    assert code == 0
    assert "gauss: PASS" in out and "all suites passed" in out


def test_bench_runs(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--q", "2", "--k1", "2", "--k2", "3", "--j", "1",
        "--routes", "closed_form", "--repeat", "2", "--format", "json",
        "--workers", "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0]["m"] == 10 and doc["rows"][0]["best_ms"] >= 0


BENCH_ARGS = ("bench", "--q", "2", "--k1", "2", "--k2", "3", "--workers", "1")
BENCH_ROW = re.compile(r"j=(\d+) (\S+) +M=(\d+) +best=\d+\.\dms mean=\d+\.\dms")


def _bench_rows(capsys):
    """(j, route, m) of each row of the bench of BENCH_ARGS, from its JSON."""
    code, out, _ = run_cli(capsys, *BENCH_ARGS, "--format", "json")
    assert code == 0
    return [(r["j"], r["route"], r["m"]) for r in json.loads(out)["rows"]]


def test_bench_csv_has_one_row_per_j_and_route(capsys):
    # timings vary, so the shape is checked and the numbers other than
    # the timings against the JSON document
    want = _bench_rows(capsys)
    assert len(want) == 6  # j = 1, 2 by the three routes of a structural spec
    code, out, err = run_cli(capsys, *BENCH_ARGS, "--format", "csv")
    assert (code, err) == (0, "")
    header, *rows = list(csv.reader(io.StringIO(out)))
    assert header == ["j", "route", "m", "best_ms", "mean_ms"]
    assert [(int(j), route, int(m)) for j, route, m, _, _ in rows] == want
    for *_, best, mean in rows:
        assert 0 <= float(best) <= float(mean)


def test_bench_pretty_has_a_header_and_one_line_per_row(capsys):
    want = _bench_rows(capsys)
    code, out, err = run_cli(capsys, *BENCH_ARGS, "--format", "pretty")
    assert (code, err) == (0, "")
    head, *lines = out.splitlines()
    assert head == f"bench {build_code(2, 2, 3, 1, 1)!r} repeat=3"
    rows = [BENCH_ROW.fullmatch(line) for line in lines]
    assert all(rows), lines
    assert [(int(r[1]), r[2], int(r[3])) for r in rows] == want


def test_a_repeat_below_one_is_refused_by_the_floor_table(capsys):
    code, out, err = run_cli(capsys, *BENCH_ARGS, "--repeat", "0")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {"code": "RangeError",
                                        "message": "repeat=0 must be >= 1"}


def test_verify_pretty_lists_the_first_five_failures(capsys, monkeypatch):
    failing = verify.SuiteResult("gf", checks=7, failures=[f"broken {i}" for i in range(7)])
    monkeypatch.setitem(verify.SUITES, "gf", lambda: failing)
    code, out, err = run_cli(capsys, "verify", "--suite", "gf", "--format", "pretty",
                             "--workers", "1")
    assert (code, err) == (1, "")
    assert out.splitlines() == ["gf: FAIL (7 checks)",
                                *(f"    broken {i}" for i in range(5)),
                                "FAILURES present"]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, out, _ = run_cli(capsys, *TABLE_ARGS, "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["spec"]["n"] == 21


def test_invariant_violation_exits_1(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise InvariantViolated("two counts differ")

    monkeypatch.setattr(rghw.cli, "run_report", broken)
    code, _, err = run_cli(capsys, *TABLE_ARGS)
    assert code == 1
    assert json.loads(err)["error"]["code"] == "InvariantViolated"


def test_table_under_optimize_flag():
    # python -O strips assert statements: the package must carry none, and
    # a table computed without them must still be right
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    child = subprocess.run(
        [sys.executable, "-O", "-m", "rghw.cli", *TABLE_ARGS, "--format", "json"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    doc = json.loads(child.stdout)
    got = [(r["j"], {name: p["m"] for name, p in r["routes"].items()}, r["agree"])
           for r in doc["results"]]
    both = {"bruteforce": 10, "dual_count": 10, "closed_form": 10}
    assert got == [(1, both, True), (2, {k: 15 for k in both}, True)]
    assert [r["routes"]["dual_count"]["n_j"] for r in doc["results"]] == [11, 6]


def test_verify_under_optimize_flag_prints_the_same_bytes():
    # no cross-check of the verify suites may ride on an assert statement
    argv = ["-m", "rghw.cli", "verify", "--seed", "7", "--samples", "300", "--format", "json"]
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    plain, optimized = (subprocess.run([sys.executable, *flags, *argv], env=env,
                                       capture_output=True, timeout=120)
                        for flags in ((), ("-O",)))
    assert (plain.returncode, plain.stderr) == (0, b"")
    assert (optimized.returncode, optimized.stderr) == (0, b"")
    assert optimized.stdout == plain.stdout
    assert hashlib.sha256(plain.stdout).hexdigest() == VERIFY_STDOUT


MISSING_DIR = Path(__file__).resolve().with_name("no-such-directory")
SPEC_ARGS = ("--q", "2", "--k1", "2", "--k2", "3")

# name, argv (run with --workers 1 where the subcommand takes it), exit
# code, JSON error code
BAD_INPUTS = [
    ("j-not-an-integer", ("table", *SPEC_ARGS, "--j", "x"), 2, "RangeError"),
    ("j-empty-range", ("table", *SPEC_ARGS, "--j", "3:1"), 2, "RangeError"),
    ("j-open-range", ("table", *SPEC_ARGS, "--j", "1:"), 2, "RangeError"),
    ("j-range-beyond-k1", ("table", *SPEC_ARGS, "--j", "1:" + "9" * 20), 2, "RangeError"),
    ("k1-zero", ("table", "--q", "2", "--k1", "0", "--k2", "3"), 2, "RangeError"),
    ("k2-zero", ("table", "--q", "2", "--k1", "2", "--k2", "0"), 2, "RangeError"),
    ("e1-zero", ("table", *SPEC_ARGS, "--e1", "0"), 2, "RangeError"),
    ("e2-negative", ("table", *SPEC_ARGS, "--e2", "-7"), 2, "RangeError"),
    ("cap-negative", ("table", *SPEC_ARGS, "--cap", "-1"), 2, "RangeError"),
    ("samples-zero", ("verify", "--samples", "0"), 2, "RangeError"),
    ("samples-negative", ("verify", "--samples", "-1"), 2, "RangeError"),
    ("seed-negative", ("verify", "--seed", "-1"), 2, "RangeError"),
    ("suite-unknown", ("verify", "--suite", "nope"), 2, "RangeError"),
    ("suite-repeated", ("verify", "--suite", "gf", "--suite", "gf"), 2, "RangeError"),
    # a command line cannot pass an empty suite list: an empty name is the nearest
    ("suite-empty", ("verify", "--suite", ""), 2, "RangeError"),
    ("repeat-zero", ("bench", *SPEC_ARGS, "--repeat", "0"), 2, "RangeError"),
    ("routes-empty", ("table", *SPEC_ARGS, "--routes", ","), 2, "RangeError"),
    ("routes-repeated-table", ("table", *SPEC_ARGS, "--routes", "bruteforce,bruteforce"), 2,
     "RangeError"),
    ("routes-repeated-bench", ("bench", *SPEC_ARGS, "--routes", "dual_count,dual_count"), 2,
     "RangeError"),
    ("workers-zero", ("table", *SPEC_ARGS, "--workers", "0"), 2, "RangeError"),
    ("workers-negative", ("verify", "--workers", "-5"), 2, "RangeError"),
    ("lam-not-an-integer", ("gauss", "--size", "5", "--lam", "x"), 2, "RangeError"),
    ("beta-outside-field", ("gauss", "--size", "9", "--beta", "9"), 2, "RangeError"),
    ("out-in-missing-directory",
     ("table", *SPEC_ARGS, "--out", str(MISSING_DIR / "table.json")), 2, "OutputError"),
    ("k1-huge", ("table", "--q", "3", "--k1", "10000000", "--k2", "1"), 3, "SizeCapExceeded"),
    # the size refusal comes first: the closed-form test would power 3^(10^7)
    ("k1-huge-closed-form", ("table", "--q", "3", "--k1", "10000000", "--k2", "1",
                             "--e2", "2", "--routes", "closed_form"), 3, "SizeCapExceeded"),
    # a named closed form on parameters build_code refuses gets its error
    ("closed-form-beyond-size-cap", ("table", "--q", "3", "--k1", "13", "--k2", "2",
                                     "--e2", "2", "--routes", "closed_form"), 3,
     "SizeCapExceeded"),
    # refused before GF(2^19) is built
    ("q-prime-power-beyond-table-ops",
     ("table", "--q", "524288", "--k1", "1", "--k2", "1", "--e2", "3"), 3, "SizeCapExceeded"),
    ("q-beyond-table-ops",
     ("table", "--q", "4099", "--k1", "1", "--k2", "1", "--e2", "2"), 3, "SizeCapExceeded"),
    ("q-beyond-int16",
     ("table", "--q", "32771", "--k1", "1", "--k2", "1", "--e2", "2"), 3, "SizeCapExceeded"),
    ("size-prime-beyond-cap", ("gauss", "--size", "10000000000037"), 3, "SizeCapExceeded"),
    ("size-composite-beyond-cap", ("gauss", "--size", "10000000000000"), 3, "SizeCapExceeded"),
    ("gauss-all-beyond-cap", ("gauss", "--size", "10007"), 3, "CapExceeded"),
    ("samples-beyond-cap", ("verify", "--suite", "charsum", "--samples", "1" + "0" * 12), 3,
     "CapExceeded"),
    ("k1-not-an-integer", ("table", "--q", "2", "--k1", "x", "--k2", "3"), 2, "UsageError"),
    ("k1-missing", ("table", "--q", "2", "--k2", "3"), 2, "UsageError"),
    ("format-unknown", ("table", *SPEC_ARGS, "--format", "xml"), 2, "UsageError"),
    ("subcommand-unknown", ("frobnicate",), 2, "UsageError"),
    ("gauss-takes-no-workers", ("gauss", "--size", "5", "--workers", "1"), 2, "UsageError"),
    ("verify-has-no-csv", ("verify", "--format", "csv"), 2, "UsageError"),
]

WORKER_COMMANDS = {"table", "verify", "bench"}


def _with_workers(argv):
    """One worker for the commands that take --workers, unless the case sets it."""
    if argv[0] in WORKER_COMMANDS and "--workers" not in argv:
        return [*argv, "--workers", "1"]
    return list(argv)


@pytest.mark.parametrize("argv,exit_code,error_code",
                         [case[1:] for case in BAD_INPUTS],
                         ids=[case[0] for case in BAD_INPUTS])
def test_bad_input_exit_codes(capsys, argv, exit_code, error_code):
    code, out, err = run_cli(capsys, *_with_workers(argv))
    assert (code, json.loads(err)["error"]["code"]) == (exit_code, error_code)
    assert out == "" and err.count("\n") == 1


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--help"])
    assert exc.value.code == 0
    assert "--workers" in capsys.readouterr().out


def _precision_failure(*args, **kwargs):
    raise PrecisionFailure("imaginary residue 0.5 exceeds 1e-06")


def test_precision_failure_exits_1(capsys, monkeypatch):
    # a failed internal cross-check, like InvariantViolated
    monkeypatch.setattr(rghw.cli, "run_suites", _precision_failure)
    code, _, err = run_cli(capsys, "verify", "--workers", "1")
    assert code == 1
    assert json.loads(err)["error"]["code"] == "PrecisionFailure"


OPTIMIZED_RUNNER = """
import contextlib, io, json, sys
import rghw.cli
from rghw.errors import PrecisionFailure

def run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = rghw.cli.main(argv)
    return [code, err.getvalue()]

def precision_failure(*args, **kwargs):
    raise PrecisionFailure("imaginary residue 0.5 exceeds 1e-06")

cases = json.loads(sys.argv[1])
results = [run(argv) for argv in cases[:-1]]
rghw.cli.run_suites = precision_failure  # the last case meets a failed check
results.append(run(cases[-1]))
print(json.dumps([sys.flags.optimize, results]))
"""


def test_bad_inputs_under_optimize_flag():
    # the same exit codes with assert statements stripped
    cases = [_with_workers(argv) for _, argv, _, _ in BAD_INPUTS]
    cases.append(["verify", "--workers", "1"])
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    child = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_RUNNER, json.dumps(cases)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0 and "Traceback" not in child.stderr, child.stderr
    optimize, results = json.loads(child.stdout)
    assert optimize == 1
    want = [(code, error) for _, _, code, error in BAD_INPUTS] + [(1, "PrecisionFailure")]
    got = [(code, json.loads(err)["error"]["code"]) for code, err in results]
    assert got == want


def _table(*params, j=1, **kwargs):
    """compute_report of one j of the code of params, with one worker unless set."""
    return weights.compute_report(build_code(*params), j, **{"workers": 1, **kwargs})


def _plan(*params, j=1, **kwargs):
    """plan_report of one j of the code of params, with one worker unless set."""
    return weights.plan_report(build_code(*params), j, **{"workers": 1, **kwargs})


SPEC = (2, 2, 3, 1, 1)
ODD = (3, 2, 2, 1, 2)  # no closed form
ODD_ARGS = ("--q", "3", "--k1", "2", "--k2", "2", "--e2", "2")

# name, argv (run with --workers 1 where the subcommand takes it), the same
# request made of the library entry that owns the rule, and the error both
# raise
PARITY = [
    ("routes-repeated-table", ("table", *SPEC_ARGS, "--routes", "bruteforce,bruteforce"),
     lambda: _table(*SPEC, routes=("bruteforce", "bruteforce")), RangeError),
    ("routes-repeated-bench", ("bench", *SPEC_ARGS, "--routes", "dual_count,dual_count"),
     lambda: _plan(*SPEC, routes=("dual_count", "dual_count")), RangeError),
    ("routes-repeated-closed-form", ("table", *SPEC_ARGS, "--routes", "closed_form,closed_form"),
     lambda: _table(*SPEC, routes=("closed_form", "closed_form")), RangeError),
    ("routes-empty", ("table", *SPEC_ARGS, "--routes", ","),
     lambda: _table(*SPEC, routes=()), RangeError),
    ("routes-unknown", ("bench", *SPEC_ARGS, "--routes", "bruteforce,nope"),
     lambda: _plan(*SPEC, routes=("bruteforce", "nope")), RangeError),
    ("closed-form-foreign", ("table", *ODD_ARGS, "--routes", "bruteforce,closed_form"),
     lambda: _table(*ODD, routes=("bruteforce", "closed_form")), HypothesisViolated),
    ("closed-form-non-prime-power", ("table", "--q", "6", "--k1", "2", "--k2", "3",
                                     "--routes", "closed_form"),
     lambda: weights.check_request(6, 2, 3, 1, 1, ("closed_form",), weights.DEFAULT_ENUM_CAP, 1),
     NonPrime),
    ("cap-negative", ("table", *SPEC_ARGS, "--cap", "-1"),
     lambda: _table(*SPEC, cap=-1), RangeError),
    ("cap-negative-closed-form", ("bench", *SPEC_ARGS, "--cap", "-1", "--routes", "closed_form"),
     lambda: _plan(*SPEC, cap=-1, routes=("closed_form",)), RangeError),
    ("cap-exceeded", ("table", *SPEC_ARGS, "--cap", "1", "--j", "2"),
     lambda: _table(*SPEC, j=2, cap=1), CapExceeded),
    ("workers-zero", ("table", *SPEC_ARGS, "--workers", "0"),
     lambda: _table(*SPEC, workers=0), RangeError),
    ("repeat-zero", ("bench", *SPEC_ARGS, "--repeat", "0"),
     lambda: weights.check_floors(repeat=0), RangeError),
    ("workers-zero-verify", ("verify", "--workers", "0"),
     lambda: verify.run_suites(workers=0), RangeError),
    ("seed-negative", ("verify", "--seed", "-1"),
     lambda: verify.run_suites(seed=-1), RangeError),
    ("samples-zero", ("verify", "--suite", "gf", "--suite", "charsum", "--samples", "0"),
     lambda: verify.run_suites(["gf", "charsum"], samples=0), RangeError),
    ("samples-beyond-cap", ("verify", "--samples", "1" + "0" * 12),
     lambda: verify.run_suites(samples=10**12), CapExceeded),
    ("suite-unknown", ("verify", "--suite", "gf", "--suite", "nope"),
     lambda: verify.run_suites(["gf", "nope"]), RangeError),
    ("suite-repeated", ("verify", "--suite", "gf", "--suite", "gf"),
     lambda: verify.run_suites(["gf", "gf"]), RangeError),
    ("suite-empty", ("verify", "--suite", ""),
     lambda: verify.run_suites([]), RangeError),
]


class _Started(Exception):
    """A scan or a suite was entered although the request is refused."""


@pytest.mark.parametrize("argv,library,error", [case[1:] for case in PARITY],
                         ids=[case[0] for case in PARITY])
def test_the_cli_and_the_library_refuse_alike(capsys, monkeypatch, argv, library, error):
    """The CLI refuses a bad request with the error the library entry that
    owns the rule raises, and neither enters a scan or a suite."""
    started = []

    def record(name):
        def entered(*args, **kwargs):
            started.append(name)
            raise _Started(name)
        return entered

    monkeypatch.setattr(weights, "_run_scan", record("scan"))
    for name in list(verify.SUITES):
        monkeypatch.setitem(verify.SUITES, name, record(name))
    with pytest.raises(error):
        library()
    code, out, err = run_cli(capsys, *_with_workers(argv))
    assert (code, json.loads(err)["error"]["code"]) == (error.exit_code, error.code)
    assert out == "" and started == []
