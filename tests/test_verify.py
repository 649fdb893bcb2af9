"""The verify suites as run_suites dispatches them."""

import dataclasses
import inspect
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rghw import verify, weights
from rghw.charsum import unit_roots
from rghw.codes import build_code, parity_check_polynomial
from rghw.errors import InvariantViolated, RangeError
from rghw.gf import FieldTable, is_prime
from rghw.subspaces import gaussian_binomial, stack_rows
from rghw.verify import SUITES, SuiteResult, run_suites

from helpers import basis, padded_stack

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
        res.check_residual(diff, 1e-9, lambda: f"residual {diff}")
    assert (res.checks, res.failures, res.notes) == (3, [], {"max_residual": 3e-10})
    res.check_residual(0.5, 1e-9, lambda: "residual 0.5")
    assert (res.checks, res.failures, res.notes) == (4, ["residual 0.5"], {"max_residual": 0.5})


def test_a_failure_message_is_built_only_when_the_check_fails():
    def unbuildable():
        raise AssertionError("a passing check built its message")

    res = SuiteResult("demo")
    res.check(True, unbuildable)
    res.check_residual(1e-12, 1e-9, unbuildable)
    assert (res.checks, res.failures) == (2, [])
    res.check(False, lambda: "failed")
    assert (res.checks, res.failures) == (3, ["failed"])


def test_unknown_suite_is_a_range_error():
    with pytest.raises(RangeError, match="unknown suite 'nope'"):
        run_suites(["nope"])


def test_an_unknown_suite_is_refused_before_any_suite_runs(monkeypatch):
    ran = []
    monkeypatch.setitem(verify.SUITES, "gf", lambda: ran.append("gf"))
    with pytest.raises(RangeError):
        run_suites(["gf", "nope"])
    assert ran == []


@pytest.mark.parametrize("names", [[], ["gf", "gf"], ["gf", "codes", "gf"]])
def test_an_empty_or_repeated_suite_list_is_refused_before_any_suite_runs(monkeypatch, names):
    ran = []
    for name in list(verify.SUITES):
        monkeypatch.setitem(verify.SUITES, name, lambda name=name, **_: ran.append(name))
    with pytest.raises(RangeError, match="must name one suite or more, each once"):
        run_suites(names)
    assert ran == []
    run_suites(None)  # None names every suite, each once
    assert ran == list(SUITES)


RUN_ARGS = {"seed": 0, "samples": 300, "workers": 1}


def _counting(monkeypatch, name):
    """Wrap verify.name so that each call counts its positional arguments."""
    calls = Counter()
    original = getattr(verify, name)

    def counted(*args, **kwargs):
        calls[args] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(verify, name, counted)
    return calls


def test_a_run_equals_its_suites_run_alone_and_shares_its_work_within_the_call(monkeypatch):
    builds = _counting(monkeypatch, "build_code")
    scans = _counting(monkeypatch, "compute_report")
    whole = [r.as_dict() for r in run_suites(**RUN_ARGS)]
    # 6 distinct specs among the 18 the suites name, and 15 distinct
    # (spec, j) cells among the 22 that weights and closed_forms check
    assert sorted(builds.values()) == [1] * 6
    assert sum(scans.values()) == len(scans) == 15
    run_suites(**RUN_ARGS)  # nothing is kept from the first call
    assert sorted(builds.values()) == [2] * 6
    assert sum(scans.values()) == 30
    alone = [suite(**{arg: value for arg, value in RUN_ARGS.items()
                      if arg in inspect.signature(suite).parameters}).as_dict()
             for suite in SUITES.values()]
    assert whole == alone


def test_a_wrong_argmax_fails_its_own_j(monkeypatch):
    # j = 2 of (2, 3, 2, 1, 1) reports the argmax of j = 3, a subspace of
    # another dimension; the stacked check must fail that j alone
    original = weights.mj_dual_count

    def wrong_argmax(spec, j, **kwargs):
        result = original(spec, j, **kwargs)
        if (_params(spec), j) == ((2, 3, 2, 1, 1), 2):
            return dataclasses.replace(result, argmax=original(spec, 3).argmax)
        return result

    clean = verify.weights_suite()
    monkeypatch.setattr(weights, "mj_dual_count", wrong_argmax)
    res = verify.weights_suite()
    assert clean.failures == [] and res.checks == clean.checks
    assert res.failures == ["(2, 3, 2, 1, 1) j=2: argmax does not reproduce N_j"]


def test_a_pooled_run_equals_an_in_process_one_and_pools_only_in_reports(monkeypatch,
                                                                         recording_pool):
    """run_suites hands its worker count to the scan pairs' report
    requests alone: with two workers on two CPUs the weights and
    closed_forms suites print what one worker prints, and every pool they
    start is started inside a report run (run_report), none by the GHW
    scans or by a route called on its own."""
    monkeypatch.setattr(weights.os, "cpu_count", lambda: 2)
    in_reports = []
    run_report = weights.run_report

    def counted(plan):
        before = len(recording_pool)
        report = run_report(plan)
        in_reports.append(len(recording_pool) - before)
        return report

    monkeypatch.setattr(weights, "run_report", counted)
    names = ["weights", "closed_forms"]
    in_process = [r.as_dict() for r in run_suites(names, workers=1)]
    assert recording_pool == []
    pooled = [r.as_dict() for r in run_suites(names, workers=2)]
    assert pooled == in_process and all(r["passed"] for r in pooled)
    assert recording_pool and sum(in_reports) == len(recording_pool), in_reports


def test_orthogonality_failures_name_each_divisor_in_order(monkeypatch):
    # with no tolerance every residual check fails, so each field size's
    # orthogonality checks fail in divisor order, each naming its divisor
    # and its residual, recomputed here one divisor at a time
    clean = verify.gauss_suite()
    monkeypatch.setattr(verify, "GAUSS_TOL", 0.0)
    res = verify.gauss_suite()
    assert res.checks == clean.checks and res.notes == clean.notes
    want = []
    for size in sorted(p**m for p in range(2, 82) if is_prime(p) for m in range(1, 7)
                       if p**m <= verify.GAUSS_MAX_FIELD):
        t = np.arange(size - 1)
        for e in verify._divisors(size - 1):
            sums = unit_roots(e)[np.outer(np.arange(e), t) % e].sum(axis=0)
            diff = float(np.abs(sums - np.where(t % e == 0, float(e), 0.0)).max())
            want.append(f"GF({size}) e={e}: orthogonality residual {diff}")
    assert [m for m in res.failures if "orthogonality residual" in m] == want


def _record_draws(monkeypatch):
    """Every block of subspaces verify dedups from random rows, in draw
    order, each as the list of its draws' RREF rows."""
    blocks = []
    distinct = verify._distinct

    def recording(stack):
        blocks.append(stack_rows(stack))
        return distinct(stack)

    monkeypatch.setattr(verify, "_distinct", recording)
    return blocks


def _params(spec):
    return (spec.q, spec.k1, spec.k2, spec.e1, spec.e2)


def _drop_first_row(stack, t):
    """Drop the first row of basis t of a zero-padded RREF stack, in place:
    the rest stay RREF."""
    stack[t] = np.roll(stack[t], -1, axis=0)
    stack[t, -1] = 0


def test_charsum_scores_each_distinct_draw_once_and_checks_every_draw(monkeypatch):
    # once per draw block: a subspace drawn in two blocks is scored twice
    samples = 300
    monkeypatch.setattr(verify, "DRAW_BLOCK", 7)  # repeats across blocks too
    blocks = _record_draws(monkeypatch)
    usable = [p for p in verify.DEFAULT_INSTANCES if build_code(*p).d == 1]
    verify.charsum_suite(seed=1, samples=samples)
    per_block = math.ceil(samples / 7)
    assert len(blocks) == per_block * len(usable)
    per_instance = [blocks[i * per_block:(i + 1) * per_block] for i in range(len(usable))]
    assert [sum(map(len, b)) for b in per_instance] == [samples] * len(usable)
    # the chosen subspace: the most frequent draw of the first instance
    chosen_params = usable[0]
    chosen, repeats = Counter(rows for block in per_instance[0]
                              for rows in block).most_common(1)[0]
    assert repeats > 1
    oracle = verify.charsum_zero_counts
    calls, scored = Counter(), Counter()  # per instance: oracle calls, subspaces scored

    def off_by_one(spec, stack):
        calls[_params(spec)] += 1
        scored[_params(spec)] += len(stack)
        counts = oracle(spec, stack)
        for t, rows in enumerate(stack_rows(stack)):
            if (_params(spec), rows) == (chosen_params, chosen):
                counts[t] += 1
        return counts

    monkeypatch.setattr(verify, "charsum_zero_counts", off_by_one)
    blocks.clear()
    res = verify.charsum_suite(seed=1, samples=samples)
    distinct = [sum(len(set(block)) for block in b) for b in per_instance]
    assert distinct == [scored[p] for p in usable]
    assert all(n < samples for n in distinct)  # repeats within a block are scored once
    assert [calls[p] for p in usable] == [per_block] * len(usable)  # one per block
    assert res.checks == samples * len(usable)
    spec = build_code(*chosen_params)
    rref = basis(spec.q, spec.ambient_dim, chosen)
    diff = abs(oracle(spec, rref[None])[0] + 1 - verify.zero_counts(spec, rref[None])[0])
    message = f"{chosen_params}: oracle residual {diff} at subspace {chosen}"
    assert res.failures == [message] * repeats
    assert res.notes["max_residual"] == diff


def test_round_trips_dualize_each_distinct_draw_once_and_check_every_draw(monkeypatch):
    # once per draw block: a subspace drawn in two blocks is dualized twice
    monkeypatch.setattr(verify, "DRAW_BLOCK", 7)  # repeats across blocks too
    blocks = _record_draws(monkeypatch)
    verify.subspaces_suite(seed=1, max_dim=1)
    specs = [build_code(*p) for p in verify.DEFAULT_INSTANCES]
    per_spec = sum(map(len, blocks)) // len(specs)
    per_block = math.ceil(per_spec / 7)
    assert len(blocks) == per_block * len(specs)
    per_instance = [blocks[i * per_block:(i + 1) * per_block] for i in range(len(specs))]
    # the chosen subspace: the most frequent proper draw of the second
    # instance that is no draw's dual there; the projection sweep over the
    # first instance does not meet it
    spec = specs[1]
    K = spec.ambient_dim
    drawn = Counter(rows for block in per_instance[1] for rows in block)
    duals = set(stack_rows(verify.dual_stack(
        padded_stack([basis(spec.q, K, rows) for rows in drawn], K, K), spec)))
    chosen, repeats = next((rows, n) for rows, n in drawn.most_common()
                           if 0 < len(rows) < K and rows not in duals)
    assert repeats > 1
    dual_stack = verify.dual_stack
    calls = Counter()  # subspaces dualized, per instance

    def short_dual(stack, code):
        calls[_params(code)] += len(stack)
        dual = dual_stack(stack, code)
        for t, rows in enumerate(stack_rows(stack)):
            if (_params(code), rows) == (_params(spec), chosen):
                _drop_first_row(dual, t)
        return dual

    monkeypatch.setattr(verify, "dual_stack", short_dual)
    blocks.clear()
    res = verify.subspaces_suite(seed=1, max_dim=1)
    first = specs[0]
    sweep = sum(gaussian_binomial(first.ambient_dim, j, first.q)
                for j in range(first.ambient_dim + 1))
    distinct = [sum(len(set(block)) for block in b) for b in per_instance]
    assert all(n < per_spec for n in distinct)  # repeats within a block are dualized once
    assert [calls[_params(s)] for s in specs] == [
        2 * n + (sweep if i == 0 else 0) for i, n in enumerate(distinct)]
    enumeration_checks = 2 * 2  # q in {2, 3}, k = 1, j in {0, 1}
    assert res.checks == enumeration_checks + 2 * per_spec * len(specs) + 2 * sweep
    message_pair = [f"{spec}: dual dimension {K - len(chosen) - 1} != {K - len(chosen)}",
                    f"{spec}: double dual differs from H"]
    assert res.failures == message_pair * repeats


def test_draw_blocks_do_not_change_results(monkeypatch):
    # an oracle off by one and a dual short of a row on some subspaces, so
    # that the order of the failures is compared too
    oracle, dual_stack = verify.charsum_zero_counts, verify.dual_stack

    def off_by_one(spec, stack):
        return oracle(spec, stack) + (stack[:, :, -1] == 1).any(axis=1)

    def short_dual(stack, spec):
        dual = dual_stack(stack, spec)
        for t in np.flatnonzero(stack[:, 0, 0] == 1):
            _drop_first_row(dual, t)
        return dual

    monkeypatch.setattr(verify, "charsum_zero_counts", off_by_one)
    monkeypatch.setattr(verify, "dual_stack", short_dual)

    def outcome():
        return [(res.checks, res.failures, res.notes)
                for res in (verify.charsum_suite(seed=1, samples=300),
                            verify.subspaces_suite(seed=1))]

    default = outcome()
    assert all(failures for _, failures, _ in default)
    monkeypatch.setattr(verify, "DRAW_BLOCK", 7)
    assert outcome() == default


def test_a_kernel_short_of_a_row_fails_rank_nullity_alone(monkeypatch):
    # the first projection's kernel of the whole space, the second factor,
    # loses a row; two rows remain, so the intersection predicates still agree
    spec = build_code(*verify.DEFAULT_INSTANCES[0])
    K = spec.ambient_dim
    whole = tuple(map(tuple, np.eye(K, dtype=int).tolist()))
    project_stack = verify.project_stack

    def short_kernel(stack, code, side):
        images, kernels = project_stack(stack, code, side)
        if side == 1:
            _drop_first_row(kernels, stack_rows(stack).index(whole))
        return images, kernels

    clean = verify.subspaces_suite(seed=1)
    monkeypatch.setattr(verify, "project_stack", short_kernel)
    res = verify.subspaces_suite(seed=1)
    assert res.checks == clean.checks and clean.failures == []
    assert res.failures == [f"j={K}: projection rank-nullity fails for {whole}"]


def _starts_110(rows) -> bool:
    return bool(rows) and rows[0][:3] == (1, 1, 0)


def test_a_corrupted_dual_raises_for_the_first_mismatching_draw(monkeypatch):
    # the dual of every subspace whose first row starts 1, 1, 0 is replaced
    # by the whole space, which holds all n group points
    dual_stack = weights.dual_stack

    def corrupted(stack, spec):
        dual = dual_stack(stack, spec)
        bad = [t for t, rows in enumerate(stack_rows(stack)) if _starts_110(rows)]
        dual[bad] = np.eye(spec.ambient_dim, dtype=np.int16)
        return dual

    monkeypatch.setattr(weights, "dual_stack", corrupted)
    blocks = _record_draws(monkeypatch)
    monkeypatch.setattr(verify, "DRAW_BLOCK", 7)
    with pytest.raises(InvariantViolated) as raised:
        verify.charsum_suite(seed=1, samples=300)
    draws = [rows for block in blocks for rows in block]
    first = next(rows for rows in draws if _starts_110(rows))
    # in a later block than the first, behind draws that pass
    assert draws.index(first) > 7 and draws.index(first) % 7
    spec = build_code(*verify.DEFAULT_INSTANCES[0])
    with pytest.raises(InvariantViolated) as single:
        verify.zero_counts(spec, basis(spec.q, spec.ambient_dim, first)[None])
    assert str(raised.value) == str(single.value)
    assert str(single.value).endswith(f" != {spec.n} for {first}")


def test_codes_suite_passes_on_gf4():
    res = verify.codes_suite(instances=((4, 2, 3, 1, 3),))
    assert res.passed and res.checks == 10


@pytest.mark.parametrize("params", [(2, 2, 3, 1, 1), (3, 2, 3, 1, 2), (4, 2, 3, 1, 3)])
def test_recurrence_check_fails_on_one_changed_symbol(params):
    spec = build_code(*params)
    h = parity_check_polynomial(spec)
    words = verify._all_codewords(spec)
    assert verify._recurrence_annihilates(spec, h, words)
    for i in (0, spec.n // 2, spec.n - 1):
        bad = words.copy()
        bad[-1, i] = spec.field_q.add(int(bad[-1, i]), 1)
        assert not verify._recurrence_annihilates(spec, h, bad), i


@pytest.mark.parametrize("params", [(2, 2, 3, 1, 1), (3, 2, 3, 1, 2), (4, 2, 3, 1, 3)])
def test_charsum_blocks_match_one_draw_at_a_time(monkeypatch, params):
    # the oracle's row counts, and counts in 0..K as the round trips draw
    # them, so that some draws are empty
    monkeypatch.setattr(verify, "DRAW_BLOCK", 7)
    spec = build_code(*params)
    samples, K = 300, spec.ambient_dim
    oracle_rows = 1 + np.arange(samples) % spec.k1
    some_empty = np.random.default_rng(3).integers(0, K + 1, size=samples)
    assert (some_empty == 0).any() and (some_empty == K).any()
    for nrows, width in ((oracle_rows, spec.k1), (some_empty, K)):
        per_draw = np.random.default_rng([1, 4, *params])
        draws = [per_draw.integers(0, spec.q, size=(r, K)) for r in nrows.tolist()]
        blocks = list(verify._draw_blocks(np.random.default_rng([1, 4, *params]), spec.q,
                                          nrows, width, K))
        assert [len(b) for b in blocks] == [7] * (samples // 7) + [samples % 7]
        for t, block in enumerate(blocks):
            want = padded_stack(draws[7 * t:7 * t + 7], width, K)
            assert block.dtype == want.dtype and np.array_equal(block, want), t


def test_distinct_keeps_the_first_copy_of_each_matrix_in_draw_order():
    rng = np.random.default_rng(7)
    stack = rng.integers(0, 2, size=(200, 2, 3)).astype(np.int16)  # 64 matrices at most
    first, back = verify._distinct(stack)
    assert np.array_equal(stack[first][back], stack)
    assert (np.diff(first) > 0).all()  # in draw order
    keys = [m.tobytes() for m in stack]
    assert first.tolist() == [t for t, key in enumerate(keys) if key not in keys[:t]]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4096), st.integers(0, 300), st.integers(0, 24), st.integers(0, 2**32 - 1))
@example(2, 53, 8, 0)  # one chunk of 53 binary digits, up to 2^53 - 1
@example(2, 54, 8, 0)  # the 54th digit opens a second chunk
def test_row_keys_are_equal_exactly_when_rows_are(base, width, nrows, seed):
    # int16 rows with entries below base, many repeated and many one digit
    # away from another row
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, base, size=(nrows // 3 + 1, width))
    mat = pool[rng.integers(0, len(pool), size=nrows)].astype(np.int16)
    if width:
        near = rng.random(nrows) < 0.3
        cols = rng.integers(0, width, size=nrows)[near]
        mat[near, cols] = (mat[near, cols] + 1) % base
    if nrows >= 2 and width:
        # the largest chunk values, so that b is base, and one unit below them
        mat[:2] = base - 1
        mat[1, 0] = (base - 2) % base
    _, labels = np.unique(verify._row_keys(mat), return_inverse=True)
    rows = [tuple(row) for row in mat.tolist()]
    same_key = labels[:, None] == labels[None, :]
    same_row = np.array([[r == s for s in rows] for r in rows], dtype=bool).reshape(nrows, nrows)
    assert (same_key == same_row).all()
    assert len(set(labels.tolist())) == len(np.unique(mat, axis=0))


def _failures_with(monkeypatch, suite, name, corrupt):
    """The failures of suite() with verify.name wrapped so that corrupt
    edits each result in place first."""
    original = getattr(verify, name)

    def corrupted(*args):
        out = np.array(original(*args))
        corrupt(out, *args)
        return out

    clean = suite()
    monkeypatch.setattr(verify, name, corrupted)
    res = suite()
    assert clean.failures == [] and res.checks == clean.checks
    return res.failures


def test_tables_that_ignore_the_addition_fail_distributivity(monkeypatch):
    # g and g^2 swap places in GF(8)'s tables: exp and log stay inverse and
    # every trace stays put ({1, 2, 4} is one Frobenius orbit), but
    # multiplication no longer distributes over the digitwise addition
    original = verify.build_field

    def swapped(p, m):
        f = original(p, m)
        if (p, m) != (2, 3):
            return f
        exp, log = list(f.exp_table), list(f.log_table)
        exp[1], exp[2] = exp[2], exp[1]
        log[exp[1]], log[exp[2]] = 1, 2
        return FieldTable(p, m, f.primitive_polynomial[:-1], exp, log)

    clean = verify.gf_suite()
    monkeypatch.setattr(verify, "build_field", swapped)
    res = verify.gf_suite()
    assert clean.failures == [] and res.checks == clean.checks
    assert res.failures == ["GF(8): multiplication does not distribute over addition"]


def test_a_swapped_trace_fails_additivity_and_frobenius_invariance(monkeypatch):
    # GF(8)'s nonzero elements of trace 0 form one Frobenius orbit; the
    # first of them swapped with the first element of trace 1 keeps the
    # trace-zero count and tr(0) = 0, so the trace stays GF(2)-homogeneous,
    # but the table is two points off a linear map and no longer constant
    # on that orbit
    def swap(tr, f, base):
        if f.size == 8:
            zero, one = np.flatnonzero(tr == 0)[1], np.flatnonzero(tr == 1)[0]
            tr[[zero, one]] = tr[[one, zero]]

    failures = _failures_with(monkeypatch, verify.gf_suite, "trace_table", swap)
    assert failures == ["GF(8): trace is not additive",
                        "GF(8): trace is not Frobenius invariant"]


def test_a_repeated_basis_fails_the_enumeration_count(monkeypatch):
    def repeat_one(stack, k, j, q):
        if (k, j, q) == (3, 1, 2):
            stack[-1] = stack[0]
        if (k, j, q) == (6, 3, 3):  # the largest stack, 33,880 bases
            stack[-1] = stack[len(stack) // 2]

    failures = _failures_with(monkeypatch, lambda: verify.subspaces_suite(seed=1),
                              "rref_stack", repeat_one)
    assert failures == ["q=2 k=3 j=1: enumeration count 7 (6 distinct) != 7",
                        "q=3 k=6 j=3: enumeration count 33880 (33879 distinct) != 33880"]


def test_a_duplicated_codeword_fails_injectivity(monkeypatch):
    def duplicate(words, spec, b1, b2):
        words[1] = words[2]

    failures = _failures_with(monkeypatch, lambda: verify.codes_suite(instances=((2, 2, 3, 1, 1),)),
                              "codewords", duplicate)
    assert "(2, 2, 3, 1, 1): codeword map is not injective" in failures


def test_a_table_not_closed_under_the_shift_fails_closure(monkeypatch):
    def change_one_symbol(words, spec, b1, b2):
        words[-1, 0] ^= 1

    failures = _failures_with(monkeypatch, lambda: verify.codes_suite(instances=((2, 2, 3, 1, 1),)),
                              "codewords", change_one_symbol)
    assert "(2, 2, 3, 1, 1): cyclic shift closure fails" in failures
    assert "(2, 2, 3, 1, 1): codeword map is not injective" not in failures


def test_a_changed_subcode_word_fails_containment(monkeypatch):
    # C' is built from the second factor alone, so a wrong word of C' in the
    # codeword table leaves it outside the table
    def change_subcode_word(words, spec, b1, b2):
        words[1, 0] ^= 1  # (b1, b2) = (0, 1)

    failures = _failures_with(monkeypatch, lambda: verify.codes_suite(instances=((2, 2, 3, 1, 1),)),
                              "codewords", change_subcode_word)
    assert "(2, 2, 3, 1, 1): C' not contained in C" in failures
