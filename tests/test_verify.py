"""The verify suites as run_suites dispatches them."""

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from rghw import verify, weights
from rghw.codes import build_code, parity_check_polynomial
from rghw.errors import InvariantViolated
from rghw.subspaces import SubspaceBasis, gaussian_binomial, stack_rows
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


def _record_draws(monkeypatch):
    """Every subspace verify canonicalizes from random rows, in draw order."""
    draws = []
    blocks = verify._canonical_blocks

    def recording(*args):
        for stack, keys in blocks(*args):
            draws.extend(keys)
            yield stack, keys

    monkeypatch.setattr(verify, "_canonical_blocks", recording)
    return draws


def _params(spec):
    return (spec.q, spec.k1, spec.k2, spec.e1, spec.e2)


def _drop_first_row(stack, t):
    """Drop the first row of basis t of a zero-padded RREF stack, in place:
    the rest stay RREF."""
    stack[t] = np.roll(stack[t], -1, axis=0)
    stack[t, -1] = 0


def test_charsum_scores_each_distinct_draw_once_and_checks_every_draw(monkeypatch):
    samples = 300
    monkeypatch.setattr(verify, "DRAW_BLOCK", 7)  # repeats across blocks too
    draws = _record_draws(monkeypatch)
    usable = [p for p in verify.DEFAULT_INSTANCES if build_code(*p).d == 1]
    verify.charsum_suite(seed=1, samples=samples)
    per_instance = [draws[i * samples:(i + 1) * samples] for i in range(len(usable))]
    assert len(draws) == samples * len(usable)
    # the chosen subspace: the most frequent draw of the first instance
    chosen_params = usable[0]
    chosen, repeats = Counter(per_instance[0]).most_common(1)[0]
    assert repeats > 1
    oracle = verify.nj_via_charsum
    calls = Counter()

    def off_by_one(spec, basis):
        calls[_params(spec)] += 1
        value = oracle(spec, basis)
        return value + 1 if (_params(spec), basis.rows) == (chosen_params, chosen) else value

    monkeypatch.setattr(verify, "nj_via_charsum", off_by_one)
    draws.clear()
    res = verify.charsum_suite(seed=1, samples=samples)
    assert [len(set(d)) for d in per_instance] == [calls[p] for p in usable]
    assert res.checks == samples * len(usable)
    spec = build_code(*chosen_params)
    basis = SubspaceBasis(spec.q, spec.ambient_dim, chosen)
    diff = abs(oracle(spec, basis) + 1 - verify.nj_of_subspace(spec, basis))
    message = f"{chosen_params}: oracle residual {diff} at subspace {chosen}"
    assert res.failures == [message] * repeats
    assert res.notes["max_residual"] == diff


def test_round_trips_dualize_each_distinct_draw_once_and_check_every_draw(monkeypatch):
    monkeypatch.setattr(verify, "DRAW_BLOCK", 7)  # repeats across blocks too
    draws = _record_draws(monkeypatch)
    verify.subspaces_suite(seed=1, max_dim=1)
    specs = [build_code(*p) for p in verify.DEFAULT_INSTANCES]
    per_spec = len(draws) // len(specs)
    per_instance = [draws[i * per_spec:(i + 1) * per_spec] for i in range(len(specs))]
    # the chosen subspace: the most frequent proper draw of the second
    # instance that is no draw's dual there; the projection sweep over the
    # first instance does not meet it
    spec = specs[1]
    K = spec.ambient_dim
    duals = {verify.dual_subspace(SubspaceBasis(spec.q, K, rows), spec).rows
             for rows in per_instance[1]}
    chosen, repeats = next((rows, n) for rows, n in Counter(per_instance[1]).most_common()
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
    draws.clear()
    res = verify.subspaces_suite(seed=1, max_dim=1)
    first = specs[0]
    sweep = sum(gaussian_binomial(first.ambient_dim, j, first.q)
                for j in range(first.ambient_dim + 1))
    distinct = [len(set(d)) for d in per_instance]
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
    oracle, dual_stack = verify.nj_via_charsum, verify.dual_stack

    def off_by_one(spec, basis):
        return oracle(spec, basis) + any(row[-1] == 1 for row in basis.rows)

    def short_dual(stack, spec):
        dual = dual_stack(stack, spec)
        for t in np.flatnonzero(stack[:, 0, 0] == 1):
            _drop_first_row(dual, t)
        return dual

    monkeypatch.setattr(verify, "nj_via_charsum", off_by_one)
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
    draws = _record_draws(monkeypatch)
    monkeypatch.setattr(verify, "DRAW_BLOCK", 7)
    with pytest.raises(InvariantViolated) as raised:
        verify.charsum_suite(seed=1, samples=300)
    first = next(rows for rows in draws if _starts_110(rows))
    # in a later block than the first, behind draws that pass
    assert draws.index(first) > 7 and draws.index(first) % 7
    spec = build_code(*verify.DEFAULT_INSTANCES[0])
    with pytest.raises(InvariantViolated) as single:
        verify.nj_of_subspace(spec, SubspaceBasis(spec.q, spec.ambient_dim, first))
    assert str(raised.value) == str(single.value)
    assert str(single.value).endswith(f" != {spec.n} for {first}")


def test_codes_suite_passes_on_gf4():
    res = verify.codes_suite(instances=((4, 2, 3, 1, 3),))
    assert res.passed and res.checks == 10


@pytest.mark.parametrize("params", [(2, 2, 3, 1, 1), (3, 2, 3, 1, 2), (4, 2, 3, 1, 3)])
def test_recurrence_check_fails_on_one_changed_symbol(params):
    spec = build_code(*params)
    h = parity_check_polynomial(spec)
    words = set(verify._all_codewords(spec))
    assert verify._recurrence_annihilates(spec, h, words)
    word = max(words)
    for i in (0, spec.n // 2, spec.n - 1):
        changed = list(word)
        changed[i] = spec.field_q.add(changed[i], 1)
        bad = words - {word} | {tuple(changed)}
        assert not verify._recurrence_annihilates(spec, h, bad), i
