"""The three weight routes and their agreement."""

import itertools

import numpy as np
import pytest

from rghw.closed_forms import detect_family, evaluate_closed_form
from rghw.codes import CodeSpec, build_code, codewords
from rghw import weights
from rghw.errors import CapExceeded, HypothesisViolated, InvariantViolated, RangeError
from rghw.subspaces import cyclic_group_counts, dual_stack, rref_stack, stack_dims
from rghw.weights import (
    compute_report,
    ghw_bruteforce,
    mj_dual_count,
    plan_report,
    rghw_bruteforce,
    zero_counts,
)

from helpers import basis


def codeword_space_rghw(spec, j):
    """Oracle: scan subspaces of the raw word space, no flattening tricks.

    Enumerates coefficient subspaces against an explicit generator matrix,
    checks the trivial-intersection condition by word membership in C',
    and unions supports coordinate by coordinate.
    """
    fq = spec.field_q
    gens = (codewords(spec, spec.factors[0].field.exp_table[:spec.k1], 0).tolist()
            + codewords(spec, 0, spec.factors[1].field.exp_table[:spec.k2]).tolist())
    subwords = set(map(tuple, codewords(spec, 0, np.arange(spec.Q2)).tolist()))

    def word_of(coeffs):
        acc = [0] * spec.n
        for c, g in zip(coeffs, gens):
            for i in range(spec.n):
                acc[i] = fq.add(acc[i], fq.mul(c, g[i]))
        return tuple(acc)

    best = None
    K = spec.k1 + spec.k2
    for rref in rref_stack(K, j, spec.q):
        words = [word_of(row) for row in rref.tolist()]
        ok = True
        for coeffs in itertools.product(range(spec.q), repeat=j):
            if not any(coeffs):
                continue
            w = [0] * spec.n
            for c, bw in zip(coeffs, words):
                for i in range(spec.n):
                    w[i] = fq.add(w[i], fq.mul(c, bw[i]))
            if tuple(w) in subwords:
                ok = False
                break
        if not ok:
            continue
        supp = len({i for w in words for i in range(spec.n) if w[i]})
        if best is None or supp < best:
            best = supp
    return best


def test_rghw_bruteforce_examples():
    spec = build_code(2, 2, 3, 1, 1)
    assert rghw_bruteforce(spec, 1) == 10
    assert rghw_bruteforce(spec, 2) == 15

    spec32 = build_code(2, 3, 2, 1, 1)
    assert rghw_bruteforce(spec32, 3) == 18


def test_rghw_matches_codeword_space_oracle():
    spec = build_code(2, 2, 3, 1, 1)
    for j in (1, 2):
        assert codeword_space_rghw(spec, j) == rghw_bruteforce(spec, j)


def rghw_relative_to_first_subcode(spec, j):
    """Definition-level RGHW relative to C1' = {c(b1, 0)}: the least support
    of a j-dimensional subspace of the pair space whose second projection is
    injective, which is exactly one meeting C1' trivially."""
    stack = rref_stack(spec.ambient_dim, j, spec.q)
    stack = stack[stack_dims(spec.ops.rref_many(stack[:, :, spec.k1:])) == j]
    return min(int(spec.ops.matmul(stack[s:s + 1024], spec.coordinate_functionals.T)
                   .any(axis=1).sum(axis=1).min()) for s in range(0, len(stack), 1024))


def test_rghw_relative_to_the_first_subcode_is_the_swapped_spec(small_grid):
    """The bruteforce table of the swapped spec (q, k2, k1, e2, e1), whose
    subcode is the first factor's, is the RGHW relative to C1'; it matches
    where the swapped spec takes another delta and builds another code too,
    as (5,2,3,1,4) does."""
    pinned = {(2, 3, 4, 1, 1): [52, 78, 91, 98], (4, 2, 3, 1, 3): [60, 90, 101],
              (5, 2, 3, 1, 4): [595, 714, 738]}
    for params in small_grid + list(pinned):
        q, k1, k2, e1, e2 = params
        spec, swapped = build_code(*params), build_code(q, k2, k1, e2, e1)
        want = [rghw_relative_to_first_subcode(spec, j) for j in range(1, k2 + 1)]
        assert [rghw_bruteforce(swapped, j) for j in range(1, k2 + 1)] == want, params
        assert pinned.get(params, want) == want, params


def test_rghw_range_and_cap():
    spec = build_code(2, 2, 3, 1, 1)
    with pytest.raises(RangeError):
        rghw_bruteforce(spec, 0)
    with pytest.raises(RangeError):
        rghw_bruteforce(spec, 3)
    with pytest.raises(CapExceeded):
        rghw_bruteforce(spec, 2, cap=10)
    with pytest.raises(CapExceeded):  # 2 anchors, one subspace each
        mj_dual_count(spec, 1, cap=1)


def test_ghw_examples():
    spec = build_code(2, 2, 3, 1, 1)
    # full code supports every coordinate
    assert ghw_bruteforce(spec, spec.k1 + spec.k2) == spec.n
    # oracle: minimum weight by exhaustive scan of the 31 nonzero words
    words = codewords(spec, np.arange(spec.Q1)[:, None], np.arange(spec.Q2))[1:]
    assert ghw_bruteforce(spec, 1) == np.count_nonzero(words, axis=1).min() == 10
    for j in (1, 2):
        assert ghw_bruteforce(spec, j) <= rghw_bruteforce(spec, j)
    with pytest.raises(RangeError):
        ghw_bruteforce(spec, 6)


def test_zero_counts_identities():
    spec = build_code(2, 2, 3, 1, 1)
    K = spec.ambient_dim
    zero = basis(2, K, [])
    assert zero_counts(spec, zero[None])[0] == spec.n

    line = basis(2, K, [np.concatenate([spec.factors[0].decompose[1],
                                        spec.factors[1].decompose[1]])])
    assert zero_counts(spec, line[None])[0] == spec.n - 10 == 11

    rng = np.random.default_rng(17)
    for _ in range(30):
        j = int(rng.integers(0, K + 1))
        rows = rng.integers(0, 2, size=(j, K))
        d = basis(2, K, rows)
        # both counting routes, explicitly
        direct = spec.n - spec.ops.matmul(d, spec.coordinate_functionals.T).any(axis=0).sum()
        via_dual = cyclic_group_counts(dual_stack(d[None], spec), spec)[0]
        assert direct == via_dual == zero_counts(spec, d[None])[0]


def test_zero_counts_slices_the_coordinates(monkeypatch):
    """With slices of 7 coordinates, zero_counts of a random stack is n
    minus the support of one product over all n coordinates; an empty
    stack gives no counts."""
    spec = build_code(3, 2, 3, 1, 2)
    K = spec.ambient_dim
    monkeypatch.setattr(weights, "SLICE_BYTES", 8 * K * 7)
    assert spec.n > 2 * 7
    rng = np.random.default_rng(5)
    stack = spec.ops.rref_many(rng.integers(0, 3, size=(40, 2, K)).astype(np.int16))
    support = spec.ops.matmul(stack, spec.coordinate_functionals.T).any(axis=1).sum(axis=1)
    assert (zero_counts(spec, stack) == spec.n - support).all()
    assert zero_counts(spec, np.zeros((0, 2, K), dtype=np.int16)).shape == (0,)


def test_zero_counts_mismatch_is_typed(monkeypatch):
    spec = build_code(2, 2, 3, 1, 1)
    line = basis(2, spec.ambient_dim, [(1, 0, 0, 0, 0)])
    monkeypatch.setattr(weights, "cyclic_group_counts",
                        lambda stack, spec: np.full(len(stack), -1))
    with pytest.raises(InvariantViolated):
        zero_counts(spec, line[None])


def test_mj_dual_count_examples():
    spec = build_code(2, 2, 3, 1, 1)
    res = mj_dual_count(spec, 1)
    assert (res.m, res.n_j) == (10, 11)
    # the reported argmax attains the maximum and projects onto GF(Q2)
    assert cyclic_group_counts(res.argmax[None], spec)[0] == 11
    assert res.argmax.shape == (spec.ambient_dim - 1, spec.ambient_dim)
    assert len(spec.ops.rref(res.argmax[:, spec.k1:])[1]) == spec.k2

    spec32 = build_code(2, 3, 2, 1, 1)
    res3 = mj_dual_count(spec32, 3)
    assert (res3.m, res3.n_j) == (18, 3)

    spec3 = build_code(3, 2, 3, 1, 2)
    res_q3 = mj_dual_count(spec3, 2)
    assert (res_q3.m, res_q3.n_j) == (92, 12)


@pytest.mark.parametrize(
    "params",
    [(2, 2, 3, 1, 1), (2, 3, 2, 1, 1), (3, 2, 3, 1, 2), (3, 2, 2, 1, 2)],
)
def test_route_agreement(params):
    spec = build_code(*params)
    for j in range(1, spec.k1 + 1):
        assert rghw_bruteforce(spec, j) == mj_dual_count(spec, j).m


def test_wider_ambient_routes_agree():
    # ambient dimension 8; kept to j=1 so the scan stays around 100k cells
    spec = build_code(2, 3, 5, 1, 1)
    assert spec.n == 217
    dual = mj_dual_count(spec, 1)
    assert rghw_bruteforce(spec, 1) == dual.m == 108
    assert dual.n_j == 2**7 - 2**2 - 2**4 + 1 == 109


def test_weights_strictly_increase():
    for params in ((2, 2, 3, 1, 1), (2, 3, 2, 1, 1), (3, 2, 3, 1, 2)):
        spec = build_code(*params)
        values = [rghw_bruteforce(spec, j) for j in range(1, spec.k1 + 1)]
        assert values == sorted(set(values))


def test_workers_do_not_change_results():
    spec = build_code(2, 3, 2, 1, 1)
    for j in (1, 2, 3):
        assert rghw_bruteforce(spec, j, workers=2) == rghw_bruteforce(spec, j)
        a = mj_dual_count(spec, j, workers=2)
        b = mj_dual_count(spec, j)
        assert (a.m, a.n_j, a.argmax.tolist()) == (b.m, b.n_j, b.argmax.tolist())


def test_worker_count_is_capped_at_the_cpu_count(monkeypatch, recording_pool):
    # an in-process pool, so a missing bound cannot start a single process
    monkeypatch.setattr(weights.os, "cpu_count", lambda: 3)
    spec = build_code(2, 3, 2, 1, 1)
    # j=2: at j=1 the anchored scan has a single pivot set and starts no
    # pool; at j=2 it has two chunks, and the pool starts one process per
    # live table, not one per CPU
    plan = weights._plan_scan(spec, 2, "min_support", weights.DEFAULT_ENUM_CAP, 10**6)
    assert len(plan.shape.chunks) == len(plan.shape.live) == 2
    assert rghw_bruteforce(spec, 2, workers=10**6) == rghw_bruteforce(spec, 2)
    # GHW j=2 walks 10 pivot sets, in more chunks than CPUs
    assert ghw_bruteforce(spec, 2, workers=10**6) == ghw_bruteforce(spec, 2)
    assert recording_pool == [2, 3]


def test_one_cpu_scans_in_process(monkeypatch, recording_pool):
    monkeypatch.setattr(weights.os, "cpu_count", lambda: 1)
    spec = build_code(2, 3, 2, 1, 1)
    assert rghw_bruteforce(spec, 2, workers=2) == rghw_bruteforce(spec, 2)
    a = mj_dual_count(spec, 2, workers=2)
    b = mj_dual_count(spec, 2)
    assert (a.m, a.n_j, a.argmax.tolist()) == (b.m, b.n_j, b.argmax.tolist())
    assert recording_pool == []


def test_pool_tasks_build_no_code_spec(monkeypatch, recording_pool):
    """A pool task carries q and the point matrix, so a worker looks up the
    field ops of GF(q) and builds no CodeSpec."""
    monkeypatch.setattr(weights.os, "cpu_count", lambda: 2)
    spec = build_code(2, 3, 2, 1, 1)
    brute = rghw_bruteforce(spec, 2)
    dual = mj_dual_count(spec, 2)

    def no_spec(*args):
        raise AssertionError("a pool task built a CodeSpec")

    monkeypatch.setattr(CodeSpec, "__init__", no_spec)
    assert rghw_bruteforce(spec, 2, workers=2) == brute
    got = mj_dual_count(spec, 2, workers=2)
    assert (got.m, got.n_j, got.argmax.tolist()) == (dual.m, dual.n_j, dual.argmax.tolist())
    assert recording_pool == [2, 2]


def test_fewer_than_one_worker_is_a_range_error(monkeypatch):
    """The table cap bounds the tables of the W largest chunks, so a scan
    with W < 1 would bound none of them: it is refused before any scan."""
    monkeypatch.setattr(weights, "TABLE_CAP_BYTES", 64)
    spec = build_code(2, 3, 4, 1, 1)
    with pytest.raises(CapExceeded):
        rghw_bruteforce(spec, 2, workers=1)
    for workers in (0, -3):
        for route in (rghw_bruteforce, ghw_bruteforce, mj_dual_count):
            with pytest.raises(RangeError, match=f"workers={workers}"):
                route(spec, 2, workers=workers)


def test_pool_chunks_follow_the_work():
    # consecutive pivot sets, so the merge stays in enumeration order
    assert weights._chunks("abcd", [16, 8, 4, 2], 4) == [["a"], ["b"], ["c", "d"]]
    assert weights._chunks("abcd", [1, 1, 1, 1], 2) == [["a", "b"], ["c", "d"]]
    assert weights._chunks("ab", [1, 100], 8) == [["a", "b"]]


def test_compute_report():
    spec = build_code(2, 2, 3, 1, 1)
    report = compute_report(spec, 1)
    assert report.agree
    assert {r for r in report.routes} == {"bruteforce", "dual_count", "closed_form"}
    assert report.routes["dual_count"].n_j == 11
    doc = report.as_dict()
    assert doc["agree"] is True and "millis" not in doc
    doc_t = report.as_dict(include_millis=True)
    assert "millis" in doc_t

    # by default no closed form for a non-structural spec; a named one raises
    odd = build_code(3, 2, 2, 1, 2)
    rep = compute_report(odd, 1)
    assert "closed_form" not in rep.routes
    with pytest.raises(HypothesisViolated):
        compute_report(odd, 1, routes=("closed_form",))


def test_compute_report_refuses_before_any_scan(monkeypatch):
    def no_scan(*args):
        raise AssertionError("a scan ran before the refusal")

    monkeypatch.setattr(weights, "_run_scan", no_scan)
    spec = build_code(2, 2, 3, 1, 1)
    with pytest.raises(RangeError, match="unknown route 'nope'"):
        compute_report(spec, 1, routes=("bruteforce", "nope"))
    odd = build_code(3, 2, 2, 1, 2)
    for routes in (("bruteforce", "closed_form"), ("closed_form",)):
        with pytest.raises(HypothesisViolated):
            compute_report(odd, 1, routes=routes)


def test_plan_report_refuses_a_bad_j_for_every_route_list(monkeypatch):
    """j outside 1..k1 is refused by plan_report itself, before any route
    is planned, whatever the routes, the closed form alone included."""
    def no_plan(*args):
        raise AssertionError("a scan was planned before the refusal")

    monkeypatch.setattr(weights, "_plan_scans", no_plan)
    spec = build_code(2, 2, 3, 1, 1)
    for routes in (None, ("closed_form",), ("bruteforce",), ("dual_count", "closed_form")):
        for j in (0, 3, 9):
            with pytest.raises(RangeError, match=rf"^j={j} outside 1\.\.2$"):
                plan_report(spec, j, routes=routes)


def test_default_reports_run_every_route_that_applies():
    """None runs the closed form only on a structural spec, and reports
    share one order tuple: the routes that ran."""
    odd = build_code(3, 2, 2, 1, 2)
    a, b = compute_report(odd, 1), compute_report(odd, 2)
    assert a.order == ("bruteforce", "dual_count") and a.order is b.order
    assert list(a.routes) == list(a.order) and a.agree
    structural = compute_report(build_code(2, 2, 3, 1, 1), 1)
    assert structural.order == ("bruteforce", "dual_count", "closed_form")


def test_report_routes_keep_request_order():
    spec = build_code(2, 2, 3, 1, 1)
    report = compute_report(spec, 1, routes=("dual_count", "closed_form", "bruteforce"))
    assert list(report.routes) == ["dual_count", "closed_form", "bruteforce"]
    assert list(report.as_dict()["routes"]) == list(report.routes)
    with pytest.raises(TypeError):
        report.routes["bruteforce"] = report.routes["dual_count"]


PROPERTY_LIMIT = 243  # bound on q^(k1+k2) for the exhaustive specs
PROPERTY_CAP = 20_000  # work cap of every scan; the largest such scan is ~10k


def test_routes_agree_on_every_small_spec(spec_grid):
    """Every spec build_code accepts with q^(k1+k2) <= PROPERTY_LIMIT."""
    specs = spec_grid(PROPERTY_LIMIT)
    assert len(specs) == 106
    for params in specs:
        spec = build_code(*params)
        structural = detect_family(*params) is not None
        for j in range(1, spec.k1 + 1):
            brute = rghw_bruteforce(spec, j, cap=PROPERTY_CAP)
            dual = mj_dual_count(spec, j, cap=PROPERTY_CAP)
            assert brute == dual.m, (params, j)
            assert cyclic_group_counts(dual.argmax[None], spec)[0] == dual.n_j, (params, j)
            if structural:
                assert evaluate_closed_form(*params, j) == (dual.n_j, dual.m), (params, j)
