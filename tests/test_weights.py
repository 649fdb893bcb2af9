"""The three weight routes and their agreement."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rghw.closed_forms import detect_family, evaluate_closed_form
from rghw.codes import build_code, codewords
from rghw import weights
from rghw.errors import CapExceeded, InvariantViolated, RangeError, RghwError
from rghw.subspaces import (
    dual_subspace,
    enumerate_subspaces,
    intersect_with_cyclic_group,
    subspace_from_rows,
)
from rghw.weights import (
    compute_report,
    ghw_bruteforce,
    mj_dual_count,
    nj_of_subspace,
    rghw_bruteforce,
    subspace_support_size,
)


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
    for basis in enumerate_subspaces(K, j, spec.q):
        words = [word_of(row) for row in basis.rows]
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


def test_rghw_range_and_cap():
    spec = build_code(2, 2, 3, 1, 1)
    with pytest.raises(RangeError):
        rghw_bruteforce(spec, 0)
    with pytest.raises(RangeError):
        rghw_bruteforce(spec, 3)
    with pytest.raises(CapExceeded):
        rghw_bruteforce(spec, 2, cap=10)
    with pytest.raises(CapExceeded):
        mj_dual_count(spec, 1, cap=2)


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


def test_nj_of_subspace_identities():
    spec = build_code(2, 2, 3, 1, 1)
    K = spec.ambient_dim
    zero = subspace_from_rows(2, K, np.zeros((0, K), dtype=int), "product")
    assert nj_of_subspace(spec, zero) == spec.n

    line = subspace_from_rows(
        2,
        K,
        [np.concatenate([spec.factors[0].decompose[1], spec.factors[1].decompose[1]])],
        "product",
    )
    assert nj_of_subspace(spec, line) == spec.n - 10 == 11

    rng = np.random.default_rng(17)
    for _ in range(30):
        j = int(rng.integers(0, K + 1))
        rows = rng.integers(0, 2, size=(j, K))
        d = subspace_from_rows(2, K, rows, "product")
        # both counting routes, explicitly
        direct = spec.n - subspace_support_size(spec, d)
        via_dual = intersect_with_cyclic_group(dual_subspace(d, spec), spec)
        assert direct == via_dual == nj_of_subspace(spec, d)


def test_nj_of_subspace_mismatch_is_typed(monkeypatch):
    spec = build_code(2, 2, 3, 1, 1)
    line = subspace_from_rows(2, spec.ambient_dim, [(1, 0, 0, 0, 0)], "product")
    monkeypatch.setattr(weights, "cyclic_group_counts",
                        lambda stack, spec: np.full(len(stack), -1))
    with pytest.raises(InvariantViolated):
        nj_of_subspace(spec, line)


def test_mj_dual_count_examples():
    spec = build_code(2, 2, 3, 1, 1)
    res = mj_dual_count(spec, 1)
    assert (res.m, res.n_j) == (10, 11)
    # the reported argmax attains the maximum and projects onto GF(Q2)
    assert intersect_with_cyclic_group(res.argmax, spec) == 11
    assert res.argmax.dim == spec.ambient_dim - 1
    assert len(spec.ops.rref(res.argmax.matrix()[:, spec.k1:])[1]) == spec.k2

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
        assert (a.m, a.n_j, a.argmax.rows) == (b.m, b.n_j, b.argmax.rows)


def test_worker_count_is_capped_at_the_cpu_count(monkeypatch, recording_pool):
    # an in-process pool, so a missing bound cannot start a single process
    monkeypatch.setattr(weights.os, "cpu_count", lambda: 3)
    spec = build_code(2, 3, 2, 1, 1)
    # j=2: at j=1 the anchored scan has a single pivot set and starts no pool
    assert rghw_bruteforce(spec, 2, workers=10**6) == rghw_bruteforce(spec, 2)
    assert recording_pool == [3]


def test_one_cpu_scans_in_process(monkeypatch, recording_pool):
    monkeypatch.setattr(weights.os, "cpu_count", lambda: 1)
    spec = build_code(2, 3, 2, 1, 1)
    assert rghw_bruteforce(spec, 2, workers=2) == rghw_bruteforce(spec, 2)
    a = mj_dual_count(spec, 2, workers=2)
    b = mj_dual_count(spec, 2)
    assert (a.m, a.n_j, a.argmax.rows) == (b.m, b.n_j, b.argmax.rows)
    assert recording_pool == []


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

    # no closed form for a non-structural spec unless explicitly requested
    odd = build_code(3, 2, 2, 1, 2)
    rep = compute_report(odd, 1)
    assert "closed_form" not in rep.routes
    from rghw.errors import HypothesisViolated

    with pytest.raises(HypothesisViolated):
        compute_report(odd, 1, routes=("closed_form",), strict_routes=True)


def test_report_routes_keep_request_order():
    spec = build_code(2, 2, 3, 1, 1)
    report = compute_report(spec, 1, routes=("dual_count", "closed_form", "bruteforce"))
    assert list(report.routes) == ["dual_count", "closed_form", "bruteforce"]
    assert list(report.as_dict()["routes"]) == list(report.routes)
    with pytest.raises(TypeError):
        report.routes["bruteforce"] = report.routes["dual_count"]


PROPERTY_LIMIT = 243  # bound on q^(k1+k2) for the random specs
PROPERTY_CAP = 20_000  # work cap of every scan; the largest such scan is ~10k


@st.composite
def small_specs(draw):
    """(q, k1, k2, e1, e2) with q^(k1+k2) <= PROPERTY_LIMIT and e_i | q^k_i - 1."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 13]))
    total = 2
    while q ** (total + 1) <= PROPERTY_LIMIT:
        total += 1
    k1 = draw(st.integers(1, total - 1))
    k2 = draw(st.integers(1, total - k1))
    e1, e2 = (draw(st.sampled_from([e for e in range(1, q**k) if (q**k - 1) % e == 0]))
              for k in (k1, k2))
    return q, k1, k2, e1, e2


@settings(max_examples=100, deadline=None)
@given(small_specs())
def test_routes_agree_on_random_specs(params):
    try:
        spec = build_code(*params)
    except RghwError:
        assume(False)
    structural = detect_family(*params) is not None
    for j in range(1, spec.k1 + 1):
        brute = rghw_bruteforce(spec, j, cap=PROPERTY_CAP)
        dual = mj_dual_count(spec, j, cap=PROPERTY_CAP)
        assert brute == dual.m, (params, j)
        assert intersect_with_cyclic_group(dual.argmax, spec) == dual.n_j, (params, j)
        if structural:
            assert evaluate_closed_form(*params, j) == (dual.n_j, dual.m), (params, j)
