"""Closed-form evaluators against the exhaustive routes."""

import pytest

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rghw import closed_forms
from rghw.closed_forms import detect_family, evaluate_closed_form
from rghw.codes import build_code, orbit_representatives
from rghw.errors import DegenerateOrder, HypothesisViolated, RangeError, RghwError
from rghw.subspaces import cyclic_group_counts, project_stack, stack_dims
from rghw.weights import compute_report, mj_dual_count, rghw_bruteforce

from helpers import padded_stack


def test_binary_pair_values():
    assert evaluate_closed_form(2, 2, 3, 1, 1, 1) == (11, 10)
    assert evaluate_closed_form(2, 2, 3, 1, 1, 2) == (6, 15)
    assert evaluate_closed_form(2, 3, 2, 1, 1, 3) == (3, 18)  # k2 < j <= k1 branch
    # oracle: formula arithmetic for the first case
    assert 2**4 - 2**1 - 2**2 + 1 == 11 and (2**2 - 1) * (2**3 - 1) - 11 == 10


def test_binary_pair_hypotheses():
    with pytest.raises(HypothesisViolated):
        evaluate_closed_form(2, 2, 4, 1, 1, 1)  # gcd = 2
    with pytest.raises(HypothesisViolated):
        evaluate_closed_form(2, 1, 2, 1, 1, 1)  # k1 < 2: a nonzero of order 1
    assert detect_family(2, 1, 3, 1, 1) is None  # k1 < 2: a nonzero of order 1
    with pytest.raises(RangeError):
        evaluate_closed_form(2, 2, 3, 1, 1, 3)


def test_index_one_qminus1_values():
    # oracle: sum arithmetic, n = 104
    assert evaluate_closed_form(3, 2, 3, 1, 2, 1) == (sum(3**k for k in (2, 3)) - 1, 69)
    assert evaluate_closed_form(3, 2, 3, 1, 2, 1) == (35, 69)
    assert evaluate_closed_form(3, 2, 3, 1, 2, 2) == (3 + 9, 92)  # empty iota sum
    with pytest.raises(HypothesisViolated):
        evaluate_closed_form(3, 2, 4, 1, 2, 1)  # k2 even
    with pytest.raises(HypothesisViolated):
        evaluate_closed_form(3, 3, 6, 1, 2, 1)  # gcd = 3
    with pytest.raises(HypothesisViolated):
        evaluate_closed_form(3, 2, 1, 1, 2, 1)  # second nonzero trivial
    with pytest.raises(RangeError):
        evaluate_closed_form(3, 2, 3, 1, 2, 0)


def test_index_qminus1_one_values_oracle_gated():
    # the mirrored family on (k1, k2) = (3, 2): every number checked against
    # both exhaustive routes
    spec = build_code(3, 3, 2, 2, 1)
    assert (spec.n1, spec.n2, spec.n) == (13, 8, 104)
    expected = {}
    for j in (1, 2, 3):
        n_j, m_j = evaluate_closed_form(3, 3, 2, 2, 1, j)
        brute = rghw_bruteforce(spec, j)
        dual = mj_dual_count(spec, j)
        assert m_j == brute == dual.m
        assert n_j == dual.n_j
        expected[j] = (n_j, m_j)
    assert expected == {1: (35, 69), 2: (12, 92), 3: (4, 100)}


def test_index_qminus1_one_hypotheses():
    with pytest.raises(HypothesisViolated):
        evaluate_closed_form(3, 2, 3, 2, 1, 1)  # k1 even
    with pytest.raises(HypothesisViolated):
        evaluate_closed_form(3, 1, 2, 2, 1, 1)  # first nonzero trivial


def test_empty_sum_boundary():
    # j = k1 with k2 = k1 + 1 leaves the iota sum empty but integral
    n_j, m_j = evaluate_closed_form(2, 2, 3, 1, 1, 2)
    assert (n_j, m_j) == (6, 15)
    n_j2, m_j2 = evaluate_closed_form(5, 2, 3, 1, 4, 2)
    assert n_j2 == sum(5**k for k in (1, 2))
    spec = build_code(5, 2, 3, 1, 4)
    assert m_j2 == (5**2 - 1) * (5**3 - 1) // 4 - n_j2 == spec.n - n_j2


def test_printed_hypotheses_do_not_cover_q4():
    # (q, k2) = (4, 3) satisfies the printed conditions but the nonzero
    # orders share a factor of 3, so the derivation collapses; the evaluator
    # must refuse rather than return a wrong table
    spec = build_code(4, 2, 3, 1, 3)
    assert spec.d == 3
    with pytest.raises(HypothesisViolated):
        evaluate_closed_form(4, 2, 3, 1, 3, 1)
    assert detect_family(4, 2, 3, 1, 3) is None
    with pytest.raises(HypothesisViolated):
        evaluate_closed_form(4, 3, 2, 3, 1, 1)


def test_q4_family_member_matches_bruteforce():
    # q - 1 = 3 is not a power of two, and the nonzero orders 15 and 341
    # are coprime; kept to j = 1 and one route for runtime
    spec = build_code(4, 2, 5, 1, 3)
    assert spec.d == 1 and spec.n == 15 * 341
    n_j, m_j = evaluate_closed_form(4, 2, 5, 1, 3, 1)
    assert m_j == rghw_bruteforce(spec, 1)
    assert spec.n - n_j == m_j


def test_detect_family_is_structural_or_none():
    # the paper's three families are structural specs
    assert detect_family(2, 2, 3, 1, 1) == "structural"
    assert detect_family(2, 2, 5, 1, 1) == "structural"
    assert detect_family(3, 2, 3, 1, 2) == "structural"
    assert detect_family(3, 3, 2, 2, 1) == "structural"
    assert detect_family(3, 2, 2, 1, 2) is None
    assert detect_family(3, 2, 3, 2, 2) is None
    # q = 2 with k = 1 makes a nonzero of order 1, which build_code rejects
    assert detect_family(2, 3, 1, 1, 1) is None
    assert detect_family(2, 1, 3, 1, 1) is None
    with pytest.raises(DegenerateOrder):
        build_code(2, 1, 3, 1, 1)
    with pytest.raises(HypothesisViolated):
        evaluate_closed_form(2, 1, 3, 1, 1, 1)
    with pytest.raises(HypothesisViolated):
        evaluate_closed_form(3, 2, 2, 1, 2, 1)


def test_family_counts_over_a_parameter_box():
    counts = Counter()
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        indices = sorted({1, 2, 3, q - 1})
        for k1 in range(1, 11):
            for k2 in range(1, 11):
                for e1 in indices:
                    for e2 in indices:
                        counts[detect_family(q, k1, k2, e1, e2)] += 1
    # the 440 specs of the paper's three families are among the structural ones
    assert counts == {"structural": 1626, None: 12274}


@pytest.mark.parametrize(
    "params",
    [(2, 2, 3, 1, 1), (2, 3, 2, 1, 1), (3, 2, 3, 1, 2), (3, 3, 2, 2, 1)],
)
def test_closed_forms_match_exhaustive_routes(params):
    q, k1, k2, e1, e2 = params
    spec = build_code(*params)
    for j in range(1, k1 + 1):
        n_j, m_j = evaluate_closed_form(q, k1, k2, e1, e2, j)
        assert n_j > 0 and m_j > 0
        assert m_j == rghw_bruteforce(spec, j)
        dual = mj_dual_count(spec, j)
        assert (m_j, n_j) == (dual.m, dual.n_j)


def test_a_size_that_is_not_a_prime_power_has_no_closed_form():
    # (6, 2, 3, 1, 5) passes every arithmetic condition of the structural
    # test, but GF(6) does not exist
    for q in (6, 1, 0):
        assert detect_family(q, 2, 3, 1, 5) is None
    with pytest.raises(HypothesisViolated):
        evaluate_closed_form(6, 2, 3, 1, 5, 1)


def _point_hits(spec) -> np.ndarray:
    """How often the group vectors hit each point of their image S in
    PG(K-1, q): each row is scaled by the inverse of its first nonzero entry."""
    g = spec.group_vectors
    lead = g[np.arange(len(g)), (g != 0).argmax(axis=1)]
    scaled = spec.ops.mul_table[spec.ops.inv_table[lead][:, None], g]
    return np.unique(scaled, axis=0, return_counts=True)[1]


def test_structural_test_matches_the_point_set_and_the_orbit_count():
    """On every spec build_code accepts with q^(k1+k2) <= 729, the group
    hits every point of its image S the same number c = n/|S| of times, and
    the arithmetic test holds exactly when c = 1 and |S| = (Q1 - 1)(Q2 - 1)
    / (q - 1), all points with both components nonzero; and exactly when the
    shift and GF(q)* leave two orbits on {b1 != 0} with n that large."""
    counts = Counter()
    for q in (2, 3, 4, 5, 7):
        for k1 in range(1, 5):
            for k2 in range(1, 5):
                if q ** (k1 + k2) > 729:
                    continue
                for e1 in [e for e in range(1, q**k1) if (q**k1 - 1) % e == 0]:
                    for e2 in [e for e in range(1, q**k2) if (q**k2 - 1) % e == 0]:
                        params = (q, k1, k2, e1, e2)
                        try:
                            spec = build_code(*params)
                        except RghwError:
                            continue
                        hits = _point_hits(spec)
                        c = spec.n // len(hits)
                        assert (hits == c).all(), params
                        assert spec.multiplicity == c, params
                        points = (q**k1 - 1) * (q**k2 - 1) // (q - 1)
                        full = spec.n == points
                        structural = detect_family(*params) is not None
                        assert structural == (c == 1 and len(hits) == points), params
                        assert structural == (full and len(orbit_representatives(spec)) == 2), params
                        counts[structural, full] += 1
    # 8 specs have the full count of points but repeat some, such as (3, 1, 3, 1, 1)
    assert counts == {(True, True): 44, (False, True): 8, (False, False): 126}


@pytest.mark.parametrize("params,c,points", [
    ((2, 4, 7, 1, 1), 1, 1905), ((3, 3, 5, 1, 2), 1, 3146), ((4, 3, 4, 1, 3), 1, 5355),
    ((2, 5, 6, 1, 1), 1, 1953), ((3, 4, 5, 1, 2), 1, 9680), ((2, 6, 7, 1, 1), 1, 8001),
    ((4, 3, 5, 1, 3), 1, 21483), ((3, 3, 5, 1, 1), 2, 1573), ((4, 2, 5, 1, 1), 3, 1705),
    ((2, 5, 6, 1, 3), 1, 651), ((2, 6, 7, 3, 1), 1, 2667),
])
def test_structural_is_one_hit_on_every_point_on_the_frontier(params, c, points):
    """The same criterion past q^(k1+k2) = 729, on the frontier specs: c
    and |S| as counted, and structural exactly when c = 1 and S holds all
    (Q1 - 1)(Q2 - 1)/(q - 1) points; (2,5,6,1,3) and (2,6,7,3,1) have
    c = 1 and S of index 3."""
    spec = build_code(*params)
    hits = _point_hits(spec)
    assert (len(hits), set(hits.tolist())) == (points, {c})
    assert spec.multiplicity == c
    full = (spec.Q1 - 1) * (spec.Q2 - 1) // (spec.q - 1)
    assert (detect_family(*params) == "structural") == (c == 1 and points == full)


@settings(max_examples=60, deadline=None)
@given(params=st.sampled_from([(2, 2, 3, 1, 1), (3, 3, 2, 2, 1), (9, 1, 1, 4, 1),
                               (4, 2, 1, 3, 1), (4, 2, 3, 3, 1), (7, 1, 2, 2, 3),
                               (5, 3, 1, 4, 1)]),
       data=st.data())
def test_group_count_is_the_rank_formula_on_structural_specs(params, data):
    """N(H) = theta(dim H) - theta(dim H&V1) - theta(dim H&V2) for every
    subspace H, admissible or not; H&V1 is the kernel of the projection
    onto factor 2, and H&V2 that onto factor 1."""
    assert detect_family(*params) == "structural"
    spec = build_code(*params)
    q, K = spec.q, spec.ambient_dim

    def theta(d):
        return (q**d - 1) // (q - 1) if d > 0 else 0

    nrows = data.draw(st.integers(0, K))
    drawn = [np.array(data.draw(st.lists(st.integers(0, q - 1), min_size=nrows * K,
                                         max_size=nrows * K)), dtype=np.int16).reshape(nrows, K)
             for _ in range(data.draw(st.integers(1, 4)))]
    stack = spec.ops.rref_many(padded_stack(drawn, nrows, K))
    meet1 = stack_dims(project_stack(stack, spec, 2)[1])
    meet2 = stack_dims(project_stack(stack, spec, 1)[1])
    want = [theta(h) - theta(a) - theta(b) for h, a, b in zip(stack_dims(stack), meet1, meet2)]
    assert cyclic_group_counts(stack, spec).tolist() == want


@pytest.mark.parametrize("params,values", [
    ((9, 1, 1, 4, 1), [7]),
    ((4, 2, 1, 3, 1), [11, 14]),
    ((4, 3, 4, 1, 3), [4016, 5020, 5271]),
])
def test_closed_form_matches_bruteforce_beyond_the_printed_families(params, values):
    spec = build_code(*params)
    for j, m in enumerate(values, start=1):
        n_j, m_j = evaluate_closed_form(*params, j)
        assert m_j == m == rghw_bruteforce(spec, j)
        assert n_j == spec.n - m


def test_the_family_is_decided_once_per_parameter_tuple(monkeypatch):
    """detect_family is cached, so a closed-form report at every j, the
    refusal check of each request and CodeSpec.structural share one
    decision: the factorizations of q and of q - 1."""
    spec = build_code(3, 2, 3, 1, 2)
    detect_family.cache_clear()
    calls = []
    factor = closed_forms._prime_factors
    monkeypatch.setattr(closed_forms, "_prime_factors", lambda n: calls.append(n) or factor(n))
    for j in range(1, spec.k1 + 1):
        report = compute_report(spec, j, ("closed_form",))
        assert report.closed_form.m == evaluate_closed_form(3, 2, 3, 1, 2, j)[1]
    assert spec.structural
    assert len(calls) <= 2, calls
