"""Closed-form evaluators against the exhaustive routes."""

import pytest

from collections import Counter

from rghw.closed_forms import detect_family, evaluate_closed_form
from rghw.codes import build_code
from rghw.errors import DegenerateOrder, HypothesisViolated, RangeError
from rghw.weights import mj_dual_count, rghw_bruteforce


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
        evaluate_closed_form(2, 1, 2, 1, 1, 1)  # k1 < 2, and no index family
    assert detect_family(2, 1, 3, 1, 1) != "binary_pair"  # k1 < 2
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
    assert spec.d == 3 and not spec.coprime_orders
    with pytest.raises(HypothesisViolated):
        evaluate_closed_form(4, 2, 3, 1, 3, 1)
    assert detect_family(4, 2, 3, 1, 3) is None
    with pytest.raises(HypothesisViolated):
        evaluate_closed_form(4, 3, 2, 3, 1, 1)


def test_q4_family_member_matches_bruteforce():
    # q - 1 = 3 is not a power of two, so this leans on the extra
    # gcd(q-1, k2) = 1 validation; kept to j = 1 and one route for runtime
    spec = build_code(4, 2, 5, 1, 3)
    assert spec.coprime_orders and spec.n == 15 * 341
    n_j, m_j = evaluate_closed_form(4, 2, 5, 1, 3, 1)
    assert m_j == rghw_bruteforce(spec, 1)
    assert spec.n - n_j == m_j


def test_detect_family_priorities():
    assert detect_family(2, 2, 3, 1, 1) == "binary_pair"
    assert detect_family(2, 2, 5, 1, 1) == "binary_pair"  # binary wins at q=2
    assert detect_family(3, 2, 3, 1, 2) == "index_one_qminus1"
    assert detect_family(3, 3, 2, 2, 1) == "index_qminus1_one"
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
    assert counts == {"binary_pair": 44, "index_one_qminus1": 198,
                      "index_qminus1_one": 198, None: 13460}


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
