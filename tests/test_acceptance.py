"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line when its criterion holds (run with
``pytest tests/test_acceptance.py -v -s`` to see them); a failure keeps the
assertion message. Tolerances are pinned here: exact integer equality for
the route identities, 1e-6 for the subspace oracle, 1e-9 for the Gauss-sum
identities; criteria 4 and 5 check that the verify suites use these values.
Criteria 4 to 8 run the verify suites, with the instances and sample counts
stated in each test.
"""

import pytest

from rghw import verify
from rghw.closed_forms import evaluate_closed_form
from rghw.codes import build_code
from rghw.subspaces import gaussian_binomial
from rghw.verify import charsum_suite, codes_suite, gauss_suite, subspaces_suite
from rghw.weights import mj_dual_count, rghw_bruteforce

GRID = (
    (2, 2, 3, 1, 1),
    (2, 3, 2, 1, 1),
    (2, 2, 5, 1, 1),
    (2, 3, 4, 1, 1),
    (3, 2, 3, 1, 2),
)

ORACLE_TOL = 1e-6
GAUSS_TOL = 1e-9


def _announce(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")

def test_criterion_1_route_identity_across_grid():
    checked = 0
    for params in GRID:
        spec = build_code(*params)
        for j in range(1, spec.k1 + 1):
            brute = rghw_bruteforce(spec, j)
            dual = mj_dual_count(spec, j)
            assert brute == dual.m, f"{params} j={j}: {brute} != {dual.m}"
            checked += 1
    _announce("criterion-1 route identity", f"{checked} (instance, j) pairs exact")


def test_criterion_2_binary_closed_form_reproduction():
    spec23 = build_code(2, 2, 3, 1, 1)
    values23 = [evaluate_closed_form(2, 2, 3, 1, 1, j)[1] for j in (1, 2)]
    assert values23 == [10, 15]
    assert values23 == [rghw_bruteforce(spec23, j) for j in (1, 2)]

    spec32 = build_code(2, 3, 2, 1, 1)
    values32 = [evaluate_closed_form(2, 3, 2, 1, 1, j)[1] for j in (1, 2, 3)]
    assert values32 == [10, 15, 18]
    assert values32 == [rghw_bruteforce(spec32, j) for j in (1, 2, 3)]
    _announce(
        "criterion-2 binary closed form",
        "(2,3) -> [10, 15]; (3,2) -> [10, 15, 18], brute-force confirmed",
    )


def test_criterion_3_ternary_closed_form_reproduction():
    spec = build_code(3, 2, 3, 1, 2)
    assert spec.n == 104
    for j, expected in ((1, 69), (2, 92)):
        closed = evaluate_closed_form(3, 2, 3, 1, 2, j)[1]
        brute = rghw_bruteforce(spec, j)
        dual = mj_dual_count(spec, j).m
        assert closed == brute == dual == expected
    _announce("criterion-3 ternary closed form", "n=104, M=[69, 92] on all routes")


def test_criterion_4_charsum_oracle():
    # 100 random subspaces per instance, drawn from the [2024, 4, *params] streams
    assert verify.ORACLE_TOL == ORACLE_TOL
    result = charsum_suite(seed=2024, samples=100, instances=GRID)
    assert result.passed, result.failures[:5]
    assert result.notes["instances"] == [list(p) for p in GRID]  # none skipped
    assert result.checks == 100 * len(GRID)
    worst = result.notes["max_residual"]
    assert worst < ORACLE_TOL
    _announce(
        "criterion-4 character-sum oracle",
        f"{result.checks} random subspaces, max residual {worst:.3e} < 1e-6",
    )


def test_criterion_5_gauss_identity_suite():
    assert verify.GAUSS_TOL == GAUSS_TOL
    result = gauss_suite(max_size=81)
    assert result.passed, result.failures[:5]
    worst = result.notes["max_residual"]
    assert worst < GAUSS_TOL
    _announce(
        "criterion-5 Gauss identities",
        f"fields up to 81, {result.checks} checks, max residual {worst:.3e} < 1e-9",
    )


@pytest.mark.parametrize("params", [(2, 2, 3, 1, 1), (3, 2, 3, 1, 2)])
def test_criterion_6_structural_checks(params):
    # injectivity of the codeword map, parity-check degree k1 + k2, and the
    # recurrence on every codeword, among the suite's ten checks
    result = codes_suite(instances=(params,))
    assert result.passed, result.failures[:5]
    assert result.checks == 10
    _announce(
        "criterion-6 structural checks",
        f"{params}: {result.checks} checks over all codewords, recurrence green",
    )


# Every subspace of every dimension of the (2,2,3,1,1) product space F_2^5.
ALL_SUBSPACES_223 = sum(gaussian_binomial(5, j, 2) for j in range(6))


def test_criterion_7_subspace_engine():
    # enumeration counts for q in {2, 3}, k <= 6, every j; then 1000 duality
    # round-trips split over the two instances, two checks each; the suite
    # also sweeps the intersection predicates on its first instance
    result = subspaces_suite(instances=((2, 2, 3, 1, 1), (3, 2, 3, 1, 2)),
                             max_dim=6, roundtrips=1000)
    assert result.passed, result.failures[:5]
    counts = 2 * sum(k + 1 for k in range(1, 7))
    assert result.checks == counts + 2 * 1000 + 2 * ALL_SUBSPACES_223
    _announce(
        "criterion-7 subspace engine",
        "counts match for k<=6, q in {2,3}; 1000 duality round-trips",
    )


def test_criterion_8_intersection_characterizations():
    # no enumeration counts (max_dim=0) and a single round-trip: the checks
    # left are rank-nullity and the three intersection predicates on every
    # subspace of (2,2,3,1,1)
    result = subspaces_suite(instances=((2, 2, 3, 1, 1),), max_dim=0, roundtrips=1)
    assert result.passed, result.failures[:5]
    assert result.checks == 2 * 1 + 2 * ALL_SUBSPACES_223
    _announce(
        "criterion-8 intersection predicates",
        f"all {ALL_SUBSPACES_223} subspaces of every dimension agree",
    )
