"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line when its criterion holds (run with
``pytest tests/test_acceptance.py -v -s`` to see them); a failure keeps the
assertion message. Tolerances are fixed here and nowhere else: exact
integer equality for the route identities, 1e-6 for the subspace oracle,
1e-9 for the Gauss-sum identities.
"""

import numpy as np
import pytest

from rghw.charsum import nj_via_charsum
from rghw.closed_forms import evaluate_closed_form
from rghw.codes import build_code, codeword, parity_check_polynomial
from rghw.subspaces import (
    dual_subspace,
    enumerate_subspaces,
    gaussian_binomial,
    project,
    subspace_from_rows,
)
from rghw.verify import gauss_suite
from rghw.weights import mj_dual_count, nj_of_subspace, rghw_bruteforce

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
    worst = 0.0
    total = 0
    for params in GRID:
        spec = build_code(*params)
        assert spec.coprime_orders
        rng = np.random.default_rng([2024, 4, *params])
        for i in range(100):
            j = 1 + i % spec.k1
            rows = rng.integers(0, spec.q, size=(j, spec.ambient_dim))
            d = subspace_from_rows(spec.q, spec.ambient_dim, rows, "product")
            residual = abs(nj_via_charsum(spec, d) - nj_of_subspace(spec, d))
            worst = max(worst, residual)
            assert residual < ORACLE_TOL, f"{params}: residual {residual}"
            total += 1
    _announce(
        "criterion-4 character-sum oracle",
        f"{total} random subspaces, max residual {worst:.3e} < 1e-6",
    )


def test_criterion_5_gauss_identity_suite():
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
    spec = build_code(*params)
    words = {
        codeword(spec, b1, b2).coords
        for b1 in range(spec.Q1)
        for b2 in range(spec.Q2)
    }
    assert len(words) == spec.q ** (spec.k1 + spec.k2)
    h = parity_check_polynomial(spec)
    assert h.degree == spec.k1 + spec.k2
    fq = spec.field_q
    k = h.degree
    for w in words:
        for i in range(spec.n):
            acc = 0
            for t in range(k + 1):
                acc = fq.add(acc, fq.mul(h.coeffs[k - t], w[(i + t) % spec.n]))
            assert acc == 0, f"recurrence fails at word {w}, offset {i}"
    _announce(
        "criterion-6 structural checks",
        f"{params}: {len(words)} words, parity degree {h.degree}, recurrence green",
    )


def test_criterion_7_subspace_engine():
    for q in (2, 3):
        for k in range(1, 7):
            for j in range(k + 1):
                count = 0
                seen = set()
                for basis in enumerate_subspaces(k, j, q):
                    count += 1
                    seen.add(basis.rows)
                expected = gaussian_binomial(k, j, q)
                assert count == len(seen) == expected, (q, k, j)

    specs = [build_code(2, 2, 3, 1, 1), build_code(3, 2, 3, 1, 2)]
    rng = np.random.default_rng(20240807)
    for idx in range(1000):
        spec = specs[idx % 2]
        K = spec.ambient_dim
        j = int(rng.integers(0, K + 1))
        rows = rng.integers(0, spec.q, size=(j, K))
        h = subspace_from_rows(spec.q, K, rows, "product")
        assert dual_subspace(dual_subspace(h, spec), spec).rows == h.rows
    _announce(
        "criterion-7 subspace engine",
        "counts match for k<=6, q in {2,3}; 1000 duality round-trips",
    )


def test_criterion_8_intersection_characterizations():
    spec = build_code(2, 2, 3, 1, 1)
    K, k1, k2 = spec.ambient_dim, spec.k1, spec.k2
    ops = spec.ops
    eye2 = np.zeros((k2, K), dtype=np.int16)
    for t in range(k2):
        eye2[t, k1 + t] = 1
    total = 0
    for j in range(K + 1):
        for h in enumerate_subspaces(K, j, 2, ambient="product"):
            stacked = np.vstack([h.matrix(), eye2]) if h.dim else eye2
            p_a = h.dim + k2 - ops.rank(stacked) == 0
            _, kernel = project(h, k1, k2, 1)
            p_b = kernel.dim == 0
            image2_dual, _ = project(dual_subspace(h, spec), k1, k2, 2)
            p_c = image2_dual.dim == k2
            assert p_a == p_b == p_c, f"disagree on {h.rows}"
            total += 1
    assert total == sum(gaussian_binomial(K, j, 2) for j in range(K + 1))
    _announce(
        "criterion-8 intersection predicates",
        f"all {total} subspaces of every dimension agree",
    )
