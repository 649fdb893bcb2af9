"""The pivot-set scan kernel against definition-level references."""

import math

import numpy as np
import pytest

from rghw import weights
from rghw.closed_forms import binary_pair_nj
from rghw.codes import build_code
from rghw.errors import CapExceeded, RghwError
from rghw.subspaces import (
    base_field,
    enumerate_subspaces,
    gaussian_binomial,
    intersect_with_cyclic_group,
    subspace_from_rows,
)
from rghw.linalg import table_ops
from rghw.weights import (
    admissible_pivot_sets,
    ghw_bruteforce,
    mj_dual_count,
    rghw_bruteforce,
    subspace_support_size,
)

GRID_LIMIT = 81  # q^(k1+k2) bound of the exhaustive grid


@pytest.mark.parametrize("q,k1,k2", [(2, 2, 3), (2, 3, 2), (3, 2, 3), (2, 3, 4)])
def test_pivot_set_admissibility_matches_rank_conditions(q, k1, k2):
    ops = table_ops(base_field(q))
    K = k1 + k2
    for mode in ("min_support", "max_group"):
        # the scan enumerates in its working column order
        order = weights._column_order(k1, k2, mode)
        for dim in range(K + 1):
            admissible = set(admissible_pivot_sets(k1, k2, dim, mode))
            for basis in enumerate_subspaces(K, dim, q):
                mat = np.empty((dim, K), dtype=np.int16)
                mat[:, order] = basis.matrix()
                if mode == "min_support":
                    want = ops.rank(mat[:, :k1]) == dim
                else:
                    want = ops.rank(mat[:, k1:]) == k2
                assert (basis.pivots in admissible) == want, (mode, basis.rows)


def small_grid():
    """Every (q,k1,k2,e1,e2) that build_code accepts with q^(k1+k2) <= 81."""
    out = []
    for q in range(2, math.isqrt(GRID_LIMIT) + 1):
        for k1 in range(1, GRID_LIMIT.bit_length()):
            for k2 in range(1, GRID_LIMIT.bit_length()):
                if q ** (k1 + k2) > GRID_LIMIT:
                    continue
                for e1 in range(1, q**k1):
                    for e2 in range(1, q**k2):
                        if (q**k1 - 1) % e1 or (q**k2 - 1) % e2:
                            continue
                        try:
                            out.append(build_code(q, k1, k2, e1, e2))
                        except RghwError:
                            continue
    return out


def definition_reference(spec):
    """Per dimension d: min support over all d-dim subspaces (GHW), over
    those with injective first projection (RGHW), and max group count over
    those with onto second projection, straight from the enumeration."""
    K, k1, k2, ops = spec.ambient_dim, spec.k1, spec.k2, spec.ops
    ghw, rghw, group = {}, {}, {}
    for d in range(1, K + 1):
        for basis in enumerate_subspaces(K, d, spec.q, ambient="product"):
            mat = basis.matrix()
            supp = subspace_support_size(spec, basis)
            ghw[d] = min(ghw.get(d, supp), supp)
            if ops.rank(mat[:, :k1]) == d:
                rghw[d] = min(rghw.get(d, supp), supp)
            if ops.rank(mat[:, k1:]) == k2:
                count = intersect_with_cyclic_group(basis, spec)
                group[d] = max(group.get(d, count), count)
    return ghw, rghw, group


def test_grid_routes_match_the_definition():
    specs = small_grid()
    assert len(specs) == 34
    for spec in specs:
        K, k1, k2 = spec.ambient_dim, spec.k1, spec.k2
        ghw, rghw, group = definition_reference(spec)
        for j in range(1, K + 1):
            assert ghw_bruteforce(spec, j) == ghw[j], (spec, j)
        for j in range(1, k1 + 1):
            assert rghw_bruteforce(spec, j) == rghw[j], (spec, j)
            dual = mj_dual_count(spec, j)
            assert (dual.n_j, dual.m) == (group[K - j], spec.n - group[K - j]), (spec, j)
            assert dual.m == rghw[j], (spec, j)
            # the argmax is a canonical basis that attains N_j and is onto GF(Q2)
            arg = dual.argmax
            assert arg.dim == K - j
            assert subspace_from_rows(spec.q, K, arg.rows).rows == arg.rows
            assert intersect_with_cyclic_group(arg, spec) == dual.n_j
            assert spec.ops.rank(arg.matrix()[:, k1:]) == k2


def test_frontier_instances():
    spec = build_code(2, 4, 5, 1, 1)
    for j in (1, 2, 3):
        n_j, m_j = binary_pair_nj(4, 5, j)
        dual = mj_dual_count(spec, j)
        assert rghw_bruteforce(spec, j) == dual.m == m_j
        assert dual.n_j == n_j
    spec = build_code(3, 3, 4, 1, 2)
    got = [(rghw_bruteforce(spec, j), mj_dual_count(spec, j).m) for j in (1, 2)]
    assert got == [(345, 345), (460, 460)]


def test_cap_counts_admissible_subspaces():
    spec = build_code(2, 2, 3, 1, 1)
    q, k1, k2 = spec.q, spec.k1, spec.k2
    for j in (1, 2):
        # [k1, j]_q q^(j k2) admissible subspaces on either side
        count = gaussian_binomial(k1, j, q) * q ** (j * k2)
        assert rghw_bruteforce(spec, j, cap=count) == (10, 15)[j - 1]
        assert mj_dual_count(spec, j, cap=count).m == (10, 15)[j - 1]
        with pytest.raises(CapExceeded):
            rghw_bruteforce(spec, j, cap=count - 1)
        with pytest.raises(CapExceeded):
            mj_dual_count(spec, j, cap=count - 1)


def test_table_bound_raises_before_allocating(monkeypatch):
    spec = build_code(2, 2, 3, 1, 1)
    support_bytes = spec.q**spec.ambient_dim * -(-spec.n // 8)
    monkeypatch.setattr(weights, "TABLE_CAP_BYTES", support_bytes)
    assert rghw_bruteforce(spec, 1) == 10
    monkeypatch.setattr(weights, "TABLE_CAP_BYTES", support_bytes - 1)

    def no_table(*args):
        raise AssertionError("table allocated past the bound")

    monkeypatch.setattr(weights, "_SupportTable", no_table)
    with pytest.raises(CapExceeded):
        rghw_bruteforce(spec, 1)
    with pytest.raises(CapExceeded):
        ghw_bruteforce(spec, 1)
    # the dual route holds per-column tables only, far below the support table
    assert mj_dual_count(spec, 1).m == 10
    monkeypatch.setattr(weights, "TABLE_CAP_BYTES", 0)
    with pytest.raises(CapExceeded):
        mj_dual_count(spec, 1)
