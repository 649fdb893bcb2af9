"""Subspace enumeration, projections, duality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rghw.codes import build_code
from rghw.errors import RangeError
from rghw.linalg import table_ops
from rghw.gf import build_field
from rghw.subspaces import (
    SubspaceBasis,
    count_for_pivots,
    dual_subspace,
    enumerate_subspaces,
    gaussian_binomial,
    intersect_with_cyclic_group,
    member_matrix,
    pivot_sets,
    project,
    subspace_from_rows,
)


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 0, 2) == 1
    assert gaussian_binomial(2, 1, 2) == 3
    # oracle: (2^5-1)(2^4-1) / ((2^2-1)(2^1-1))
    assert gaussian_binomial(5, 2, 2) == (31 * 15) // (3 * 1) == 155
    assert gaussian_binomial(5, 2, 3) == (3**5 - 1) * (3**4 - 1) // ((3**2 - 1) * 2)
    with pytest.raises(RangeError):
        gaussian_binomial(3, 4, 2)
    with pytest.raises(RangeError):
        gaussian_binomial(3, -1, 2)


def test_enumerate_smallest_cases():
    bases = list(enumerate_subspaces(2, 1, 2))
    assert [b.rows for b in bases] == [((1, 0),), ((1, 1),), ((0, 1),)]
    full = list(enumerate_subspaces(3, 3, 3))
    assert len(full) == 1
    assert full[0].rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(RangeError):
        list(enumerate_subspaces(3, 4, 2))


def _is_rref(basis: SubspaceBasis) -> bool:
    pivots = []
    for row in basis.rows:
        nz = [i for i, v in enumerate(row) if v]
        if not nz or row[nz[0]] != 1:
            return False
        pivots.append(nz[0])
    if pivots != sorted(pivots) or len(set(pivots)) != len(pivots):
        return False
    for r, row in enumerate(basis.rows):
        for r2, p in enumerate(pivots):
            if r2 != r and row[p] != 0:
                return False
    return True


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_enumeration_complete_and_canonical(q, k):
    for j in range(k + 1):
        seen = set()
        for basis in enumerate_subspaces(k, j, q):
            assert _is_rref(basis)
            assert basis.dim == j
            seen.add(basis.rows)
        assert len(seen) == gaussian_binomial(k, j, q)


def test_enumeration_155_distinct():
    bases = list(enumerate_subspaces(5, 2, 2))
    assert len(bases) == 155
    assert len({b.rows for b in bases}) == 155


def test_enumeration_deterministic_and_partitionable():
    first = [b.rows for b in enumerate_subspaces(4, 2, 3)]
    second = [b.rows for b in enumerate_subspaces(4, 2, 3)]
    assert first == second
    # pivot partitions reproduce the same stream in the same order
    parts = []
    for ps in pivot_sets(4, 2):
        parts.extend(b.rows for b in enumerate_subspaces(4, 2, 3, pivots_subset=[ps]))
    assert parts == first
    counted = sum(count_for_pivots(ps, 4, 3) for ps in pivot_sets(4, 2))
    assert counted == gaussian_binomial(4, 2, 3)


def test_member_matrix_and_membership():
    basis = subspace_from_rows(3, 4, [(1, 0, 2, 1), (0, 1, 1, 2)])
    members = member_matrix(basis)
    assert members.shape == (9, 4)
    rows = {tuple(int(v) for v in r) for r in members}
    assert len(rows) == 9
    f3 = build_field(3, 1)
    ops = table_ops(f3)
    # closure under addition
    lst = sorted(rows)
    for a in lst:
        for b in lst:
            s = tuple(int(ops.add_table[x, y]) for x, y in zip(a, b))
            assert s in rows
    assert ops.rows_in_rowspace(basis.matrix(), basis.pivots, members).all()
    outside = np.array([[0, 0, 0, 1]], dtype=np.int16)
    assert not ops.rows_in_rowspace(basis.matrix(), basis.pivots, outside)[0]


def test_subspace_from_rows_canonicalizes():
    raw = [(2, 0, 1), (1, 0, 2)]
    b = subspace_from_rows(3, 3, raw)
    assert b.dim == 1  # second row is a multiple of the first
    assert b.rows == ((1, 0, 2),)
    again = subspace_from_rows(3, 3, b.rows)
    assert again.rows == b.rows


def test_project_edge_cases():
    spec = build_code(2, 2, 3, 1, 1)
    K, k1, k2 = spec.ambient_dim, spec.k1, spec.k2
    zero = subspace_from_rows(2, K, np.zeros((0, K), dtype=int), "product")
    img, ker = project(zero, k1, k2, 1)
    assert img.dim == 0 and ker.dim == 0

    one_sided = subspace_from_rows(2, K, [(1, 1, 0, 0, 0)], "product")
    img2, ker2 = project(one_sided, k1, k2, 2)
    assert img2.dim == 0 and ker2.rows == one_sided.rows

    # diagonal span of (a1^i, a2^i): first projection injective
    rows = spec.group_vectors[: spec.k1]
    diag = subspace_from_rows(2, K, rows, "product")
    img3, ker3 = project(diag, k1, k2, 1)
    assert diag.dim == spec.k1 and ker3.dim == 0 and img3.dim == spec.k1
    with pytest.raises(RangeError):
        project(diag, k1, k2, 3)


def test_dual_space_examples_and_involution():
    spec = build_code(2, 2, 3, 1, 1)
    K = spec.ambient_dim
    full = subspace_from_rows(2, K, np.eye(K, dtype=int), "product")
    zero = subspace_from_rows(2, K, np.zeros((0, K), dtype=int), "product")
    assert dual_subspace(full, spec).dim == 0
    assert dual_subspace(zero, spec).dim == K

    rng = np.random.default_rng(99)
    for _ in range(40):
        rows = rng.integers(0, 2, size=(2, K))
        h = subspace_from_rows(2, K, rows, "product")
        dual = dual_subspace(h, spec)
        assert dual.dim == K - h.dim
        assert dual_subspace(dual, spec).rows == h.rows
        # orthogonality under the paired-trace form
        prod = spec.ops.matmul(spec.ops.matmul(h.matrix(), spec.gram), dual.matrix().T)
        assert not prod.any()


def test_intersect_with_cyclic_group_edges():
    spec = build_code(2, 2, 3, 1, 1)
    K = spec.ambient_dim
    full = subspace_from_rows(2, K, np.eye(K, dtype=int), "product")
    zero = subspace_from_rows(2, K, np.zeros((0, K), dtype=int), "product")
    assert intersect_with_cyclic_group(full, spec) == spec.n
    assert intersect_with_cyclic_group(zero, spec) == 0


def test_intersection_characterizations_agree_everywhere():
    spec = build_code(2, 2, 3, 1, 1)
    K, k1, k2 = spec.ambient_dim, spec.k1, spec.k2
    ops = spec.ops
    eye2 = np.zeros((k2, K), dtype=np.int16)
    for t in range(k2):
        eye2[t, k1 + t] = 1
    for j in range(K + 1):
        for h in enumerate_subspaces(K, j, 2, ambient="product"):
            stacked = np.vstack([h.matrix(), eye2]) if h.dim else eye2
            p_a = h.dim + k2 - ops.rank(stacked) == 0
            _, kernel = project(h, k1, k2, 1)
            p_b = kernel.dim == 0
            image2_dual, _ = project(dual_subspace(h, spec), k1, k2, 2)
            p_c = image2_dual.dim == k2
            assert p_a == p_b == p_c


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 3**10 - 1), st.integers(1, 3))
def test_double_dual_hypothesis(seedval, nrows):
    spec = build_code(3, 2, 3, 1, 2)
    K = spec.ambient_dim
    rng = np.random.default_rng(seedval)
    rows = rng.integers(0, 3, size=(nrows, K))
    h = subspace_from_rows(3, K, rows, "product")
    assert dual_subspace(dual_subspace(h, spec), spec).rows == h.rows
