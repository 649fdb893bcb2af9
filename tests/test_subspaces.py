"""Subspace enumeration, projections, duality."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rghw.charsum import charsum_zero_counts, nj_via_charsum
from rghw.codes import build_code
from rghw.errors import FieldMismatch, LengthMismatch, RangeError
from rghw.linalg import table_ops
from rghw.gf import build_field
from rghw.subspaces import (
    _pivot_aligned,
    count_for_pivots,
    cyclic_group_counts,
    dual_stack,
    enumerate_subspaces,
    gaussian_binomial,
    intersect_with_cyclic_group,
    stack_members,
    pivot_sets,
    project_stack,
    rref_stack,
    stack_dims,
    stack_rows,
    subspace_from_rows,
)
from rghw.verify import DEFAULT_INSTANCES
from rghw.weights import subspace_support_size, zero_counts

from helpers import padded_stack


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
    assert [b.tolist() for b in bases] == [[[1, 0]], [[1, 1]], [[0, 1]]]
    full = list(enumerate_subspaces(3, 3, 3))
    assert len(full) == 1
    assert full[0].dtype == np.int16 and np.array_equal(full[0], np.eye(3))
    with pytest.raises(RangeError):
        list(enumerate_subspaces(3, 4, 2))


def reference_rref_rows(k, j, q):
    """Reference: the RREF rows of every j-dimensional subspace of F_q^k as
    tuples, pivot sets in lexicographic order, then each row's free entries
    counting in base q, the first row most significant."""
    for pivots in itertools.combinations(range(k), j):
        choices = []
        for pc in pivots:
            free = [c for c in range(pc + 1, k) if c not in pivots]
            options = []
            for values in itertools.product(range(q), repeat=len(free)):
                row = [0] * k
                row[pc] = 1
                for c, v in zip(free, values):
                    row[c] = v
                options.append(tuple(row))
            choices.append(options)
        yield from itertools.product(*choices)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_rref_stack_matches_the_tuple_reference(q):
    for k in range(1, 6):
        for j in range(k + 1):
            stack = rref_stack(k, j, q)
            assert stack.dtype == np.int16 and stack.shape[1:] == (j, k)
            assert [tuple(map(tuple, m)) for m in stack.tolist()] == list(
                reference_rref_rows(k, j, q)), (k, j)


def test_rref_stack_edges():
    assert rref_stack(4, 0, 3).shape == (1, 0, 4)
    assert rref_stack(0, 0, 2).shape == (1, 0, 0)
    with pytest.raises(RangeError):
        rref_stack(3, 4, 2)
    with pytest.raises(RangeError):
        rref_stack(3, -1, 2)


def _is_rref(basis: np.ndarray) -> bool:
    pivots = []
    for row in basis.tolist():
        nz = [i for i, v in enumerate(row) if v]
        if not nz or row[nz[0]] != 1:
            return False
        pivots.append(nz[0])
    if pivots != sorted(pivots) or len(set(pivots)) != len(pivots):
        return False
    for r, row in enumerate(basis.tolist()):
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
            assert basis.shape == (j, k)
            seen.add(basis.tobytes())
        assert len(seen) == gaussian_binomial(k, j, q)


def test_enumeration_155_distinct():
    bases = list(enumerate_subspaces(5, 2, 2))
    assert len(bases) == 155
    assert len({b.tobytes() for b in bases}) == 155


def test_enumeration_deterministic_and_partitionable():
    first = [b.tolist() for b in enumerate_subspaces(4, 2, 3)]
    second = [b.tolist() for b in enumerate_subspaces(4, 2, 3)]
    assert first == second
    counted = sum(count_for_pivots(ps, 4, 3) for ps in pivot_sets(4, 2))
    assert counted == gaussian_binomial(4, 2, 3)


def test_member_matrix_and_membership():
    basis = subspace_from_rows(3, 4, [(1, 0, 2, 1), (0, 1, 1, 2)])
    f3 = build_field(3, 1)
    ops = table_ops(f3)
    members = stack_members(basis[None], ops)[0]
    assert members.shape == (9, 4)
    rows = {tuple(int(v) for v in r) for r in members}
    assert len(rows) == 9
    # padded with a zero row, the basis lists each member q = 3 times
    padded = stack_members(padded_stack([basis], 3, 4), ops)[0]
    assert sorted(map(tuple, padded.tolist())) == sorted(3 * list(rows))
    # closure under addition
    lst = sorted(rows)
    for a in lst:
        for b in lst:
            s = tuple(int(ops.add_table[x, y]) for x, y in zip(a, b))
            assert s in rows
    aligned = _pivot_aligned(basis[None])[0]
    assert ops.rows_in_rowspace(aligned, members).all()
    outside = np.array([[0, 0, 0, 1]], dtype=np.int16)
    assert not ops.rows_in_rowspace(aligned, outside)[0]


def test_subspace_from_rows_canonicalizes():
    raw = [(2, 0, 1), (1, 0, 2)]
    b = subspace_from_rows(3, 3, raw)
    assert b.dtype == np.int16
    assert b.shape == (1, 3)  # second row is a multiple of the first
    assert b.tolist() == [[1, 0, 2]]
    again = subspace_from_rows(3, 3, b)
    assert np.array_equal(again, b)


def project_one(basis, spec, side):
    """project_stack of a one-subspace stack, as (image rows, kernel rows)."""
    image, kernel = project_stack(basis[None], spec, side)
    return stack_rows(image)[0], stack_rows(kernel)[0]


def dual_one(basis, spec):
    """dual_stack of a one-subspace stack, padding rows dropped."""
    dual = dual_stack(basis[None], spec)
    return dual[0, :stack_dims(dual)[0]]


def test_project_edge_cases():
    spec = build_code(2, 2, 3, 1, 1)
    K = spec.ambient_dim
    zero = subspace_from_rows(2, K, np.zeros((0, K), dtype=int), "product")
    assert project_one(zero, spec, 1) == ((), ())

    one_sided = subspace_from_rows(2, K, [(1, 1, 0, 0, 0)], "product")
    assert project_one(one_sided, spec, 2) == ((), stack_rows(one_sided[None])[0])

    # diagonal span of (a1^i, a2^i): first projection injective
    rows = spec.group_vectors[: spec.k1]
    diag = subspace_from_rows(2, K, rows, "product")
    img3, ker3 = project_one(diag, spec, 1)
    assert len(diag) == spec.k1 and ker3 == () and len(img3) == spec.k1
    with pytest.raises(RangeError):
        project_one(diag, spec, 3)


def test_dual_space_examples_and_involution():
    spec = build_code(2, 2, 3, 1, 1)
    K = spec.ambient_dim
    full = subspace_from_rows(2, K, np.eye(K, dtype=int), "product")
    zero = subspace_from_rows(2, K, np.zeros((0, K), dtype=int), "product")
    assert dual_one(full, spec).shape == (0, K)
    assert np.array_equal(dual_one(zero, spec), np.eye(K))

    rng = np.random.default_rng(99)
    for _ in range(40):
        rows = rng.integers(0, 2, size=(2, K))
        h = subspace_from_rows(2, K, rows, "product")
        dual = dual_one(h, spec)
        assert len(dual) == K - len(h)
        assert np.array_equal(dual_one(dual, spec), h)
        # orthogonality under the paired-trace form
        prod = spec.ops.matmul(spec.ops.matmul(h, spec.gram), dual.T)
        assert not prod.any()


def test_intersect_with_cyclic_group_edges():
    spec = build_code(2, 2, 3, 1, 1)
    K = spec.ambient_dim
    full = subspace_from_rows(2, K, np.eye(K, dtype=int), "product")
    zero = subspace_from_rows(2, K, np.zeros((0, K), dtype=int), "product")
    assert intersect_with_cyclic_group(full, spec) == spec.n
    assert intersect_with_cyclic_group(zero, spec) == 0


def test_a_basis_outside_the_product_ambient_is_a_length_mismatch():
    spec = build_code(2, 2, 3, 1, 1)
    outside = np.array([[1, 0, 0, 0, 0, 1]], dtype=np.int16)  # a basis of F_2^6
    calls = [
        lambda: project_stack(outside[None], spec, 1),
        lambda: dual_stack(outside[None], spec),
        lambda: dual_stack(outside[:, :5], spec),  # a basis, not a stack
        lambda: cyclic_group_counts(outside[None], spec),
        lambda: zero_counts(spec, outside[None]),
        lambda: charsum_zero_counts(spec, outside[None]),
        lambda: intersect_with_cyclic_group(outside, spec),
        lambda: subspace_support_size(spec, outside),
        lambda: nj_via_charsum(spec, outside),
        # rows of twice or of neither width K = 5
        lambda: subspace_from_rows(2, 5, [(1, 0, 0, 0, 0, 0, 1, 0, 0, 0)]),
        lambda: subspace_from_rows(2, 5, [(1, 0, 0, 0, 0, 1)]),
    ]
    for call in calls:
        with pytest.raises(LengthMismatch, match="product ambient"):
            call()


def test_a_basis_over_another_field_is_a_field_mismatch():
    """An entry outside 0..q-1, a code of a larger field or a negative
    number, is no code of GF(q): every stack function, the one-element
    wrappers and subspace_from_rows refuse it rather than reduce it mod p
    or index a table with it."""
    spec = build_code(2, 2, 3, 1, 1)
    for entry in (2, 3, -1):
        rows = [(entry, 0, 1, 0, 1)]
        stack = np.array([[(1, 0, 0, 0, 1)], rows], dtype=np.int16)
        calls = [
            lambda: charsum_zero_counts(spec, stack),
            lambda: cyclic_group_counts(stack, spec),
            lambda: zero_counts(spec, stack),
            lambda: dual_stack(stack, spec),
            lambda: project_stack(stack, spec, 1),
            lambda: project_stack(stack, spec, 2),
            lambda: intersect_with_cyclic_group(stack[1], spec),
            lambda: subspace_support_size(spec, stack[1]),
            lambda: nj_via_charsum(spec, stack[1]),
            lambda: subspace_from_rows(2, spec.ambient_dim, rows),
            lambda: subspace_from_rows(2, spec.ambient_dim, rows, "product"),
        ]
        for call in calls:
            with pytest.raises(FieldMismatch, match=r"not all codes of GF\(2\), 0\.\.1"):
                call()
    # the largest code of the field is an entry like any other
    assert subspace_from_rows(2, spec.ambient_dim, [(1, 0, 1, 0, 1)]).tolist() == [[1, 0, 1, 0, 1]]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 3**10 - 1), st.integers(1, 3))
def test_double_dual_hypothesis(seedval, nrows):
    spec = build_code(3, 2, 3, 1, 2)
    K = spec.ambient_dim
    rng = np.random.default_rng(seedval)
    rows = rng.integers(0, 3, size=(nrows, K))
    h = subspace_from_rows(3, K, rows, "product")
    assert np.array_equal(dual_one(dual_one(h, spec), spec), h)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(DEFAULT_INSTANCES + ((4, 2, 3, 1, 3),)), st.sampled_from((1, 2)),
       st.data())
def test_project_stack_is_rank_nullity_exact(params, side, data):
    """Images are the reduced column blocks and kernels the subspace's
    vectors that vanish on the factor, of complementary dimensions.  Every
    stack holds the zero subspace, and the full one when it has K rows; a
    stack of no rows at all is drawn too."""
    spec = build_code(*params)
    K, q, ops = spec.ambient_dim, spec.q, spec.ops
    cols = slice(0, spec.k1) if side == 1 else slice(spec.k1, K)
    width = cols.stop - cols.start
    nrows = data.draw(st.integers(0, K))
    drawn = [np.zeros((nrows, K), dtype=np.int16)]
    for _ in range(data.draw(st.integers(0, 4))):
        values = data.draw(st.lists(st.integers(0, q - 1), min_size=nrows * K,
                                    max_size=nrows * K))
        drawn.append(np.array(values, dtype=np.int16).reshape(nrows, K))
    if nrows == K:
        drawn.append(np.eye(K, dtype=np.int16))
    stack = ops.rref_many(padded_stack(drawn, nrows, K))
    images, kernels = project_stack(stack, spec, side)
    assert images.shape == (len(drawn), nrows, width)
    assert kernels.shape == (len(drawn), nrows, K)
    for basis, image, kernel, dim in zip(stack, images, kernels, stack_dims(stack)):
        want_image, _ = ops.rref(basis[:, cols])
        assert stack_rows(image[None])[0] == tuple(map(tuple, want_image.tolist()))
        kernel_rows = kernel[kernel.any(axis=1)]
        assert len(want_image) + len(kernel_rows) == dim
        # the kernel is reduced, lies in the subspace and vanishes on the factor
        assert (ops.rref(kernel_rows)[0] == kernel_rows).all()
        assert ops.rows_in_rowspace(_pivot_aligned(basis[None])[0], kernel_rows).all()
        assert not kernel_rows[:, cols].any()
    assert stack_dims(images)[0] == stack_dims(kernels)[0] == 0
    if nrows == K:
        assert stack_dims(images)[-1] == width and stack_dims(kernels)[-1] == K - width


def projection_digest(params) -> str:
    """SHA-256 of (H, image1, kernel1, image2 of the dual of H) rows over
    every subspace H of the product ambient, in enumeration order."""
    spec = build_code(*params)
    K = spec.ambient_dim
    bases = [H for j in range(K + 1) for H in enumerate_subspaces(K, j, spec.q)]
    padded = padded_stack(bases, K, K)
    image1, kernel1 = project_stack(padded, spec, 1)
    image2, _ = project_stack(dual_stack(padded, spec), spec, 2)
    digest = hashlib.sha256()
    for rows in zip(*map(stack_rows, (padded, image1, kernel1, image2))):
        digest.update(repr(rows).encode())
    return digest.hexdigest()


# taken with the single-subspace projection the stacked one replaced
PINNED_PROJECTIONS = {
    (2, 2, 3, 1, 1): "9befaa7c3f99fe4e7eea5414da57b1cbf82048f9e9e586f7fa7b3657a7b42635",
    (3, 2, 3, 1, 2): "f3dd2bb5abe327c5b7fe879e6779f5eb15faa85dfe829627c602c9f568253803",
}


def test_projection_bytes_are_pinned():
    assert {params: projection_digest(params) for params in PINNED_PROJECTIONS} == PINNED_PROJECTIONS
