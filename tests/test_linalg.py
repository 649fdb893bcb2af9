"""Elimination over small fields: rref, the membership test and the dual
subspace, for single matrices and for stacks; a Python-row nullspace is
the reference for the stacked kernels."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rghw.codes import build_code
from rghw import gf
from rghw.gf import field_for_size
from rghw.linalg import last_axis_first, table_ops
from rghw.subspaces import (
    _pivot_aligned,
    dual_stack,
    rref_stack,
    stack_dims,
    stack_rows,
)
from rghw.verify import DEFAULT_INSTANCES

from helpers import basis, dual_one

QS = (2, 3, 4, 5, 8, 9)
DUAL_SPECS = ((4, 2, 3, 1, 3), (5, 2, 3, 1, 4))


def entries(draw, q: int, *shape: int) -> np.ndarray:
    size = int(np.prod(shape))
    values = draw(st.lists(st.integers(0, q - 1), min_size=size, max_size=size))
    return np.array(values, dtype=np.int16).reshape(shape)


def low_rank(draw, q: int, nrows: int, ncols: int) -> np.ndarray:
    """An nrows x ncols matrix over GF(q) of rank at most a drawn r, so that
    rank-deficient inputs are common."""
    r = draw(st.integers(0, min(nrows, ncols)))
    ops = table_ops(field_for_size(q))
    return ops.matmul(entries(draw, q, nrows, r), entries(draw, q, r, ncols))


@st.composite
def matrices(draw):
    """(q, M) with M up to 8 x 10 over GF(q), often rank-deficient."""
    q = draw(st.sampled_from(QS))
    nrows, ncols = draw(st.integers(0, 8)), draw(st.integers(1, 10))
    return q, low_rank(draw, q, nrows, ncols)


@st.composite
def stacks(draw):
    """(q, S) with S a stack of up to 6 matrices of up to 6 x 10 over GF(q),
    each often rank-deficient; 0-row and empty stacks included."""
    q = draw(st.sampled_from(QS))
    nmats, nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6)), draw(st.integers(1, 10))
    mats = [low_rank(draw, q, nrows, ncols) for _ in range(nmats)]
    return q, np.array(mats, dtype=np.int16).reshape(nmats, nrows, ncols)


def nullspace(ops, mat) -> np.ndarray:
    """Canonical basis (rows, RREF) of {v : mat @ v = 0}, on Python rows.

    Each free column fc of the RREF gives one kernel vector: e_fc minus
    the RREF's column fc placed on the pivot columns.
    """
    mat = np.asarray(mat, dtype=np.int16)
    ncols = mat.shape[1]
    red, pivots = ops.rref(mat)
    red = red.tolist()
    rows = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        row = [0] * ncols
        row[fc] = 1
        for r, pc in enumerate(pivots):
            row[pc] = ops.field.neg(red[r][fc])
        rows.append(row)
    return ops.rref(np.array(rows, dtype=np.int16).reshape(-1, ncols))[0]


def assert_rref(red: np.ndarray, pivots: tuple) -> None:
    """red is in reduced row echelon form with the given pivot columns."""
    assert red.dtype == np.int16 and red.shape[0] == len(pivots)
    assert list(pivots) == sorted(set(pivots))
    for r, p in enumerate(pivots):
        assert not red[r, :p].any() and red[r, p] == 1
        assert not np.delete(red[:, p], r).any()


def test_cached_lookup_tables_refuse_writes():
    ops = table_ops(field_for_size(4))
    for table in (ops.add_table, ops.mul_table, ops.neg_table, ops.inv_table):
        with pytest.raises(ValueError):
            table[1] = 0
    assert table_ops(field_for_size(4)).add_table[1].tolist() == [1, 0, 3, 2]


@pytest.mark.parametrize("q", [q for q in range(2, 82) if len(gf._prime_factors(q)) == 1])
def test_lookup_tables_are_the_scalar_operations(q):
    field = field_for_size(q)
    ops = table_ops(field)
    assert ops.add_table.dtype == ops.mul_table.dtype == np.int16
    assert ops.add_table.tolist() == [[field.add(a, b) for b in range(q)] for a in range(q)]
    assert ops.mul_table.tolist() == [[field.mul(a, b) for b in range(q)] for a in range(q)]


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rref_is_reduced_spans_the_input_and_is_idempotent(case):
    q, mat = case
    ops = table_ops(field_for_size(q))
    nrows, ncols = mat.shape
    red, pivots = ops.rref(mat)
    assert_rref(red, pivots)
    assert red.shape[1] == ncols
    # every input row lies in the span of red ...
    assert ops.rows_in_rowspace(_pivot_aligned(red[None])[0], mat).all()
    # ... and every row of red in the span of the input: eliminating [M | I]
    # records the combination of input rows that gives each row of red
    ext, ext_pivots = ops.rref(np.hstack([mat, np.eye(nrows, dtype=np.int16)]))
    rank = len(pivots)
    assert ext_pivots[:rank] == pivots and (ext[:rank, :ncols] == red).all()
    assert (ops.matmul(ext[:rank, ncols:], mat) == red).all()
    again, again_pivots = ops.rref(red)
    assert again_pivots == pivots and (again == red).all()


@settings(max_examples=300, deadline=None)
@given(stacks())
def test_rref_many_is_rref_matrix_by_matrix(case):
    q, stack = case
    ops = table_ops(field_for_size(q))
    red = ops.rref_many(stack)
    assert red.dtype == np.int16 and red.shape == stack.shape
    for mat, got in zip(stack, red):
        want, pivots = ops.rref(mat)
        assert (got[:len(pivots)] == want).all() and not got[len(pivots):].any()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(QS), st.data())
def test_stacked_matmul_is_matmul_slice_by_slice(q, data):
    ops = table_ops(field_for_size(q))
    nmats, r, k, c = (data.draw(st.integers(0, 5)) for _ in range(4))
    a = entries(data.draw, q, nmats, r, k)
    b = entries(data.draw, q, nmats, k, c)
    shared = entries(data.draw, q, r, k)
    got = ops.matmul(a, b)
    assert got.dtype == np.int16 and got.shape == (nmats, r, c)
    assert all((got[t] == ops.matmul(a[t], b[t])).all() for t in range(nmats))
    broadcast = ops.matmul(shared, b)
    assert all((broadcast[t] == ops.matmul(shared, b[t])).all() for t in range(nmats))


KERNEL_QS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27)


def scalar_matmul(field, a: np.ndarray, b: np.ndarray) -> list:
    """(r x k) @ (k x c) as nested lists, a triple loop through the field's
    scalar operations."""
    out = []
    for row in a.tolist():
        out_row = []
        for col in b.T.tolist():
            acc = 0
            for x, y in zip(row, col):
                acc = field.add(acc, field.mul(x, y))
            out_row.append(acc)
        out.append(out_row)
    return out


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(KERNEL_QS), st.data())
def test_stacked_kernels_are_the_scalar_reference(q, data):
    # matmul on 2-D operands and on stacks broadcast against a 2-D operand,
    # and rref_many, against the triple loop and rref matrix by matrix; the
    # first rows of every matrix of the stack are zero
    field = field_for_size(q)
    ops = table_ops(field)
    nmats, r, k, c = (data.draw(st.integers(0, 5)) for _ in range(4))
    stack = np.array([low_rank(data.draw, q, r, k) for _ in range(nmats)],
                     dtype=np.int16).reshape(nmats, r, k)
    stack[:, :data.draw(st.integers(0, r))] = 0
    b = entries(data.draw, q, nmats, k, c)
    shared = entries(data.draw, q, k, c)
    got, broadcast, red = ops.matmul(stack, b), ops.matmul(stack, shared), ops.rref_many(stack)
    assert got.dtype == broadcast.dtype == red.dtype == np.int16
    assert got.shape == broadcast.shape == (nmats, r, c) and red.shape == stack.shape
    for t, mat in enumerate(stack):
        assert got[t].tolist() == scalar_matmul(field, mat, b[t])
        want = scalar_matmul(field, mat, shared)
        assert broadcast[t].tolist() == ops.matmul(mat, shared).tolist() == want
        rows, pivots = ops.rref(mat)
        assert (red[t, :len(pivots)] == rows).all() and not red[t, len(pivots):].any()


def plain_pivot_aligned(stack: np.ndarray) -> np.ndarray:
    """_pivot_aligned one row at a time, by a plain row.any()."""
    nmats, _, K = stack.shape
    out = np.zeros((nmats, K, K), dtype=np.int16)
    for t, mat in enumerate(stack):
        for row in mat:
            if row.any():
                out[t, np.flatnonzero(row)[0]] = row
    return out


@st.composite
def short_axis_stacks(draw):
    """(q, nmats, r, K, seed): a stack of nmats matrices of r <= K rows over
    GF(q), K up to 8, drawn from seed."""
    K = draw(st.integers(0, 8))
    return (draw(st.sampled_from((2, 3, 4, 5))), draw(st.integers(0, 3)),
            draw(st.integers(0, K)), K, draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=150, deadline=None)
@given(short_axis_stacks())
@example((2, 0, 3, 5, 0))  # no matrix
@example((3, 1, 0, 4, 0))  # one matrix of no rows
@example((2, 3, 40, 40, 1))  # K = 40, the widest ambient over GF(2)
def test_leading_axis_reductions_are_the_plain_last_axis_ones(case):
    # every site that reduces a short last axis through last_axis_first
    # against a plain .any(axis=-1) / .all(axis=-1) reference, and rref_many
    # against rref matrix by matrix; the stacks are often rank-deficient,
    # with zero rows, and the vectors include members of each row space
    q, nmats, r, K, seed = case
    ops = table_ops(field_for_size(q))
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(0, min(r, K) + 1))
    stack = ops.matmul(rng.integers(0, q, size=(nmats, r, rank)).astype(np.int16),
                       rng.integers(0, q, size=(nmats, rank, K)).astype(np.int16))
    stack[:, :int(rng.integers(0, r + 1))] = 0
    red = ops.rref_many(stack)
    assert red.shape == stack.shape
    for t, mat in enumerate(stack):
        rows, pivots = ops.rref(mat)
        assert (red[t, :len(pivots)] == rows).all() and not red[t, len(pivots):].any()
    for s in (stack, red):
        assert (stack_dims(s) == s.any(axis=-1).sum(axis=1)).all()
    aligned = _pivot_aligned(red)
    assert (aligned == plain_pivot_aligned(red)).all()
    members = ops.matmul(rng.integers(0, q, size=(nmats, 3, r)).astype(np.int16), red)
    vecs = np.concatenate([rng.integers(0, q, size=(4, K)).astype(np.int16),
                           members.reshape(3 * nmats, K)])
    inside = ops.rows_in_rowspace(aligned, vecs)
    assert (inside == (ops.matmul(vecs, aligned) == vecs).all(axis=-1)).all()
    for t in range(nmats):  # the members of matrix t lie in its row space
        assert inside[t, 4 + 3 * t:4 + 3 * t + 3].all()
    for a in (stack != 0, members, inside):
        moved = last_axis_first(a)
        assert moved.flags.c_contiguous
        assert (moved.any(axis=0) == a.any(axis=-1)).all()
        assert (moved.all(axis=0) == a.all(axis=-1)).all()


@pytest.mark.parametrize("q,k", [(181, 1), (191, 1), (4093, 40)])
def test_prime_matmul_is_exact_up_to_the_largest_field_and_inner_dimension(q, k):
    # k (q-1)^2 just below and just above the int16 range, and GF(4093), the
    # largest prime field with lookup tables, with K = 40, the widest ambient
    # (q = 2, k1 = k2 = 20)
    field = field_for_size(q)
    ops = table_ops(field)
    rng = np.random.default_rng(q)
    a = rng.integers(0, q, size=(2, 3, k)).astype(np.int16)
    b = rng.integers(0, q, size=(k, 4)).astype(np.int16)
    a[0, 0], b[:, 0] = q - 1, q - 1  # the largest entry of the product
    got = ops.matmul(a, b)
    assert got.dtype == np.int16
    assert [m.tolist() for m in got] == [scalar_matmul(field, m, b) for m in a]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(DUAL_SPECS + DEFAULT_INSTANCES), st.data())
def test_dual_stack_is_the_kernel_of_the_pairing(params, data):
    spec = build_code(*params)
    K, ops = spec.ambient_dim, spec.ops
    nmats = data.draw(st.integers(0, 5))
    drawn = entries(data.draw, spec.q, nmats, K + 1, K)
    zero, full = np.zeros((1, K + 1, K), dtype=np.int16), np.eye(K + 1, K, dtype=np.int16)
    stack = ops.rref_many(np.concatenate([zero, drawn, full[None]]))
    dual = dual_stack(stack, spec)
    assert dual.shape == (nmats + 2, K, K)
    for rows, dual_rows in zip(stack_rows(stack), stack_rows(dual)):
        # reference: the Python-row kernel of B G, the pairing with B
        basis = np.array(rows, dtype=np.int16).reshape(-1, K)
        want = nullspace(ops, ops.matmul(basis, spec.gram))
        assert dual_rows == tuple(map(tuple, want.tolist()))
    assert stack_rows(dual)[0] == tuple(map(tuple, np.eye(K, dtype=int).tolist()))
    assert stack_rows(dual)[-1] == ()
    assert stack_rows(dual_stack(dual, spec)) == stack_rows(stack)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_nullspace_is_the_reduced_kernel(case):
    q, mat = case
    ops = table_ops(field_for_size(q))
    ncols = mat.shape[1]
    kernel = nullspace(ops, mat)
    rank = len(ops.rref(mat)[1])
    assert kernel.shape == (ncols - rank, ncols)
    assert_rref(kernel, ops.rref(kernel)[1])
    if len(kernel) and len(mat):
        assert not ops.matmul(mat, kernel.T).any()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(DUAL_SPECS), st.data())
def test_dual_is_orthogonal_of_complementary_dimension(params, data):
    spec = build_code(*params)
    K, ops = spec.ambient_dim, spec.ops
    nrows = data.draw(st.integers(0, K + 1))
    entries = data.draw(st.lists(st.integers(0, spec.q - 1),
                                 min_size=nrows * K, max_size=nrows * K))
    rref = basis(spec.q, K, np.array(entries).reshape(nrows, K))
    dual = dual_one(rref, spec)
    assert len(dual) == K - len(rref)
    if len(rref) and len(dual):
        pairing = ops.matmul(ops.matmul(rref, spec.gram), dual.T)
        assert not pairing.any()


# -- bytes pinned before elimination moved from numpy to Python rows ----------

PINNED_SPECS = (*DEFAULT_INSTANCES, (4, 2, 3, 1, 3))
DUAL_SAMPLES = 200


def enumeration_digest() -> str:
    """SHA-256 of every basis rref_stack holds for q in {2, 3}, k <= 5 and
    every j, in order."""
    digest = hashlib.sha256()
    for q in (2, 3):
        for k in range(1, 6):
            for j in range(k + 1):
                for rows in stack_rows(rref_stack(k, j, q)):
                    digest.update(repr(rows).encode())
    return digest.hexdigest()


def dual_digest(params) -> str:
    """SHA-256 of (basis rows, dual rows) over seeded random subspaces."""
    spec = build_code(*params)
    K = spec.ambient_dim
    rng = np.random.default_rng(list(params))
    digest = hashlib.sha256()
    for _ in range(DUAL_SAMPLES):
        rows = rng.integers(0, spec.q, size=(int(rng.integers(0, K + 1)), K))
        rref = basis(spec.q, K, rows)
        dual = dual_stack(rref[None], spec)
        digest.update(repr((stack_rows(rref[None])[0], stack_rows(dual)[0])).encode())
    return digest.hexdigest()


PINNED_ENUMERATION = "f639959829868f831500b58368208d799240b46436c236049c78516995f53d18"
PINNED_DUALS = {
    (2, 2, 3, 1, 1): "f52b8adb3dd31eedf10f234e7086316e5bfbeff9006d98f47e38cd9c1fa7b54d",
    (2, 3, 2, 1, 1): "5f37341726f3d9143a570a4030746b4d64072b9ba4ebd9dc6a3378dec15551d5",
    (3, 2, 3, 1, 2): "6ac45935ac37fc1bd17ea7fba43d92fc28b0e9aaf5147248d50e3f2bd302ccb1",
    (4, 2, 3, 1, 3): "0f34074cc287f1fc8b840d61ef65012c7af98ea2200ecf37bbd3b51abe722304",
}


def test_enumeration_bytes_are_pinned():
    assert enumeration_digest() == PINNED_ENUMERATION


def test_dual_bytes_are_pinned():
    assert {params: dual_digest(params) for params in PINNED_SPECS} == PINNED_DUALS


def test_gram_inverse_inverts_the_gram_matrix():
    for params in PINNED_SPECS:
        spec = build_code(*params)
        product = spec.ops.matmul(spec.gram_inverse, spec.gram)
        assert (product == np.eye(spec.ambient_dim, dtype=np.int16)).all()
