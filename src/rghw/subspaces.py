"""Canonical enumeration of subspaces of F_q^k and product-space geometry.

A subspace is held by its unique reduced-row-echelon basis, an (r, K)
int16 array of its nonzero rows, which gives a duplicate-free,
deterministic enumeration: lexicographic in the pivot sets, then in the
free entries.  The pivot sets double as a partitioning scheme for parallel
scans.  Many subspaces at once are held as a (B, r, K) stack of RREF bases,
each padded with zero rows, which the stack functions project, dualize and
count in a few numpy passes.  Each stack function checks its input with
check_stack_ambient: the shape, and entries that are codes of GF(q).
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import FieldMismatch, InvariantViolated, LengthMismatch, RangeError
from .gf import field_for_size
from .linalg import TableOps, last_axis_first, table_ops


def _check_dims(k: int, j: int, q: int) -> None:
    """RangeError unless 0 <= j <= k and q >= 2, the size of a field."""
    if not 0 <= j <= k:
        raise RangeError(f"need 0 <= j <= k, got j={j}, k={k}")
    if q < 2:
        raise RangeError(f"q={q} must be >= 2")


def gaussian_binomial(k: int, j: int, q: int) -> int:
    """Number of j-dimensional subspaces of F_q^k, exact."""
    _check_dims(k, j, q)
    num = 1
    den = 1
    for i in range(j):
        num *= q ** (k - i) - 1
        den *= q ** (j - i) - 1
    if num % den:
        raise InvariantViolated(f"[{k},{j}]_{q}: {num} is not divisible by {den}")
    return num // den


def pivot_sets(k: int, j: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(k), j))


def free_positions(pivots: Sequence[int], k: int) -> list[tuple[int, int]]:
    """Row-major (row, col) slots not forced by the RREF shape."""
    pset = set(pivots)
    return [
        (r, c)
        for r, pc in enumerate(pivots)
        for c in range(pc + 1, k)
        if c not in pset
    ]


def count_for_pivots(pivots: Sequence[int], k: int, q: int) -> int:
    return q ** len(free_positions(pivots, k))


def digits(values: np.ndarray, width: int, q: int) -> np.ndarray:
    """Base-q digits of each value, most significant first: (len, width)."""
    powers = q ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return (values[:, None] // powers) % q


@functools.cache
def counter(width: int, q: int) -> np.ndarray:
    """The digits of 0, ..., q^width - 1, read-only int16: row t holds the
    free entries of the t-th basis of a pivot set with width free entries.
    Filled in place, a digit at a time, so the widest (a factor's q^k
    coordinate vectors, codes) need no temporary of their size."""
    table = np.empty((q ** width, width), dtype=np.int16)
    for c in range(width):
        # digit c of t = (a q + d) q^(width-1-c) + r is d
        table.reshape(q ** c, q, -1, width)[..., c] = np.arange(q, dtype=np.int16)[:, None]
    table.flags.writeable = False
    return table


def pivot_bases(pivots: Sequence[int], k: int, entries: np.ndarray) -> np.ndarray:
    """(B, j, k): the RREF bases with these pivots whose free entries, in
    row-major order, are the rows of a (B, P) array: counter(P, q) gives all."""
    positions = free_positions(pivots, k)
    block = np.zeros((len(entries), len(pivots), k), dtype=np.int16)
    block[:, range(len(pivots)), pivots] = 1
    if positions:
        rows, cols = zip(*positions)
        block[:, rows, cols] = entries
    return block


def rref_stack(k: int, j: int, q: int) -> np.ndarray:
    """(N, j, k): the RREF basis of every j-dimensional subspace of F_q^k
    exactly once, lexicographic in the pivot sets, then in the free entries
    (row-major, counting in base q), built one pivot set at a time."""
    _check_dims(k, j, q)
    return np.concatenate([
        pivot_bases(pivots, k, counter(len(free_positions(pivots, k)), q))
        for pivots in pivot_sets(k, j)])


def enumerate_subspaces(k: int, j: int, q: int) -> Iterator[np.ndarray]:
    """Yield the (j, k) RREF basis of every j-dimensional subspace of F_q^k
    exactly once, in the order of rref_stack.

    Not exported: only the benchmark (perfbench) names it, and it goes when
    the benchmark stops naming it (ROADMAP 3(b)).
    """
    return iter(rref_stack(k, j, q))


def subspace_from_rows(
    q: int, ambient_dim: int, rows: Iterable[Sequence[int]], ambient: str = ""
) -> np.ndarray:
    """Canonicalize arbitrary spanning rows into an RREF basis, the (r, K)
    array of its nonzero rows.

    A fourth argument naming the ambient (the benchmark passes "product") is
    accepted and ignored.  Not exported: only the benchmark (perfbench)
    names it, and it goes when the benchmark stops naming it (ROADMAP 3(b)).
    """
    rows = list(rows)
    if len({np.shape(row) for row in rows}) > 1:
        raise LengthMismatch("rows of unequal width are not in the product ambient")
    mat = np.array(rows, dtype=np.int64)
    stack = mat[None] if len(mat) else np.zeros((1, 0, ambient_dim), dtype=np.int64)
    check_stack_ambient(stack, q, ambient_dim)
    return table_ops(field_for_size(q)).rref(stack[0])[0]


def stack_members(stack: np.ndarray, ops: TableOps) -> np.ndarray:
    """(B, q^r, K): every combination of the r rows of each basis of a
    (B, r, K) stack, coefficient vectors in base-q order, so the zero vector
    comes first.  A basis of dimension d lists each of its q^d members
    q^(r-d) times."""
    return ops.matmul(counter(stack.shape[1], ops.q), stack)


def stack_dims(stack: np.ndarray) -> np.ndarray:
    """The dimension of each RREF basis in a zero-padded stack, as int64[B]."""
    return last_axis_first(stack).any(axis=0).sum(axis=1, dtype=np.int64)


def stack_rows(stack: np.ndarray) -> list[tuple[tuple[int, ...], ...]]:
    """The rows of each RREF basis in a stack, zero padding rows dropped."""
    return [tuple(map(tuple, mat[:dim])) for mat, dim in zip(stack.tolist(), stack_dims(stack))]


def _pivot_aligned(stack: np.ndarray) -> np.ndarray:
    """(B, K, K): each RREF row of a (B, r, K) stack moved to the row of its
    pivot column, zero rows elsewhere.  Such a P is idempotent with the
    subspace as its row space (TableOps.rows_in_rowspace tests membership
    by it), and the rows of (I - P)^T span {v : P v = 0}."""
    nmats, _, K = stack.shape
    out = np.zeros((nmats, K, K), dtype=np.int16)
    if K:  # with no columns there is no pivot to find
        mats, rows = np.nonzero(last_axis_first(stack).any(axis=0))
        nonzero = stack[mats, rows]
        out[mats, (nonzero != 0).argmax(axis=1)] = nonzero
    return out


def kernel_rows(red: np.ndarray, ops: TableOps) -> np.ndarray:
    """(B, c, c): rows spanning {v : R v = 0} for each RREF matrix R of a
    (B, r, c) stack, the rows of (I - P)^T; each free column fc gives e_fc
    minus column fc of R on the pivot columns, each pivot column a zero row."""
    proj = _pivot_aligned(red)
    kernel = ops.neg_table[proj]
    diag = np.arange(red.shape[2])
    kernel[:, diag, diag] = 1 - proj[:, diag, diag]
    return kernel.transpose(0, 2, 1)


def check_stack_ambient(stack: np.ndarray, q: int, ambient_dim: int) -> None:
    """LengthMismatch unless stack is a (B, r, ambient_dim) stack,
    FieldMismatch unless every entry is a code of GF(q), in 0..q-1."""
    if stack.ndim != 3 or stack.shape[2] != ambient_dim:
        raise LengthMismatch("stack is not in the product ambient")
    if stack.size and (stack.min() < 0 or stack.max() >= q):
        raise FieldMismatch(f"stack entries are not all codes of GF({q}), 0..{q - 1}")


def dual_stack(stack: np.ndarray, spec) -> np.ndarray:
    """Orthogonal complements under the paired-trace inner product of a
    (B, r, K) stack of zero-padded RREF bases, as a (B, K, K) stack of the
    same kind: one elimination for the whole stack."""
    check_stack_ambient(stack, spec.q, spec.ambient_dim)
    ops: TableOps = spec.ops
    # B G v = 0 iff G v lies in ker B; G is symmetric, so the dual is
    # spanned by ker(B) @ G^-1
    return ops.rref_many(ops.matmul(kernel_rows(stack, ops), spec.gram_inverse))


def project_stack(stack: np.ndarray, spec, side: int) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate projection onto factor side (1 or 2) of each subspace of a
    (B, r, K) stack of zero-padded RREF bases.

    Returns (images, kernels): the images inside the factor as a (B, r, k_side)
    stack and the kernels as subspaces of the product, a (B, r, K) stack, both
    zero-padded RREF; each image and kernel dimension add up to the
    subspace's.  Three eliminations serve the whole stack.
    """
    check_stack_ambient(stack, spec.q, spec.ambient_dim)
    if side not in (1, 2):
        raise RangeError("side must be 1 or 2")
    ops: TableOps = spec.ops
    block = stack[:, :, :spec.k1] if side == 1 else stack[:, :, spec.k1:]
    # kernel: coefficient vectors x with x @ block = 0, pushed through the basis
    coeffs = kernel_rows(ops.rref_many(block.transpose(0, 2, 1)), ops)
    return ops.rref_many(block), ops.rref_many(ops.matmul(coeffs, stack))


def cyclic_group_counts(stack: np.ndarray, spec) -> np.ndarray:
    """How many of the n points (a1^i, a2^i) land inside each subspace of a
    (B, r, K) stack of zero-padded RREF bases."""
    check_stack_ambient(stack, spec.q, spec.ambient_dim)
    return spec.ops.rows_in_rowspace(_pivot_aligned(stack), spec.group_vectors).sum(axis=1)


def intersect_with_cyclic_group(basis: np.ndarray, spec) -> int:
    """cyclic_group_counts of a single (r, K) RREF basis.

    Not exported: only the benchmark (perfbench) names it, and it goes when
    the benchmark stops naming it (ROADMAP 3(b)).
    """
    return int(cyclic_group_counts(basis[None], spec)[0])
