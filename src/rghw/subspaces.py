"""Canonical enumeration of subspaces of F_q^k and product-space geometry.

A subspace is held by its unique reduced-row-echelon basis, which gives a
duplicate-free, deterministic enumeration: lexicographic in the pivot sets,
then in the free entries.  The pivot sets double as a partitioning scheme
for parallel scans.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import InvariantViolated, RangeError
from .gf import field_for_size
from .linalg import TableOps, table_ops


@dataclass(frozen=True)
class SubspaceBasis:
    """RREF basis of a subspace of F_q^ambient_dim; rows are element codes."""

    q: int
    ambient_dim: int
    rows: tuple[tuple[int, ...], ...]
    ambient: str = dc_field(default="", compare=False)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(next(i for i, v in enumerate(row) if v) for row in self.rows)

    def matrix(self) -> np.ndarray:
        return np.array(self.rows, dtype=np.int16).reshape(self.dim, self.ambient_dim)


def gaussian_binomial(k: int, j: int, q: int) -> int:
    """Number of j-dimensional subspaces of F_q^k, exact."""
    if not 0 <= j <= k:
        raise RangeError(f"need 0 <= j <= k, got j={j}, k={k}")
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


def enumerate_subspaces(
    k: int,
    j: int,
    q: int,
    pivots_subset: Optional[Iterable[tuple[int, ...]]] = None,
    ambient: str = "",
) -> Iterator[SubspaceBasis]:
    """Yield every j-dimensional subspace of F_q^k exactly once."""
    if not 0 <= j <= k:
        raise RangeError(f"need 0 <= j <= k, got j={j}, k={k}")
    sets = pivot_sets(k, j) if pivots_subset is None else list(pivots_subset)
    for pivots in sets:
        positions = free_positions(pivots, k)
        template = [[0] * k for _ in range(j)]
        for r, pc in enumerate(pivots):
            template[r][pc] = 1
        for assignment in itertools.product(range(q), repeat=len(positions)):
            for (r, c), v in zip(positions, assignment):
                template[r][c] = v
            yield SubspaceBasis(q, k, tuple(tuple(row) for row in template), ambient)


def subspace_from_rows(
    q: int, ambient_dim: int, rows: Iterable[Sequence[int]], ambient: str = ""
) -> SubspaceBasis:
    """Canonicalize arbitrary spanning rows into an RREF basis."""
    ops = table_ops(field_for_size(q))
    mat = np.array(list(rows), dtype=np.int16).reshape(-1, ambient_dim)
    red, _ = ops.rref(mat)
    return SubspaceBasis(q, ambient_dim, tuple(tuple(int(v) for v in r) for r in red), ambient)


def member_matrix(basis: SubspaceBasis) -> np.ndarray:
    """All q^dim member vectors, one per row (the zero vector included)."""
    ops = table_ops(field_for_size(basis.q))
    j = basis.dim
    combos = np.array(
        list(itertools.product(range(basis.q), repeat=j)), dtype=np.int16
    ).reshape(basis.q**j, j)
    return ops.matmul(combos, basis.matrix())


def project(
    basis: SubspaceBasis, k1: int, k2: int, side: int
) -> tuple[SubspaceBasis, SubspaceBasis]:
    """Coordinate projection of a product-space subspace.

    Returns (image, kernel): the image inside the chosen factor and the
    kernel as a subspace of the product; dims add up to basis.dim.
    """
    if basis.ambient_dim != k1 + k2:
        raise RangeError("basis is not in the product ambient")
    if side not in (1, 2):
        raise RangeError("side must be 1 or 2")
    ops = table_ops(field_for_size(basis.q))
    mat = basis.matrix()
    cols = slice(0, k1) if side == 1 else slice(k1, k1 + k2)
    block = mat[:, cols]
    image_rows, _ = ops.rref(block)
    image = SubspaceBasis(
        basis.q,
        block.shape[1],
        tuple(tuple(int(v) for v in r) for r in image_rows),
        f"factor{side}",
    )
    # kernel: coefficient vectors x with x @ block = 0, pushed through the basis
    coeffs = ops.nullspace(block.T)
    kernel_rows = ops.matmul(coeffs, mat) if coeffs.shape[0] else coeffs.reshape(0, mat.shape[1])
    kernel = subspace_from_rows(
        basis.q, basis.ambient_dim, kernel_rows, basis.ambient
    )
    if image.dim + kernel.dim != basis.dim:
        raise InvariantViolated(
            f"rank-nullity fails: {image.dim} + {kernel.dim} != {basis.dim}"
        )
    return image, kernel


def dual_subspace(basis: SubspaceBasis, spec) -> SubspaceBasis:
    """Orthogonal complement under the paired-trace inner product."""
    if basis.ambient_dim != spec.ambient_dim:
        raise RangeError("basis is not in the product ambient")
    ops: TableOps = spec.ops
    if basis.dim == 0:
        rows = np.eye(basis.ambient_dim, dtype=np.int16)
    else:
        w = ops.matmul(basis.matrix(), spec.gram)
        rows = ops.nullspace(w)
    return SubspaceBasis(
        basis.q,
        basis.ambient_dim,
        tuple(tuple(int(v) for v in r) for r in rows),
        basis.ambient,
    )


def intersect_with_cyclic_group(basis: SubspaceBasis, spec) -> int:
    """How many of the n points (a1^i, a2^i) land inside the subspace."""
    if basis.ambient_dim != spec.ambient_dim:
        raise RangeError("basis is not in the product ambient")
    ops: TableOps = spec.ops
    mask = ops.rows_in_rowspace(basis.matrix(), basis.pivots, spec.group_vectors)
    return int(mask.sum())
