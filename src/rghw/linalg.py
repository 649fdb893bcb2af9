"""Dense matrix routines over a small field, driven by lookup tables.

Matrices hold element codes as int16.  For a prime field the codes are the
usual residues; for extension fields they are the base-p polynomial codes,
so the same routines serve both.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import LengthMismatch, SizeCapExceeded
from .gf import FieldTable


@functools.cache
def table_ops(field: FieldTable) -> "TableOps":
    return TableOps(field)


class TableOps:
    def __init__(self, field: FieldTable):
        q = field.size
        if q > 4096:
            raise SizeCapExceeded(f"lookup tables for GF({q}) would be too large")
        self.field = field
        self.q = q
        self.prime = field.m == 1  # codes are plain residues: modular fast path
        add = np.empty((q, q), dtype=np.int16)
        mul = np.empty((q, q), dtype=np.int16)
        for a in range(q):
            for b in range(q):
                add[a, b] = field.add(a, b)
                mul[a, b] = field.mul(a, b)
        self.add_table = add
        self.mul_table = mul
        self.neg_table = np.array([field.neg(a) for a in range(q)], dtype=np.int16)
        self.inv_table = np.array(
            [0] + [field.inv(a) for a in range(1, q)], dtype=np.int16
        )

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(r x k) @ (k x c) over the field."""
        r, k = a.shape
        k2, c = b.shape
        if k != k2:
            raise LengthMismatch(f"cannot multiply ({r} x {k}) by ({k2} x {c})")
        if self.prime:
            prod = a.astype(np.int64) @ b.astype(np.int64)
            return (prod % self.q).astype(np.int16)
        out = np.zeros((r, c), dtype=np.int16)
        for t in range(k):
            term = self.mul_table[a[:, t][:, None], b[t][None, :]]
            out = self.add_table[out, term]
        return out

    def rref(self, mat: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
        """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
        work = np.array(mat, dtype=np.int16, copy=True)
        if work.ndim != 2:
            work = work.reshape(0, 0)
        nrows, ncols = work.shape
        pivots: list[int] = []
        r = 0
        for c in range(ncols):
            if r == nrows:
                break
            hits = np.nonzero(work[r:, c])[0]
            if hits.size == 0:
                continue
            pr = r + int(hits[0])
            if pr != r:
                work[[r, pr]] = work[[pr, r]]
            work[r] = self.mul_table[self.inv_table[work[r, c]], work[r]]
            col = work[:, c].copy()
            col[r] = 0
            rows = np.nonzero(col)[0]
            if rows.size:
                factors = self.neg_table[col[rows]]
                work[rows] = self.add_table[
                    work[rows], self.mul_table[factors[:, None], work[r][None, :]]
                ]
            pivots.append(c)
            r += 1
        return work[: len(pivots)], tuple(pivots)

    def rank(self, mat: np.ndarray) -> int:
        return len(self.rref(mat)[1])

    def nullspace(self, mat: np.ndarray) -> np.ndarray:
        """Canonical basis (rows, RREF) of {v : mat @ v = 0}."""
        mat = np.asarray(mat, dtype=np.int16)
        ncols = mat.shape[1]
        red, pivots = self.rref(mat)
        free = [c for c in range(ncols) if c not in pivots]
        basis = np.zeros((len(free), ncols), dtype=np.int16)
        for row, fc in enumerate(free):
            basis[row, fc] = 1
            for idx, pc in enumerate(pivots):
                basis[row, pc] = self.neg_table[red[idx, fc]]
        if len(free) == 0:
            return basis
        return self.rref(basis)[0]

    def rows_in_rowspace(
        self, basis: np.ndarray, pivots: tuple[int, ...], vecs: np.ndarray
    ) -> np.ndarray:
        """Boolean mask: which rows of vecs lie in the RREF basis row space.

        A vector is in the span iff rebuilding it from its pivot coordinates
        reproduces it exactly.
        """
        if len(pivots) == 0:
            return ~vecs.any(axis=1)
        rebuilt = self.matmul(vecs[:, list(pivots)], basis)
        return (rebuilt == vecs).all(axis=1)
