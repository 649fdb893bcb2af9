"""Dense matrix routines over a small field.

Matrices hold element codes as int16.  For a prime field the codes are the
usual residues; for extension fields they are the base-p polynomial codes,
so the same routines serve both.  matmul is numpy, table-driven (or mod p
for a prime field).  A single matrix is eliminated on Python rows through
the field's scalar operations; a stack of matrices in one table-driven
numpy pass over the whole stack.
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
        codes = np.arange(q)
        add = field.add_codes_digitwise(codes[:, None], codes[None, :]).astype(np.int16)
        # g^i g^k = g^((i + k) mod (q - 1)); log_table[0] is a placeholder
        exp, log = np.array(field.exp_table), np.array(field.log_table)
        mul = exp[(log[:, None] + log[None, :]) % field.order].astype(np.int16)
        mul[0, :] = mul[:, 0] = 0
        self.add_table = add
        self.mul_table = mul
        self.neg_table = np.argmax(add == 0, axis=1).astype(np.int16)
        self.inv_table = np.argmax(mul == 1, axis=1).astype(np.int16)  # inv(0) reads 0
        # shared through the table_ops cache
        for table in (self.add_table, self.mul_table, self.neg_table, self.inv_table):
            table.setflags(write=False)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(r x k) @ (k x c) over the field; leading axes of a and b are
        stack axes and broadcast as in numpy's matmul."""
        r, k = a.shape[-2:]
        k2, c = b.shape[-2:]
        if k != k2:
            raise LengthMismatch(f"cannot multiply ({r} x {k}) by ({k2} x {c})")
        if self.prime:
            prod = a.astype(np.int64) @ b.astype(np.int64)
            return (prod % self.q).astype(np.int16)
        out = np.zeros((*np.broadcast_shapes(a.shape[:-2], b.shape[:-2]), r, c),
                       dtype=np.int16)
        for t in range(k):
            term = self.mul_table[a[..., :, t, None], b[..., t, None, :]]
            out = self.add_table[out, term]
        return out

    def rref(self, mat) -> tuple[np.ndarray, tuple[int, ...]]:
        """Reduced row echelon form; returns (nonzero rows, pivot columns).

        Every caller passes a few rows of at most k1+k2 columns (the
        CodeSpec build passes [G | I], 2(k1+k2) columns), where a numpy
        call per row operation costs more than the arithmetic, so the rows
        are eliminated as Python lists through the field's scalar
        operations.
        """
        work = np.asarray(mat, dtype=np.int16)
        if work.ndim != 2:
            work = work.reshape(0, 0)
        rows = work.tolist()
        ncols = work.shape[1]
        add, mul, neg = self.field.add, self.field.mul, self.field.neg
        pivots: list[int] = []
        for c in range(ncols):
            r = len(pivots)
            if r == len(rows):
                break
            for pr in range(r, len(rows)):
                if rows[pr][c]:
                    break
            else:
                continue
            pivot = rows[pr]
            rows[pr] = rows[r]
            if pivot[c] != 1:
                scale = self.field.inv(pivot[c])
                pivot = [mul(scale, v) for v in pivot]
            rows[r] = pivot
            # the pivot row is zero left of c, so only columns c.. change
            tail = pivot[c:]
            for i, row in enumerate(rows):
                if i != r and row[c]:
                    factor = neg(row[c])
                    step = tail if factor == 1 else [mul(factor, w) for w in tail]
                    rows[i] = row[:c] + [add(v, w) for v, w in zip(row[c:], step)]
            pivots.append(c)
        rank = len(pivots)
        # copied out of the reshaped view, so that a caller keeping the
        # rows (every report keeps its dual-count argmax) keeps one array
        red = np.array(rows[:rank], dtype=np.int16).reshape(rank, ncols).copy()
        return red, tuple(pivots)

    def rref_many(self, stack: np.ndarray) -> np.ndarray:
        """Reduced row echelon form of every matrix of a (B, r, c) stack.

        Slice b holds the rows rref would return for stack[b], followed by
        zero rows.  One Gauss-Jordan pass over the columns serves the whole
        stack, each step a handful of table lookups on the matrices that
        have a pivot in that column.
        """
        work = np.array(stack, dtype=np.int16)
        nmats, nrows, ncols = work.shape
        rank = np.zeros(nmats, dtype=np.int64)
        below = np.arange(nrows)[None, :]
        for c in range(ncols):
            candidates = (work[:, :, c] != 0) & (below >= rank[:, None])
            mats = np.flatnonzero(candidates.any(axis=1))
            if not len(mats):
                continue
            src = candidates[mats].argmax(axis=1)
            dst = rank[mats]
            pivot = work[mats, src]
            work[mats, src] = work[mats, dst]
            pivot = self.mul_table[self.inv_table[pivot[:, c]][:, None], pivot]
            # clear column c from every row; row dst is then overwritten
            factor = self.neg_table[work[mats, :, c]]
            rows = self.add_table[work[mats], self.mul_table[factor[:, :, None],
                                                             pivot[:, None, :]]]
            rows[np.arange(len(mats)), dst] = pivot
            work[mats] = rows
            rank[mats] += 1
        return work

    def rows_in_rowspace(self, aligned: np.ndarray, vecs: np.ndarray) -> np.ndarray:
        """Boolean mask: which rows of vecs lie in the row space of each
        pivot-aligned RREF matrix P of a (..., c, c) stack (every RREF row
        on the row of its pivot column, zero rows elsewhere).  P is then
        idempotent with that row space, so v lies in it iff v @ P == v."""
        return (self.matmul(vecs, aligned) == vecs).all(axis=-1)
