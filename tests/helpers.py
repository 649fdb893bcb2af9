"""Plain helpers shared by the test modules."""

from typing import Sequence

import numpy as np

from rghw.gf import field_for_size
from rghw.linalg import table_ops
from rghw.subspaces import dual_stack, stack_dims


def padded_stack(mats: Sequence, width: int, ambient_dim: int) -> np.ndarray:
    """Matrices of at most width rows as one (B, width, ambient_dim) stack,
    each padded with zero rows (which leave its row space unchanged)."""
    stack = np.zeros((len(mats), width, ambient_dim), dtype=np.int16)
    for t, mat in enumerate(mats):
        stack[t, :len(mat)] = mat
    return stack


def basis(q: int, ambient_dim: int, rows: Sequence) -> np.ndarray:
    """The (r, K) RREF basis of the span of rows, vectors of GF(q)^K given
    as codes; no rows give the zero subspace, a (0, K) array."""
    mat = np.array(rows, dtype=np.int16).reshape(len(rows), ambient_dim)
    return table_ops(field_for_size(q)).rref(mat)[0]


def dual_one(rref: np.ndarray, spec) -> np.ndarray:
    """dual_stack of the one-subspace stack of an (r, K) RREF basis, padding
    rows dropped."""
    dual = dual_stack(rref[None], spec)
    return dual[0, :stack_dims(dual)[0]]
