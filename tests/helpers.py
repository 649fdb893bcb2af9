"""Plain helpers shared by the test modules."""

from typing import Sequence

import numpy as np


def padded_stack(mats: Sequence, width: int, ambient_dim: int) -> np.ndarray:
    """Matrices of at most width rows as one (B, width, ambient_dim) stack,
    each padded with zero rows (which leave its row space unchanged)."""
    stack = np.zeros((len(mats), width, ambient_dim), dtype=np.int16)
    for t, mat in enumerate(mats):
        stack[t, :len(mat)] = mat
    return stack
