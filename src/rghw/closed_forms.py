"""Closed-form weights for three parameter families.

``evaluate_closed_form`` returns the exact pair (N_j, M_j): the maximal
number of common-zero coordinates over admissible j-dimensional subspaces,
and the resulting weight M_j = n - N_j with n = (q^k1-1)(q^k2-1)/(q-1).
Arithmetic is unbounded-integer; empty geometric sums contribute 0.

The three families share one N_j formula, the printed case split (k1 <= k2;
j <= k2 < k1; k2 < j <= k1) with no extrapolation beyond it.  They differ
only in their hypotheses, each on top of gcd(k1, k2) = 1:

* binary_pair:        q = 2, e1 = e2 = 1 (both nonzeros primitive), k1, k2 >= 2.
* index_one_qminus1:  e1 = 1, e2 = q - 1; k2 odd and > 1, gcd(q-1, k2) = 1.
* index_qminus1_one:  e1 = q - 1, e2 = 1; k1 odd and > 1, gcd(q-1, k1) = 1.

The gcd(q-1, k) = 1 condition goes beyond the printed hypotheses: it is
what makes the two nonzero orders coprime and collapses the double
character sum (k odd only covers it when q - 1 is a power of two; q=4,
k2=3 already breaks without it).
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from .errors import DegenerateOrder, HypothesisViolated, RangeError


def _geom(q: int, lo: int, hi: int) -> int:
    """Sum of q^t for lo <= t <= hi; empty ranges give 0."""
    if hi < lo:
        return 0
    return (q ** (hi + 1) - q**lo) // (q - 1) if q > 1 else hi - lo + 1


def _branch_nj(q: int, k1: int, k2: int, j: int) -> int:
    if k1 <= k2:
        return _geom(q, k2 - j, k1 + k2 - j - 1) - _geom(q, 0, k1 - j - 1)
    if j <= k2:
        return _geom(q, k1 - j, k1 + k2 - j - 1) - _geom(q, 0, k2 - j - 1)
    # k2 < j <= k1
    return q ** (k1 - j) * _geom(q, 0, k2 - 1)


def _guard_positive(n_j: int, m_j: int) -> None:
    if n_j <= 0 or m_j <= 0:
        raise DegenerateOrder(
            f"closed form left the admissible range (N={n_j}, M={m_j})"
        )


def _odd_index_side(q: int, k: int) -> bool:
    """Hypotheses on the degree k of the nonzero of index q - 1."""
    return k > 1 and k % 2 == 1 and math.gcd(q - 1, k) == 1


# Each family's hypotheses beyond gcd(k1, k2) = 1, in priority order.
_FAMILIES: dict[str, Callable[..., bool]] = {
    "binary_pair": lambda q, k1, k2, e1, e2: (
        q == 2 and e1 == e2 == 1 and min(k1, k2) >= 2),
    "index_one_qminus1": lambda q, k1, k2, e1, e2: (
        (e1, e2) == (1, q - 1) and _odd_index_side(q, k2)),
    "index_qminus1_one": lambda q, k1, k2, e1, e2: (
        (e1, e2) == (q - 1, 1) and _odd_index_side(q, k1)),
}


def detect_family(q: int, k1: int, k2: int, e1: int, e2: int) -> Optional[str]:
    """The first closed-form family whose hypotheses hold, or None.

    Both nonzero orders (q^k - 1)/e must exceed 1: a nonzero of order 1
    gives a degenerate code (q = 2 with k = 1 in the index families).
    """
    if math.gcd(k1, k2) != 1:
        return None
    family = next((name for name, holds in _FAMILIES.items()
                   if holds(q, k1, k2, e1, e2)), None)
    if family is None or (q**k1 - 1) // e1 <= 1 or (q**k2 - 1) // e2 <= 1:
        return None
    return family


def evaluate_closed_form(q: int, k1: int, k2: int, e1: int, e2: int,
                         j: int) -> tuple[int, int]:
    """(N_j, M_j) for parameters that some closed-form family covers."""
    if detect_family(q, k1, k2, e1, e2) is None:
        raise HypothesisViolated("parameters match no closed-form family")
    if not 1 <= j <= k1:
        raise RangeError(f"j={j} outside 1..{k1}")
    n_j = _branch_nj(q, k1, k2, j)
    m_j = (q**k1 - 1) * (q**k2 - 1) // (q - 1) - n_j
    _guard_positive(n_j, m_j)
    return n_j, m_j
