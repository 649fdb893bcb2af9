"""Closed-form weights for structural specs.

A spec is structural when its n group points (a1^i, a2^i) are exactly the
points of PG(k1+k2-1, q) with both components nonzero, each once.  Write
theta(d) = (q^d - 1)/(q - 1) for the number of points of a d-dimensional
space, and theta(d) = 0 for d <= 0.  On a structural spec every subspace H
of the pair space holds theta(dim H) - theta(dim H&V1) - theta(dim H&V2)
group points, where V1 and V2 are the two factor subspaces: the
projective-system view of generalized Hamming weights (Tsfasman and
Vladut, IEEE Trans. IT 41(6), 1995), the geometric form of the [YLFL]
method the paper applies.

An admissible H of dimension K - j = k1 + k2 - j projects onto the second
factor, so dim H&V1 = k1 - j, and a generic such H meets V2 in the least
dimension, max(0, k2 - j).  Hence

    N_j = theta(K - j) - theta(k1 - j) - theta(k2 - j),  M_j = n - N_j,

with n = (q^k1 - 1)(q^k2 - 1)/(q - 1).  The paper's three families (q = 2
with both nonzeros primitive; indices (1, q-1) and (q-1, 1) with the other
degree odd) are structural specs.  Arithmetic is unbounded-integer.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

from .errors import DegenerateOrder, HypothesisViolated, RangeError
from .gf import _prime_factors


def _theta(q: int, d: int) -> int:
    """Number of points of PG(d-1, q); 0 for d <= 0."""
    return (q**d - 1) // (q - 1) if d > 0 else 0


def _guard_positive(n_j: int, m_j: int) -> None:
    if n_j <= 0 or m_j <= 0:
        raise DegenerateOrder(
            f"closed form left the admissible range (N={n_j}, M={m_j})"
        )


@functools.cache
def detect_family(q: int, k1: int, k2: int, e1: int, e2: int) -> Optional[str]:
    """"structural" when the parameters give a structural spec, else None.

    Cached: the answer is fixed by the parameters, so a table's closed form
    at every j, its refusal check and CodeSpec.structural share one
    decision.

    With Q_i = q^k_i, T_i = (Q_i - 1)/(q - 1) and n_i = (Q_i - 1)/e_i > 1,
    the group <(a1, a2)> has lcm(n1, n2) elements and the points with both
    components nonzero number (Q1 - 1)(Q2 - 1)/(q - 1).  The group maps
    onto those points one-to-one when the counts agree and it meets the
    scalar diagonal GF(q)* only in 1.  Both gamma_i have the same norm
    delta (codes._build_factor), so (delta^s, delta^s) = (a1^t, a2^t) for
    some t exactly when e_i | s T_i and s T1/e1 = s T2/e2 mod gcd(n1, n2).
    A nontrivial meet contains an element of prime order r | q - 1, so
    s = (q - 1)/r for those primes r suffices.
    """
    if min(k1, k2, e1, e2) < 1 or len(_prime_factors(q)) != 1:
        return None
    Q1, Q2 = q**k1, q**k2
    if (Q1 - 1) % e1 or (Q2 - 1) % e2:
        return None
    n1, n2 = (Q1 - 1) // e1, (Q2 - 1) // e2
    if min(n1, n2) <= 1 or math.lcm(n1, n2) * (q - 1) != (Q1 - 1) * (Q2 - 1):
        return None
    T1, T2, d = (Q1 - 1) // (q - 1), (Q2 - 1) // (q - 1), math.gcd(n1, n2)
    for s in ((q - 1) // r for r in _prime_factors(q - 1)):
        if s * T1 % e1 == 0 and s * T2 % e2 == 0 and (s * T1 // e1 - s * T2 // e2) % d == 0:
            return None
    return "structural"


def require_structural(q: int, k1: int, k2: int, e1: int, e2: int) -> None:
    """The one refusal of a closed form that does not apply:
    HypothesisViolated unless the parameters give a structural spec."""
    if detect_family(q, k1, k2, e1, e2) is None:
        raise HypothesisViolated("parameters do not give a structural spec: no closed form")


def evaluate_closed_form(q: int, k1: int, k2: int, e1: int, e2: int,
                         j: int) -> tuple[int, int]:
    """(N_j, M_j) for the parameters of a structural spec."""
    require_structural(q, k1, k2, e1, e2)
    if not 1 <= j <= k1:
        raise RangeError(f"j={j} outside 1..{k1}")
    n_j = _theta(q, k1 + k2 - j) - _theta(q, k1 - j) - _theta(q, k2 - j)
    m_j = (q**k1 - 1) * (q**k2 - 1) // (q - 1) - n_j
    _guard_positive(n_j, m_j)
    return n_j, m_j
