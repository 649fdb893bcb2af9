"""Cyclic codes with two nonzeros, built from a pair of trace maps.

A CodeSpec fixes the base field GF(q), the two extensions GF(Q1), GF(Q2)
(one Factor each), the nonzero generators a1 = g1^e1 and a2 = g2^e2, and
holds the flattening of GF(Q1) x GF(Q2) into F_q^(k1+k2): per-coordinate evaluation
functionals, the cyclic-group point list (both built on first read), and
the Gram matrix of the paired-trace inner product.  Everything downstream
works on those tables.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadIndex,
    ConjugateNonzeros,
    DegenerateOrder,
    FieldMismatch,
    InvariantViolated,
    NotAFieldGenerator,
    RangeError,
)
from .gf import (
    Embedding,
    FieldTable,
    Polynomial,
    build_field,
    element_order,
    embed_subfield,
    field_for_size,
    frobenius_orbit,
    minimal_polynomial,
    trace_table,
)
from .linalg import TableOps, table_ops


@dataclass(frozen=True, eq=False)
class Factor:
    """One extension GF(Q) = GF(q^k) of the pair, flattened over GF(q).

    gamma is the primitive element whose powers {1, gamma, ..., gamma^(k-1)}
    are the coordinate basis, and alpha = gamma^e is the nonzero, of order
    n.  decompose maps an element code to its coordinate row; compose maps
    the base-q index of a row (first coordinate most significant) back to
    the code.  All elements are codes of field; trace is Tr down to GF(q).
    """

    field: FieldTable
    embed: Embedding
    k: int
    e: int
    n: int
    gamma: int
    alpha: int
    gamma_powers: list[int]
    alpha_powers: list[int]
    trace: np.ndarray
    decompose: np.ndarray
    compose: np.ndarray


def _build_factor(base: FieldTable, field: FieldTable, k: int, e: int,
                  delta: int) -> Factor:
    """The factor GF(q^k) with gamma the smallest-log primitive element whose
    norm gamma^((Q-1)/(q-1)) is delta, so that characters of the two
    extensions restrict coherently to GF(q)*."""
    q, order = base.size, field.order
    n = order // e
    embed = embed_subfield(base, field)
    target_log = field.log_table[embed.apply_code(delta)]
    step = order // (q - 1)
    t = 1
    while math.gcd(t, order) != 1 or (t * step) % order != target_log:
        t += 1
    gamma = field.exp_table[t % order]
    alpha = field.pow(gamma, e)
    if element_order(field, alpha) != n:
        raise InvariantViolated(f"gamma^{e} in GF({field.size}) does not have order {n}")
    if len(frobenius_orbit(field, alpha, base)) != k:
        raise NotAFieldGenerator(f"gamma^{e} generates a proper subfield of GF({field.size})")

    gamma_powers = _power_cycle(field, gamma, k)
    # by linearity: each coordinate appends a base-q digit to the index of
    # the rows so far, so coordinate 0 ends up the most significant
    compose = np.zeros(1, dtype=np.int64)
    for g in gamma_powers:
        scaled = np.array([field.mul(embed.apply_code(a), g) for a in range(q)])
        compose = field.add(compose[:, None], scaled).reshape(-1)
    decompose = np.full((field.size, k), -1, dtype=np.int16)
    decompose[compose] = np.indices((q,) * k, dtype=np.int16).reshape(k, -1).T
    if (decompose < 0).any():
        raise InvariantViolated("polynomial basis failed to span the extension")
    return Factor(field, embed, k, e, n, gamma, alpha, gamma_powers,
                  _power_cycle(field, alpha, n), trace_table(field, base),
                  decompose, compose)


class CodeSpec:
    """Immutable parameter bundle for the code pair (C, C').

    Built by build_code; treat all attributes as read-only.  factors holds
    the two extensions GF(Q1), GF(Q2); the scalars repeat their parameters.
    """

    def __init__(self, q: int, k1: int, k2: int, e1: int, e2: int):
        if k1 < 1 or k2 < 1:
            raise RangeError(f"k1={k1} and k2={k2} must both be >= 1")
        self.q = q
        self.k1 = k1
        self.k2 = k2
        self.e1 = e1
        self.e2 = e2
        self.field_q = field_for_size(q)
        # TableOps bounds q before any table of an extension is built
        self.ops: TableOps = table_ops(self.field_q)
        p, s = self.field_q.p, self.field_q.m
        fields = (build_field(p, s * k1), build_field(p, s * k2))
        self.Q1, self.Q2 = fields[0].size, fields[1].size

        for e, Q, label in ((e1, self.Q1, "e1"), (e2, self.Q2, "e2")):
            if e < 1 or (Q - 1) % e:
                raise BadIndex(f"{label}={e} does not divide {Q - 1}")
        self.n1 = (self.Q1 - 1) // e1
        self.n2 = (self.Q2 - 1) // e2
        if self.n1 == 1 or self.n2 == 1:
            raise DegenerateOrder("a nonzero of order 1 gives a degenerate code")

        # delta, the norm of the table generator of GF(Q1), is a GF(q) code
        g1 = fields[0].exp_table[1]
        self.delta = embed_subfield(self.field_q, fields[0]).preimage(
            fields[0].pow(g1, (self.Q1 - 1) // (q - 1)))
        self.factors = tuple(_build_factor(self.field_q, field, k, e, self.delta)
                             for field, k, e in zip(fields, (k1, k2), (e1, e2)))
        f1, f2 = self.factors
        if k1 == k2 and f2.alpha in frobenius_orbit(f1.field, f1.alpha, self.field_q):
            raise ConjugateNonzeros("a1 and a2 share an orbit over GF(q)")

        self.d = math.gcd(self.n1, self.n2)
        self.n = self.n1 * self.n2 // self.d
        self.ambient_dim = k1 + k2

        self.gram = self._build_gram()
        # vecs @ _decode_weights is the base-q compose index of each factor
        self._decode_weights = np.zeros((k1 + k2, 2), dtype=np.int64)
        self._decode_weights[:k1, 0] = q ** np.arange(k1 - 1, -1, -1)
        self._decode_weights[k1:, 1] = q ** np.arange(k2 - 1, -1, -1)
        # [G | I] reduces to [I | G^-1] exactly when G is invertible
        K = self.ambient_dim
        red, pivots = self.ops.rref(np.hstack([self.gram, np.eye(K, dtype=np.int16)]))
        if pivots != tuple(range(K)):
            raise FieldMismatch("paired-trace form is degenerate")  # pragma: no cover
        self.gram_inverse = red[:, K:]

    # -- construction helpers -------------------------------------------
    #
    # Each table puts the columns of factor 1 before those of factor 2, and
    # row i of a factor's block depends on i only modulo its order n.  The
    # two n-row tables are built on first read: a closed-form table reads
    # neither, and n reaches the tens of millions.

    @functools.cached_property
    def coordinate_functionals(self) -> np.ndarray:
        """Row i evaluates coordinate i of a codeword on flattened inputs:
        tr(gamma^t * alpha^i) in column t of each factor's block."""
        rows = np.arange(self.n)
        return np.hstack([
            np.array([[f.trace[f.field.mul(g, a)] for g in f.gamma_powers]
                      for a in f.alpha_powers], dtype=np.int16)[rows % f.n]
            for f in self.factors
        ])

    @functools.cached_property
    def group_vectors(self) -> np.ndarray:
        """Row i is the flattened point (a1^i, a2^i)."""
        rows = np.arange(self.n)
        return np.hstack([f.decompose[f.alpha_powers][rows % f.n] for f in self.factors])

    def _build_gram(self) -> np.ndarray:
        """Block diagonal: tr(gamma^s * gamma^t) within each factor."""
        K = self.ambient_dim
        gram = np.zeros((K, K), dtype=np.int16)
        offset = 0
        for f in self.factors:
            gram[offset : offset + f.k, offset : offset + f.k] = [
                [f.trace[f.field.mul(gs, gt)] for gt in f.gamma_powers]
                for gs in f.gamma_powers
            ]
            offset += f.k
        return gram

    def pairs_from_vectors(self, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The element codes (b1, b2) of each row of vecs, an integer array of
        vectors of F_q^(k1+k2): one base-q dot product for both factors and
        one compose gather per factor."""
        index = vecs @ self._decode_weights
        f1, f2 = self.factors
        return f1.compose[index[:, 0]], f2.compose[index[:, 1]]

    def summary(self) -> dict:
        return {
            "q": self.q,
            "k1": self.k1,
            "k2": self.k2,
            "e1": self.e1,
            "e2": self.e2,
            "n1": self.n1,
            "n2": self.n2,
            "n": self.n,
        }

    def __repr__(self) -> str:
        return (
            f"CodeSpec(q={self.q}, k1={self.k1}, k2={self.k2}, "
            f"e1={self.e1}, e2={self.e2}, n={self.n})"
        )


def _power_cycle(field: FieldTable, a: int, count: int) -> list[int]:
    """The codes of a^0, ..., a^(count-1) for a nonzero code a."""
    log = field.log_table[a]
    return [field.exp_table[log * i % field.order] for i in range(count)]


def build_code(q: int, k1: int, k2: int, e1: int, e2: int) -> CodeSpec:
    """Validate parameters and assemble the full CodeSpec."""
    return CodeSpec(q, k1, k2, e1, e2)


def codewords(spec: CodeSpec, beta1, beta2) -> np.ndarray:
    """(B, n): row b is the codeword tr1(b1*a1^i) + tr2(b2*a2^i), i < n, of
    the b-th pair of element codes; beta1 and beta2 are codes or arrays of
    codes, broadcast against each other, and one matmul serves them all."""
    f1, f2 = spec.factors
    b1, b2 = np.broadcast_arrays(np.asarray(beta1, dtype=np.int64),
                                 np.asarray(beta2, dtype=np.int64))
    for f, codes in ((f1, b1), (f2, b2)):
        if codes.size:  # an element code out of range is the least or the greatest
            f.field.check(codes.min())
            f.field.check(codes.max())
    u = np.hstack([f1.decompose[b1.reshape(-1)], f2.decompose[b2.reshape(-1)]])
    return spec.ops.matmul(u, spec.coordinate_functionals.T)


def parity_check_polynomial(spec: CodeSpec) -> Polynomial:
    """Product of the minimal polynomials of the inverse nonzeros."""
    h1, h2 = (minimal_polynomial(f.field, f.field.inv(f.alpha), spec.field_q)
              for f in spec.factors)
    return h1 * h2

