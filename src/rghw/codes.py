"""Cyclic codes with two nonzeros, built from a pair of trace maps.

A CodeSpec fixes the base field GF(q), the two extensions GF(Q1), GF(Q2)
(one Factor each), the nonzero generators a1 = g1^e1 and a2 = g2^e2, and
holds the flattening of GF(Q1) x GF(Q2) into F_q^(k1+k2): the Gram matrix
G of the paired-trace inner product, and, built on first read, the group
points g, the flattened (a1^i, a2^i), and the coordinate functionals
F = g G, as coordinate i of a codeword pairs its input with (a1^i, a2^i).
Everything downstream works on those tables.  What a scan reads besides
them is computed once per spec from the parameters and the factor
tables: the shift-orbit anchors, the multiplicity c of the group points
on their projective points, the factor-subspace points P and whether the
spec is structural.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .closed_forms import detect_family
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
    check_size,
    element_order,
    embed_subfield,
    field_for_size,
    frobenius_orbit,
    minimal_polynomial,
    prime_power,
    trace_table,
)
from .linalg import TableOps, check_table_size, table_ops
from .subspaces import counter


@dataclass(frozen=True, eq=False)
class Factor:
    """One extension GF(Q) = GF(q^k) of the pair, flattened over GF(q).

    gamma is the primitive element whose powers {1, gamma, ..., gamma^(k-1)}
    are the coordinate basis, and alpha = gamma^e is the nonzero, of order
    n.  decompose maps an element code to its coordinate row; compose maps
    the base-q index of a row (first coordinate most significant) back to
    the code.  All elements are codes of field, and gram[s, t] is
    tr(gamma^s * gamma^t), the Gram matrix of the trace down to GF(q).
    """

    field: FieldTable
    embed: Embedding
    k: int
    e: int
    n: int
    gamma: int
    alpha: int
    gamma_powers: list[int]
    gram: np.ndarray
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
    # uncached: a factor's q^k rows would outlive the code they build
    decompose[compose] = counter.__wrapped__(k, q)
    if (decompose < 0).any():
        raise InvariantViolated("polynomial basis failed to span the extension")
    trace = trace_table(field, base)
    gram = [[trace[field.mul(gs, gt)] for gt in gamma_powers] for gs in gamma_powers]
    return Factor(field, embed, k, e, n, gamma, alpha, gamma_powers,
                  np.array(gram, dtype=np.int16), decompose, compose)


def check_parameters(q: int, k1: int, k2: int, e1: int, e2: int) -> None:
    """Every refusal of build_code that the five integers decide, in this
    order and before any field or table is built; CodeSpec is left the two
    that need the fields, NotAFieldGenerator and ConjugateNonzeros."""
    if k1 < 1 or k2 < 1:
        raise RangeError(f"k1={k1} and k2={k2} must both be >= 1")
    for e, label in ((e1, "e1"), (e2, "e2")):
        if e < 1:
            raise RangeError(f"{label}={e} must be >= 1")
    p, s = prime_power(q)
    check_table_size(q)
    for k in (k1, k2):
        check_size(p, s * k)
    for k, e, label in ((k1, e1, "e1"), (k2, e2, "e2")):
        if (q**k - 1) % e:
            raise BadIndex(f"{label}={e} does not divide {q**k - 1}")
    if e1 == q**k1 - 1 or e2 == q**k2 - 1:  # (q^k - 1) / e = 1
        raise DegenerateOrder("a nonzero of order 1 gives a degenerate code")


class CodeSpec:
    """Immutable parameter bundle for the code pair (C, C').

    Built by build_code; treat all attributes as read-only.  factors holds
    the two extensions GF(Q1), GF(Q2); the scalars repeat their parameters.
    """

    def __init__(self, q: int, k1: int, k2: int, e1: int, e2: int):
        check_parameters(q, k1, k2, e1, e2)
        self.q = q
        self.k1 = k1
        self.k2 = k2
        self.e1 = e1
        self.e2 = e2
        self.field_q = field_for_size(q)
        self.ops: TableOps = table_ops(self.field_q)
        p, s = self.field_q.p, self.field_q.m
        fields = (build_field(p, s * k1), build_field(p, s * k2))
        self.Q1, self.Q2 = fields[0].size, fields[1].size
        self.n1 = (self.Q1 - 1) // e1
        self.n2 = (self.Q2 - 1) // e2

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
        self.ambient_dim = K = k1 + k2

        # the paired-trace form: block diagonal, one trace form per factor
        self.gram = np.zeros((K, K), dtype=np.int16)
        self.gram[:k1, :k1], self.gram[k1:, k1:] = f1.gram, f2.gram
        # vecs @ _decode_weights is the base-q compose index of each factor
        self._decode_weights = np.zeros((K, 2), dtype=np.int64)
        self._decode_weights[:k1, 0] = q ** np.arange(k1 - 1, -1, -1)
        self._decode_weights[k1:, 1] = q ** np.arange(k2 - 1, -1, -1)
        # [G | I] reduces to [I | G^-1] exactly when G is invertible
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
        tr(gamma^t * alpha^i) in column t of each factor's block, the Gram
        image sum_s c_s tr(gamma^s * gamma^t) of alpha^i = sum_s c_s gamma^s."""
        return self._tile(self.ops.matmul)

    @functools.cached_property
    def group_vectors(self) -> np.ndarray:
        """Row i is the flattened point (a1^i, a2^i)."""
        return self._tile(lambda points, gram: points)

    def _tile(self, image) -> np.ndarray:
        """The (n, K) table whose row i holds image(c, f.gram) in the columns
        of each factor f, c the coordinate row of alpha^(i mod n_f)."""
        out = np.empty((self.n, self.ambient_dim), dtype=np.int16)
        for f, cols in zip(self.factors, (slice(0, self.k1), slice(self.k1, None))):
            points = f.decompose[_power_cycle(f.field, f.alpha, f.n)]
            # n is a multiple of n_f: written in place, one period at a time
            out.reshape(-1, f.n, self.ambient_dim)[:, :, cols] = image(points, f.gram)
        return out

    # -- scan inputs ------------------------------------------------------
    #
    # What every scan of the spec reads besides an n-row table, computed
    # once from the parameters and the factor tables and kept read-only.

    @functools.cached_property
    def structural(self) -> bool:
        """Whether the group points are every point of PG(K-1, q) outside
        the two factor subspaces, each once (closed_forms.detect_family)."""
        return detect_family(self.q, self.k1, self.k2, self.e1, self.e2) is not None

    @functools.cached_property
    def _shift_indices(self) -> tuple[int, int, int]:
        """(m1, t0, m2): a1 and GF(q)* generate a subgroup of index m1 of
        GF(Q1)*, t0 is the least t > 0 with a1^t in GF(q)*, and the shifts
        that fix b1 up to a scalar, a1^t in GF(q)*, act on b2 through
        H2 = <a2^t0 a1^-t0>, of index m2 in GF(Q2)*."""
        f1, f2 = self.factors
        F1, F2 = f1.field, f2.field
        step = F1.order // (self.q - 1)  # GF(q)* = <g1^step>
        m1 = math.gcd(F1.log_table[f1.alpha], step)
        t0 = step // m1
        scalar = f1.embed.preimage(F1.pow(f1.alpha, -t0))
        h2 = F2.mul(F2.pow(f2.alpha, t0), f2.embed.apply_code(scalar))
        return m1, t0, math.gcd(F2.log_table[h2], F2.order)

    @functools.cached_property
    def multiplicity(self) -> int:
        """c, the number of group points on each projective point they
        reach: (a1, a2)^t is a scalar of GF(q)* exactly when t is a
        multiple of t0 and t/t0 one of |H2|, so c = n / gcd(n, t0 |H2|),
        and coordinates i and i + n/c differ by a scalar."""
        _, t0, m2 = self._shift_indices
        return self.n // math.gcd(self.n, t0 * (self.factors[1].field.order // m2))

    @functools.cached_property
    def factor_points(self) -> np.ndarray:
        """P, the theta(k1) + theta(k2) points of the factor subspaces
        GF(Q1) x 0 and 0 x GF(Q2), one vector each led by 1: the rows of
        each factor's columns whose first nonzero entry is 1."""
        blocks = []
        for first, k in ((0, self.k1), (self.k1, self.k2)):
            rows = counter(k, self.q)
            rows = rows[rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)] == 1]
            block = np.zeros((len(rows), self.ambient_dim), dtype=np.int16)
            block[:, first:first + k] = rows
            blocks.append(block)
        return _read_only(np.vstack(blocks))

    @functools.cached_property
    def orbit_anchors(self) -> tuple[np.ndarray, np.ndarray]:
        """(R, R G): the anchors of the support scans and of the dual scan,
        orbit_representatives without and with gram."""
        return tuple(_read_only(orbit_representatives(self, gram)) for gram in (False, True))

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


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def orbit_representatives(spec: CodeSpec, gram: bool = False) -> np.ndarray:
    """One vector of F_q^K per orbit of {(b1, b2) : b1 != 0} under the shift
    and GF(q)*, shape (orbits, K), with coordinate 0 equal to 1: a
    representative r, or with gram its Gram image r G, the dual scan's
    anchor, for an r picked in its orbit with (r G)_0 = tr(c1) != 0, c1
    the element of GF(Q1) that r flattens.

    With (m1, t0, m2) the spec's shift indices, the pairs (g1^i, 0) and
    (g1^i, g2^k), i < m1, k < m2, lie in distinct orbits and meet every
    one; each is shifted until the lead, coordinate 0 of r or of r G, is
    nonzero, then rescaled.
    """
    f1, f2 = spec.factors
    F1, F2 = f1.field, f2.field
    m1, _, m2 = spec._shift_indices
    # the lead of every element code c1: its coordinate 0, or
    # tr(c1) = sum_s c1_s tr(gamma^s), column 0 of the Gram block
    lead = (spec.ops.matmul(f1.decompose, f1.gram[:, :1])[:, 0] if gram
            else f1.decompose[:, 0])
    rows = []
    for b1 in F1.exp_table[:m1]:
        for b2 in [0, *F2.exp_table[:m2]]:
            c1, c2 = b1, b2
            # a1 generates GF(Q1), so the shifts of b1 span it, and a
            # nonzero linear form is nonzero on one of them
            while lead[c1] == 0:
                c1, c2 = F1.mul(c1, f1.alpha), F2.mul(c2, f2.alpha)
            scale = spec.field_q.inv(int(lead[c1]))
            rows.append(f1.decompose[F1.mul(c1, f1.embed.apply_code(scale))].tolist()
                        + f2.decompose[F2.mul(c2, f2.embed.apply_code(scale))].tolist())
    reps = np.array(rows, dtype=np.int16)
    return spec.ops.matmul(reps, spec.gram) if gram else reps


def _power_cycle(field: FieldTable, a: int, count: int) -> list[int]:
    """The codes of a^0, ..., a^(count-1) for a nonzero code a."""
    log = field.log_table[a]
    return [field.exp_table[log * i % field.order] for i in range(count)]


def build_code(q: int, k1: int, k2: int, e1: int, e2: int) -> CodeSpec:
    """check_parameters, then the CodeSpec of the parameters."""
    return CodeSpec(q, k1, k2, e1, e2)


def codewords(spec: CodeSpec, beta1, beta2) -> np.ndarray:
    """(B, n): row b is the codeword tr1(b1*a1^i) + tr2(b2*a2^i), i < n, of
    the b-th pair of element codes; beta1 and beta2 are codes or arrays of
    codes, broadcast against each other, and one matmul serves them all.
    A code that is not an integer is refused, as one out of range is."""
    f1, f2 = spec.factors
    b1, b2 = np.broadcast_arrays(np.asarray(beta1), np.asarray(beta2))
    for f, codes in ((f1, b1), (f2, b2)):
        if codes.size:
            if codes.dtype.kind not in "biu":
                raise FieldMismatch(f"element codes of dtype {codes.dtype} are not integers")
            # an element code out of range is the least or the greatest
            f.field.check(codes.min())
            f.field.check(codes.max())
    u = np.hstack([f1.decompose[b1.reshape(-1).astype(np.int64)],
                   f2.decompose[b2.reshape(-1).astype(np.int64)]])
    return spec.ops.matmul(u, spec.coordinate_functionals.T)


def parity_check_polynomial(spec: CodeSpec) -> Polynomial:
    """Product of the minimal polynomials of the inverse nonzeros."""
    h1, h2 = (minimal_polynomial(f.field, f.field.inv(f.alpha), spec.field_q)
              for f in spec.factors)
    return h1 * h2

