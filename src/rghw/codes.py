"""Cyclic codes with two nonzeros, built from a pair of trace maps.

A CodeSpec fixes the base field GF(q), the two extensions GF(Q1), GF(Q2),
the nonzero generators a1 = g1^e1 and a2 = g2^e2, and precomputes the
flattening of GF(Q1) x GF(Q2) into F_q^(k1+k2): per-coordinate evaluation
functionals, the cyclic-group point list, and the Gram matrix of the
paired-trace inner product.  Everything downstream works on those tables.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from .errors import (
    BadIndex,
    ConjugateNonzeros,
    DegenerateOrder,
    FieldMismatch,
    InvariantViolated,
    LengthMismatch,
    NotAFieldGenerator,
    RangeError,
)
from .gf import (
    DEFAULT_SIZE_CAP,
    Embedding,
    FieldElement,
    FieldTable,
    Polynomial,
    build_field,
    element_order,
    embed_subfield,
    factor_prime_power,
    frobenius_orbit_size,
    minimal_polynomial,
)
from .linalg import TableOps, table_ops
from .subspaces import SubspaceBasis, subspace_from_rows


class CodeSpec:
    """Immutable parameter bundle for the code pair (C, C').

    Built by build_code; treat all attributes as read-only.
    """

    def __init__(self, q: int, k1: int, k2: int, e1: int, e2: int,
                 size_cap: int = DEFAULT_SIZE_CAP):
        p, s = factor_prime_power(q)
        self.q = q
        self.p = p
        self.k1 = k1
        self.k2 = k2
        self.e1 = e1
        self.e2 = e2
        self.Q1 = q**k1
        self.Q2 = q**k2
        self.field_q = build_field(p, s, size_cap)
        self.field_q1 = build_field(p, s * k1, size_cap)
        self.field_q2 = build_field(p, s * k2, size_cap)
        self.embed1 = embed_subfield(self.field_q, self.field_q1)
        self.embed2 = embed_subfield(self.field_q, self.field_q2)

        for e, Q, label in ((e1, self.Q1, "e1"), (e2, self.Q2, "e2")):
            if e < 1 or (Q - 1) % e:
                raise BadIndex(f"{label}={e} does not divide {Q - 1}")
        self.n1 = (self.Q1 - 1) // e1
        self.n2 = (self.Q2 - 1) // e2
        if self.n1 == 1 or self.n2 == 1:
            raise DegenerateOrder("a nonzero of order 1 gives a degenerate code")

        self.gamma1 = self.field_q1.generator
        self.delta = self.embed1.preimage(self.gamma1 ** ((self.Q1 - 1) // (q - 1)))
        self.gamma2 = self._select_gamma2()
        self.alpha1 = self.gamma1**e1
        self.alpha2 = self.gamma2**e2
        for label, alpha, order in (("alpha1", self.alpha1, self.n1),
                                    ("alpha2", self.alpha2, self.n2)):
            if element_order(alpha) != order:
                raise InvariantViolated(f"{label} does not have order {order}")

        if frobenius_orbit_size(self.alpha1, self.field_q) != k1:
            raise NotAFieldGenerator(f"alpha1 generates a proper subfield of GF({self.Q1})")
        if frobenius_orbit_size(self.alpha2, self.field_q) != k2:
            raise NotAFieldGenerator(f"alpha2 generates a proper subfield of GF({self.Q2})")
        if k1 == k2:
            conj = self.alpha1
            for _ in range(k1):
                if conj == self.alpha2:
                    raise ConjugateNonzeros("alpha1 and alpha2 share an orbit over GF(q)")
                conj = conj**q

        self.d = math.gcd(self.n1, self.n2)
        self.n = self.n1 * self.n2 // self.d
        self.coprime_orders = self.d == 1
        self.ambient_dim = k1 + k2

        self.ops: TableOps = table_ops(self.field_q)
        self.trace1_table = _trace_table(self.field_q1, self.field_q, self.embed1)
        self.trace2_table = _trace_table(self.field_q2, self.field_q, self.embed2)
        self.alpha1_powers = _power_cycle(self.alpha1, self.n1)
        self.alpha2_powers = _power_cycle(self.alpha2, self.n2)
        self._gamma1_powers = _power_cycle(self.gamma1, k1)
        self._gamma2_powers = _power_cycle(self.gamma2, k2)
        self.decompose1 = self._decompose_table(1)
        self.decompose2 = self._decompose_table(2)
        self.coordinate_functionals = self._build_functionals()
        self.group_vectors = self._build_group_vectors()
        self.gram = self._build_gram()
        if self.ops.rank(self.gram) != self.ambient_dim:
            raise FieldMismatch("paired-trace form is degenerate")  # pragma: no cover

    # -- construction helpers -------------------------------------------

    def _select_gamma2(self) -> FieldElement:
        """Smallest-log primitive element of GF(Q2) compatible with delta.

        Compatibility pins g2^((Q2-1)/(q-1)) to the same GF(q) element that
        gamma1 produces, so characters of the two extensions restrict
        coherently to GF(q)*.
        """
        Q2 = self.Q2
        target = self.embed2.apply(self.delta)
        target_log = target.log % (Q2 - 1)
        step = (Q2 - 1) // (self.q - 1)
        t = 1
        while True:
            if math.gcd(t, Q2 - 1) == 1 and (t * step) % (Q2 - 1) == target_log:
                return self.field_q2.from_log(t)
            t += 1

    def _decompose_table(self, side: int) -> np.ndarray:
        """code -> coordinate row over GF(q) in the basis {1, g, ..., g^(k-1)}."""
        field = self.field_q1 if side == 1 else self.field_q2
        emb = self.embed1 if side == 1 else self.embed2
        gpows = self._gamma1_powers if side == 1 else self._gamma2_powers
        k = self.k1 if side == 1 else self.k2
        table = np.full((field.size, k), -1, dtype=np.int16)
        for vec in itertools.product(range(self.q), repeat=k):
            code = 0
            for t, a in enumerate(vec):
                code = field.add(code, field.mul(emb.apply_code(a), gpows[t]))
            table[code] = vec
        if (table < 0).any():
            raise InvariantViolated("polynomial basis failed to span the extension")
        return table

    def _build_functionals(self) -> np.ndarray:
        """Row i evaluates coordinate i of a codeword on flattened inputs."""
        out = np.empty((self.n, self.ambient_dim), dtype=np.int16)
        f1, f2 = self.field_q1, self.field_q2
        for i in range(self.n):
            a1 = self.alpha1_powers[i % self.n1]
            a2 = self.alpha2_powers[i % self.n2]
            for t in range(self.k1):
                out[i, t] = self.trace1_table[f1.mul(self._gamma1_powers[t], a1)]
            for t in range(self.k2):
                out[i, self.k1 + t] = self.trace2_table[f2.mul(self._gamma2_powers[t], a2)]
        return out

    def _build_group_vectors(self) -> np.ndarray:
        out = np.empty((self.n, self.ambient_dim), dtype=np.int16)
        for i in range(self.n):
            out[i, : self.k1] = self.decompose1[self.alpha1_powers[i % self.n1]]
            out[i, self.k1 :] = self.decompose2[self.alpha2_powers[i % self.n2]]
        return out

    def _build_gram(self) -> np.ndarray:
        K = self.ambient_dim
        gram = np.zeros((K, K), dtype=np.int16)
        for s in range(self.k1):
            for t in range(self.k1):
                prod = self.field_q1.mul(self._gamma1_powers[s], self._gamma1_powers[t])
                gram[s, t] = self.trace1_table[prod]
        for s in range(self.k2):
            for t in range(self.k2):
                prod = self.field_q2.mul(self._gamma2_powers[s], self._gamma2_powers[t])
                gram[self.k1 + s, self.k1 + t] = self.trace2_table[prod]
        return gram

    # -- flattening helpers ----------------------------------------------

    def compose1(self, vec) -> int:
        return self._compose(vec, self.field_q1, self.embed1, self._gamma1_powers)

    def compose2(self, vec) -> int:
        return self._compose(vec, self.field_q2, self.embed2, self._gamma2_powers)

    @staticmethod
    def _compose(vec, field: FieldTable, emb: Embedding, gpows) -> int:
        code = 0
        for t, a in enumerate(vec):
            code = field.add(code, field.mul(emb.apply_code(int(a)), gpows[t]))
        return code

    def pair_from_vector(self, vec) -> tuple[int, int]:
        return self.compose1(vec[: self.k1]), self.compose2(vec[self.k1 :])

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


def _trace_table(sup: FieldTable, sub: FieldTable, emb: Embedding) -> np.ndarray:
    """Absolute trace from sup to sub for every element code."""
    q = sub.size
    steps = sup.m // sub.m
    out = np.zeros(sup.size, dtype=np.int16)
    for log in range(sup.order):
        acc = 0
        exponent = 1
        for _ in range(steps):
            acc = sup.add(acc, sup.exp_table[(log * exponent) % sup.order])
            exponent = (exponent * q) % sup.order
        out[sup.exp_table[log]] = emb.preimage_code(acc)
    return out


def _power_cycle(a: FieldElement, count: int) -> list[int]:
    out = []
    x = a.field.one
    for _ in range(count):
        out.append(x.code)
        x = x * a
    return out


def build_code(q: int, k1: int, k2: int, e1: int, e2: int,
               size_cap: int = DEFAULT_SIZE_CAP) -> CodeSpec:
    """Validate parameters and assemble the full CodeSpec."""
    return CodeSpec(q, k1, k2, e1, e2, size_cap)


@dataclass(frozen=True)
class Codeword:
    """A length-n word over GF(q) plus the pair that generated it."""

    coords: tuple[int, ...]
    beta1: int
    beta2: int

    @property
    def weight(self) -> int:
        return sum(1 for v in self.coords if v)

    def __len__(self) -> int:
        return len(self.coords)


def _coerce_code(spec: CodeSpec, beta, side: int) -> int:
    field = spec.field_q1 if side == 1 else spec.field_q2
    if isinstance(beta, FieldElement):
        if beta.field is not field:
            raise FieldMismatch(f"beta{side} does not live in GF({field.size})")
        return beta.code
    beta = int(beta)
    if not 0 <= beta < field.size:
        raise FieldMismatch(f"code {beta} outside GF({field.size})")
    return beta


def codeword(spec: CodeSpec, beta1, beta2) -> Codeword:
    """The word whose coordinate i is tr1(b1*a1^i) + tr2(b2*a2^i)."""
    b1 = _coerce_code(spec, beta1, 1)
    b2 = _coerce_code(spec, beta2, 2)
    u = np.concatenate([spec.decompose1[b1], spec.decompose2[b2]])
    coords = spec.ops.matmul(spec.coordinate_functionals, u[:, None])[:, 0]
    return Codeword(tuple(int(v) for v in coords), b1, b2)


def subcode_codeword(spec: CodeSpec, beta2) -> Codeword:
    return codeword(spec, 0, beta2)


def basis_codewords(spec: CodeSpec, basis: SubspaceBasis) -> np.ndarray:
    """Codewords of the basis rows of a product-space subspace, one per row."""
    if basis.ambient_dim != spec.ambient_dim:
        raise LengthMismatch("basis is not in the product ambient")
    if basis.dim == 0:
        return np.zeros((0, spec.n), dtype=np.int16)
    return spec.ops.matmul(basis.matrix(), spec.coordinate_functionals.T)


def to_codeword_basis(spec: CodeSpec, basis: SubspaceBasis) -> SubspaceBasis:
    """Image of a product-space subspace inside F_q^n, canonicalized."""
    words = basis_codewords(spec, basis)
    return subspace_from_rows(spec.q, spec.n, words, "codeword")


def support(words: Union[Iterable[Codeword], SubspaceBasis],
            spec: Optional[CodeSpec] = None) -> set[int]:
    """Coordinate positions where some vector of the collection is nonzero.

    Accepts a collection of Codewords, a codeword-space SubspaceBasis, or a
    product-space SubspaceBasis together with its CodeSpec (a spanning set
    suffices: the union over a basis equals the union over the subspace).
    """
    if isinstance(words, SubspaceBasis):
        if spec is not None and words.ambient_dim == spec.ambient_dim:
            mat = basis_codewords(spec, words)
        else:
            mat = words.matrix()
        return {int(i) for i in np.nonzero(mat.any(axis=0))[0]}
    out: set[int] = set()
    length = None
    for w in words:
        if length is None:
            length = len(w)
        elif len(w) != length:
            raise LengthMismatch("codewords of different lengths")
        out.update(i for i, v in enumerate(w.coords) if v)
    return out


def parity_check_polynomial(spec: CodeSpec) -> Polynomial:
    """Product of the minimal polynomials of the inverse nonzeros."""
    h1 = minimal_polynomial(spec.alpha1 ** (-1), spec.field_q)
    h2 = minimal_polynomial(spec.alpha2 ** (-1), spec.field_q)
    return h1 * h2


def export_codewords(words: Iterable[Codeword], fmt: str = "text") -> str:
    """Render words as a plain-text residue matrix or a JSON array of rows."""
    rows = [list(w.coords) for w in words]
    if fmt == "json":
        return json.dumps(rows)
    if fmt == "text":
        return "".join(" ".join(str(v) for v in row) + "\n" for row in rows)
    raise RangeError(f"unknown export format {fmt!r}")
