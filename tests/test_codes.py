"""Code construction, codewords, supports, parity checks."""

import numpy as np
import pytest

from rghw.codes import (
    export_codewords,
    basis_codewords,
    build_code,
    codeword,
    parity_check_polynomial,
    subcode_codeword,
    support,
)
from rghw.errors import (
    BadIndex,
    ConjugateNonzeros,
    DegenerateOrder,
    FieldMismatch,
    LengthMismatch,
    NotAFieldGenerator,
)
from rghw.gf import element_order, trace_table
from rghw.subspaces import subspace_from_rows


def direct_codeword(spec, b1_code, b2_code):
    """Oracle: coordinates via field arithmetic and the trace table, none of
    the spec's precomputed functionals."""
    f1, f2, fq = spec.field_q1, spec.field_q2, spec.field_q
    tr1, tr2 = trace_table(f1, fq), trace_table(f2, fq)
    out = []
    for i in range(spec.n):
        t1 = tr1[f1.mul(b1_code, f1.pow(spec.alpha1, i))]
        t2 = tr2[f2.mul(b2_code, f2.pow(spec.alpha2, i))]
        out.append(fq.add(int(t1), int(t2)))
    return tuple(out)


def test_build_code_examples():
    spec = build_code(2, 2, 3, 1, 1)
    assert (spec.n1, spec.n2, spec.d, spec.n) == (3, 7, 1, 21)
    assert spec.coprime_orders

    spec3 = build_code(3, 2, 3, 1, 2)
    assert (spec3.n1, spec3.n2, spec3.n) == (8, 13, 104)
    # oracle: orders recomputed from the elements themselves
    assert element_order(spec3.field_q1, spec3.alpha1) == 8
    assert element_order(spec3.field_q2, spec3.alpha2) == 13


def test_build_code_rejections():
    with pytest.raises(ConjugateNonzeros):
        build_code(2, 2, 2, 1, 1)
    with pytest.raises(BadIndex):
        build_code(3, 2, 3, 1, 5)  # 5 does not divide 26
    with pytest.raises(DegenerateOrder):
        build_code(2, 2, 3, 1, 7)  # alpha2 = 1
    with pytest.raises(NotAFieldGenerator):
        build_code(2, 3, 4, 1, 5)  # order-3 alpha2 lives in GF(4)


def test_same_degree_pair_can_be_valid():
    spec = build_code(3, 2, 2, 1, 2)  # alpha2 = g^2 is not conjugate to g
    assert spec.d == 4 and not spec.coprime_orders
    assert spec.n == 8


@pytest.mark.parametrize(
    "params",
    [
        (2, 2, 3, 1, 1),
        (3, 2, 3, 1, 2),
        (4, 2, 3, 1, 9),
        (5, 2, 2, 1, 3),
        (5, 2, 3, 1, 4),  # compatibility forces gamma2 off the table generator
    ],
)
def test_delta_compatibility(params):
    spec = build_code(*params)
    lhs = spec.embed1.preimage(spec.field_q1.pow(spec.gamma1, (spec.Q1 - 1) // (spec.q - 1)))
    rhs = spec.embed2.preimage(spec.field_q2.pow(spec.gamma2, (spec.Q2 - 1) // (spec.q - 1)))
    assert lhs == rhs == spec.delta
    assert element_order(spec.field_q, spec.delta) == spec.q - 1
    assert (spec.Q1 - 1) == spec.e1 * spec.n1
    assert (spec.Q2 - 1) == spec.e2 * spec.n2


def test_codeword_zero_and_linearity():
    spec = build_code(3, 2, 3, 1, 2)
    zero = codeword(spec, 0, 0)
    assert zero.weight == 0 and len(zero) == spec.n

    rng = np.random.default_rng(5)
    f1, f2, fq = spec.field_q1, spec.field_q2, spec.field_q
    for _ in range(20):
        a = int(rng.integers(0, spec.q))
        u1, v1 = (int(c) for c in rng.integers(0, spec.Q1, 2))
        u2, v2 = (int(c) for c in rng.integers(0, spec.Q2, 2))
        lift_a1 = spec.embed1.apply_code(a)
        lift_a2 = spec.embed2.apply_code(a)
        lhs = codeword(spec, f1.add(f1.mul(lift_a1, u1), v1), f2.add(f2.mul(lift_a2, u2), v2))
        wu = codeword(spec, u1, u2)
        wv = codeword(spec, v1, v2)
        combo = tuple(
            fq.add(fq.mul(a, x), y) for x, y in zip(wu.coords, wv.coords)
        )
        assert lhs.coords == combo


def test_codeword_matches_direct_trace_oracle():
    for params in ((2, 2, 3, 1, 1), (3, 2, 3, 1, 2)):
        spec = build_code(*params)
        rng = np.random.default_rng(11)
        for _ in range(10):
            b1 = int(rng.integers(0, spec.Q1))
            b2 = int(rng.integers(0, spec.Q2))
            assert codeword(spec, b1, b2).coords == direct_codeword(spec, b1, b2)


def test_weight_ten_example():
    spec = build_code(2, 2, 3, 1, 1)
    # oracle: count zero coordinates from trace-zero counts: in GF(4) one
    # nonzero element per period has zero trace (1 of 3), in GF(8) three of
    # seven; over 21 coordinates the zero count is 1*3 + 2*4 = 11
    zeros4 = int((trace_table(spec.field_q1, spec.field_q)[1:] == 0).sum())
    zeros8 = int((trace_table(spec.field_q2, spec.field_q)[1:] == 0).sum())
    assert (zeros4, zeros8) == (1, 3)
    for b1 in range(1, spec.Q1):
        for b2 in range(1, spec.Q2):
            assert codeword(spec, b1, b2).weight == 10


def test_one_sided_word_is_repetition():
    spec = build_code(2, 2, 3, 1, 1)
    f1, tr1 = spec.field_q1, trace_table(spec.field_q1, spec.field_q)
    for b1 in range(1, spec.Q1):
        w = codeword(spec, b1, 0)
        base = [int(tr1[f1.mul(b1, f1.pow(spec.alpha1, i))]) for i in range(spec.n1)]
        assert w.coords == tuple(base * (spec.n // spec.n1))


def test_subcode_examples():
    spec = build_code(2, 2, 3, 1, 1)
    assert subcode_codeword(spec, 0).weight == 0
    ones8 = int((trace_table(spec.field_q2, spec.field_q)[1:] == 1).sum())
    assert ones8 == 4  # oracle for the weight computation below
    for b2 in range(1, spec.Q2):
        w = subcode_codeword(spec, b2)
        assert w.weight == (spec.n // spec.n2) * 4 == 12
        assert all(
            w.coords[i] == w.coords[(i + spec.n2) % spec.n] for i in range(spec.n)
        )
    # containment in C
    all_words = {
        codeword(spec, b1, b2).coords
        for b1 in range(spec.Q1)
        for b2 in range(spec.Q2)
    }
    assert {subcode_codeword(spec, b2).coords for b2 in range(spec.Q2)} <= all_words


def test_dimension_injectivity_and_shift_closure():
    for params in ((2, 2, 3, 1, 1), (3, 2, 3, 1, 2)):
        spec = build_code(*params)
        words = {
            codeword(spec, b1, b2).coords
            for b1 in range(spec.Q1)
            for b2 in range(spec.Q2)
        }
        assert len(words) == spec.Q1 * spec.Q2  # dim C = k1 + k2
        for w in words:
            assert w[1:] + w[:1] in words


def test_support():
    spec = build_code(2, 2, 3, 1, 1)
    assert support([codeword(spec, 0, 0)]) == set()
    w = codeword(spec, 1, 1)
    assert support([w]) == {i for i, v in enumerate(w.coords) if v}
    assert len(support([w])) == 10

    u = codeword(spec, 2, 3)
    assert support([w, u]) == support([w]) | support([u])

    with pytest.raises(LengthMismatch):
        other = build_code(3, 2, 3, 1, 2)
        support([w, codeword(other, 1, 1)])


def test_support_of_subspace_matches_union_of_members():
    spec = build_code(3, 2, 3, 1, 2)
    rng = np.random.default_rng(3)
    from rghw.subspaces import member_matrix

    for _ in range(10):
        rows = rng.integers(0, 3, size=(2, spec.ambient_dim))
        basis = subspace_from_rows(3, spec.ambient_dim, rows, "product")
        via_basis = support(basis, spec)
        members = member_matrix(basis)
        union = set()
        for vec in members:
            c1, c2 = spec.pair_from_vector(vec)
            union |= support([codeword(spec, c1, c2)])
        assert via_basis == union
        # the codeword-space image reports the same support without the spec
        words = basis_codewords(spec, basis)
        assert support(subspace_from_rows(spec.q, spec.n, words)) == union


def test_parity_check_polynomial():
    spec = build_code(2, 2, 3, 1, 1)
    h = parity_check_polynomial(spec)
    assert h.degree == spec.k1 + spec.k2 == 5
    # oracle: vanishes at both inverse nonzeros
    f1, f2 = spec.field_q1, spec.field_q2
    assert h.evaluate(f1, f1.inv(spec.alpha1)) == 0
    assert h.evaluate(f2, f2.inv(spec.alpha2)) == 0

    spec3 = build_code(3, 2, 3, 1, 2)
    assert parity_check_polynomial(spec3).degree == 5


@pytest.mark.parametrize("params", [(2, 2, 3, 1, 1), (3, 2, 3, 1, 2)])
def test_recurrence_annihilates_all_codewords(params):
    spec = build_code(*params)
    h = parity_check_polynomial(spec)
    fq = spec.field_q
    k = h.degree
    for b1 in range(spec.Q1):
        for b2 in range(spec.Q2):
            w = codeword(spec, b1, b2).coords
            for i in range(spec.n):
                acc = 0
                for t in range(k + 1):
                    acc = fq.add(acc, fq.mul(h.coeffs[k - t], w[(i + t) % spec.n]))
                assert acc == 0


def test_codeword_field_mismatch():
    spec = build_code(2, 2, 3, 1, 1)
    with pytest.raises(FieldMismatch):
        codeword(spec, spec.Q1, 0)  # beta1 names no element of GF(4)
    with pytest.raises(FieldMismatch):
        codeword(spec, 0, -1)
    with pytest.raises(FieldMismatch):
        codeword(spec, 99, 0)


def test_export_codewords():
    import json

    spec = build_code(2, 2, 3, 1, 1)
    words = [codeword(spec, 1, 0), codeword(spec, 0, 1)]
    text = export_codewords(words)
    lines = text.splitlines()
    assert len(lines) == 2
    assert tuple(int(v) for v in lines[0].split()) == words[0].coords
    doc = json.loads(export_codewords(words, "json"))
    assert doc == [list(w.coords) for w in words]
    from rghw.errors import RangeError

    with pytest.raises(RangeError):
        export_codewords(words, "xml")


def test_basis_codewords_shape():
    spec = build_code(2, 2, 3, 1, 1)
    basis = subspace_from_rows(2, spec.ambient_dim, np.eye(5, dtype=int)[:2], "product")
    words = basis_codewords(spec, basis)
    assert words.shape == (2, spec.n)
    for row, vec in zip(words, basis.matrix()):
        c1, c2 = spec.pair_from_vector(vec)
        assert tuple(int(v) for v in row) == codeword(spec, c1, c2).coords
