"""Code construction, codewords, supports, parity checks."""

import itertools

import numpy as np
import pytest

from rghw.codes import basis_codewords, build_code, codeword, parity_check_polynomial
from rghw.errors import (
    BadIndex,
    ConjugateNonzeros,
    DegenerateOrder,
    FieldMismatch,
    NotAFieldGenerator,
)
from rghw.gf import element_order, trace_table
from rghw.subspaces import subspace_from_rows


def direct_codeword(spec, b1_code, b2_code):
    """Oracle: coordinates via field arithmetic and the trace table, none of
    the spec's precomputed functionals."""
    f1, f2, fq = spec.factors[0].field, spec.factors[1].field, spec.field_q
    tr1, tr2 = trace_table(f1, fq), trace_table(f2, fq)
    out = []
    for i in range(spec.n):
        t1 = tr1[f1.mul(b1_code, f1.pow(spec.factors[0].alpha, i))]
        t2 = tr2[f2.mul(b2_code, f2.pow(spec.factors[1].alpha, i))]
        out.append(fq.add(int(t1), int(t2)))
    return tuple(out)


def test_build_code_examples():
    spec = build_code(2, 2, 3, 1, 1)
    assert (spec.n1, spec.n2, spec.d, spec.n) == (3, 7, 1, 21)

    spec3 = build_code(3, 2, 3, 1, 2)
    assert (spec3.n1, spec3.n2, spec3.n) == (8, 13, 104)
    # oracle: orders recomputed from the elements themselves
    assert element_order(spec3.factors[0].field, spec3.factors[0].alpha) == 8
    assert element_order(spec3.factors[1].field, spec3.factors[1].alpha) == 13


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
    assert spec.d == 4
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
    lhs = spec.factors[0].embed.preimage(spec.factors[0].field.pow(spec.factors[0].gamma, (spec.Q1 - 1) // (spec.q - 1)))
    rhs = spec.factors[1].embed.preimage(spec.factors[1].field.pow(spec.factors[1].gamma, (spec.Q2 - 1) // (spec.q - 1)))
    assert lhs == rhs == spec.delta
    assert element_order(spec.field_q, spec.delta) == spec.q - 1
    assert (spec.Q1 - 1) == spec.e1 * spec.n1
    assert (spec.Q2 - 1) == spec.e2 * spec.n2


def test_codeword_zero_and_linearity():
    spec = build_code(3, 2, 3, 1, 2)
    zero = codeword(spec, 0, 0)
    assert np.count_nonzero(zero) == 0 and len(zero) == spec.n

    rng = np.random.default_rng(5)
    f1, f2, fq = spec.factors[0].field, spec.factors[1].field, spec.field_q
    for _ in range(20):
        a = int(rng.integers(0, spec.q))
        u1, v1 = (int(c) for c in rng.integers(0, spec.Q1, 2))
        u2, v2 = (int(c) for c in rng.integers(0, spec.Q2, 2))
        lift_a1 = spec.factors[0].embed.apply_code(a)
        lift_a2 = spec.factors[1].embed.apply_code(a)
        lhs = codeword(spec, f1.add(f1.mul(lift_a1, u1), v1), f2.add(f2.mul(lift_a2, u2), v2))
        wu = codeword(spec, u1, u2)
        wv = codeword(spec, v1, v2)
        combo = tuple(
            fq.add(fq.mul(a, x), y) for x, y in zip(wu, wv)
        )
        assert lhs == combo


def test_codeword_matches_direct_trace_oracle():
    for params in ((2, 2, 3, 1, 1), (3, 2, 3, 1, 2)):
        spec = build_code(*params)
        rng = np.random.default_rng(11)
        for _ in range(10):
            b1 = int(rng.integers(0, spec.Q1))
            b2 = int(rng.integers(0, spec.Q2))
            assert codeword(spec, b1, b2) == direct_codeword(spec, b1, b2)


def test_weight_ten_example():
    spec = build_code(2, 2, 3, 1, 1)
    # oracle: count zero coordinates from trace-zero counts: in GF(4) one
    # nonzero element per period has zero trace (1 of 3), in GF(8) three of
    # seven; over 21 coordinates the zero count is 1*3 + 2*4 = 11
    zeros4 = int((trace_table(spec.factors[0].field, spec.field_q)[1:] == 0).sum())
    zeros8 = int((trace_table(spec.factors[1].field, spec.field_q)[1:] == 0).sum())
    assert (zeros4, zeros8) == (1, 3)
    for b1 in range(1, spec.Q1):
        for b2 in range(1, spec.Q2):
            assert np.count_nonzero(codeword(spec, b1, b2)) == 10


def test_one_sided_word_is_repetition():
    spec = build_code(2, 2, 3, 1, 1)
    f1, tr1 = spec.factors[0].field, trace_table(spec.factors[0].field, spec.field_q)
    for b1 in range(1, spec.Q1):
        w = codeword(spec, b1, 0)
        base = [int(tr1[f1.mul(b1, f1.pow(spec.factors[0].alpha, i))]) for i in range(spec.n1)]
        assert w == tuple(base * (spec.n // spec.n1))


def test_subcode_examples():
    spec = build_code(2, 2, 3, 1, 1)
    assert np.count_nonzero(codeword(spec, 0, 0)) == 0
    ones8 = int((trace_table(spec.factors[1].field, spec.field_q)[1:] == 1).sum())
    assert ones8 == 4  # oracle for the weight computation below
    for b2 in range(1, spec.Q2):
        w = codeword(spec, 0, b2)
        assert np.count_nonzero(w) == (spec.n // spec.n2) * 4 == 12
        assert all(
            w[i] == w[(i + spec.n2) % spec.n] for i in range(spec.n)
        )
    # containment in C
    all_words = {
        codeword(spec, b1, b2)
        for b1 in range(spec.Q1)
        for b2 in range(spec.Q2)
    }
    assert {codeword(spec, 0, b2) for b2 in range(spec.Q2)} <= all_words


def test_support_of_subspace_matches_union_of_members():
    spec = build_code(3, 2, 3, 1, 2)
    rng = np.random.default_rng(3)
    from rghw.subspaces import member_matrix

    for _ in range(10):
        rows = rng.integers(0, 3, size=(2, spec.ambient_dim))
        basis = subspace_from_rows(3, spec.ambient_dim, rows, "product")
        via_basis = set(np.flatnonzero(basis_codewords(spec, basis).any(axis=0)).tolist())
        union = set()
        for vec in member_matrix(basis):
            c1, c2 = spec.pair_from_vector(vec)
            union |= {i for i, v in enumerate(codeword(spec, c1, c2)) if v}
        assert via_basis == union


def test_parity_check_polynomial():
    spec = build_code(2, 2, 3, 1, 1)
    h = parity_check_polynomial(spec)
    assert h.degree == spec.k1 + spec.k2 == 5
    # oracle: vanishes at both inverse nonzeros
    f1, f2 = spec.factors[0].field, spec.factors[1].field
    assert h.evaluate(f1, f1.inv(spec.factors[0].alpha)) == 0
    assert h.evaluate(f2, f2.inv(spec.factors[1].alpha)) == 0

    spec3 = build_code(3, 2, 3, 1, 2)
    assert parity_check_polynomial(spec3).degree == 5


def test_codeword_field_mismatch():
    spec = build_code(2, 2, 3, 1, 1)
    with pytest.raises(FieldMismatch):
        codeword(spec, spec.Q1, 0)  # beta1 names no element of GF(4)
    with pytest.raises(FieldMismatch):
        codeword(spec, 0, -1)
    with pytest.raises(FieldMismatch):
        codeword(spec, 99, 0)


def test_basis_codewords_shape():
    spec = build_code(2, 2, 3, 1, 1)
    basis = subspace_from_rows(2, spec.ambient_dim, np.eye(5, dtype=int)[:2], "product")
    words = basis_codewords(spec, basis)
    assert words.shape == (2, spec.n)
    for row, vec in zip(words, basis.matrix()):
        c1, c2 = spec.pair_from_vector(vec)
        assert tuple(int(v) for v in row) == codeword(spec, c1, c2)


def test_factor_tables_invert_each_other_on_the_small_grid(small_grid):
    assert len(small_grid) == 34
    for params in small_grid:
        spec = build_code(*params)
        for f in spec.factors:
            codes = np.arange(f.field.size)
            # base-q index of each coordinate row, first coordinate most significant
            index = f.decompose.astype(np.int64) @ spec.q ** np.arange(f.k - 1, -1, -1)
            assert (f.compose[index] == codes).all(), params
            assert all(f.code_of(f.decompose[c]) == c for c in codes), params
        f1, f2 = spec.factors
        for b1, b2 in itertools.product(range(spec.Q1), range(spec.Q2)):
            vec = np.concatenate([f1.decompose[b1], f2.decompose[b2]])
            assert spec.pair_from_vector(vec) == (b1, b2), params
