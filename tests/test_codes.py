"""Code construction, codewords, supports, parity checks."""

import itertools

import numpy as np
import pytest

from rghw.codes import build_code, codewords, parity_check_polynomial
from rghw.errors import (
    BadIndex,
    ConjugateNonzeros,
    DegenerateOrder,
    FieldMismatch,
    NotAFieldGenerator,
)
from rghw.gf import element_order, trace_table

from helpers import basis


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
    zero = codewords(spec, 0, 0)
    assert np.count_nonzero(zero) == 0 and zero.shape == (1, spec.n)

    rng = np.random.default_rng(5)
    f1, f2, fq = spec.factors[0].field, spec.factors[1].field, spec.field_q
    for _ in range(20):
        a = int(rng.integers(0, spec.q))
        u1, v1 = (int(c) for c in rng.integers(0, spec.Q1, 2))
        u2, v2 = (int(c) for c in rng.integers(0, spec.Q2, 2))
        lift_a1 = spec.factors[0].embed.apply_code(a)
        lift_a2 = spec.factors[1].embed.apply_code(a)
        lhs = codewords(spec, f1.add(f1.mul(lift_a1, u1), v1), f2.add(f2.mul(lift_a2, u2), v2))
        wu, wv = codewords(spec, [u1, v1], [u2, v2]).tolist()
        combo = [fq.add(fq.mul(a, x), y) for x, y in zip(wu, wv)]
        assert lhs.tolist() == [combo]


def test_codeword_matches_direct_trace_oracle():
    for params in ((2, 2, 3, 1, 1), (3, 2, 3, 1, 2)):
        spec = build_code(*params)
        rng = np.random.default_rng(11)
        b1 = rng.integers(0, spec.Q1, 10)
        b2 = rng.integers(0, spec.Q2, 10)
        words = codewords(spec, b1, b2)
        assert words.shape == (10, spec.n)
        for word, c1, c2 in zip(words.tolist(), b1.tolist(), b2.tolist()):
            assert tuple(word) == direct_codeword(spec, c1, c2)


def test_weight_ten_example():
    spec = build_code(2, 2, 3, 1, 1)
    # oracle: count zero coordinates from trace-zero counts: in GF(4) one
    # nonzero element per period has zero trace (1 of 3), in GF(8) three of
    # seven; over 21 coordinates the zero count is 1*3 + 2*4 = 11
    zeros4 = int((trace_table(spec.factors[0].field, spec.field_q)[1:] == 0).sum())
    zeros8 = int((trace_table(spec.factors[1].field, spec.field_q)[1:] == 0).sum())
    assert (zeros4, zeros8) == (1, 3)
    words = codewords(spec, np.arange(1, spec.Q1)[:, None], np.arange(1, spec.Q2))
    assert words.shape == ((spec.Q1 - 1) * (spec.Q2 - 1), spec.n)
    assert (np.count_nonzero(words, axis=1) == 10).all()


def test_one_sided_word_is_repetition():
    spec = build_code(2, 2, 3, 1, 1)
    f1, tr1 = spec.factors[0].field, trace_table(spec.factors[0].field, spec.field_q)
    for b1, w in zip(range(1, spec.Q1), codewords(spec, np.arange(1, spec.Q1), 0).tolist()):
        base = [int(tr1[f1.mul(b1, f1.pow(spec.factors[0].alpha, i))]) for i in range(spec.n1)]
        assert w == base * (spec.n // spec.n1)


def test_subcode_examples():
    spec = build_code(2, 2, 3, 1, 1)
    assert np.count_nonzero(codewords(spec, 0, 0)) == 0
    ones8 = int((trace_table(spec.factors[1].field, spec.field_q)[1:] == 1).sum())
    assert ones8 == 4  # oracle for the weight computation below
    for w in codewords(spec, 0, np.arange(1, spec.Q2)).tolist():
        assert np.count_nonzero(w) == (spec.n // spec.n2) * 4 == 12
        assert all(
            w[i] == w[(i + spec.n2) % spec.n] for i in range(spec.n)
        )
    # containment in C
    all_words = set(map(tuple, codewords(spec, np.arange(spec.Q1)[:, None],
                                         np.arange(spec.Q2)).tolist()))
    assert len(all_words) == spec.Q1 * spec.Q2
    assert set(map(tuple, codewords(spec, 0, np.arange(spec.Q2)).tolist())) <= all_words


def test_support_of_subspace_matches_union_of_members():
    spec = build_code(3, 2, 3, 1, 2)
    rng = np.random.default_rng(3)
    from rghw.subspaces import stack_members

    for _ in range(10):
        rows = rng.integers(0, 3, size=(2, spec.ambient_dim))
        rref = basis(3, spec.ambient_dim, rows)
        # the codeword of each basis row is the row times the functionals
        words = spec.ops.matmul(rref, spec.coordinate_functionals.T)
        assert words.shape == (len(rref), spec.n)
        assert (words == codewords(spec, *spec.pairs_from_vectors(rref))).all()
        via_basis = set(np.flatnonzero(words.any(axis=0)).tolist())
        union = set()
        members = stack_members(rref[None], spec.ops)[0]
        for word in codewords(spec, *spec.pairs_from_vectors(members)).tolist():
            union |= {i for i, v in enumerate(word) if v}
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
        codewords(spec, spec.Q1, 0)  # beta1 names no element of GF(4)
    with pytest.raises(FieldMismatch):
        codewords(spec, 0, -1)
    with pytest.raises(FieldMismatch):
        codewords(spec, 99, 0)
    with pytest.raises(FieldMismatch):
        codewords(spec, [0, 1, 2], [3, 8, 1])  # one bad code among good ones
    assert codewords(spec, [], []).shape == (0, spec.n)


def test_factor_tables_invert_each_other_on_the_small_grid(small_grid):
    assert len(small_grid) == 34
    for params in small_grid:
        spec = build_code(*params)
        for f in spec.factors:
            codes = np.arange(f.field.size)
            # base-q index of each coordinate row, first coordinate most significant
            index = f.decompose.astype(np.int64) @ spec.q ** np.arange(f.k - 1, -1, -1)
            assert (f.compose[index] == codes).all(), params
        f1, f2 = spec.factors
        pairs = np.array(list(itertools.product(range(spec.Q1), range(spec.Q2))))
        vecs = np.hstack([f1.decompose[pairs[:, 0]], f2.decompose[pairs[:, 1]]])
        got = spec.pairs_from_vectors(vecs)
        assert (got[0] == pairs[:, 0]).all() and (got[1] == pairs[:, 1]).all(), params


def per_row_code(f, row):
    """Reference: the code of sum_i row[i] gamma^i, one field operation at
    a time."""
    code = 0
    for a, g in zip(row, f.gamma_powers):
        code = f.field.add(code, f.field.mul(f.embed.apply_code(a), g))
    return code


def test_factor_tables_match_the_per_row_definition(small_grid):
    for params in small_grid:
        spec = build_code(*params)
        for f in spec.factors:
            # every coordinate row in base-q order, first coordinate most significant
            rows = list(itertools.product(range(spec.q), repeat=f.k))
            want = [per_row_code(f, row) for row in rows]
            assert f.compose.tolist() == want, params
            assert f.decompose[want].tolist() == [list(row) for row in rows], params
