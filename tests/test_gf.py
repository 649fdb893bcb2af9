"""Field construction, embeddings, traces, minimal polynomials."""

import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rghw.errors import (
    FieldMismatch,
    NonPrime,
    NotASubfield,
    SizeCapExceeded,
    ZeroElement,
)
from rghw import gf
from rghw.gf import (
    build_field,
    element_order,
    embed_subfield,
    field_for_size,
    frobenius_orbit,
    is_prime,
    minimal_polynomial,
    trace_table,
)


def has_root(coeffs, p):
    """Oracle over GF(p), p prime: a linear factor exists iff a residue is a root."""
    return any(sum(c * r**i for i, c in enumerate(coeffs)) % p == 0 for r in range(p))


def test_prime_field_gf2():
    f = build_field(2, 1)
    assert f.exp_table == (1,)
    assert f.primitive_polynomial == (1, 1)


def test_gf4_primitive_polynomial_is_the_unique_irreducible_quadratic():
    f = build_field(2, 2)
    assert f.primitive_polynomial == (1, 1, 1)
    # oracle: x^2+x+1 is the only irreducible monic quadratic over GF(2)
    irreducible = [
        c
        for c in itertools.product(range(2), repeat=2)
        if not has_root(c + (1,), 2)
    ]
    assert irreducible == [(1, 1)]


def test_gf9_generator_has_order_eight():
    f = build_field(3, 2)
    g = f.exp_table[1]
    # oracle: repeated multiplication
    x = g
    order = 1
    while x != 1:
        x = f.mul(x, g)
        order += 1
    assert order == 8
    assert element_order(f, g) == 8


@pytest.mark.parametrize("p,m", [(2, 12), (5, 4), (7, 3)])
def test_larger_field_construction(p, m):
    f = build_field(p, m)
    size = p**m
    assert len(f.exp_table) == size - 1
    assert sorted(f.exp_table) == list(range(1, size))  # powers cover the group
    g = f.exp_table[1]
    assert f.mul(g, f.exp_table[size - 2]) == 1
    for i in (0, 1, 7, (size - 1) // 2, size - 2):
        s = f.add_codes_digitwise(1, f.exp_table[i])
        if s == 0:
            assert f.zech_table[i] == -1
        else:
            assert f.exp_table[f.zech_table[i]] == s


# The first primitive polynomial in lexicographic order of (c_0, ..., c_{m-1}),
# the defining polynomial of every exp/log table.
PRIMITIVE_CONSTANTS = {
    (2, 1): (1,), (2, 2): (1, 1), (2, 3): (1, 0, 1), (2, 8): (1, 0, 0, 0, 1, 1, 1, 0),
    (2, 10): (1, 0, 0, 0, 0, 0, 0, 1, 0, 0), (3, 1): (1,), (3, 2): (2, 1),
    (3, 4): (2, 0, 0, 1), (3, 6): (2, 0, 0, 0, 0, 1), (5, 1): (2,), (5, 4): (2, 0, 2, 1),
    (7, 3): (2, 1, 1), (11, 1): (3,), (11, 2): (2, 4), (13, 2): (2, 1), (4099, 1): (4,),
    (32771, 1): (4,),
}


@pytest.mark.parametrize("p,m", list(PRIMITIVE_CONSTANTS))
def test_defining_polynomial_is_the_first_primitive_one(p, m):
    assert build_field(p, m).primitive_polynomial == PRIMITIVE_CONSTANTS[p, m] + (1,)


# sha256 over the defining polynomial, exp table and Zech table of every field
# of size at most 1024 (198 fields, primes ascending, then m ascending).
FIELD_TABLES_DIGEST = "91b100074a5c1a7c598cb0bdf986ab328d04aabf87a18052522ac7cb54ca51a3"


def test_field_tables_are_pinned_by_digest():
    digest = hashlib.sha256()
    fields = 0
    for p in filter(is_prime, range(2, 1025)):
        m = 1
        while p**m <= 1024:
            f = build_field(p, m)
            digest.update(repr((p, m, f.primitive_polynomial, list(f.exp_table),
                                list(f.zech_table))).encode())
            fields += 1
            m += 1
    assert fields == 198
    assert digest.hexdigest() == FIELD_TABLES_DIGEST


def test_cached_field_tables_refuse_writes():
    f = build_field(2, 3)
    for table in (f.exp_table, f.log_table, f.zech_table):
        with pytest.raises(TypeError):
            table[1] = 3
    assert build_field(2, 3).mul(2, 2) == 4


def test_the_sweep_is_the_primitivity_certificate():
    assert gf._try_primitive(2, 4, (1, 0, 0, 0)) is None  # x^4 + 1 = (x + 1)^4
    assert gf._try_primitive(2, 4, (1, 1, 1, 1)) is None  # irreducible, x has order 5
    exp, log = gf._try_primitive(2, 4, (1, 0, 0, 1))      # x^4 + x^3 + 1, primitive
    assert sorted(exp) == list(range(1, 16))
    assert all(log[exp[i]] == i for i in range(15))


def test_one_table_per_field_however_the_call_is_spelled():
    f8 = build_field(2, 3)
    assert build_field(p=2, m=3) is f8
    assert build_field(2, m=3) is f8
    assert field_for_size(8) is f8


def test_field_for_size_checks_the_cap_before_factoring(monkeypatch):
    def no_factoring(n):
        raise AssertionError(f"{n} trial-divided")

    monkeypatch.setattr(gf, "_prime_factors", no_factoring)
    for size in (10000000000037, 10000000000000, gf.DEFAULT_SIZE_CAP + 1):
        with pytest.raises(SizeCapExceeded):
            field_for_size(size)


def test_frobenius_orbit():
    f2, f4, f8 = build_field(2, 1), build_field(2, 2), build_field(2, 3)
    g = f8.exp_table[1]
    assert frobenius_orbit(f8, g, f2) == [g, f8.pow(g, 2), f8.pow(g, 4)]
    assert frobenius_orbit(f8, 1, f2) == [1]
    assert frobenius_orbit(f8, 0, f2) == [0]
    with pytest.raises(FieldMismatch):
        frobenius_orbit(f8, g, f4)
    with pytest.raises(FieldMismatch):
        frobenius_orbit(f8, 8, f2)


def test_build_field_errors():
    with pytest.raises(NonPrime):
        build_field(6, 1)
    with pytest.raises(SizeCapExceeded):
        build_field(2, 21)
    with pytest.raises(NonPrime):
        field_for_size(12)


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2)])
def test_exp_log_tables(p, m):
    f = build_field(p, m)
    for i in range(f.order):
        assert f.log_table[f.exp_table[i]] == i
    for i in range(f.order):
        for k in range(f.order):
            assert f.mul(f.exp_table[i], f.exp_table[k]) == f.exp_table[(i + k) % f.order]


def test_embedding_examples():
    f2, f4 = build_field(2, 1), build_field(2, 2)
    assert embed_subfield(f2, f4).apply_code(1) == 1

    f3, f9 = build_field(3, 1), build_field(3, 2)
    e = embed_subfield(f3, f9)
    img = e.apply_code(f3.exp_table[1])
    assert (9 - 1) // (3 - 1) == 4
    assert f9.log_table[img] % 4 == 0  # lands on a power of g^4
    assert element_order(f9, img) == 2
    with pytest.raises(FieldMismatch):
        e.preimage(f9.exp_table[1])  # outside the embedded GF(3)
    with pytest.raises(FieldMismatch):
        e.preimage(9)  # names no element of GF(9)

    f16 = build_field(2, 4)
    omega = f4.exp_table[1]
    assert element_order(f16, embed_subfield(f4, f16).apply_code(omega)) == 3

    with pytest.raises(NotASubfield):
        embed_subfield(build_field(2, 2), build_field(2, 3))
    with pytest.raises(NotASubfield):
        embed_subfield(f3, f4)


@pytest.mark.parametrize("sub,sup", [((2, 2), (2, 4)), ((5, 1), (5, 2)), ((3, 1), (3, 3))])
def test_embedding_is_a_ring_homomorphism(sub, sup):
    fs, ff = build_field(*sub), build_field(*sup)
    e = embed_subfield(fs, ff)
    for a in range(fs.size):
        for b in range(fs.size):
            assert e.apply_code(fs.add(a, b)) == ff.add(e.apply_code(a), e.apply_code(b))
            assert e.apply_code(fs.mul(a, b)) == ff.mul(e.apply_code(a), e.apply_code(b))
    # preimage inverts on the image
    for a in range(fs.size):
        assert e.preimage(e.apply_code(a)) == a


def test_trace_examples():
    f2, f4 = build_field(2, 1), build_field(2, 2)
    assert trace_table(f4, f2)[0] == 0
    w = f4.exp_table[1]
    # oracle: direct conjugate sum inside GF(4)
    assert f4.add(w, f4.pow(w, 2)) == 1
    assert trace_table(f4, f2)[w] == 1

    for p, m in ((2, 4), (3, 3), (5, 2)):
        sup = build_field(p, m)
        sub = build_field(p, 1)
        assert trace_table(sup, sub)[1] == m % p


@pytest.mark.parametrize("p,m,sm", [(2, 4, 2), (3, 2, 1), (2, 6, 3), (5, 2, 1)])
def test_trace_properties(p, m, sm):
    sup, sub = build_field(p, m), build_field(p, sm)
    q = sub.size
    emb = embed_subfield(sub, sup)
    tr = trace_table(sup, sub).tolist()
    zeros = 0
    for a in range(sup.size):
        if tr[a] == 0:
            zeros += 1
        assert tr[sup.pow(a, q)] == tr[a]  # Frobenius invariance
    assert zeros == sup.size // q
    step = max(1, sup.size // 11)
    for a in range(sup.size):
        for b in range(0, sup.size, step):
            assert tr[sup.add(a, b)] == sub.add(tr[a], tr[b])
        for c in range(sub.size):
            assert tr[sup.mul(emb.apply_code(c), a)] == sub.mul(c, tr[a])
    # surjectivity onto the subfield
    assert set(tr) == set(range(sub.size))


def _subfield_pairs(limit):
    """Every (p, s, t) with GF(p^s) inside GF(p^(s*t)) and p^(s*t) <= limit."""
    return [(p, s, m // s) for p in range(2, limit + 1) if is_prime(p)
            for m in range(1, limit.bit_length()) if p**m <= limit
            for s in range(1, m + 1) if m % s == 0]


def test_trace_table_is_the_sum_of_conjugates():
    pairs = _subfield_pairs(256)
    assert len(pairs) == 92
    for p, s, t in pairs:
        sup, sub = build_field(p, s * t), build_field(p, s)
        emb = embed_subfield(sub, sup)
        table = trace_table(sup, sub)
        assert table.shape == (sup.size,) and not table.flags.writeable
        for a in range(sup.size):
            conjugates = 0
            for i in range(t):
                conjugates = sup.add(conjugates, sup.pow(a, sub.size**i))
            assert table[a] == emb.preimage(conjugates), (p, s, t, a)
        assert trace_table(sup, sub) is table  # cached


def test_trace_table_rejects_non_subfields():
    with pytest.raises(NotASubfield):
        trace_table(build_field(2, 3), build_field(2, 2))
    with pytest.raises(NotASubfield):
        trace_table(build_field(3, 2), build_field(2, 1))


def test_minimal_polynomial_examples():
    f2, f4 = build_field(2, 1), build_field(2, 2)
    assert minimal_polynomial(f4, 1, f2).coeffs == (1, 1)  # x - 1 over GF(2)
    f3 = build_field(3, 1)
    f9 = build_field(3, 2)
    assert minimal_polynomial(f9, 1, f3).coeffs == (2, 1)  # x - 1 = x + 2

    w = f4.exp_table[1]
    mp = minimal_polynomial(f4, w, f2)
    # oracle: expand (x - w)(x - w^2) inside GF(4)
    e = embed_subfield(f2, f4)
    w2 = f4.pow(w, 2)
    c0 = f4.mul(w, w2)
    c1 = f4.neg(f4.add(w, w2))
    assert (e.preimage(c0), e.preimage(c1), 1) == mp.coeffs
    assert mp.coeffs == (1, 1, 1)

    f8 = build_field(2, 3)
    mp8 = minimal_polynomial(f8, f8.exp_table[1], f2)
    assert mp8.degree == 3 and mp8.coeffs[-1] == 1
    assert not has_root(mp8.coeffs, 2)  # no linear factor => irreducible


@pytest.mark.parametrize("p,m", [(2, 4), (3, 2), (2, 6)])
def test_minimal_polynomial_properties(p, m):
    sup, sub = build_field(p, m), build_field(p, 1)
    for a in range(1, sup.size):
        mp = minimal_polynomial(sup, a, sub)
        assert mp.evaluate(sup, a) == 0
        assert m % mp.degree == 0
        assert mp.degree == len(frobenius_orbit(sup, a, sub))
        assert mp.coeffs[-1] == 1


def test_minimal_polynomial_rejects_zero_and_mismatch():
    f2, f8, f4 = build_field(2, 1), build_field(2, 3), build_field(2, 2)
    with pytest.raises(ZeroElement):
        minimal_polynomial(f8, 0, f2)
    with pytest.raises(FieldMismatch):
        minimal_polynomial(f8, f8.exp_table[1], f4)
    with pytest.raises(FieldMismatch):
        minimal_polynomial(f8, 8, f2)


def test_element_order_examples():
    f8, f9 = build_field(2, 3), build_field(3, 2)
    assert element_order(f8, 1) == 1
    assert element_order(f8, f8.exp_table[1]) == 7
    # oracle: 8 / gcd(8, 2)
    assert element_order(f9, f9.exp_table[2]) == 4
    with pytest.raises(ZeroElement):
        element_order(f9, 0)
    with pytest.raises(FieldMismatch):
        element_order(f9, 9)


_field_keys = st.sampled_from([(2, 3), (3, 2), (5, 1), (2, 4)])


@settings(max_examples=60, deadline=None)
@given(_field_keys, st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
def test_field_axioms(key, ai, bi, ci):
    f = build_field(*key)
    a, b, c = ai % f.size, bi % f.size, ci % f.size
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == 0
    if a:
        assert f.mul(a, f.inv(a)) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_trace_additive_hypothesis(ai, bi):
    sup, sub = build_field(3, 3), build_field(3, 1)
    tr = trace_table(sup, sub)
    a, b = ai % sup.size, bi % sup.size
    assert tr[sup.add(a, b)] == sub.add(int(tr[a]), int(tr[b]))
