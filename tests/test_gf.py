"""Field construction, embeddings, traces, minimal polynomials."""

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
from rghw.gf import (
    Polynomial,
    build_field,
    element_order,
    embed_subfield,
    field_for_size,
    frobenius_orbit_size,
    is_prime,
    minimal_polynomial,
    trace,
    trace_table,
)


def poly_has_factor(coeffs, p, max_deg):
    """Trial-division irreducibility oracle over GF(p) (monic divisors)."""
    base = build_field(p, 1)
    f = Polynomial(base, tuple(coeffs))
    for deg in range(1, max_deg + 1):
        for tail in itertools.product(range(p), repeat=deg):
            g = Polynomial(base, tail + (1,))
            _, rem = f.divmod(g)
            if not rem.coeffs:
                return True
    return False


def test_prime_field_gf2():
    f = build_field(2, 1)
    assert f.exp_table == [1]
    assert f.primitive_polynomial == (1, 1)


def test_gf4_primitive_polynomial_is_the_unique_irreducible_quadratic():
    f = build_field(2, 2)
    assert f.primitive_polynomial == (1, 1, 1)
    # oracle: x^2+x+1 is the only irreducible monic quadratic over GF(2)
    irreducible = [
        c
        for c in itertools.product(range(2), repeat=2)
        if not poly_has_factor(c + (1,), 2, 1)
    ]
    assert irreducible == [(1, 1)]


def test_gf9_generator_has_order_eight():
    f = build_field(3, 2)
    g = f.generator
    # oracle: repeated multiplication
    x = g
    order = 1
    while x != f.one:
        x = x * g
        order += 1
    assert order == 8
    assert element_order(g) == 8


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


def test_build_field_errors():
    with pytest.raises(NonPrime):
        build_field(6, 1)
    with pytest.raises(SizeCapExceeded):
        build_field(2, 21)
    with pytest.raises(SizeCapExceeded):
        build_field(2, 5, size_cap=16)
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


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (5, 2)])
def test_zech_addition_matches_digitwise(p, m):
    f = build_field(p, m)
    for a in range(f.size):
        for b in range(f.size):
            assert f.add(a, b) == f.add_codes_digitwise(a, b)


def test_embedding_examples():
    f2, f4 = build_field(2, 1), build_field(2, 2)
    assert embed_subfield(f2, f4).apply(f2.one) == f4.one

    f3, f9 = build_field(3, 1), build_field(3, 2)
    e = embed_subfield(f3, f9)
    img = e.apply(f3.generator)
    assert (9 - 1) // (3 - 1) == 4
    assert img.log % 4 == 0  # lands on a power of g^4
    assert element_order(img) == 2

    f16 = build_field(2, 4)
    omega = build_field(2, 2).generator
    assert element_order(embed_subfield(build_field(2, 2), f16).apply(omega)) == 3

    with pytest.raises(NotASubfield):
        embed_subfield(build_field(2, 2), build_field(2, 3))
    with pytest.raises(NotASubfield):
        embed_subfield(f3, f4)


@pytest.mark.parametrize("sub,sup", [((2, 2), (2, 4)), ((5, 1), (5, 2)), ((3, 1), (3, 3))])
def test_embedding_is_a_ring_homomorphism(sub, sup):
    fs, ff = build_field(*sub), build_field(*sup)
    e = embed_subfield(fs, ff)
    els = list(fs.elements())
    for a in els:
        for b in els:
            assert e.apply(a + b) == e.apply(a) + e.apply(b)
            assert e.apply(a * b) == e.apply(a) * e.apply(b)
    # preimage inverts on the image
    for a in els:
        assert e.preimage(e.apply(a)) == a


def test_trace_examples():
    f2, f4 = build_field(2, 1), build_field(2, 2)
    assert trace(f4, f2, f4.zero).is_zero
    w = f4.generator
    # oracle: direct conjugate sum inside GF(4)
    assert w + w**2 == f4.one
    assert trace(f4, f2, w) == f2.one

    for p, m in ((2, 4), (3, 3), (5, 2)):
        sup = build_field(p, m)
        sub = build_field(p, 1)
        assert trace(sup, sub, sup.one).code == m % p


@pytest.mark.parametrize("p,m,sm", [(2, 4, 2), (3, 2, 1), (2, 6, 3), (5, 2, 1)])
def test_trace_properties(p, m, sm):
    sup, sub = build_field(p, m), build_field(p, sm)
    q = sub.size
    emb = embed_subfield(sub, sup)
    els = list(sup.elements())
    zeros = 0
    for a in els:
        ta = trace(sup, sub, a)
        if ta.is_zero:
            zeros += 1
        assert trace(sup, sub, a**q) == ta  # Frobenius invariance
    assert zeros == sup.size // q
    step = max(1, len(els) // 11)
    for a in els:
        for b in els[::step]:
            assert trace(sup, sub, a + b) == trace(sup, sub, a) + trace(sup, sub, b)
        for c in sub.elements():
            assert trace(sup, sub, emb.apply(c) * a) == c * trace(sup, sub, a)
    # surjectivity onto the subfield
    images = {trace(sup, sub, a) for a in els}
    assert images == set(sub.elements())


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
        for a in sup.elements():
            conjugates = sup.zero
            for i in range(t):
                conjugates = conjugates + a ** (sub.size**i)
            assert table[a.code] == emb.preimage(conjugates).code, (p, s, t, a)
        assert trace_table(sup, sub) is table  # cached


def test_trace_table_rejects_non_subfields():
    with pytest.raises(NotASubfield):
        trace_table(build_field(2, 3), build_field(2, 2))
    with pytest.raises(NotASubfield):
        trace_table(build_field(3, 2), build_field(2, 1))


def test_trace_field_mismatch():
    f4, f8, f2 = build_field(2, 2), build_field(2, 3), build_field(2, 1)
    with pytest.raises(FieldMismatch):
        trace(f8, f4, f8.one)  # GF(4) is not inside GF(8)
    with pytest.raises(FieldMismatch):
        trace(f4, f2, f8.one)


def test_minimal_polynomial_examples():
    f2, f4 = build_field(2, 1), build_field(2, 2)
    assert minimal_polynomial(f4.one, f2).coeffs == (1, 1)  # x - 1 over GF(2)
    f3 = build_field(3, 1)
    f9 = build_field(3, 2)
    assert minimal_polynomial(f9.one, f3).coeffs == (2, 1)  # x - 1 = x + 2

    w = f4.generator
    mp = minimal_polynomial(w, f2)
    # oracle: expand (x - w)(x - w^2) inside GF(4)
    e = embed_subfield(f2, f4)
    c0 = w * w**2
    c1 = -(w + w**2)
    assert (e.preimage(c0).code, e.preimage(c1).code, 1) == mp.coeffs
    assert mp.coeffs == (1, 1, 1)

    f8 = build_field(2, 3)
    mp8 = minimal_polynomial(f8.generator, f2)
    assert mp8.degree == 3 and mp8.is_monic
    assert not poly_has_factor(mp8.coeffs, 2, 1)  # no linear factor => irreducible


@pytest.mark.parametrize("p,m", [(2, 4), (3, 2), (2, 6)])
def test_minimal_polynomial_properties(p, m):
    sup, sub = build_field(p, m), build_field(p, 1)
    for a in sup.elements():
        if a.is_zero:
            continue
        mp = minimal_polynomial(a, sub)
        assert mp.evaluate(a).is_zero
        assert m % mp.degree == 0
        assert mp.degree == frobenius_orbit_size(a, sub)
        assert mp.is_monic


def test_minimal_polynomial_rejects_zero_and_mismatch():
    f2, f8, f4 = build_field(2, 1), build_field(2, 3), build_field(2, 2)
    with pytest.raises(ZeroElement):
        minimal_polynomial(f8.zero, f2)
    with pytest.raises(FieldMismatch):
        minimal_polynomial(f8.generator, f4)


def test_element_order_examples():
    f8, f9 = build_field(2, 3), build_field(3, 2)
    assert element_order(f8.one) == 1
    assert element_order(f8.generator) == 7
    # oracle: 8 / gcd(8, 2)
    assert element_order(f9.generator ** 2) == 4
    with pytest.raises(ZeroElement):
        element_order(f9.zero)


def test_polynomial_divmod_roundtrip():
    f3 = build_field(3, 1)
    a = Polynomial(f3, (1, 0, 2, 1))
    b = Polynomial(f3, (2, 1))
    qt, rem = a.divmod(b)
    assert rem.degree < b.degree
    recon = qt * b
    total = tuple(
        f3.add(x, y)
        for x, y in itertools.zip_longest(recon.coeffs, rem.coeffs, fillvalue=0)
    )
    assert Polynomial(f3, total) == a


def test_field_json_dump_roundtrip():
    import json

    f = build_field(3, 2)
    doc = json.loads(f.to_json())
    assert doc["p"] == 3 and doc["m"] == 2 and doc["size"] == 9
    assert doc["exp_table"] == f.exp_table
    assert doc["primitive_polynomial"] == list(f.primitive_polynomial)


_field_keys = st.sampled_from([(2, 3), (3, 2), (5, 1), (2, 4)])


@settings(max_examples=60, deadline=None)
@given(_field_keys, st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
def test_field_axioms(key, ai, bi, ci):
    f = build_field(*key)
    a = f.element(ai % f.size)
    b = f.element(bi % f.size)
    c = f.element(ci % f.size)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == f.zero
    if not a.is_zero:
        assert a * (f.one / a) == f.one


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_trace_additive_hypothesis(ai, bi):
    sup, sub = build_field(3, 3), build_field(3, 1)
    a = sup.element(ai % sup.size)
    b = sup.element(bi % sup.size)
    assert trace(sup, sub, a + b) == trace(sup, sub, a) + trace(sup, sub, b)
