"""Characters, Gauss sums, orthogonality, and the subspace oracle."""

import cmath
import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from rghw import charsum
from rghw.charsum import (
    CharacterHandle,
    charsum_zero_counts,
    gauss_sum,
    orthogonality_sum,
    unit_roots,
)
from rghw.codes import build_code
from rghw.errors import (
    BadIndex,
    FieldMismatch,
    LengthMismatch,
    NonCoprimeOrders,
    PrecisionFailure,
    ZeroArgument,
)
from rghw.gf import build_field, embed_subfield
from rghw.subspaces import (
    stack_dims,
    stack_members,
    stack_rows,
)
from rghw.verify import ORACLE_TOL
from rghw.weights import zero_counts

from helpers import basis, padded_stack


def char_eval(chi: CharacterHandle, x: int) -> complex:
    """chi(x), evaluated one element at a time: the scalar reference for the
    oracle's character classes (the package's discrete log validates x)."""
    t = charsum._unit_log(chi.field, x)
    return complex(unit_roots(chi.order)[(chi.exponent * t) % chi.order])


def incomplete_character_sum(chi: CharacterHandle, elements) -> complex:
    """Sum of chi over a set of codes of the field, with chi(0) taken as 0."""
    return complex(sum((char_eval(chi, x) for x in elements if x), 0j))


def test_unit_roots_table():
    for order in (1, 2, 3, 5, 8, 24):
        roots = unit_roots(order)
        assert len(roots) == order
        assert np.allclose(np.abs(roots), 1.0)
        assert abs(roots[0] - 1.0) < 1e-15
        if order > 1:
            assert abs(roots[1] ** order - 1.0) < 1e-12


def test_cached_unit_roots_refuse_writes():
    chi = CharacterHandle(build_field(2, 3), 7, 1)
    before = gauss_sum(chi, 1)
    assert cmath.isclose(before, -1 - 1j * math.sqrt(7))
    with pytest.raises(ValueError):
        unit_roots(7)[1] = 0
    assert gauss_sum(chi, 1) == before


def test_character_handle_validation():
    f9 = build_field(3, 2)
    with pytest.raises(BadIndex):
        CharacterHandle(f9, 3, 1)  # 3 does not divide 8
    chi = CharacterHandle(f9, 8, 2)
    assert chi.exponent % chi.order != 0


def test_char_eval_examples():
    f5 = build_field(5, 1)
    trivial = CharacterHandle(f5, 4, 0)
    for c in range(1, 5):
        assert char_eval(trivial, c) == 1

    # quadratic character versus the Legendre symbol table for p = 5
    quad = CharacterHandle(f5, 4, 2)
    squares = {(x * x) % 5 for x in range(1, 5)}
    for c in range(1, 5):
        expected = 1 if c in squares else -1
        assert abs(char_eval(quad, c) - expected) < 1e-12

    f9 = build_field(3, 2)
    chi = CharacterHandle(f9, 8, 1)
    zeta8 = cmath.exp(2j * cmath.pi / 8)
    assert abs(char_eval(chi, f9.exp_table[1]) - zeta8) < 1e-12

    with pytest.raises(ZeroArgument):
        char_eval(chi, 0)
    with pytest.raises(FieldMismatch):
        char_eval(chi, 9)  # names no element of GF(9)


def test_char_eval_is_multiplicative():
    f9 = build_field(3, 2)
    for lam in range(8):
        chi = CharacterHandle(f9, 8, lam)
        for a in range(1, f9.size):
            for b in range(1, f9.size):
                lhs = char_eval(chi, f9.mul(a, b))
                rhs = char_eval(chi, a) * char_eval(chi, b)
                assert abs(lhs - rhs) < 1e-12
        assert abs(char_eval(chi, 1) - 1) < 1e-15


def test_gauss_sum_examples():
    f7 = build_field(7, 1)
    assert gauss_sum(CharacterHandle(f7, 1, 0), 0) == complex(6)
    for lam in range(1, 6):
        assert abs(gauss_sum(CharacterHandle(f7, 6, lam), 0)) < 1e-9

    # quadratic character on GF(5): oracle is the direct 4-term sum
    f5 = build_field(5, 1)
    quad = CharacterHandle(f5, 4, 2)
    squares = {(x * x) % 5 for x in range(1, 5)}
    zeta5 = cmath.exp(2j * cmath.pi / 5)
    direct = sum(
        (1 if x in squares else -1) * zeta5**x for x in range(1, 5)
    )
    g = gauss_sum(quad, 1)
    assert abs(g - direct) < 1e-12
    assert abs(abs(g) - math.sqrt(5)) < 1e-9
    with pytest.raises(FieldMismatch):
        gauss_sum(quad, 5)  # names no element of GF(5)


@pytest.mark.parametrize("size", [4, 5, 7, 8, 9, 16, 25, 27])
def test_gauss_sum_twist_identity(size):
    from rghw.gf import field_for_size

    field = field_for_size(size)
    order = size - 1
    for lam in range(1, order):
        chi = CharacterHandle(field, order, lam)
        base = gauss_sum(chi, 1)
        assert abs(abs(base) - math.sqrt(size)) < 1e-9
        for blog in range(order):
            beta = field.exp_table[blog]
            expected = char_eval(CharacterHandle(field, order, -lam % order), beta) * base
            assert abs(gauss_sum(chi, beta) - expected) < 1e-9


def test_orthogonality_examples():
    f9 = build_field(3, 2)
    g, g2, g3 = f9.exp_table[1], f9.exp_table[2], f9.exp_table[3]
    assert abs(orthogonality_sum(f9, 1, g2, 2) - 2) < 1e-12
    # oracle: 1 + chi(g) = 1 + (-1) = 0 for the order-2 character
    assert abs(orthogonality_sum(f9, g, g2, 2)) < 1e-12
    assert abs(orthogonality_sum(f9, g2, g2, 2) - 2) < 1e-12

    with pytest.raises(BadIndex):
        orthogonality_sum(f9, g, g, 2)  # alpha must be generator^e
    with pytest.raises(BadIndex):
        orthogonality_sum(f9, g, g3, 3)  # 3 does not divide 8
    with pytest.raises(ZeroArgument):
        orthogonality_sum(f9, 0, g2, 2)
    with pytest.raises(FieldMismatch):
        orthogonality_sum(f9, 9, g2, 2)


@pytest.mark.parametrize("size", [5, 8, 9, 16, 27])
def test_orthogonality_full_sweep(size):
    from rghw.gf import field_for_size

    field = field_for_size(size)
    order = size - 1
    for e in range(1, order + 1):
        if order % e:
            continue
        alpha = field.exp_table[e % order]
        for t in range(order):
            want = e if t % e == 0 else 0
            assert abs(orthogonality_sum(field, field.exp_table[t], alpha, e) - want) < 1e-9


def test_incomplete_character_sum_vanishes_on_lines():
    f3, f9 = build_field(3, 1), build_field(3, 2)
    emb = embed_subfield(f3, f9)
    psi = CharacterHandle(f9, 8, 1)
    # order-8 character restricts nontrivially to GF(3)* = <g^step>
    step = (f9.size - 1) // (f3.size - 1)
    assert psi.exponent * step % psi.order != 0
    assert incomplete_character_sum(psi, []) == 0
    two = emb.apply_code(f3.exp_table[1])
    for x in range(1, f9.size):
        line = [0, x, f9.mul(two, x)]
        total = incomplete_character_sum(psi, line)
        # oracle: psi(x) + psi(2x) = psi(x)(1 + psi(2)) with psi(2) = -1
        direct = char_eval(psi, x) + char_eval(psi, f9.mul(two, x))
        assert abs(total - direct) < 1e-12
        assert abs(total) < 1e-9
    # a character trivial on GF(3)* does not vanish: boundary of the claim
    triv = CharacterHandle(f9, 8, 4)  # psi(g)^4 has order 2, trivial on GF(3)*
    assert triv.exponent * step % triv.order == 0
    line = [0, 1, two]
    assert abs(incomplete_character_sum(triv, line)) > 0.5


def test_trivial_on_subfield_matches_congruence():
    spec = build_code(3, 2, 3, 1, 2)
    step1 = (spec.Q1 - 1) // (spec.q - 1)
    step2 = (spec.Q2 - 1) // (spec.q - 1)
    u2 = pow(spec.factors[1].field.log_table[spec.factors[1].gamma], -1, spec.e2) if spec.e2 > 1 else 0
    delta1 = spec.factors[0].embed.apply_code(spec.delta)
    delta2 = spec.factors[1].embed.apply_code(spec.delta)
    for lam1 in range(spec.e1):
        for lam2 in range(spec.e2):
            congruent = (
                lam1 * spec.e2 * step1 + lam2 * spec.e1 * step2
            ) % (spec.e1 * spec.e2) == 0
            chi1 = CharacterHandle(spec.factors[0].field, spec.e1, lam1)
            chi2 = CharacterHandle(spec.factors[1].field, spec.e2, (lam2 * u2) % spec.e2)
            value = char_eval(chi1, delta1) * char_eval(chi2, delta2)
            assert congruent == (abs(value - 1) < 1e-9)


def test_nj_via_charsum_examples():
    spec = build_code(2, 2, 3, 1, 1)
    K = spec.ambient_dim
    line = basis(2, K, [np.concatenate([spec.factors[0].decompose[1],
                                        spec.factors[1].decompose[1]])])
    assert abs(charsum_zero_counts(spec, line[None])[0] - 11.0) < 1e-6

    # subspaces violating the trivial-intersection condition still match
    second_only = basis(2, K, [np.concatenate([spec.factors[0].decompose[0],
                                               spec.factors[1].decompose[1]])])
    assert abs(charsum_zero_counts(spec, second_only[None])[0]
               - zero_counts(spec, second_only[None])[0]) < 1e-6

    spec3 = build_code(3, 2, 3, 1, 2)
    rng = np.random.default_rng(23)
    for _ in range(25):
        rows = rng.integers(0, 3, size=(1, spec3.ambient_dim))
        d = basis(3, spec3.ambient_dim, rows)
        assert abs(charsum_zero_counts(spec3, d[None])[0] - zero_counts(spec3, d[None])[0]) < 1e-6


def test_nj_via_charsum_general_index_side():
    # e1 = 2 gives gcd(e1, (Q1-1)/(q-1)) = 2: the one-sided expansion needs
    # its nontrivial character terms
    spec = build_code(3, 2, 3, 2, 2)
    assert math.gcd(spec.e1, (spec.Q1 - 1) // (spec.q - 1)) == 2
    rng = np.random.default_rng(29)
    for i in range(40):
        j = 1 + i % 2
        rows = rng.integers(0, 3, size=(j, spec.ambient_dim))
        d = basis(3, spec.ambient_dim, rows)
        assert abs(charsum_zero_counts(spec, d[None])[0] - zero_counts(spec, d[None])[0]) < 1e-6


def test_nj_via_charsum_general_index_second_side():
    # e2 = 3 over GF(16) gives gcd(e2, (Q2-1)/(q-1)) = 3; forcing members of
    # {0} x GF(Q2) into the subspace drives the second one-sided expansion
    # through its nontrivial character terms
    spec = build_code(2, 3, 4, 1, 3)
    assert math.gcd(spec.e2, (spec.Q2 - 1) // (spec.q - 1)) == 3
    assert spec.d == 1
    rng = np.random.default_rng(37)
    for i in range(30):
        rows = [np.concatenate([spec.factors[0].decompose[0], spec.factors[1].decompose[1 + i % 15]])]
        if i % 2:
            rows.append(rng.integers(0, 2, size=spec.ambient_dim))
        d = basis(2, spec.ambient_dim, rows)
        assert abs(charsum_zero_counts(spec, d[None])[0] - zero_counts(spec, d[None])[0]) < 1e-6


def test_nj_via_charsum_rejects_non_coprime():
    spec = build_code(3, 2, 2, 1, 2)  # n1 = 8, n2 = 4
    d = basis(3, spec.ambient_dim, [(1, 0, 0, 0)])
    with pytest.raises(NonCoprimeOrders):
        charsum_zero_counts(spec, d[None])


def test_per_subspace_closed_form_q3():
    # for e1=1, e2=q-1 and trivial intersection with {0} x GF(Q2):
    # count = (q^(k1+k2) - q^k1 + q^j - q^k2 * u) / (q^j (q-1)), u = |(F_Q1, 0) ∩ H|
    spec = build_code(3, 2, 3, 1, 2)
    q, k1, k2 = spec.q, spec.k1, spec.k2
    rng = np.random.default_rng(31)
    kept = 0
    while kept < 30:
        j = 1 + int(rng.integers(0, 2))
        rows = rng.integers(0, 3, size=(j, spec.ambient_dim))
        d = basis(3, spec.ambient_dim, rows)
        members = stack_members(d[None], spec.ops)[0]
        pairs = list(zip(*spec.pairs_from_vectors(members)))
        if any(c1 == 0 and c2 != 0 for c1, c2 in pairs):
            continue  # formula assumes trivial intersection
        kept += 1
        u = sum(1 for c1, c2 in pairs if c2 == 0)
        jj = len(d)
        closed = (q ** (k1 + k2) - q**k1 + q**jj - q**k2 * u) / (q**jj * (q - 1))
        assert abs(closed - zero_counts(spec, d[None])[0]) < 1e-9


# coprime specs whose one-sided expansions have nontrivial character terms
# on the first factor and on the second, and a trivial one
STACKED_SPECS = ((3, 2, 3, 2, 2), (2, 3, 4, 1, 3), (3, 2, 3, 1, 2))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(STACKED_SPECS), st.data())
def test_stacked_oracle_matches_zero_counts_and_the_one_element_oracle(params, data):
    """Random zero-padded stacks mixing dimensions.  Each drawn row lies in
    the whole product, in one factor only, or is zero, so subspaces meet
    the one-sided classes and all-zero draws (d = 0) occur; stacks of no
    bases are drawn too."""
    spec = build_code(*params)
    K, k1 = spec.ambient_dim, spec.k1
    width = data.draw(st.integers(0, k1), label="width")
    kinds = data.draw(st.lists(st.lists(st.sampled_from("b12z"), max_size=width),
                               max_size=6), label="row kinds")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    columns = np.arange(K)
    masks = {"b": columns >= 0, "1": columns < k1, "2": columns >= k1, "z": columns < 0}
    mats = [np.array([rng.integers(0, spec.q, K) * masks[kind] for kind in row],
                     dtype=np.int16).reshape(len(row), K) for row in kinds]
    stack = spec.ops.rref_many(padded_stack(mats, width, K))
    counts = charsum_zero_counts(spec, stack)
    assert counts.shape == (len(mats),) and counts.dtype == np.float64
    assert (np.abs(counts - zero_counts(spec, stack)) < ORACLE_TOL).all()
    for value, rref, dim in zip(counts.tolist(), stack, stack_dims(stack)):
        assert value == charsum_zero_counts(spec, rref[None, :dim])[0]


def test_an_imaginary_residue_names_the_first_offending_subspace(monkeypatch):
    # Gauss sums over the second factor's field get an imaginary unit added,
    # so exactly the subspaces with a member nonzero on factor 2 offend
    spec = build_code(2, 2, 3, 1, 1)
    f1, f2 = spec.factors
    K = spec.ambient_dim
    rows = [
        [],                                                   # zero subspace
        [np.concatenate([f1.decompose[1], f2.decompose[0]])],  # factor 1 only
        [np.concatenate([f1.decompose[1], f2.decompose[1]])],  # offends first
        [np.concatenate([f1.decompose[0], f2.decompose[1]])],  # offends too
    ]
    stack = spec.ops.rref_many(padded_stack([np.array(r, dtype=np.int16).reshape(-1, K)
                                             for r in rows], 1, K))
    clean = charsum_zero_counts(spec, stack)
    gauss = charsum._gauss_at_one

    def skewed(chi):
        return gauss(chi) + (1j if chi.field is f2.field else 0)

    monkeypatch.setattr(charsum, "_gauss_at_one", skewed)
    assert (charsum_zero_counts(spec, stack[:2]) == clean[:2]).all()
    with pytest.raises(PrecisionFailure) as raised:
        charsum_zero_counts(spec, stack)
    offending = stack_rows(stack)[2]
    assert str(raised.value).startswith("imaginary residue ")
    assert str(raised.value).endswith(f" exceeds {charsum.IMAG_TOL} for {offending}")
    with pytest.raises(PrecisionFailure) as single:
        charsum_zero_counts(spec, stack[2:3, :len(offending)])
    assert str(single.value) == str(raised.value)


def test_the_stacked_oracle_rejects_non_coprime_orders_and_foreign_stacks():
    with pytest.raises(NonCoprimeOrders):
        charsum_zero_counts(build_code(3, 2, 2, 1, 2), np.zeros((0, 1, 4), dtype=np.int16))
    spec = build_code(2, 2, 3, 1, 1)
    with pytest.raises(LengthMismatch, match="product ambient"):
        charsum_zero_counts(spec, np.zeros((2, 1, spec.ambient_dim + 1), dtype=np.int16))
