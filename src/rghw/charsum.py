"""Multiplicative characters, Gauss sums, and the exponential-sum oracle.

The oracle recomputes the zero-coordinate count of a subspace as

    (n + A1 + A2 + B) / q^j

where A1/A2 collect the one-sided contributions (members with one zero
component, expanded as Gauss sums against the characters that restrict
trivially to GF(q)*) and B collects the doubly-nonzero members through the
double character sum; B needs gcd(n1, n2) = 1.  Every term is evaluated in
double precision against precomputed root-of-unity tables, and the final
imaginary residue is checked before the real part is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Iterable

import numpy as np

from .codes import CodeSpec, Factor
from .errors import (
    BadIndex,
    NonCoprimeOrders,
    PrecisionFailure,
    ZeroArgument,
)
from .gf import FieldTable, build_field, trace_table
from .subspaces import SubspaceBasis, check_product_ambient, member_matrix

IMAG_TOL = 1e-6


@cache
def unit_roots(order: int) -> np.ndarray:
    """Table of e^(2*pi*i*t/order) for t in [0, order)."""
    return np.exp(2j * np.pi * np.arange(order) / order)


@cache
def additive_character(field: FieldTable) -> np.ndarray:
    """zeta_p^tr(g^t) for t in [0, order): the canonical additive character
    by discrete log, tr being the absolute trace down to GF(p)."""
    traces = trace_table(field, build_field(field.p, 1))[field.exp_table]
    table = unit_roots(field.p)[traces]
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class CharacterHandle:
    """Multiplicative character pinned at the canonical generator g.

    chi(g^t) = zeta_order^(exponent * t); exponent 0 mod order is the
    trivial character.
    """

    field: FieldTable
    order: int
    exponent: int

    def __post_init__(self):
        if self.order < 1 or (self.field.size - 1) % self.order:
            raise BadIndex(
                f"character order {self.order} does not divide {self.field.size - 1}"
            )


def _unit_log(field: FieldTable, x: int) -> int:
    """Discrete log of the code x; characters are undefined at zero."""
    x = field.check(x)
    if x == 0:
        raise ZeroArgument("characters are undefined at zero")
    return field.log_table[x]


def char_eval(chi: CharacterHandle, x: int) -> complex:
    t = _unit_log(chi.field, x)
    return complex(unit_roots(chi.order)[(chi.exponent * t) % chi.order])


def gauss_sum(chi: CharacterHandle, beta: int) -> complex:
    """Sum over x != 0 of chi(x) * zeta_p^(trace(beta * x))."""
    field = chi.field
    order = field.order
    t = np.arange(order)
    chi_vals = unit_roots(chi.order)[(chi.exponent * t) % chi.order]
    beta = field.check(beta)
    if beta == 0:
        return complex(chi_vals.sum())
    beta_log = field.log_table[beta]
    return complex((chi_vals * additive_character(field)[(t + beta_log) % order]).sum())


def orthogonality_sum(field: FieldTable, x: int, alpha: int, e: int) -> complex:
    """Sum over lam < e of chi^lam(x) for chi of order e at the generator,
    for codes x and alpha of field.

    Evaluates to e when x is an e-th power (x in <alpha> for alpha = g^e)
    and to 0 otherwise, up to float error.
    """
    if (field.size - 1) % e:
        raise BadIndex(f"e={e} does not divide {field.size - 1}")
    if field.check(alpha) != field.exp_table[e % field.order]:
        raise BadIndex("alpha must be the e-th power of the canonical generator")
    t = _unit_log(field, x)
    lam = np.arange(e)
    return complex(unit_roots(e)[(lam * t) % e].sum())


def incomplete_character_sum(chi: CharacterHandle, elements: Iterable[int]) -> complex:
    """Sum of chi over a set of codes of the field, with chi(0) taken as 0."""
    total = 0j
    for x in elements:
        if x == 0:
            continue
        total += char_eval(chi, x)
    return complex(total)


# -- the subspace oracle -----------------------------------------------------


@cache
def _gauss_at_one(chi: CharacterHandle) -> complex:
    """G(chi; 1), computed once per field and character."""
    return gauss_sum(chi, 1)


def _one_sided_term(spec: CodeSpec, factor: Factor, member_codes: list[int]) -> complex:
    """Gauss-sum expansion of the members supported on one factor only."""
    e_prime = math.gcd(factor.e, factor.field.order // (spec.q - 1))
    total = 0j
    for tau in range(e_prime):
        psi = CharacterHandle(factor.field, e_prime, tau)
        inner = np.conj(incomplete_character_sum(psi, member_codes))
        total += _gauss_at_one(psi) * inner
    return total * spec.n / (factor.e * factor.n)


def nj_via_charsum(spec: CodeSpec, basis: SubspaceBasis) -> float:
    """Zero-coordinate count of a subspace through the character-sum route.

    Needs coprime nonzero orders for the doubly-nonzero block; the result
    is real up to IMAG_TOL and equals the integer count exactly in exact
    arithmetic.
    """
    if spec.d != 1:
        raise NonCoprimeOrders(
            "the double character-sum expansion needs gcd(n1, n2) = 1"
        )
    check_product_ambient(basis, spec.ambient_dim)
    j = basis.dim
    codes1, codes2 = spec.pairs_from_vectors(member_matrix(basis))
    only1: list[int] = []
    only2: list[int] = []
    both: list[tuple[int, int]] = []
    for c1, c2 in zip(codes1.tolist(), codes2.tolist()):
        if c1 and c2:
            both.append((c1, c2))
        elif c1:
            only1.append(c1)
        elif c2:
            only2.append(c2)

    f1, f2 = spec.factors
    a1 = _one_sided_term(spec, f1, only1)
    a2 = _one_sided_term(spec, f2, only2)

    # doubly-nonzero block: double Gauss-sum expansion over character pairs
    # whose product restricts trivially to GF(q)*, tested by the integer
    # congruence rather than by evaluation
    e1, e2 = spec.e1, spec.e2
    step1 = (spec.Q1 - 1) // (spec.q - 1)
    step2 = (spec.Q2 - 1) // (spec.q - 1)
    u2 = pow(f2.field.log_table[f2.gamma], -1, e2) if e2 > 1 else 0
    b_total = 0j
    for lam1 in range(e1):
        chi1 = CharacterHandle(f1.field, e1, lam1)
        for lam2 in range(e2):
            if (lam1 * e2 * step1 + lam2 * e1 * step2) % (e1 * e2):
                continue
            chi2 = CharacterHandle(f2.field, e2, (lam2 * u2) % e2)
            inner = sum(
                np.conj(char_eval(chi1, c1)) * np.conj(char_eval(chi2, c2))
                for c1, c2 in both
            )
            b_total += _gauss_at_one(chi1) * _gauss_at_one(chi2) * inner
    b_total /= e1 * e2

    total = (spec.n + a1 + a2 + b_total) / spec.q**j
    if abs(total.imag) > IMAG_TOL:
        raise PrecisionFailure(f"imaginary residue {total.imag} exceeds {IMAG_TOL}")
    return float(total.real)
