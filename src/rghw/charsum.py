"""Multiplicative characters, Gauss sums, and the exponential-sum oracle.

The oracle recomputes the zero-coordinate count of a subspace as

    (n + A1 + A2 + B) / q^j

where A1/A2 collect the one-sided contributions (members with one zero
component, expanded as Gauss sums against the characters that restrict
trivially to GF(q)*) and B collects the doubly-nonzero members through the
double character sum; B needs gcd(n1, n2) = 1.  A character's value on a
member depends only on the member's discrete logs modulo the character
orders, so the members of a whole stack of subspaces are binned into integer
class histograms in a few numpy passes, and each term is a small product of
a histogram with the characters' values and Gauss sums, in double precision
against precomputed root-of-unity tables.  The imaginary residue of every
count is checked before the real parts are returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .codes import CodeSpec, Factor
from .errors import (
    BadIndex,
    NonCoprimeOrders,
    PrecisionFailure,
    ZeroArgument,
)
from .gf import FieldTable, build_field, trace_table
from .subspaces import (
    check_stack_ambient,
    stack_dims,
    stack_members,
    stack_rows,
)

IMAG_TOL = 1e-6


@cache
def unit_roots(order: int) -> np.ndarray:
    """Table of e^(2*pi*i*t/order) for t in [0, order); read-only, cached."""
    table = np.exp(2j * np.pi * np.arange(order) / order)
    table.setflags(write=False)
    return table


@cache
def additive_character(field: FieldTable) -> np.ndarray:
    """zeta_p^tr(g^t) for t in [0, order): the canonical additive character
    by discrete log, tr being the absolute trace down to GF(p)."""
    traces = trace_table(field, build_field(field.p, 1))[np.array(field.exp_table)]
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


# -- the subspace oracle -----------------------------------------------------


@cache
def _gauss_at_one(chi: CharacterHandle) -> complex:
    """G(chi; 1), computed once per field and character."""
    return gauss_sum(chi, 1)


# Each term of the oracle is an expansion sum_k G_k * sum_c h_c * V[k, c]:
# G_k the Gauss-sum coefficient of character k, V[k, c] its conjugated value
# on character class c, and h_c the number of members in class c.  Summing
# the classes of each character before scaling by G_k keeps the order of the
# member-by-member sums, so a trivial character's inner sum is an exact count.


def _one_sided_expansion(spec: CodeSpec, factor: Factor) -> tuple[np.ndarray, np.ndarray]:
    """(G, V) for the members supported on this factor only, classed by log
    mod e' = gcd(e, (Q-1)/(q-1)): the characters psi_tau of order e' that
    restrict trivially to GF(q)*."""
    e_prime = math.gcd(factor.e, factor.field.order // (spec.q - 1))
    tau = np.arange(e_prime)
    gauss = np.array([_gauss_at_one(CharacterHandle(factor.field, e_prime, t))
                      for t in range(e_prime)])
    return gauss, np.conj(unit_roots(e_prime)[np.outer(tau, tau) % e_prime])


def _both_expansion(spec: CodeSpec) -> tuple[np.ndarray, np.ndarray]:
    """(G, V) for the doubly-nonzero members, class c1 * e2 + c2 for logs
    c1 mod e1 and c2 mod e2: the character pairs whose product restricts
    trivially to GF(q)*, tested by the integer congruence rather than by
    evaluation."""
    f1, f2 = spec.factors
    e1, e2 = spec.e1, spec.e2
    step1 = (spec.Q1 - 1) // (spec.q - 1)
    step2 = (spec.Q2 - 1) // (spec.q - 1)
    u2 = pow(f2.field.log_table[f2.gamma], -1, e2) if e2 > 1 else 0
    c1, c2 = np.arange(e1)[:, None], np.arange(e2)[None, :]
    gauss, values = [], []
    for lam1 in range(e1):
        chi1 = CharacterHandle(f1.field, e1, lam1)
        for lam2 in range(e2):
            if (lam1 * e2 * step1 + lam2 * e1 * step2) % (e1 * e2):
                continue
            mu2 = (lam2 * u2) % e2
            chi2 = CharacterHandle(f2.field, e2, mu2)
            gauss.append(_gauss_at_one(chi1) * _gauss_at_one(chi2))
            values.append((np.conj(unit_roots(e1)[lam1 * c1 % e1])
                           * np.conj(unit_roots(e2)[mu2 * c2 % e2])).ravel())
    return np.array(gauss), np.array(values)


def _expand(hist: np.ndarray, expansion: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """sum_k G_k * sum_c h_c * V[k, c] for each histogram row of hist, by
    elementwise products and row sums rather than a BLAS matmul, so that a
    subspace's count does not depend on the rest of its stack."""
    gauss, values = expansion
    inner = (hist[:, None, :] * values).sum(axis=2)
    return (gauss * inner).sum(axis=1)


def charsum_zero_counts(spec: CodeSpec, stack: np.ndarray) -> np.ndarray:
    """Zero-coordinate count of each subspace of a (B, r, K) stack of
    zero-padded RREF bases through the character-sum route, as float64[B].

    The members of every basis come from one matmul and are binned by
    character class into integer histograms: members on factor 1 only by
    log mod e1', on factor 2 only by log mod e2', both nonzero by the pair
    of logs mod e1 and e2.  Needs coprime nonzero orders for the
    doubly-nonzero block.  Each result is real up to IMAG_TOL, checked on
    every subspace (the first failure in stack order raises), and equals
    the integer count in exact arithmetic.
    """
    if spec.d != 1:
        raise NonCoprimeOrders(
            "the double character-sum expansion needs gcd(n1, n2) = 1"
        )
    check_stack_ambient(stack, spec.q, spec.ambient_dim)
    nmats, r, _ = stack.shape
    dims = stack_dims(stack)
    # each member of a d-dimensional basis is listed q^(r-d) times
    repeats = spec.q ** (r - dims)
    owner = np.repeat(np.arange(nmats), spec.q**r)
    f1, f2 = spec.factors
    codes1, codes2 = spec.pairs_from_vectors(
        stack_members(stack, spec.ops).reshape(-1, spec.ambient_dim))
    log1 = np.asarray(f1.field.log_table)[codes1]
    log2 = np.asarray(f2.field.log_table)[codes2]
    nonzero1, nonzero2 = codes1 != 0, codes2 != 0

    def histogram(members: np.ndarray, classes: np.ndarray, size: int) -> np.ndarray:
        """(B, size): how many of the chosen members of each basis fall in each class."""
        counts = np.bincount(owner[members] * size + classes[members], minlength=nmats * size)
        return counts.reshape(nmats, size) // repeats[:, None]

    one1, one2 = (_one_sided_expansion(spec, f) for f in spec.factors)
    e1p, e2p = one1[1].shape[1], one2[1].shape[1]
    a1 = _expand(histogram(nonzero1 & ~nonzero2, log1 % e1p, e1p), one1)
    a2 = _expand(histogram(nonzero2 & ~nonzero1, log2 % e2p, e2p), one2)
    b = _expand(histogram(nonzero1 & nonzero2, log1 % spec.e1 * spec.e2 + log2 % spec.e2,
                          spec.e1 * spec.e2), _both_expansion(spec))
    total = (spec.n + a1 * spec.n / (f1.e * f1.n) + a2 * spec.n / (f2.e * f2.n)
             + b / (spec.e1 * spec.e2)) / spec.q**dims
    bad = np.flatnonzero(np.abs(total.imag) > IMAG_TOL)
    if len(bad):
        t = bad[0]
        raise PrecisionFailure(
            f"imaginary residue {float(total.imag[t])} exceeds {IMAG_TOL}"
            f" for {stack_rows(stack[t:t + 1])[0]}"
        )
    return total.real


def nj_via_charsum(spec: CodeSpec, basis: np.ndarray) -> float:
    """charsum_zero_counts of a single (r, K) RREF basis.

    Not exported: only the benchmark (perfbench) names it, and it goes when
    the benchmark stops naming it (ROADMAP 3(b)).
    """
    return float(charsum_zero_counts(spec, basis[None])[0])
