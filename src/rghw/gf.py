"""Finite fields GF(p^m) as exp/log tables and one digitwise addition.

Elements are integer codes: the residue polynomial a_0 + a_1*x + ... of
degree < m is coded as the base-p integer a_0 + a_1*p + ....  Code 0 is the
zero element.  Addition adds codes digit by digit mod p, on single codes or
elementwise on integer arrays of them.  Nonzero elements also carry a
discrete log with respect to the canonical generator exp_table[1], so
multiplication, inversion and powering are pure index arithmetic.  A
subfield embeds where its generator maps to a root of its defining
polynomial.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    FieldMismatch,
    InvariantViolated,
    NonPrime,
    NotASubfield,
    SizeCapExceeded,
    ZeroElement,
)

DEFAULT_SIZE_CAP = 1 << 20


def is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


class FieldTable:
    """GF(p^m) with precomputed exp and log tables.

    The tables are tuples, so a field cached by build_field cannot be
    corrupted through them; safe to share between workers.  All
    element-level methods take and return integer codes; add also takes
    integer arrays of codes.  Codes are not range-checked (check does that):
    a code outside 0..size-1 gives a meaningless result.
    """

    __slots__ = (
        "p",
        "m",
        "size",
        "order",
        "primitive_polynomial",
        "exp_table",
        "log_table",
    )

    def __init__(self, p: int, m: int, coeffs: tuple[int, ...],
                 exp_table: list[int], log_table: list[int]):
        self.p = p
        self.m = m
        self.size = p ** m
        self.order = self.size - 1
        # Monic: coefficient vector (c_0, ..., c_{m-1}, 1), low to high degree.
        self.primitive_polynomial = coeffs + (1,)
        self.exp_table = tuple(exp_table)
        self.log_table = tuple(log_table)

    # -- code-level arithmetic ------------------------------------------

    def add(self, a, b):
        """Base-p digitwise sum of codes, or elementwise of integer arrays
        of codes."""
        return _add_digitwise(a, b, self.p, self.m)

    def neg(self, a: int) -> int:
        if a == 0 or self.p == 2:
            return a
        half = self.order // 2  # log of -1 in odd characteristic
        return self.exp_table[(self.log_table[a] + half) % self.order]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp_table[(self.log_table[a] + self.log_table[b]) % self.order]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroElement("zero has no inverse")
        return self.exp_table[(-self.log_table[a]) % self.order]

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k < 0:
                raise ZeroElement("zero has no inverse")
            return 0 if k else 1
        return self.exp_table[(self.log_table[a] * k) % self.order]

    def check(self, code: int) -> int:
        """code as an int; FieldMismatch when it names no element of this field."""
        code = int(code)
        if not 0 <= code < self.size:
            raise FieldMismatch(f"code {code} outside GF({self.size})")
        return code

    def __repr__(self) -> str:
        return f"FieldTable(GF({self.p}^{self.m}))"


# -- construction ---------------------------------------------------------

def build_field(p: int, m: int) -> FieldTable:
    """Construct GF(p^m), one table per (p, m) however the call is spelled.

    The defining polynomial is the first primitive one in lexicographic
    order of the coefficient vector (c_0, ..., c_{m-1}), so repeated builds
    agree across runs.
    """
    return _field(p, m)


@functools.cache
def _field(p: int, m: int) -> FieldTable:
    if not is_prime(p):
        raise NonPrime(f"p={p} is not prime")
    check_size(p, m)
    return _construct(p, m)


def check_size(p: int, m: int) -> None:
    """The size rule of GF(p^m), p >= 2: SizeCapExceeded unless
    1 <= m and p^m <= DEFAULT_SIZE_CAP."""
    if m < 1:
        raise SizeCapExceeded(f"extension degree m={m} must be >= 1")
    # p^m >= 2^m > DEFAULT_SIZE_CAP once m reaches its bit length: no power needed
    if m >= DEFAULT_SIZE_CAP.bit_length() or p ** m > DEFAULT_SIZE_CAP:
        raise SizeCapExceeded(f"{p}^{m} exceeds the size cap {DEFAULT_SIZE_CAP}")


def prime_power(size: int) -> tuple[int, int]:
    """(p, m) with p^m = size, a prime power within the size cap; the cap
    is checked before size is trial-divided."""
    if size > DEFAULT_SIZE_CAP:
        raise SizeCapExceeded(f"{size} exceeds the size cap {DEFAULT_SIZE_CAP}")
    factors = _prime_factors(size)
    if len(factors) != 1:
        raise NonPrime(f"{size} is not a prime power")
    p, s = factors[0], 1
    while p**s < size:
        s += 1
    return p, s


def field_for_size(size: int) -> FieldTable:
    """GF(size), after the checks of prime_power."""
    return build_field(*prime_power(size))


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n in increasing order; [] for n < 2."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _construct(p: int, m: int) -> FieldTable:
    """Try the candidates (c_0, ..., c_{m-1}) in lexicographic order.

    The constant term c_0 is (-1)^m times the norm of a root, and the norm
    of a generator must generate GF(p)*, so a block of candidates whose c_0
    fails that test is skipped as the search reaches it.
    """
    sign = 1 if m % 2 == 0 else p - 1
    norm_factors = _prime_factors(p - 1)
    for c0 in range(1, p):
        root = (sign * c0) % p
        if any(pow(root, (p - 1) // r, p) == 1 for r in norm_factors):
            continue
        for rest in itertools.product(range(p), repeat=m - 1):
            coeffs = (c0, *rest)
            tables = _try_primitive(p, m, coeffs)
            if tables is not None:
                return FieldTable(p, m, coeffs, *tables)
    raise InvariantViolated(f"no primitive polynomial found for GF({p}^{m})")


def _try_primitive(p: int, m: int, coeffs: tuple[int, ...]):
    """Accept the candidate iff powers of x enumerate the whole group.

    This sweep is the only primitivity certificate, and it doubles as the
    exp/log table fill: if the quotient ring had zero divisors or x had
    smaller order, the powers would collide before covering all p^m - 1
    nonzero codes.
    """
    high = p ** (m - 1)
    order = high * p - 1
    # x * top*x^(m-1) reduces to -top * (c_0 + c_1*x + ... + c_{m-1}*x^(m-1))
    reduce = [sum((-top * c) % p * p**i for i, c in enumerate(coeffs))
              for top in range(p)]
    log = [-1] * (order + 1)
    exp = [0] * order
    code = 1
    for i in range(order):
        if log[code] != -1:
            return None
        exp[i] = code
        log[code] = i
        top, low = divmod(code, high)
        code = _add_digitwise(low * p, reduce[top], p, m)
    return (exp, log) if code == 1 else None


def _add_digitwise(a, b, p: int, m: int):
    """Digitwise sum of base-p codes with m digits, or elementwise of
    integer arrays of them: XOR for p = 2, one residue for m = 1."""
    if p == 2:
        return a ^ b
    if m == 1:
        return (a + b) % p
    out = 0
    mult = 1
    for _ in range(m):
        out += ((a + b) % p) * mult
        a, b = a // p, b // p
        mult *= p
    return out


# -- subfield embeddings --------------------------------------------------


@dataclass(frozen=True)
class Embedding:
    """The field homomorphism GF(q) -> GF(q^t) in discrete-log form.

    The generator of the subfield maps to sup_generator^(ratio * twist),
    with the smallest twist whose image is a root of the subfield's
    defining polynomial, which makes the map a ring homomorphism.
    Multiplicative-only powers of the ratio are not ring maps in general,
    so the twist is essential.
    """

    sub: FieldTable
    sup: FieldTable
    ratio: int
    twist: int

    @property
    def generator_log(self) -> int:
        return (self.ratio * self.twist) % self.sup.order

    def apply_code(self, code: int) -> int:
        if code == 0:
            return 0
        log = self.sub.log_table[code]
        return self.sup.exp_table[(log * self.generator_log) % self.sup.order]

    def preimage(self, code: int) -> int:
        """The subfield code that apply_code maps to code."""
        code = self.sup.check(code)
        if code == 0:
            return 0
        log = self.sup.log_table[code]
        if log % self.ratio:
            raise FieldMismatch("element lies outside the embedded subfield")
        return self.sub.exp_table[(log // self.ratio) * self._twist_inv % self.sub.order]

    @property
    def _twist_inv(self) -> int:
        return pow(self.twist, -1, self.sub.order)


def _is_field_hom(sub: FieldTable, sup: FieldTable, gen_log: int) -> bool:
    """Is g_sup^gen_log a root of sub's defining polynomial?

    The subfield is GF(p)[x] modulo that polynomial with x = g_sub, so
    g_sub^t -> g_sup^(gen_log * t) is a ring homomorphism exactly when the
    image of x is a root.  The coefficients are GF(p) codes, the same codes
    in sup, and Horner evaluates the polynomial in sup.
    """
    root = sup.exp_table[gen_log]
    acc = 0
    for c in reversed(sub.primitive_polynomial):
        acc = sup.add(sup.mul(acc, root), c)
    return acc == 0


@functools.cache
def embed_subfield(sub: FieldTable, sup: FieldTable) -> Embedding:
    if sub.p != sup.p or sup.m % sub.m:
        raise NotASubfield(f"GF({sub.size}) is not a subfield of GF({sup.size})")
    ratio = (sup.size - 1) // (sub.size - 1)
    twist = None
    for u in range(1, sub.order + 2):
        if math.gcd(u, sub.order) != 1:
            continue
        if _is_field_hom(sub, sup, (ratio * u) % sup.order):
            twist = u
            break
    if twist is None:  # pragma: no cover - a conjugate embedding always exists
        raise NotASubfield(f"no field embedding GF({sub.size}) -> GF({sup.size})")
    return Embedding(sub, sup, ratio, twist)


# -- traces, orders, minimal polynomials -----------------------------------


@functools.cache
def trace_table(sup: FieldTable, sub: FieldTable) -> np.ndarray:
    """Trace from sup down to sub for every element: entry c is the sub code
    of the sum of the sub-conjugates of the element with code c.

    Read-only and cached per field pair; every trace in the package is read
    from this one table.
    """
    emb = embed_subfield(sub, sup)
    exp = np.array(sup.exp_table, dtype=np.int64)
    logs = np.arange(sup.order, dtype=np.int64)
    acc = np.zeros(sup.order, dtype=np.int64)
    exponent = 1
    for _ in range(sup.m // sub.m):
        acc = sup.add(acc, exp[logs * exponent % sup.order])
        exponent = exponent * sub.size % sup.order
    preimage = np.full(sup.size, -1, dtype=np.int64)
    preimage[[emb.apply_code(c) for c in range(sub.size)]] = range(sub.size)
    out = np.zeros(sup.size, dtype=np.int64)
    out[exp] = preimage[acc]
    if (out < 0).any():
        raise InvariantViolated(f"a trace GF({sup.size}) -> GF({sub.size}) left the subfield")
    out.setflags(write=False)
    return out


def element_order(field: FieldTable, a: int) -> int:
    """Multiplicative order of the code a in field."""
    a = field.check(a)
    if a == 0:
        raise ZeroElement("order of zero is undefined")
    return field.order // math.gcd(field.order, field.log_table[a])


def frobenius_orbit(field: FieldTable, a: int, base: FieldTable) -> list[int]:
    """The conjugates a, a^Q, a^(Q^2), ... of the code a of field over base,
    Q = base.size, each once: their number is the degree of a over base."""
    if base.p != field.p or field.m % base.m:
        raise FieldMismatch(f"GF({base.size}) is not a subfield of GF({field.size})")
    orbit = [field.check(a)]
    nxt = field.pow(orbit[0], base.size)
    while nxt != orbit[0]:
        orbit.append(nxt)
        nxt = field.pow(nxt, base.size)
    return orbit


@dataclass(frozen=True)
class Polynomial:
    """Univariate polynomial with coefficient codes over a fixed field."""

    field: FieldTable
    coeffs: tuple[int, ...]  # low to high degree, no trailing zeros

    def __post_init__(self):
        c = self.coeffs
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if other.field is not self.field:
            raise FieldMismatch("polynomials over different fields")
        if not self.coeffs or not other.coeffs:
            return Polynomial(self.field, ())
        f = self.field
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for k, b in enumerate(other.coeffs):
                out[i + k] = f.add(out[i + k], f.mul(a, b))
        return Polynomial(self.field, tuple(out))

    def evaluate(self, field: FieldTable, x: int) -> int:
        """Horner evaluation at the code x of field, the coefficient field
        or an extension of it."""
        x = field.check(x)
        lift = embed_subfield(self.field, field).apply_code
        acc = 0
        for c in reversed(self.coeffs):
            acc = field.add(field.mul(acc, x), lift(c))
        return acc


def minimal_polynomial(field: FieldTable, a: int, base: FieldTable) -> Polynomial:
    """Monic minimal polynomial over base of the code a of field: product
    over its orbit."""
    orbit = frobenius_orbit(field, a, base)
    if orbit[0] == 0:
        raise ZeroElement("minimal polynomial of zero not supported")
    # expand prod (x - c) with coefficients in the big field
    coeffs = [1]
    for c in orbit:
        nxt_coeffs = [0] * (len(coeffs) + 1)
        for i, k in enumerate(coeffs):
            nxt_coeffs[i + 1] = field.add(nxt_coeffs[i + 1], k)
            nxt_coeffs[i] = field.sub(nxt_coeffs[i], field.mul(k, c))
        coeffs = nxt_coeffs
    preimage = embed_subfield(base, field).preimage
    return Polynomial(base, tuple(preimage(c) for c in coeffs))
