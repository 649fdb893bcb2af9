"""Cross-validation suites behind the `verify` command.

Each suite sweeps one layer of the package and returns a SuiteResult with
a check count and the list of failures (empty when everything holds).
The default instance grid keeps code dimension at 5 so every sweep is
exhaustive at desk scale.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from typing import Iterable, Optional, Sequence

import numpy as np

from .charsum import (
    CharacterHandle,
    additive_character,
    gauss_sum,
    nj_via_charsum,
    orthogonality_sum,
    unit_roots,
)
from .closed_forms import detect_family, evaluate_closed_form
from .codes import CodeSpec, build_code, codeword, parity_check_polynomial
from .gf import (
    FieldTable,
    build_field,
    element_order,
    embed_subfield,
    field_for_size,
    is_prime,
    minimal_polynomial,
    trace_table,
)
from .subspaces import (
    SubspaceBasis,
    dual_stack,
    dual_subspace,
    enumerate_rref_rows,
    enumerate_subspaces,
    gaussian_binomial,
    padded_stack,
    project_stack,
    stack_dims,
    stack_rows,
)
from .weights import (
    ghw_bruteforce,
    mj_dual_count,
    nj_of_subspace,
    rghw_bruteforce,
    zero_counts,
)

DEFAULT_INSTANCES = ((2, 2, 3, 1, 1), (2, 3, 2, 1, 1), (3, 2, 3, 1, 2))
GAUSS_MAX_FIELD = 81
GAUSS_TOL = 1e-9
ORACLE_TOL = 1e-6
# Random draws are canonicalized this many at a time: enough that one
# elimination serves many draws, few enough that memory does not grow with
# the sample count.
DRAW_BLOCK = 512


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list[str] = dc_field(default_factory=list)
    notes: dict = dc_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(message)

    def check_residual(self, diff: float, tol: float, message: str) -> None:
        """Check diff < tol and keep the largest diff in notes["max_residual"]."""
        self.notes["max_residual"] = max(self.notes.get("max_residual", 0.0), diff)
        self.check(diff < tol, message)

    def as_dict(self) -> dict:
        return {
            "suite": self.name,
            "passed": self.passed,
            "checks": self.checks,
            "failures": self.failures[:20],
            "notes": self.notes,
        }


def _canonical_blocks(spec: CodeSpec, width: int, draws: Iterable[np.ndarray]):
    """Yield (stack, rows) for each block of up to DRAW_BLOCK draws of at
    most width rows: the draws' RREF bases as one zero-padded stack, from
    one elimination, and each draw's RREF rows as tuples, in draw order."""
    draws = iter(draws)
    while block := list(itertools.islice(draws, DRAW_BLOCK)):
        red = spec.ops.rref_many(padded_stack(block, width, spec.ambient_dim))
        yield red, stack_rows(red)


def _first_draws(keys: Sequence, known) -> list[int]:
    """Positions of the first draw of each subspace not in known, in draw order."""
    first: dict = {}
    for t, rows in enumerate(keys):
        if rows not in known:
            first.setdefault(rows, t)
    return list(first.values())


# -- gf ---------------------------------------------------------------------


def gf_suite() -> SuiteResult:
    res = SuiteResult("gf")
    pairs = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (2, 6)]
    for p, m in pairs:
        f = build_field(p, m)
        size = f.size
        res.check(
            all(
                f.mul(f.exp_table[i], f.exp_table[k])
                == f.exp_table[(i + k) % f.order]
                for i in range(f.order)
                for k in range(0, f.order, max(1, f.order // 7))
            ),
            f"GF({size}): exp table is not a group homomorphism",
        )
        res.check(
            all(f.log_table[f.exp_table[i]] == i for i in range(f.order)),
            f"GF({size}): log/exp are not inverse",
        )
        # Zech addition against digitwise addition, exhaustively
        res.check(
            all(
                f.add(a, b) == f.add_codes_digitwise(a, b)
                for a in range(size)
                for b in range(size)
            ),
            f"GF({size}): Zech addition disagrees with digitwise addition",
        )
        base = build_field(p, 1)
        emb = embed_subfield(base, f)
        tr = trace_table(f, base).tolist()
        zeros = tr.count(0)
        res.check(
            zeros == size // p, f"GF({size}): trace-zero count {zeros} != {size // p}"
        )
        # linearity and Frobenius invariance of the trace, exhaustive on pairs
        sample = range(0, size, max(1, size // 9))
        ok_lin = all(
            tr[f.add(a, b)] == base.add(tr[a], tr[b]) for a in range(size) for b in sample
        )
        res.check(ok_lin, f"GF({size}): trace is not additive")
        ok_frob = all(tr[f.pow(a, p)] == tr[a] for a in range(size))
        res.check(ok_frob, f"GF({size}): trace is not Frobenius invariant")
        ok_scale = all(
            tr[f.mul(emb.apply_code(c), a)] == base.mul(c, tr[a])
            for c in range(p)
            for a in sample
        )
        res.check(ok_scale, f"GF({size}): trace is not base-linear")
    # minimal polynomials: root, degree = orbit size, irreducibility by the
    # conjugate-product construction itself
    f16 = build_field(2, 4)
    f2 = build_field(2, 1)
    for a in range(1, f16.size):
        mp = minimal_polynomial(f16, a, f2)
        res.check(mp.evaluate(f16, a) == 0, f"minpoly of code {a} does not kill its root")
        res.check(4 % mp.degree == 0, f"minpoly of code {a} has degree {mp.degree}")
    f8, f9 = build_field(2, 3), build_field(3, 2)
    res.check(element_order(f8, f8.exp_table[1]) == 7, "GF(8)* generator order")
    res.check(element_order(f9, f9.exp_table[2]) == 4, "order of g^2 in GF(9)")
    return res


# -- codes --------------------------------------------------------------------


def _all_codewords(spec: CodeSpec) -> dict[tuple[int, ...], tuple[int, int]]:
    words = {}
    for b1 in range(spec.Q1):
        for b2 in range(spec.Q2):
            words[codeword(spec, b1, b2)] = (b1, b2)
    return words


def codes_suite(instances: Sequence[tuple] = DEFAULT_INSTANCES) -> SuiteResult:
    res = SuiteResult("codes")
    for params in instances:
        spec = build_code(*params)
        label = f"{params}"
        res.check(
            spec.Q1 - 1 == spec.e1 * spec.n1 and spec.Q2 - 1 == spec.e2 * spec.n2,
            f"{label}: index-order identity broken",
        )
        res.check(
            spec.n * spec.d == spec.n1 * spec.n2, f"{label}: length identity broken"
        )
        norms = {f.embed.preimage(f.field.pow(f.gamma, f.field.order // (spec.q - 1)))
                 for f in spec.factors}
        res.check(norms == {spec.delta}, f"{label}: delta compatibility broken")
        words = _all_codewords(spec)
        res.check(
            len(words) == spec.Q1 * spec.Q2, f"{label}: codeword map is not injective"
        )
        word_set = set(words)
        shifts_ok = all(w[1:] + w[:1] in word_set for w in word_set)
        res.check(shifts_ok, f"{label}: cyclic shift closure fails")
        subwords = {codeword(spec, 0, b2) for b2 in range(spec.Q2)}
        res.check(subwords <= word_set, f"{label}: C' not contained in C")
        periodic = all(
            w[i] == w[(i + spec.n2) % spec.n]
            for w in subwords
            for i in range(spec.n)
        )
        res.check(periodic, f"{label}: subcode words not n2-periodic")
        h = parity_check_polynomial(spec)
        res.check(
            h.degree == spec.k1 + spec.k2, f"{label}: parity-check degree wrong"
        )
        recur = _recurrence_annihilates(spec, h, word_set)
        res.check(recur, f"{label}: parity-check recurrence fails on some word")
        # repetition structure of one-sided words
        rep_ok = True
        for b1 in range(1, spec.Q1):
            w = codeword(spec, b1, 0)
            if any(w[i] != w[(i + spec.n1) % spec.n] for i in range(spec.n)):
                rep_ok = False
        res.check(rep_ok, f"{label}: one-sided words not n1-periodic")
    return res


def _recurrence_annihilates(spec: CodeSpec, h, word_set) -> bool:
    """Apply the reversed-coefficient recurrence cyclically to every word:
    sum_t h_(k-t) w_(i+t) = 0 for every position i, as k+1 shifted copies
    of the word matrix scaled and added through the field tables."""
    ops = spec.ops
    k = h.degree
    words = np.array(list(word_set), dtype=np.int16).reshape(-1, spec.n)
    acc = np.zeros_like(words)
    for t in range(k + 1):
        term = ops.mul_table[h.coeffs[k - t], np.roll(words, -t, axis=1)]
        acc = ops.add_table[acc, term]
    return not acc.any()


# -- subspaces -----------------------------------------------------------------


def subspaces_suite(seed: int = 2024,
                    instances: Sequence[tuple] = DEFAULT_INSTANCES,
                    max_dim: int = 6,
                    roundtrips: int = 1000) -> SuiteResult:
    res = SuiteResult("subspaces")
    for q in (2, 3):
        for k in range(1, max_dim + 1):
            for j in range(0, k + 1):
                seen = set()
                count = 0
                for rows in enumerate_rref_rows(k, j, q):
                    count += 1
                    seen.add(rows)
                expected = gaussian_binomial(k, j, q)
                res.check(
                    count == expected and len(seen) == expected,
                    f"q={q} k={k} j={j}: enumeration count {count} != {expected}",
                )
    # duality round-trips on seeded random subspaces of the product ambients;
    # each distinct subspace is dualized once, each draw checked
    specs = [build_code(*params) for params in instances]
    rng = np.random.default_rng([seed, 1])
    per_spec = max(1, roundtrips // len(specs))
    for spec in specs:
        K = spec.ambient_dim
        # each draw: a row count in 0..K, then that many random rows
        draws = (rng.integers(0, spec.q, size=(int(rng.integers(0, K + 1)), K))
                 for _ in range(per_spec))
        duals: dict = {}  # H rows -> (dual dimension, double-dual rows)
        for stack, keys in _canonical_blocks(spec, K, draws):
            new = _first_draws(keys, duals)
            dual = dual_stack(stack[new], spec)
            for t, dim, double in zip(new, stack_dims(dual), stack_rows(dual_stack(dual, spec))):
                duals[keys[t]] = dim, double
            for rows in keys:
                dual_dim, double_dual = duals[rows]
                res.check(
                    dual_dim == K - len(rows),
                    f"{spec}: dual dimension {dual_dim} != {K - len(rows)}",
                )
                res.check(double_dual == rows, f"{spec}: double dual differs from H")
    # projection rank-nullity and the three intersection characterizations
    spec = specs[0]
    K, k1, k2 = spec.ambient_dim, spec.k1, spec.k2
    eye2 = np.eye(k2, K, k1, dtype=np.int16)  # a basis of C', the second factor
    bases = [H for j in range(K + 1) for H in enumerate_subspaces(K, j, spec.q)]
    padded = padded_stack([H.matrix() for H in bases], K, K)
    image1, kernel1 = project_stack(padded, spec, 1)
    image2_dual, _ = project_stack(dual_stack(padded, spec), spec, 2)
    with_subcode = spec.ops.rref_many(np.concatenate(
        [padded, np.broadcast_to(eye2, (len(bases), k2, K))], axis=1))
    dims = map(stack_dims, (image1, kernel1, image2_dual, with_subcode))
    for H, image1_dim, kernel1_dim, image2_dual_dim, rank in zip(bases, *dims):
        res.check(
            image1_dim + kernel1_dim == H.dim,
            f"j={H.dim}: projection rank-nullity fails for {H.rows}",
        )
        inter_dim = H.dim + k2 - rank
        p_a = inter_dim == 0
        p_b = kernel1_dim == 0
        p_c = image2_dual_dim == k2
        res.check(
            p_a == p_b == p_c,
            f"j={H.dim}: intersection predicates disagree for {H.rows}",
        )
    return res


# -- weights --------------------------------------------------------------------


def weights_suite(seed: int = 2024,
                  instances: Sequence[tuple] = DEFAULT_INSTANCES,
                  workers: int = 1) -> SuiteResult:
    res = SuiteResult("weights")
    rng = np.random.default_rng([seed, 2])
    for params in instances:
        spec = build_code(*params)
        label = f"{params}"
        previous = None
        for j in range(1, spec.k1 + 1):
            brute = rghw_bruteforce(spec, j, workers=workers)
            dual = mj_dual_count(spec, j, workers=workers)
            res.check(
                brute == dual.m,
                f"{label} j={j}: bruteforce {brute} != dual count {dual.m}",
            )
            # the argmax's j-dimensional dual vanishes on exactly N_j coordinates
            res.check(
                dual.n_j == nj_of_subspace(spec, dual_subspace(dual.argmax, spec)),
                f"{label} j={j}: argmax does not reproduce N_j",
            )
            ghw = ghw_bruteforce(spec, j, workers=workers)
            res.check(
                ghw <= brute, f"{label} j={j}: GHW {ghw} exceeds RGHW {brute}"
            )
            if previous is not None:
                res.check(
                    previous < brute,
                    f"{label} j={j}: weights not strictly increasing",
                )
            previous = brute
        # proof-chain identity on random subspaces (zero_counts itself
        # checks that the two counting routes agree)
        draws = (rng.integers(0, spec.q, size=(int(rng.integers(0, spec.k1 + 1)),
                                               spec.ambient_dim))
                 for _ in range(25))
        for stack, _ in _canonical_blocks(spec, spec.k1, draws):
            for value in zero_counts(spec, stack).tolist():
                res.check(
                    0 <= value <= spec.n, f"{label}: zero count {value} out of range"
                )
    return res


# -- gauss / charsum ---------------------------------------------------------


def gauss_value_table(field: FieldTable) -> np.ndarray:
    """G(chi_lam; g^b) for all lam, b in [0, size-1), as one complex matrix."""
    order = field.order
    t = np.arange(order)
    roots = unit_roots(order)
    w = roots[np.outer(t, t) % order]
    shifted = additive_character(field)[(t[:, None] + t[None, :]) % order]
    return w @ shifted


def gauss_suite(seed: int = 2024) -> SuiteResult:
    res = SuiteResult("gauss")
    rng = np.random.default_rng([seed, 3])
    top = GAUSS_MAX_FIELD
    sizes = sorted(p**m for p in range(2, top + 1) if is_prime(p)
                   for m in range(1, top.bit_length()) if p**m <= top)
    for size in sizes:
        field = field_for_size(size)
        order = size - 1
        table = gauss_value_table(field)
        t = np.arange(order)
        w = unit_roots(order)[np.outer(t, t) % order]
        if order > 1:
            lhs = table[1:, :]
            rhs = np.conj(w[1:, :]) * table[1:, :1]
            diff = float(np.abs(lhs - rhs).max())
            res.check_residual(diff, GAUSS_TOL, f"GF({size}): twist identity residual {diff}")
            moduli = np.abs(table[1:, 0])
            mdiff = float(np.abs(moduli - math.sqrt(size)).max())
            res.check_residual(mdiff, GAUSS_TOL,
                               f"GF({size}): |G| deviates from sqrt(q) by {mdiff}")
        complete = w.sum(axis=1)
        res.check(
            complete[0] == complex(order),
            f"GF({size}): complete trivial sum not exactly q-1",
        )
        if order > 1:
            cdiff = float(np.abs(complete[1:]).max())
            res.check_residual(cdiff, GAUSS_TOL,
                               f"GF({size}): nontrivial complete sum residual {cdiff}")
        res.check(
            gauss_sum(CharacterHandle(field, 1, 0), 0) == complex(order),
            f"GF({size}): scalar trivial Gauss sum at beta=0 not exact",
        )
        # scalar op agrees with the vectorized table on random entries
        for _ in range(min(8, order)):
            lam = int(rng.integers(0, order))
            b = int(rng.integers(0, order))
            chi = CharacterHandle(field, order, lam)
            val = gauss_sum(chi, field.exp_table[b])
            res.check(
                abs(val - table[lam, b]) < 1e-10,
                f"GF({size}): scalar/table Gauss sums differ at ({lam},{b})",
            )
        # orthogonality relations for every divisor of the group order
        for e in _divisors(order):
            sums = unit_roots(e)[
                np.outer(np.arange(e), t) % e
            ].sum(axis=0)
            target = np.where(t % e == 0, float(e), 0.0)
            odiff = float(np.abs(sums - target).max())
            res.check_residual(odiff, GAUSS_TOL,
                               f"GF({size}) e={e}: orthogonality residual {odiff}")
        # scalar orthogonality op on a few points, largest two divisors
        for e in _divisors(order)[-2:]:
            alpha = field.exp_table[e % order]
            for _ in range(3):
                x_log = int(rng.integers(0, order))
                val = orthogonality_sum(field, field.exp_table[x_log], alpha, e)
                want = e if x_log % e == 0 else 0
                res.check(
                    abs(val - want) < GAUSS_TOL,
                    f"GF({size}): scalar orthogonality at e={e} off",
                )
    return res


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def charsum_suite(seed: int = 2024, samples: int = 100,
                  instances: Sequence[tuple] = DEFAULT_INSTANCES) -> SuiteResult:
    res = SuiteResult("charsum")
    specs = [(params, build_code(*params)) for params in instances]
    usable = [(params, spec) for params, spec in specs if spec.d == 1]
    for params, spec in usable:
        rng = np.random.default_rng([seed, 4, *params])
        K = spec.ambient_dim
        draws = (rng.integers(0, spec.q, size=(1 + i % spec.k1, K)) for i in range(samples))
        diffs: dict = {}  # D rows -> residual: each distinct subspace scored once
        for stack, keys in _canonical_blocks(spec, spec.k1, draws):
            new = _first_draws(keys, diffs)
            for t, target in zip(new, zero_counts(spec, stack[new]).tolist()):
                basis = SubspaceBasis(spec.q, K, keys[t])
                diffs[keys[t]] = abs(nj_via_charsum(spec, basis) - target)
            for rows in keys:
                diff = diffs[rows]
                res.check_residual(diff, ORACLE_TOL,
                                   f"{params}: oracle residual {diff} at subspace {rows}")
    res.notes.setdefault("max_residual", 0.0)  # no usable instance: nothing checked
    res.notes["instances"] = [list(params) for params, _ in usable]
    return res


# -- closed forms ---------------------------------------------------------------


def closed_forms_suite(workers: int = 1) -> SuiteResult:
    res = SuiteResult("closed_forms")
    cases = [
        (2, 2, 3, 1, 1),
        (2, 3, 2, 1, 1),
        (2, 2, 5, 1, 1),
        (2, 3, 4, 1, 1),
        (3, 2, 3, 1, 2),
        (3, 3, 2, 2, 1),
    ]
    for params in cases:
        q, k1, k2, e1, e2 = params
        structural = detect_family(q, k1, k2, e1, e2) is not None
        res.check(structural, f"{params}: not structural")
        if not structural:
            continue
        spec = build_code(*params)
        for j in range(1, k1 + 1):
            n_j, m_j = evaluate_closed_form(q, k1, k2, e1, e2, j)
            res.check(
                n_j > 0 and m_j > 0, f"{params} j={j}: nonpositive closed form"
            )
            brute = rghw_bruteforce(spec, j, workers=workers)
            dual = mj_dual_count(spec, j, workers=workers)
            res.check(
                m_j == brute == dual.m,
                f"{params} j={j}: closed form {m_j} vs brute {brute} vs dual {dual.m}",
            )
            res.check(
                n_j == dual.n_j,
                f"{params} j={j}: closed-form N {n_j} vs dual N {dual.n_j}",
            )
    return res


SUITES = {
    "gf": gf_suite,
    "codes": codes_suite,
    "subspaces": subspaces_suite,
    "weights": weights_suite,
    "gauss": gauss_suite,
    "charsum": charsum_suite,
    "closed_forms": closed_forms_suite,
}


# The keyword arguments of run_suites that each suite takes.
_SUITE_ARGS = {
    "gf": (),
    "codes": (),
    "subspaces": ("seed",),
    "weights": ("seed", "workers"),
    "gauss": ("seed",),
    "charsum": ("seed", "samples"),
    "closed_forms": ("workers",),
}


def run_suites(names: Optional[Iterable[str]] = None, seed: int = 2024,
               samples: int = 100, workers: int = 1) -> list[SuiteResult]:
    given = {"seed": seed, "samples": samples, "workers": workers}
    out = []
    for name in list(names) if names else list(SUITES):
        if name not in SUITES:
            raise KeyError(name)
        out.append(SUITES[name](**{arg: given[arg] for arg in _SUITE_ARGS[name]}))
    return out
