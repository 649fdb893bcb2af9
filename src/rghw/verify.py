"""Cross-validation suites behind the `verify` command.

Each suite sweeps one layer of the package and returns a SuiteResult with
a check count and the list of failures (empty when everything holds).
The default instance grid keeps code dimension at 5 so every sweep is
exhaustive at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .charsum import (
    CharacterHandle,
    additive_character,
    charsum_zero_counts,
    gauss_sum,
    orthogonality_sum,
    unit_roots,
)
from .closed_forms import detect_family, evaluate_closed_form
from .codes import CodeSpec, build_code, codewords, parity_check_polynomial
from .errors import CapExceeded
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
from .linalg import table_ops
from .subspaces import (
    dual_stack,
    gaussian_binomial,
    project_stack,
    rref_stack,
    stack_dims,
    stack_rows,
)
from .weights import (
    DEFAULT_ENUM_CAP,
    check_floors,
    ghw_bruteforce,
    mj_dual_count,
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

    def check(self, ok: bool, message: Callable[[], str]) -> None:
        """Count one check; message() is built only when the check fails."""
        self.checks += 1
        if not ok:
            self.failures.append(message())

    def check_all(self, ok, message: Callable[[int], str]) -> None:
        """Count one check per entry of the boolean array ok; message(t) is
        built only for each failing t, in order."""
        ok = np.asarray(ok, dtype=bool)
        self.checks += ok.size
        self.failures.extend(message(t) for t in np.flatnonzero(~ok).tolist())

    def check_residuals(self, diffs, tol: float, message: Callable[[int], str]) -> None:
        """Check each diff < tol and keep the largest diff in notes["max_residual"]."""
        diffs = np.asarray(diffs, dtype=float)
        if diffs.size:
            self.notes["max_residual"] = max(self.notes.get("max_residual", 0.0),
                                             float(diffs.max()))
        self.check_all(diffs < tol, message)

    def check_residual(self, diff: float, tol: float, message: Callable[[], str]) -> None:
        """check_residuals on the one diff."""
        self.check_residuals([diff], tol, lambda _: message())

    def as_dict(self) -> dict:
        return {
            "suite": self.name,
            "passed": self.passed,
            "checks": self.checks,
            "failures": self.failures[:20],
            "notes": self.notes,
        }


def _draw_blocks(rng: np.random.Generator, q: int, nrows, width: int, ambient_dim: int):
    """Yield random draws over GF(q) in blocks of up to DRAW_BLOCK as
    zero-padded (draws x width x ambient_dim) stacks: draw i has nrows[i]
    random rows, then zero rows (which leave its row space unchanged).

    A block's rows come from one rng.integers call, in the same stream as
    one call per draw: for int64 output numpy draws each bounded value from
    the generator's 32-bit stream, which carries over between calls."""
    nrows = np.asarray(nrows)
    for start in range(0, len(nrows), DRAW_BLOCK):
        yield _draw_block(rng, q, nrows[start:start + DRAW_BLOCK], width, ambient_dim)


def _draw_block(rng: np.random.Generator, q: int, counts: np.ndarray, width: int,
                ambient_dim: int) -> np.ndarray:
    """One block of _draw_blocks: draw i has counts[i] random rows."""
    block = np.zeros((len(counts), width, ambient_dim), dtype=np.int16)
    block[np.arange(width) < counts[:, None]] = rng.integers(
        0, q, size=(counts.sum(), ambient_dim))
    return block


def _distinct(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, back) for a (B, r, c) stack: the position of the first copy of
    each distinct matrix, in draw order, and for each matrix its entry of
    first, so that stack[first][back] equals stack."""
    _, index, inverse = np.unique(_row_keys(stack.reshape(len(stack), -1)),
                                  return_index=True, return_inverse=True)
    order = np.argsort(index)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return index[order], rank[inverse]


def _row_keys(mat: np.ndarray) -> np.ndarray:
    """One void scalar per row of a 2-D array, equal exactly when the rows
    are, so that one sort of the keys (np.unique) finds the distinct rows;
    np.unique(axis=0) on the rows themselves is many times slower."""
    mat = np.ascontiguousarray(mat)
    if not mat.shape[1]:  # rows of no entries are all equal
        return np.zeros(len(mat), dtype=np.dtype((np.void, 1)))
    return mat.view(np.dtype((np.void, mat.itemsize * mat.shape[1])))[:, 0]


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
            lambda: f"GF({size}): exp table is not a group homomorphism",
        )
        res.check(
            all(f.log_table[f.exp_table[i]] == i for i in range(f.order)),
            lambda: f"GF({size}): log/exp are not inverse",
        )
        # exp/log multiplication (the mul table is exp of summed logs)
        # distributes over digitwise addition, on all pairs (a, b) and a
        # sample of c at once
        mul = table_ops(f).mul_table
        a, b = np.arange(size)[:, None], np.arange(size)
        c = np.arange(1, size, max(1, size // 7))[:, None, None]
        res.check(
            (mul[c, f.add(a, b)] == f.add(mul[c, a], mul[c, b])).all(),
            lambda: f"GF({size}): multiplication does not distribute over addition",
        )
        base = build_field(p, 1)
        emb = embed_subfield(base, f)
        tr = trace_table(f, base).tolist()
        zeros = tr.count(0)
        res.check(
            zeros == size // p, lambda: f"GF({size}): trace-zero count {zeros} != {size // p}"
        )
        # linearity and Frobenius invariance of the trace, exhaustive on pairs
        sample = range(0, size, max(1, size // 9))
        ok_lin = all(
            tr[f.add(a, b)] == base.add(tr[a], tr[b]) for a in range(size) for b in sample
        )
        res.check(ok_lin, lambda: f"GF({size}): trace is not additive")
        ok_frob = all(tr[f.pow(a, p)] == tr[a] for a in range(size))
        res.check(ok_frob, lambda: f"GF({size}): trace is not Frobenius invariant")
        ok_scale = all(
            tr[f.mul(emb.apply_code(c), a)] == base.mul(c, tr[a])
            for c in range(p)
            for a in sample
        )
        res.check(ok_scale, lambda: f"GF({size}): trace is not base-linear")
    # minimal polynomials: root, degree = orbit size, irreducibility by the
    # conjugate-product construction itself
    f16 = build_field(2, 4)
    f2 = build_field(2, 1)
    for a in range(1, f16.size):
        mp = minimal_polynomial(f16, a, f2)
        res.check(mp.evaluate(f16, a) == 0,
                  lambda: f"minpoly of code {a} does not kill its root")
        res.check(4 % mp.degree == 0, lambda: f"minpoly of code {a} has degree {mp.degree}")
    f8, f9 = build_field(2, 3), build_field(3, 2)
    res.check(element_order(f8, f8.exp_table[1]) == 7, lambda: "GF(8)* generator order")
    res.check(element_order(f9, f9.exp_table[2]) == 4, lambda: "order of g^2 in GF(9)")
    return res


# -- codes --------------------------------------------------------------------


def _all_codewords(spec: CodeSpec) -> np.ndarray:
    """(Q1 Q2, n): the codeword of (b1, b2) in row b1 Q2 + b2."""
    return codewords(spec, np.arange(spec.Q1)[:, None], np.arange(spec.Q2))


def _subcode_words(spec: CodeSpec) -> np.ndarray:
    """(Q2 - 1, n): the words tr2(b2 a2^i), i < n, of C' for b2 = g2^s,
    from the second factor's exp, log and trace tables alone."""
    f2 = spec.factors[1]
    field = f2.field
    logs = (np.arange(field.order)[:, None]
            + field.log_table[f2.alpha] * np.arange(spec.n)) % field.order
    return trace_table(field, spec.field_q)[np.array(field.exp_table)[logs]].astype(np.int16)


def codes_suite(instances: Sequence[tuple] = DEFAULT_INSTANCES) -> SuiteResult:
    res = SuiteResult("codes")
    for params in instances:
        spec = build_code(*params)
        label = f"{params}"
        res.check(
            spec.Q1 - 1 == spec.e1 * spec.n1 and spec.Q2 - 1 == spec.e2 * spec.n2,
            lambda: f"{label}: index-order identity broken",
        )
        res.check(
            spec.n * spec.d == spec.n1 * spec.n2, lambda: f"{label}: length identity broken"
        )
        norms = {f.embed.preimage(f.field.pow(f.gamma, f.field.order // (spec.q - 1)))
                 for f in spec.factors}
        res.check(norms == {spec.delta}, lambda: f"{label}: delta compatibility broken")
        words = _all_codewords(spec)
        word_keys = np.unique(_row_keys(words))
        res.check(
            len(word_keys) == spec.Q1 * spec.Q2,
            lambda: f"{label}: codeword map is not injective",
        )
        # a shift permutes the distinct words exactly when it maps them into
        # themselves, since it is injective on words
        shifted_keys = np.unique(_row_keys(np.roll(words, -1, axis=1)))
        res.check(np.array_equal(shifted_keys, word_keys),
                  lambda: f"{label}: cyclic shift closure fails")
        res.check(np.isin(_row_keys(_subcode_words(spec)), word_keys).all(),
                  lambda: f"{label}: C' not contained in C")
        table = words.reshape(spec.Q1, spec.Q2, spec.n)
        res.check(np.array_equal(table[0], np.roll(table[0], -spec.n2, axis=1)),
                  lambda: f"{label}: subcode words not n2-periodic")
        h = parity_check_polynomial(spec)
        res.check(
            h.degree == spec.k1 + spec.k2, lambda: f"{label}: parity-check degree wrong"
        )
        recur = _recurrence_annihilates(spec, h, words)
        res.check(recur, lambda: f"{label}: parity-check recurrence fails on some word")
        # repetition structure of one-sided words
        one_sided = table[:, 0]
        res.check(np.array_equal(one_sided, np.roll(one_sided, -spec.n1, axis=1)),
                  lambda: f"{label}: one-sided words not n1-periodic")
    return res


def _recurrence_annihilates(spec: CodeSpec, h, words: np.ndarray) -> bool:
    """Apply the reversed-coefficient recurrence cyclically to every row of
    the (B, n) words: sum_t h_(k-t) w_(i+t) = 0 for every position i, as
    k+1 shifted copies of the word matrix scaled and added through the
    field tables."""
    ops = spec.ops
    k = h.degree
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
                stack = rref_stack(k, j, q)
                count = len(stack)
                distinct = len(np.unique(_row_keys(stack.reshape(count, -1))))
                expected = gaussian_binomial(k, j, q)
                res.check(
                    count == distinct == expected,
                    lambda: f"q={q} k={k} j={j}: enumeration count {count}"
                            f" ({distinct} distinct) != {expected}",
                )
    # duality round-trips on seeded random subspaces of the product ambients;
    # each distinct subspace of a draw block is dualized once, each draw checked
    specs = [build_code(*params) for params in instances]
    rng = np.random.default_rng([seed, 1])
    per_spec = max(1, roundtrips // len(specs))
    for spec in specs:
        K = spec.ambient_dim
        # a row count in 0..K for every draw, then the draws' rows
        nrows = rng.integers(0, K + 1, size=per_spec)
        for block in _draw_blocks(rng, spec.q, nrows, K, K):
            stack = spec.ops.rref_many(block)
            first, back = _distinct(stack)
            dual = dual_stack(stack[first], spec)
            dims = stack_dims(stack)
            dual_dims = stack_dims(dual)[back]
            same = (dual_stack(dual, spec)[back] == stack).all(axis=(1, 2))
            res.check_all(
                np.stack([dual_dims == K - dims, same], 1).ravel(),
                lambda t: (f"{spec}: dual dimension {dual_dims[t // 2]} != {K - dims[t // 2]}"
                           if t % 2 == 0 else f"{spec}: double dual differs from H"),
            )
    # projection rank-nullity and the three intersection characterizations
    spec = specs[0]
    K, k1, k2 = spec.ambient_dim, spec.k1, spec.k2
    eye2 = np.eye(k2, K, k1, dtype=np.int16)  # a basis of C', the second factor
    padded = np.concatenate([np.pad(rref_stack(K, j, spec.q), ((0, 0), (0, K - j), (0, 0)))
                             for j in range(K + 1)])
    image1, kernel1 = project_stack(padded, spec, 1)
    image2_dual, _ = project_stack(dual_stack(padded, spec), spec, 2)
    with_subcode = spec.ops.rref_many(np.concatenate(
        [padded, np.broadcast_to(eye2, (len(padded), k2, K))], axis=1))
    dims, image1_dim, kernel1_dim, image2_dual_dim, rank = (
        stack_dims(s) for s in (padded, image1, kernel1, image2_dual, with_subcode))
    p_a = dims + k2 - rank == 0  # the intersection with C' is zero
    p_b = kernel1_dim == 0
    p_c = image2_dual_dim == k2

    def message(t):  # the basis a failure message names
        what = ("projection rank-nullity fails" if t % 2 == 0
                else "intersection predicates disagree")
        return f"j={dims[t // 2]}: {what} for {stack_rows(padded[t // 2:t // 2 + 1])[0]}"

    res.check_all(np.stack([image1_dim + kernel1_dim == dims,
                            (p_a == p_b) & (p_b == p_c)], 1).ravel(), message)
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
                lambda: f"{label} j={j}: bruteforce {brute} != dual count {dual.m}",
            )
            # the argmax's j-dimensional dual vanishes on exactly N_j coordinates
            res.check(
                dual.n_j == zero_counts(spec, dual_stack(dual.argmax[None], spec))[0],
                lambda: f"{label} j={j}: argmax does not reproduce N_j",
            )
            ghw = ghw_bruteforce(spec, j, workers=workers)
            res.check(
                ghw <= brute, lambda: f"{label} j={j}: GHW {ghw} exceeds RGHW {brute}"
            )
            if previous is not None:
                res.check(
                    previous < brute,
                    lambda: f"{label} j={j}: weights not strictly increasing",
                )
            previous = brute
        # proof-chain identity on random subspaces (zero_counts itself
        # checks that the two counting routes agree)
        nrows = rng.integers(0, spec.k1 + 1, size=25)
        for block in _draw_blocks(rng, spec.q, nrows, spec.k1, spec.ambient_dim):
            values = zero_counts(spec, spec.ops.rref_many(block))
            res.check_all((0 <= values) & (values <= spec.n),
                          lambda t: f"{label}: zero count {values[t]} out of range")
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
            res.check_residual(diff, GAUSS_TOL,
                               lambda: f"GF({size}): twist identity residual {diff}")
            moduli = np.abs(table[1:, 0])
            mdiff = float(np.abs(moduli - math.sqrt(size)).max())
            res.check_residual(mdiff, GAUSS_TOL,
                               lambda: f"GF({size}): |G| deviates from sqrt(q) by {mdiff}")
        complete = w.sum(axis=1)
        res.check(
            complete[0] == complex(order),
            lambda: f"GF({size}): complete trivial sum not exactly q-1",
        )
        if order > 1:
            cdiff = float(np.abs(complete[1:]).max())
            res.check_residual(cdiff, GAUSS_TOL,
                               lambda: f"GF({size}): nontrivial complete sum residual {cdiff}")
        res.check(
            gauss_sum(CharacterHandle(field, 1, 0), 0) == complex(order),
            lambda: f"GF({size}): scalar trivial Gauss sum at beta=0 not exact",
        )
        # scalar op agrees with the vectorized table on random entries
        for _ in range(min(8, order)):
            lam = int(rng.integers(0, order))
            b = int(rng.integers(0, order))
            chi = CharacterHandle(field, order, lam)
            val = gauss_sum(chi, field.exp_table[b])
            res.check(
                abs(val - table[lam, b]) < 1e-10,
                lambda: f"GF({size}): scalar/table Gauss sums differ at ({lam},{b})",
            )
        # orthogonality relations for every divisor of the group order
        for e in _divisors(order):
            sums = unit_roots(e)[
                np.outer(np.arange(e), t) % e
            ].sum(axis=0)
            target = np.where(t % e == 0, float(e), 0.0)
            odiff = float(np.abs(sums - target).max())
            res.check_residual(odiff, GAUSS_TOL,
                               lambda: f"GF({size}) e={e}: orthogonality residual {odiff}")
        # scalar orthogonality op on a few points, largest two divisors
        for e in _divisors(order)[-2:]:
            alpha = field.exp_table[e % order]
            for _ in range(3):
                x_log = int(rng.integers(0, order))
                val = orthogonality_sum(field, field.exp_table[x_log], alpha, e)
                want = e if x_log % e == 0 else 0
                res.check(
                    abs(val - want) < GAUSS_TOL,
                    lambda: f"GF({size}): scalar orthogonality at e={e} off",
                )
    return res


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _check_samples(samples: int) -> None:
    if samples > DEFAULT_ENUM_CAP:
        raise CapExceeded(f"{samples} samples exceed the cap {DEFAULT_ENUM_CAP}")


def charsum_suite(seed: int = 2024, samples: int = 100,
                  instances: Sequence[tuple] = DEFAULT_INSTANCES) -> SuiteResult:
    _check_samples(samples)
    res = SuiteResult("charsum")
    specs = [(params, build_code(*params)) for params in instances]
    usable = [(params, spec) for params, spec in specs if spec.d == 1]
    for params, spec in usable:
        rng = np.random.default_rng([seed, 4, *params])
        # draw i has 1 + i % k1 rows; the counts are built a block at a time,
        # so memory does not grow with samples, and each distinct subspace
        # of a block is scored once
        for start in range(0, samples, DRAW_BLOCK):
            nrows = 1 + np.arange(start, min(start + DRAW_BLOCK, samples)) % spec.k1
            block = _draw_block(rng, spec.q, nrows, spec.k1, spec.ambient_dim)
            stack = spec.ops.rref_many(block)
            first, back = _distinct(stack)
            fresh = stack[first]
            targets = zero_counts(spec, fresh)
            diffs = np.abs(charsum_zero_counts(spec, fresh) - targets)[back]
            res.check_residuals(
                diffs, ORACLE_TOL,
                lambda t: f"{params}: oracle residual {float(diffs[t])}"
                          f" at subspace {stack_rows(stack[t:t + 1])[0]}")
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
        res.check(structural, lambda: f"{params}: not structural")
        if not structural:
            continue
        spec = build_code(*params)
        for j in range(1, k1 + 1):
            n_j, m_j = evaluate_closed_form(q, k1, k2, e1, e2, j)
            res.check(
                n_j > 0 and m_j > 0, lambda: f"{params} j={j}: nonpositive closed form"
            )
            brute = rghw_bruteforce(spec, j, workers=workers)
            dual = mj_dual_count(spec, j, workers=workers)
            res.check(
                m_j == brute == dual.m,
                lambda: f"{params} j={j}: closed form {m_j} vs brute {brute} vs dual {dual.m}",
            )
            res.check(
                n_j == dual.n_j,
                lambda: f"{params} j={j}: closed-form N {n_j} vs dual N {dual.n_j}",
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
    """Run the named suites, all by default, in order.  The sample, seed and
    worker floors (RangeError), the sample cap and every name are checked
    before any suite runs; an unknown name is a KeyError."""
    check_floors(samples=samples, seed=seed, workers=workers)
    given = {"seed": seed, "samples": samples, "workers": workers}
    names = list(names) if names else list(SUITES)
    if "charsum" in names:
        _check_samples(samples)
    for name in names:
        if name not in SUITES:
            raise KeyError(name)
    return [SUITES[name](**{arg: given[arg] for arg in _SUITE_ARGS[name]}) for name in names]
