"""Support-weight computation for the code pair (C, C').

Three routes are wired together here:

* rghw_bruteforce minimizes the support size over j-dimensional subspaces
  of the flattened pair space whose first projection is injective (those
  are exactly the subspaces of C meeting C' trivially).
* mj_dual_count takes, over (k1+k2-j)-dimensional subspaces whose second
  projection is onto, the largest number of cyclic-group points inside;
  the weight is n minus that number, the least number of points outside,
  which is what the scan finds.
* the closed form (closed_forms module) covers structural specs.

Both scans walk subspaces by pivot set, so they partition cleanly across
worker processes with a deterministic merge.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

from .closed_forms import detect_family, evaluate_closed_form
from .codes import CodeSpec, build_code
from .errors import CapExceeded, HypothesisViolated, InvariantViolated, RangeError
from .subspaces import (
    check_stack_ambient,
    count_for_pivots,
    counter,
    cyclic_group_counts,
    digits,
    dual_stack,
    free_positions,
    pivot_sets,
    stack_rows,
)

DEFAULT_ENUM_CAP = 10**8
# Bound on the mask tables a scan holds at once (rows of ceil(n/64) 64-bit
# words, 8 ceil(n/64) bytes): its one table, or with a W-worker pool the W
# largest chunk tables.
TABLE_CAP_BYTES = 1 << 26
# A batch scores at most BATCH subspaces and ORs at most BATCH_BYTES of
# masks (subspaces times row bytes); a mask-table slice holds about
# SLICE_BYTES of field values.  Each sizes one numpy call: large enough that
# the per-call overhead stays small against the work, small enough that the
# temporaries stay in the CPU cache.  BATCH also bounds the per-subspace
# index arrays, which outweigh the masks of short codes.
BATCH = 2048
BATCH_BYTES = 512 << 10
SLICE_BYTES = 100 << 10


def subspace_support_size(spec: CodeSpec, basis: np.ndarray) -> int:
    """|Supp| of the codeword space spanned by an (r, K) basis of a
    product-space subspace."""
    check_stack_ambient(basis[None], spec.q, spec.ambient_dim)
    return int(spec.ops.matmul(basis, spec.coordinate_functionals.T).any(axis=0).sum())


def zero_counts(spec: CodeSpec, stack: np.ndarray) -> np.ndarray:
    """Number of coordinates at which each subspace of a (B, r, K) stack of
    zero-padded RREF bases vanishes as a whole.

    Computed two independent ways (n - |Supp| and the cyclic-group count
    inside the dual) and cross-checked on every subspace; the first
    mismatch in stack order raises.
    """
    via_dual = cyclic_group_counts(dual_stack(stack, spec), spec)
    support = spec.ops.matmul(stack, spec.coordinate_functionals.T).any(axis=1).sum(axis=1)
    direct = spec.n - support
    bad = np.flatnonzero(direct != via_dual)
    if len(bad):
        b = bad[0]
        raise InvariantViolated(
            f"zero-coordinate count mismatch: {direct[b]} != {via_dual[b]}"
            f" for {stack_rows(stack[b:b + 1])[0]}"
        )
    return direct


# -- pivot-set scan kernel ---------------------------------------------------
#
# A scan walks RREF bases pivot set by pivot set.  Admissibility is decided
# by the pivot set alone, so rejected subspaces are never generated.  Within
# a pivot set with P free entries the t-th basis in enumeration order has
# the last P base-q digits of t (most significant first) as its free
# entries in row-major order; each basis is scored by OR-ing rows of one
# table of n-bit masks in 64-bit words (_MaskTable), counting bits and
# keeping the first strict minimum.  Every mode minimizes: the support
# scans count the support, the dual scan the group points outside H, n
# minus the points inside.  The table is a stack of blocks keyed by
# (columns, lead), each built once per chunk however many pivot sets use
# it, and a plan (weights, bases) says which rows: column k of
# digits @ weights + bases[t // q^P] is the row of the k-th mask.
#
# Both halves of the kernel are linear in the digits, so neither does
# arithmetic per row.  A block's values split as
# a @ funcs[cols] = high digits @ funcs[high] + low digits @ funcs[low]:
# the q^s values of the low term are built once per block, a column at a
# time (q scaled copies added to the rows so far), and each run of q^s
# rows is one sum of the high term added to them.  The row indices split
# the same way, as L[low digits of t] + H[high digits of t] + bases[b]: a
# batch is a few runs of q^s consecutive t, and only the winning t is
# turned back into digits.  The ORs split too (_first_minimum): a mask that
# only the high digits choose is ORed once per run, one that only the low
# digits choose once per pivot set, and only a mask that both choose is
# gathered per subspace.  In the support scans each row's free entries are
# consecutive digits, so at most one row, the one straddling the split, is
# gathered; in the dual scan most columns are.
#
# The bruteforce scan is anchored.  The shift (b1, b2) -> (a1 b1, a2 b2)
# shifts every codeword cyclically, so it keeps supports and
# admissibility, and every admissible D is a shift of one that contains an
# orbit representative r (orbit_representatives).  Since r_0 = 1, such a D
# is span(r) + D' with D' = D meet {x_0 = 0}, and D is admissible exactly
# when D' has every pivot in 1..k1-1.  So the scan walks D' on dim-1 rows,
# once per r: each row of bases also looks up the mask of one r.  That is
# |R| [k1-1, j-1]_q q^((j-1) k2) subspaces against [k1, j]_q q^(j k2) for
# the full scan; where the anchored count is the larger (|R| > q^k2 at
# j = k1), the bruteforce scan is not anchored.


def orbit_representatives(spec: CodeSpec) -> np.ndarray:
    """One vector of F_q^K per orbit of {(b1, b2) : b1 != 0} under the shift
    and GF(q)*, each with coordinate 0 equal to 1: shape (orbits, K).

    a1 and GF(q)* generate a subgroup of index m1 of GF(Q1)*.  The shifts
    that fix b1 up to a scalar, a1^t in GF(q)*, act on b2 through
    H2 = <a2^t0 a1^-t0>, of index m2 in GF(Q2)*.  So the pairs (g1^i, 0)
    and (g1^i, g2^k), i < m1, k < m2, lie in distinct orbits and meet every
    one; each is shifted until coordinate 0 is nonzero, then rescaled.
    """
    f1, f2 = spec.factors
    F1, F2 = f1.field, f2.field
    step = F1.order // (spec.q - 1)  # GF(q)* = <g1^step>
    m1 = math.gcd(F1.log_table[f1.alpha], step)
    t0 = step // m1  # least t > 0 with a1^t in GF(q)*
    scalar = f1.embed.preimage(F1.pow(f1.alpha, -t0))
    h2 = F2.mul(F2.pow(f2.alpha, t0), f2.embed.apply_code(scalar))
    m2 = math.gcd(F2.log_table[h2], F2.order)
    rows = []
    for b1 in F1.exp_table[:m1]:
        for b2 in [0, *F2.exp_table[:m2]]:
            c1, c2 = b1, b2
            # a1 generates GF(Q1), so the shifts of b1 leave {x_0 = 0}
            while f1.decompose[c1, 0] == 0:
                c1, c2 = F1.mul(c1, f1.alpha), F2.mul(c2, f2.alpha)
            scale = spec.field_q.inv(int(f1.decompose[c1, 0]))
            rows.append(f1.decompose[F1.mul(c1, f1.embed.apply_code(scale))].tolist()
                        + f2.decompose[F2.mul(c2, f2.embed.apply_code(scale))].tolist())
    return np.array(rows, dtype=np.int16)


def _column_order(k1: int, k2: int, mode: str) -> list[int]:
    """Original column of each working column: the dual scan puts the
    second factor first, so that its admissibility is a pivot condition."""
    if mode == "max_group":
        return list(range(k1, k1 + k2)) + list(range(k1))
    return list(range(k1 + k2))


def admissible_pivot_sets(k1: int, k2: int, dim: int, mode: str
                          ) -> list[tuple[int, ...]]:
    """Pivot sets (working column order) of the admissible subspaces.

    min_support: first projection injective <=> every pivot < k1.
    max_group: second projection onto <=> pivots include 0..k2-1.
    min_support_all: every pivot set.
    """
    if mode == "min_support":
        return pivot_sets(k1, dim)
    if mode == "max_group":
        head = tuple(range(k2))
        return [head + tuple(k2 + p for p in rest)
                for rest in pivot_sets(k1, dim - k2)] if dim >= k2 else []
    return pivot_sets(k1 + k2, dim)


def _low_width(width: int, q: int, rows: int) -> int:
    """How many low digits of a width-digit base-q counter one run covers:
    the most whose q^s values fit in rows, but at least one digit."""
    s = min(width, 1)
    while s < width and q ** (s + 1) <= rows:
        s += 1
    return s


def _sums(base: np.ndarray, scaled: list, add):
    """base + sum_i scaled[i][d_i] for every digit string d, in counting
    order (first digit most significant); scaled[i][d] is d times the i-th
    vector, and add adds vectors of field codes."""
    if not scaled:
        yield base
        return
    head, rest = scaled[0], scaled[1:]
    yield from _sums(base, rest, add)
    for row in head[1:]:
        yield from _sums(add(base, row), rest, add)


def _block_keys(pivots, K: int, mode: str) -> list[tuple[tuple[int, ...], int]]:
    """The (columns, lead) key of each block whose masks a subspace with
    these pivots ORs: one per row (its pivot leads, the later columns vary)
    for the support scans, one per non-pivot column (it leads, the pivots
    below it vary) for the dual scan."""
    if mode == "max_group":
        return [(tuple(p for p in pivots if p < c), c) for c in range(K) if c not in pivots]
    return [(tuple(range(p + 1, K)), p) for p in pivots]


def _block_starts(spec: CodeSpec, mode: str, sets, anchors: Optional[np.ndarray]
                  ) -> tuple[dict, int]:
    """First table row of every distinct block the pivot sets use, in order
    of first use, and the table's row count: the blocks, then one row per
    anchor."""
    starts: dict = {}
    rows = 0
    for ps in sets:
        for key in _block_keys(ps, spec.ambient_dim, mode):
            if key not in starts:
                starts[key] = rows
                rows += spec.q ** len(key[0])
    return starts, rows + (0 if anchors is None else len(anchors))


def _table_bytes(spec: CodeSpec, layout: tuple[dict, int]) -> int:
    """Bytes of the mask table a _block_starts layout allocates: rows of
    ceil(n/64) 64-bit words."""
    return layout[1] * 8 * -(-spec.n // 64)


class _MaskTable:
    """n-bit masks of a scan in 64-bit words, one block per (columns, lead)
    key: each row holds packbits of the mask in its first ceil(n/8) bytes
    and zeros after them, so the padding adds no bits to a count.

    Row a of block (cols, lead) is the mask (a @ funcs[cols]) != target[lead]
    for the a-th base-q assignment of cols (first column most significant).
    The support scans take funcs = F, the coordinate functionals, and
    target = -F: the support of a row with pivot p.  The dual scan takes
    funcs = target = G, the group vectors in working column order: the
    group points g with g_c != sum_r a_(r,c) g_(p_r), which lie outside the
    row space.  An anchored table ends with the support of each anchor.
    layout is the _block_starts of the pivot sets the scan visits.

    A block is built by linearity, as a @ funcs[cols] - target[lead] != 0.
    The low s columns give the q^s value rows of about SLICE_BYTES, and
    each run of q^s table rows adds one sum over the high columns to them.
    """

    def __init__(self, spec: CodeSpec, mode: str, anchors: Optional[np.ndarray],
                 layout: tuple[dict, int]):
        self.spec, self.mode = spec, mode
        self.starts, rows = layout
        q, n = spec.q, spec.n
        self.masks = np.zeros((rows, -(-n // 64)), dtype=np.uint64)
        packed = self.masks.view(np.uint8)[:, :-(-n // 8)]
        self.anchor_rows: Optional[range] = None
        if anchors is not None:
            self.anchor_rows = range(rows - len(anchors), rows)
            packed[self.anchor_rows.start:] = np.packbits(
                spec.ops.matmul(anchors, spec.coordinate_functionals.T) != 0, axis=1)
        mul, add = spec.ops.mul_table, spec.field_q.add
        if mode == "max_group":
            funcs = spec.group_vectors[:, _column_order(spec.k1, spec.k2, mode)].T
            offsets = mul[spec.field_q.neg(1)][funcs]
        else:
            funcs = offsets = spec.coordinate_functionals.T
        # offsets = -target; scaled[d, c] = d * funcs[c], each row contiguous
        scaled = np.ascontiguousarray(mul[:, funcs])
        for (cols, lead), start in self.starts.items():
            split = len(cols) - _low_width(len(cols), q, SLICE_BYTES // (2 * n))
            low = np.zeros((1, n), dtype=np.int16)
            for c in reversed(cols[split:]):
                low = add(scaled[:, c, None], low).reshape(-1, n)
            high = [scaled[:, c] for c in cols[:split]]
            for h, base in enumerate(_sums(offsets[lead], high, add)):
                packed[start + h * len(low): start + (h + 1) * len(low)] = np.packbits(
                    add(base, low) != 0, axis=1)

    def plan(self, pivots, positions) -> tuple[np.ndarray, np.ndarray]:
        """(weights, bases): column k of digits @ weights + bases[t // q^P]
        is the table row of the k-th mask the t-th basis ORs.  Free entry
        (r, c) is digit c - p_r - 1 of row r's block, or digit r of column
        c's block in the dual scan.  An anchored table adds a first column,
        with no free entries, that looks up one anchor per base."""
        K, q = self.spec.ambient_dim, self.spec.q
        keys = _block_keys(pivots, K, self.mode)
        if self.mode == "max_group":
            column = {c: k for k, (_, c) in enumerate(keys)}
            slots = [(column[c], r) for r, c in positions]
        else:
            slots = [(r, c - pivots[r] - 1) for r, c in positions]
        lead = int(self.anchor_rows is not None)
        weights = np.zeros((len(positions), lead + len(keys)), dtype=np.int64)
        for i, (k, d) in enumerate(slots):
            weights[i, lead + k] = q ** (len(keys[k][0]) - 1 - d)
        starts = [self.starts[key] for key in keys]
        heads = [[a] for a in self.anchor_rows] if lead else [[]]
        return weights, np.array([head + starts for head in heads], dtype=np.int64)


def _or_rows(masks: np.ndarray, index: np.ndarray) -> np.ndarray:
    """OR over the columns k of index (at least one) of masks[index[:, k]]:
    one mask per row of index."""
    acc = masks.take(index[:, 0], axis=0)
    for k in range(1, index.shape[1]):
        acc |= masks.take(index[:, k], axis=0)
    return acc


def _first_minimum(table: _MaskTable, pivots, positions) -> tuple[int, int]:
    """Least count over the subspaces of one pivot set, and the first t in
    enumeration order attaining it.

    The k-th mask of t = h * run + l is row heads[h, k] + low[l, k].  A
    column whose low part is zero (a row with no free entry among the low
    digits, or an anchor) is ORed once per head, in the batch that uses the
    head; one whose head part is the same for every head (a row whose free
    entries are all low digits) once per pivot set.  Each subspace then
    costs one OR of the two and one bit count, plus one gather for each
    column that varies with both, such as a row that straddles the split.
    The order of t is the enumeration order, so the first minimum is the
    one a plain OR of every mask finds.
    """
    q, masks = table.spec.q, table.masks
    weights, bases = table.plan(pivots, positions)
    batch = max(1, min(BATCH, BATCH_BYTES // (8 * masks.shape[1])))
    split = len(positions) - _low_width(len(positions), q, batch)
    run = q ** (len(positions) - split)
    low = counter(len(positions) - split, q) @ weights[split:]
    heads = bases
    if split:
        high = digits(np.arange(q ** split), split, q) @ weights[:split]
        heads = (bases[:, None] + high).reshape(-1, weights.shape[1])
    by_low = (low != 0).any(axis=0)
    by_head = (heads != heads[0]).any(axis=0)
    shared = by_low & ~by_head
    low_or = None
    if shared.any():
        low_or = _or_rows(masks, heads[0, shared] + low[:, shared])
    fixed = heads[:, ~by_low]
    straddle = [(heads[:, k, None], low[:, k])
                for k in np.flatnonzero(by_low & by_head)]
    # a matrix-vector product sums the per-word bit counts far faster than a
    # reduction over the short word axis; every partial sum is an integer of
    # at most n, so float32 is exact while n < 2^24
    exact = np.float32 if table.spec.n < 1 << 24 else np.float64
    ones = np.ones(masks.shape[1], dtype=exact)
    step = max(1, batch // run)
    best: Optional[tuple[int, int]] = None
    for r in range(0, len(heads), step):
        acc = None
        if fixed.shape[1]:
            acc = _or_rows(masks, fixed[r:r + step])[:, None]
        if low_or is not None:
            acc = low_or if acc is None else acc | low_or
        for h, l in straddle:
            rows = masks.take(h[r:r + step] + l, axis=0)
            acc = rows if acc is None else np.bitwise_or(rows, acc, out=rows)
        values = (np.bitwise_count(acc) @ ones).ravel()
        i = int(values.argmin())
        if best is None or values[i] < best[0]:
            best = (int(values[i]), r * run + i)
    return best


def _scan_chunk(spec: CodeSpec, mode: str, chunk, anchors: Optional[np.ndarray],
                layout: tuple[dict, int]) -> tuple[Optional[int], Optional[np.ndarray]]:
    """Least count over the subspaces of the given pivot sets, and a basis
    (working column order) of the first subspace attaining it.

    Every mode ORs the masks the table plan names, counts bits and keeps
    the first strict minimum.  "min_support" counts the support of
    injective-first-projection subspaces, "min_support_all" of every
    subspace (plain GHW), and "max_group" the group points outside an
    onto-second-projection subspace, whose first minimizer is the first
    subspace with the most points inside.  With anchors, each subspace is
    the span of one anchor and of a basis with the given pivots.  The
    layout is the chunk's _block_starts, computed once by the caller.
    """
    K, q = spec.ambient_dim, spec.q
    table = _MaskTable(spec, mode, anchors, layout)
    best: Optional[tuple] = None  # (value, pivots, positions, t)
    for pivots in chunk:
        positions = free_positions(pivots, K)
        val, t = _first_minimum(table, pivots, positions)
        if best is None or val < best[0]:
            best = (val, pivots, positions, t)
    if best is None:
        return None, None
    val, pivots, positions, t = best
    per = q ** len(positions)
    rows = np.zeros((len(pivots), K), dtype=np.int16)
    rows[range(len(pivots)), pivots] = 1
    for (r, c), v in zip(positions, digits(np.array([t % per]), len(positions), q)[0]):
        rows[r, c] = v
    if anchors is not None:
        rows = np.vstack([anchors[t // per], rows])
    return val, rows


def _pool_chunk(args) -> tuple[Optional[int], Optional[np.ndarray]]:
    """_scan_chunk inside a pool worker, which rebuilds the spec."""
    params, mode, chunk, anchors, layout = args
    return _scan_chunk(build_code(*params), mode, chunk, anchors, layout)


def _chunks(sets, work: Sequence[int], nchunks: int) -> list[list]:
    """Consecutive runs of sets of about total/nchunks work each, in
    enumeration order; a set goes to the run its preceding work falls in."""
    total, done = sum(work), 0
    runs: dict[int, list] = {}
    for ps, w in zip(sets, work):
        runs.setdefault(done * nchunks // total, []).append(ps)
        done += w
    return list(runs.values())


def _scan(spec: CodeSpec, dim: int, mode: str, cap: int, workers: int
          ) -> tuple[int, np.ndarray]:
    """Best value of a scan and a spanning set (working column order) of
    the first subspace attaining it."""
    if workers < 1:
        raise RangeError(f"workers={workers} must be at least 1")
    K = spec.ambient_dim
    anchors = None
    sets = admissible_pivot_sets(spec.k1, spec.k2, dim, mode)
    work = [count_for_pivots(ps, K, spec.q) for ps in sets]
    if mode == "min_support":
        reps = orbit_representatives(spec)
        through = [ps for ps in admissible_pivot_sets(spec.k1, spec.k2, dim - 1, mode)
                   if 0 not in ps]
        anchored = [len(reps) * count_for_pivots(ps, K, spec.q) for ps in through]
        if sum(anchored) <= sum(work):
            anchors, sets, work = reps, through, anchored
    total = sum(work)
    if total > cap:
        raise CapExceeded(
            f"{total} admissible subspaces of dimension {dim} exceed the cap {cap}"
        )
    workers = min(workers, os.cpu_count() or 1)  # the pool starts them all at once
    chunks = _chunks(sets, work, workers * 4) if workers > 1 and sets else [sets]
    # each chunk builds its own table, and each of the workers holds one
    layouts = [_block_starts(spec, mode, c, anchors) for c in chunks]
    sizes = sorted((_table_bytes(spec, layout) for layout in layouts), reverse=True)
    table_bytes = sum(sizes[:workers])
    if table_bytes > TABLE_CAP_BYTES:
        raise CapExceeded(
            f"mask tables of {table_bytes} bytes exceed the bound {TABLE_CAP_BYTES}"
        )
    if len(chunks) <= 1:
        results = [_scan_chunk(spec, mode, sets, anchors, layouts[0])]
    else:
        params = (spec.q, spec.k1, spec.k2, spec.e1, spec.e2)
        tasks = [(params, mode, chunk, anchors, layout)
                 for chunk, layout in zip(chunks, layouts)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_pool_chunk, tasks))
    best_val: Optional[int] = None
    best_rows: Optional[np.ndarray] = None
    for val, rows in results:  # chunk order = enumeration order
        if val is None:
            continue
        if best_val is None or val < best_val:
            best_val, best_rows = val, rows
    if best_val is None:
        raise RangeError(f"no qualifying subspace of dimension {dim}")
    return best_val, best_rows


# -- public routes ----------------------------------------------------------


def rghw_bruteforce(spec: CodeSpec, j: int, cap: int = DEFAULT_ENUM_CAP,
                    workers: int = 1) -> int:
    """Definition-level minimum support over subspaces meeting C' trivially."""
    if not 1 <= j <= spec.k1:
        raise RangeError(f"j={j} outside 1..{spec.k1}")
    val, _ = _scan(spec, j, "min_support", cap, workers)
    return val


def ghw_bruteforce(spec: CodeSpec, j: int, cap: int = DEFAULT_ENUM_CAP,
                   workers: int = 1) -> int:
    """Plain generalized Hamming weight (no subcode restriction)."""
    if not 1 <= j <= spec.k1 + spec.k2:
        raise RangeError(f"j={j} outside 1..{spec.k1 + spec.k2}")
    val, _ = _scan(spec, j, "min_support_all", cap, workers)
    return val


@dataclass
class DualCountResult:
    m: int
    n_j: int
    argmax: np.ndarray


def mj_dual_count(spec: CodeSpec, j: int, cap: int = DEFAULT_ENUM_CAP,
                  workers: int = 1) -> DualCountResult:
    """Weight via the dual-side maximization: m = n - max |H meet group|.

    H ranges over (k1+k2-j)-dimensional subspaces of the pair space whose
    second projection covers GF(Q2).  The scan minimizes the group points
    outside H, n - |H meet group|, so m is that minimum; ties resolve to
    the first subspace with the most points inside, in enumeration order.
    """
    if not 1 <= j <= spec.k1:
        raise RangeError(f"j={j} outside 1..{spec.k1}")
    outside, rows = _scan(spec, spec.ambient_dim - j, "max_group", cap, workers)
    original = np.empty_like(rows)
    original[:, _column_order(spec.k1, spec.k2, "max_group")] = rows
    return DualCountResult(outside, spec.n - outside, spec.ops.rref(original)[0])


# -- per-j reports -----------------------------------------------------------


# Callers keep many reports (a table, a benchmark run), so the report
# classes use slots, hold the argmax basis as one array and keep the route
# outcomes in fields rather than in a dict per report.
@dataclass(slots=True)
class RouteOutcome:
    m: int
    millis: float
    n_j: Optional[int] = None
    argmax_rows: Optional[np.ndarray] = dc_field(default=None, compare=False)

    def as_dict(self, include_millis: bool = False) -> dict:
        out: dict = {"m": self.m}
        if self.n_j is not None:
            out["n_j"] = self.n_j
        if self.argmax_rows is not None:
            out["argmax"] = self.argmax_rows.tolist()
        if include_millis:
            out["millis"] = round(self.millis, 3)
        return out


# Each route maps (spec, j, cap, workers) to (m, n_j, argmax rows), or to
# None when it does not apply to the spec.


def _bruteforce_route(spec: CodeSpec, j: int, cap: int, workers: int):
    return rghw_bruteforce(spec, j, cap, workers), None, None


def _dual_count_route(spec: CodeSpec, j: int, cap: int, workers: int):
    res = mj_dual_count(spec, j, cap, workers)
    return res.m, res.n_j, res.argmax


def _closed_form_route(spec: CodeSpec, j: int, cap: int, workers: int):
    params = (spec.q, spec.k1, spec.k2, spec.e1, spec.e2)
    if detect_family(*params) is None:
        return None
    n_j, m = evaluate_closed_form(*params, j)
    return m, n_j, None


_ROUTES = {
    "bruteforce": _bruteforce_route,
    "dual_count": _dual_count_route,
    "closed_form": _closed_form_route,
}
ROUTE_NAMES = tuple(_ROUTES)


@dataclass(slots=True)
class RghwReport:
    """The outcomes for one j: one field per route, plus the order in which
    the routes were requested (a shared tuple, not a per-report dict)."""

    j: int
    order: tuple[str, ...] = ROUTE_NAMES
    bruteforce: Optional[RouteOutcome] = None
    dual_count: Optional[RouteOutcome] = None
    closed_form: Optional[RouteOutcome] = None

    @property
    def routes(self) -> Mapping[str, RouteOutcome]:
        """Read-only name -> outcome for the routes that ran, in request order."""
        return MappingProxyType({name: getattr(self, name) for name in self.order
                                 if getattr(self, name) is not None})

    @property
    def agree(self) -> bool:
        values = {r.m for r in self.routes.values()}
        return len(values) <= 1

    @property
    def millis(self) -> float:
        return sum(r.millis for r in self.routes.values())

    def as_dict(self, include_millis: bool = False) -> dict:
        out = {
            "j": self.j,
            "routes": {
                name: r.as_dict(include_millis) for name, r in self.routes.items()
            },
            "agree": self.agree,
        }
        if include_millis:
            out["millis"] = round(self.millis, 3)
        return out


def compute_report(spec: CodeSpec, j: int,
                   routes: Sequence[str] = ROUTE_NAMES,
                   cap: int = DEFAULT_ENUM_CAP,
                   workers: int = 1,
                   strict_routes: bool = False) -> RghwReport:
    """Run the requested routes for one j and bundle the outcomes.

    With strict_routes a closed-form request on a spec that is not
    structural raises; otherwise that route is quietly skipped.
    """
    report = RghwReport(j, tuple(routes))
    for name in routes:
        if name not in _ROUTES:
            raise RangeError(f"unknown route {name!r}")
        t0 = time.perf_counter()
        result = _ROUTES[name](spec, j, cap, workers)
        if result is None:
            if strict_routes:
                raise HypothesisViolated("spec is not structural: no closed form")
            continue
        m, n_j, argmax_rows = result
        setattr(report, name,
                RouteOutcome(m, (time.perf_counter() - t0) * 1e3, n_j, argmax_rows))
    return report
