"""Support-weight computation for the code pair (C, C').

Three routes are wired together here:

* rghw_bruteforce minimizes the support size over j-dimensional subspaces
  of the flattened pair space whose first projection is injective (those
  are exactly the subspaces of C meeting C' trivially).
* mj_dual_count takes, over (k1+k2-j)-dimensional subspaces H whose
  second projection is onto, the largest number of cyclic-group points
  inside; the weight is n minus that number.  Its scan walks the
  j-dimensional D = H^perp instead, on the bruteforce pivot family.
* the closed form (closed_forms module) covers structural specs.

Both scans run one kernel, which counts points and walks subspaces by
pivot set, so a scan partitions cleanly across worker processes with a
deterministic merge; _scan alone reads the route.
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
from .codes import CodeSpec
from .errors import CapExceeded, HypothesisViolated, InvariantViolated, RangeError
from .gf import field_for_size
from .linalg import TableOps, table_ops
from .subspaces import (
    check_stack_ambient,
    count_for_pivots,
    counter,
    cyclic_group_counts,
    digits,
    dual_stack,
    free_positions,
    kernel_rows,
    pivot_bases,
    pivot_sets,
    stack_rows,
)

DEFAULT_ENUM_CAP = 10**8
# Bound on the arrays a scan holds at once: the mask tables (rows of
# ceil(n/64) 64-bit words), its one table or with a W-worker pool the W
# largest chunk tables, each table's (q, K, n) int16 scaled values, and the
# (n, K) int16 point matrix in the parent and in each busy worker.
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
    product-space subspace.

    Not exported: only the benchmark (perfbench) names it, and it goes when
    the benchmark stops naming it (ROADMAP 1b).
    """
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
# The kernel counts points: the rows x of an (N, K) point matrix outside a
# subspace D, D x != 0.  The coordinate functionals count the support of D,
# the group points N minus the points inside H = D^perp; _scan picks the
# points, pivot sets, anchors and block-key rule of a route, and refuses
# every bad request first, so the kernel has no refusal path: a valid j
# leaves every chunk at least one pivot set.
#
# A scan walks RREF bases pivot set by pivot set.  Admissibility is decided
# by the pivot set alone, so rejected subspaces are never generated.  Within
# a pivot set with P free entries the t-th basis in enumeration order has
# the last P base-q digits of t (most significant first) as its free
# entries in row-major order; each basis is scored by OR-ing rows of one
# table of N-bit masks in 64-bit words (_MaskTable), counting bits and
# keeping the first strict minimum.  The table is a stack of blocks keyed
# by (columns, lead), each built once per chunk however many pivot sets use
# it, and a plan (weights, bases) says which rows: column k of
# digits @ weights + bases[t // q^P] is the row of the k-th mask.
#
# Both halves of the kernel are linear in the digits, so neither does
# arithmetic per row.  With T = points^T, a block's values split as
# a @ T[cols] = high digits @ T[high] + low digits @ T[low]: the q^s
# values of the low term are built once per block, a column at a time (q
# scaled copies added to the rows so far), and each run of q^s rows is one
# sum of the high term added to them.  The row indices split the same way,
# as L[low digits of t] + H[high digits of t] + bases[b]: a batch is a few
# runs of q^s consecutive t, and only the winning t is turned back into
# digits.  The ORs split too (_first_minimum): a mask that only the high
# digits choose is ORed once per run, one that only the low digits choose
# once per pivot set, and only a mask that both choose is gathered per
# subspace.  Each row's free entries are consecutive digits, so at most one
# row, the one straddling the split, is gathered.
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


def _block_keys(pivots, K: int, free: bool) -> list[tuple[tuple[int, ...], int]]:
    """The (columns, lead) key of each block whose masks a subspace with
    these pivots ORs, one per row, led by its pivot.  A block spans every
    later column, so one block per pivot serves all pivot sets, as the many
    pivot sets of a GHW scan need; with free, only the row's free columns,
    so the table holds only rows its pivot sets read."""
    skip = pivots if free else ()
    return [(tuple(c for c in range(p + 1, K) if c not in skip), p) for p in pivots]


def _block_starts(q: int, K: int, sets, anchors: Optional[np.ndarray], free: bool
                  ) -> tuple[dict, int, bool]:
    """The layout of the table of some pivot sets: the first row of every
    distinct block they use, in order of first use; the table's row count,
    the blocks and then one row per anchor; and the block-key rule free."""
    starts: dict = {}
    rows = 0
    for ps in sets:
        for key in _block_keys(ps, K, free):
            if key not in starts:
                starts[key] = rows
                rows += q ** len(key[0])
    return starts, rows + (0 if anchors is None else len(anchors)), free


def _table_bytes(layout: tuple[dict, int, bool], n: int) -> int:
    """Bytes of the mask table a _block_starts layout allocates for n
    points: rows of ceil(n/64) 64-bit words."""
    return layout[1] * 8 * -(-n // 64)


class _MaskTable:
    """N-bit masks of a scan over the rows of an (N, K) point matrix, in
    64-bit words, one block per (columns, lead) key: each row holds
    packbits of the mask in its first ceil(N/8) bytes and zeros after
    them, so the padding adds no bits to a count.

    Row a of block (cols, lead) is the mask (a @ T[cols]) != -T[lead],
    T = points^T, for the a-th base-q assignment of cols (first column most
    significant): the points x with (e_lead + a) x != 0.  An anchored table
    ends with the mask of each anchor.  layout is the _block_starts of the
    pivot sets the scan visits, and its rule keys the blocks in plan.

    A block is built by linearity, as a @ T[cols] + T[lead] != 0.  The low
    s columns give the q^s value rows of about SLICE_BYTES, and each run of
    q^s table rows adds one sum over the high columns to them.
    """

    def __init__(self, ops: TableOps, points: np.ndarray, anchors: Optional[np.ndarray],
                 layout: tuple[dict, int, bool]):
        self.q, (self.n, self.K) = ops.q, points.shape
        self.starts, rows, self.free = layout
        q, n = self.q, self.n
        self.masks = np.zeros((rows, -(-n // 64)), dtype=np.uint64)
        packed = self.masks.view(np.uint8)[:, :-(-n // 8)]
        self.anchor_rows: Optional[range] = None
        if anchors is not None:
            self.anchor_rows = range(rows - len(anchors), rows)
            packed[self.anchor_rows.start:] = np.packbits(
                ops.matmul(anchors, points.T) != 0, axis=1)
        add = ops.field.add
        T = points.T
        # scaled[d, c] = d * T[c], each row contiguous
        scaled = np.ascontiguousarray(ops.mul_table[:, T])
        for (cols, lead), start in self.starts.items():
            split = len(cols) - _low_width(len(cols), q, SLICE_BYTES // (2 * n))
            low = np.zeros((1, n), dtype=np.int16)
            for c in reversed(cols[split:]):
                low = add(scaled[:, c, None], low).reshape(-1, n)
            high = [scaled[:, c] for c in cols[:split]]
            for h, base in enumerate(_sums(T[lead], high, add)):
                packed[start + h * len(low): start + (h + 1) * len(low)] = np.packbits(
                    add(base, low) != 0, axis=1)

    def plan(self, pivots, positions) -> tuple[np.ndarray, np.ndarray]:
        """(weights, bases): column k of digits @ weights + bases[t // q^P]
        is the table row of the k-th mask the t-th basis ORs.  Free entry
        (r, c) is the digit of column c in row r's block.  An anchored table
        adds a first column, with no free entries, that looks up one anchor
        per base."""
        keys = _block_keys(pivots, self.K, self.free)
        lead = int(self.anchor_rows is not None)
        weights = np.zeros((len(positions), lead + len(keys)), dtype=np.int64)
        for i, (r, c) in enumerate(positions):
            cols = keys[r][0]
            weights[i, lead + r] = self.q ** (len(cols) - 1 - cols.index(c))
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
    q, masks = table.q, table.masks
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
    # at most N, so float32 is exact while N < 2^24
    exact = np.float32 if table.n < 1 << 24 else np.float64
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


def _scan_chunk(ops: TableOps, points: np.ndarray, chunk, anchors: Optional[np.ndarray],
                layout: tuple[dict, int, bool]) -> tuple[int, np.ndarray]:
    """Least number of points outside a subspace, the rows x of the point
    matrix with D x != 0, over the subspaces D of the given pivot sets (at
    least one), and a basis of the first D attaining it.

    With anchors, each D is the span of one anchor and of a basis with the
    given pivots.  The layout is the chunk's _block_starts, computed once
    by the caller.
    """
    table = _MaskTable(ops, points, anchors, layout)
    scores = [_first_minimum(table, ps, free_positions(ps, table.K)) for ps in chunk]
    val, i, t = min((v, i, t) for i, (v, t) in enumerate(scores))  # the first minimum
    width = len(free_positions(chunk[i], table.K))
    per = ops.q ** width
    rows = pivot_bases(chunk[i], table.K, digits(np.array([t % per]), width, ops.q))[0]
    if anchors is not None:
        rows = np.vstack([anchors[t // per], rows])
    return val, rows


def _pool_chunk(args) -> tuple[int, np.ndarray]:
    """_scan_chunk inside a pool worker, on the field ops of GF(q)."""
    q, points, chunk, anchors, layout = args
    return _scan_chunk(table_ops(field_for_size(q)), points, chunk, anchors, layout)


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
    """Best value of a scan and a spanning set of the first subspace
    attaining it.

    The one reader of the mode.  "min_support" counts the support of the
    subspaces D with injective first projection, "min_support_all" of
    every subspace (plain GHW), and "max_group" the group points outside
    the same D as "min_support": its first minimizer is the first D whose
    complement H = D^perp holds the most points.

    Every refusal (j, workers, the subspace cap, the byte bound) comes
    before the n-row point matrix is read or any table is built.
    """
    K, q = spec.ambient_dim, spec.q
    # Admissibility is decided by the pivot set alone.  The first projection
    # of D is injective exactly when every pivot is below k1; H = D^perp is
    # onto GF(Q2) exactly when D meets {0} x F_q^k2 trivially, the same
    # family.  GHW admits every pivot set.
    top = K if mode == "min_support_all" else spec.k1
    if not 1 <= dim <= top:
        raise RangeError(f"j={dim} outside 1..{top}")
    if workers < 1:
        raise RangeError(f"workers={workers} must be at least 1")
    sets = pivot_sets(top, dim)
    work = [count_for_pivots(ps, K, q) for ps in sets]
    anchors = None
    if mode == "min_support":
        reps = orbit_representatives(spec)
        through = [ps for ps in pivot_sets(spec.k1, dim - 1) if 0 not in ps]
        anchored = [len(reps) * count_for_pivots(ps, K, q) for ps in through]
        if sum(anchored) <= sum(work):
            anchors, sets, work = reps, through, anchored
    total = sum(work)
    if total > cap:
        raise CapExceeded(
            f"{total} admissible subspaces of dimension {dim} exceed the cap {cap}"
        )
    if workers > 1:
        workers = min(workers, os.cpu_count() or 1)  # the pool starts them all at once
    chunks = _chunks(sets, work, workers * 4) if workers > 1 else [sets]
    # each chunk builds its own table, and each of the workers holds one; a
    # dual block spans only its row's free columns, so it holds only rows
    # the dual's few pivot sets read
    layouts = [_block_starts(q, K, c, anchors, mode == "max_group") for c in chunks]
    live = sorted((_table_bytes(lay, spec.n) for lay in layouts), reverse=True)[:workers]
    copies = 1 + (len(live) if len(chunks) > 1 else 0)
    scan_bytes = sum(live) + 2 * K * spec.n * (q * len(live) + copies)
    if scan_bytes > TABLE_CAP_BYTES:
        raise CapExceeded(
            f"scan arrays of {scan_bytes} bytes exceed the bound {TABLE_CAP_BYTES}"
        )
    # read only now: the n-row point matrices are built on first read
    points = spec.group_vectors if mode == "max_group" else spec.coordinate_functionals
    if len(chunks) == 1:
        results = [_scan_chunk(spec.ops, points, sets, anchors, layouts[0])]
    else:
        tasks = [(q, points, chunk, anchors, layout)
                 for chunk, layout in zip(chunks, layouts)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_pool_chunk, tasks))
    # chunk order is enumeration order, and min keeps the first minimum
    return min(results, key=lambda result: result[0])


# -- public routes ----------------------------------------------------------


def rghw_bruteforce(spec: CodeSpec, j: int, cap: int = DEFAULT_ENUM_CAP,
                    workers: int = 1) -> int:
    """Definition-level minimum support over subspaces meeting C' trivially."""
    val, _ = _scan(spec, j, "min_support", cap, workers)
    return val


def ghw_bruteforce(spec: CodeSpec, j: int, cap: int = DEFAULT_ENUM_CAP,
                   workers: int = 1) -> int:
    """Plain generalized Hamming weight (no subcode restriction)."""
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
    second projection covers GF(Q2).  The scan walks their complements
    D = H^perp under the standard dot product, the j-dimensional subspaces
    with injective first projection, and minimizes the group points g with
    D g != 0, n - |H meet group|, so m is that minimum.  Ties resolve to the
    first D in enumeration order, and argmax is the RREF basis of its H.
    """
    outside, rows = _scan(spec, j, "max_group", cap, workers)
    argmax = spec.ops.rref(kernel_rows(rows[None], spec.ops)[0])[0]
    return DualCountResult(outside, spec.n - outside, argmax)


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


# Each route maps (spec, j, cap, workers) to (m, n_j, argmax rows).  The
# adapters call the routes through this module's globals, so a tracer that
# rebinds those names sees every call.


def _bruteforce_route(spec: CodeSpec, j: int, cap: int, workers: int):
    return rghw_bruteforce(spec, j, cap, workers), None, None


def _dual_count_route(spec: CodeSpec, j: int, cap: int, workers: int):
    res = mj_dual_count(spec, j, cap, workers)
    return res.m, res.n_j, res.argmax


def _closed_form_route(spec: CodeSpec, j: int, cap: int, workers: int):
    n_j, m = evaluate_closed_form(spec.q, spec.k1, spec.k2, spec.e1, spec.e2, j)
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

    The route names are checked before any route runs.  A closed-form
    request on a spec that is not structural then raises with
    strict_routes, and is otherwise skipped; either way before any scan.
    """
    for name in routes:
        if name not in _ROUTES:
            raise RangeError(f"unknown route {name!r}")
    run = routes
    if "closed_form" in routes and detect_family(
            spec.q, spec.k1, spec.k2, spec.e1, spec.e2) is None:
        if strict_routes:
            raise HypothesisViolated("spec is not structural: no closed form")
        run = [name for name in routes if name != "closed_form"]
    report = RghwReport(j, tuple(routes))
    for name in run:
        t0 = time.perf_counter()
        m, n_j, argmax_rows = _ROUTES[name](spec, j, cap, workers)
        setattr(report, name,
                RouteOutcome(m, (time.perf_counter() - t0) * 1e3, n_j, argmax_rows))
    return report
