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

The two scans are one minimization under the change of variables
D -> D G, G the paired-trace Gram matrix: the coordinate functionals are
F = g G, so D F^T and (D G) g^T vanish on the same coordinates.  Both run
one kernel, which counts points and walks subspaces by pivot set, and
both are anchored on the shift orbits, the dual on their Gram images, so
they score the same number of subspaces.  Each scores distinct points
only, and its value is an affine map of their count: on a structural
spec both score the factor-subspace points, elsewhere the first of the c
group points on each projective point; the winner is then confirmed on
the route's own n points.  A scan is planned (every refusal, no n-row
table read) before it runs, and plan_report plans every route of a j;
_plan_scans alone reads the route, and what a scan's parameters alone fix
is planned once per process (_scan_shape).
"""

from __future__ import annotations

import functools
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

from .closed_forms import _theta, evaluate_closed_form, require_structural
from .codes import CodeSpec, check_parameters
from .errors import CapExceeded, InvariantViolated, RangeError
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
    gaussian_binomial,
    pivot_sets,
    stack_rows,
)

DEFAULT_ENUM_CAP = 10**8
# Bound on the arrays one scan holds at once: the mask tables (rows of
# ceil(N/64) 64-bit words, N the points scored), its one table or with a
# W-worker pool the W largest chunk tables, each table's (q, K, N) int16
# scaled values and scoring arrays, the (N, K) int16 scored points in the
# parent and in each busy worker, and the route's (n, K) int16 point
# matrix, which the confirmation reads.  The bound is per scan, and a
# CodeSpec keeps every n-row matrix it builds: a table of both scan routes
# holds F and g together, which no one scan's count adds up.
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
    the benchmark stops naming it (ROADMAP 3(b)).
    """
    check_stack_ambient(basis[None], spec.q, spec.ambient_dim)
    return int(_points_outside(spec.ops, basis[None], spec.coordinate_functionals)[0])


def zero_counts(spec: CodeSpec, stack: np.ndarray) -> np.ndarray:
    """Number of coordinates at which each subspace of a (B, r, K) stack of
    zero-padded RREF bases vanishes as a whole.

    Computed two independent ways (n - |Supp| and the cyclic-group count
    inside the dual) and cross-checked on every subspace; the first
    mismatch in stack order raises.
    """
    via_dual = cyclic_group_counts(dual_stack(stack, spec), spec)
    direct = spec.n - _points_outside(spec.ops, stack, spec.coordinate_functionals)
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
# subspace D, D x != 0.  F = g G counts the support of D, the group points
# g count n minus the points inside H = D^perp; _plan_scans picks the
# points and anchors of a route and its shape the pivot sets, and it
# refuses every bad request first, so the kernel has no refusal path: a
# valid j leaves every chunk at least one pivot set.
#
# A scan scores distinct points only, and turns their count into the value
# by one affine map, value = offset + slope * count.  The group points hit
# each projective point they reach c times (CodeSpec.multiplicity), and
# coordinates i and i + n/c differ by a scalar, so the first n/c rows of F
# or g hold each point once: slope c.  On a structural spec the n points
# are every point of PG(K-1, q) outside the factor subspaces V1 and V2, for
# g and, since G keeps V1 and V2, for F alike.  So D leaves out
# theta(K) - theta(K-j) points in all, less those among the
# theta(k1) + theta(k2) factor points P (CodeSpec.factor_points): both
# scans score P, with offset theta(K) - theta(K-j) and slope -1, the
# anticode duality of Solomon and Stiffler.  The kernel minimizes
# slope * count, the slope riding on the vector that sums the bit counts,
# so its first minimum is the first minimum of the value.  _run_scan then
# confirms the winner once on the route's own n-row matrix, the support
# through F or the group points outside H through g: an O(n K) recount
# that keeps F, g and the Gram map checked end to end at any size, and
# keeps the two routes independent where both score P.
#
# A scan walks RREF bases pivot set by pivot set.  Admissibility is decided
# by the pivot set alone, so rejected subspaces are never generated.  Within
# a pivot set with P free entries the t-th basis in enumeration order has
# the last P base-q digits of t (most significant first) as its free
# entries in row-major order; each basis is scored by OR-ing rows of one
# table of N-bit masks in 64-bit words (_mask_table), counting bits and
# keeping the first strict minimum.  The table is a stack of blocks keyed
# by (columns, lead), each built once per chunk however many pivot sets use
# it, and a plan (weights, bases) says which rows: column k of
# digits @ weights + bases[t // q^P] is the row of the k-th mask.  A row's
# block spans every later column or only its free ones, the same mask
# either way, and _block_starts keeps the rule with fewer table rows.
#
# Both halves of the kernel are linear in the digits, so neither does
# arithmetic per row.  With T = points^T, a block's values split as
# a @ T[cols] = high digits @ T[high] + low digits @ T[low]: the q^s
# values of the low term are built a column at a time (q scaled copies
# added to the rows so far), from the last column, so the sums of any last
# columns are their leading rows and a block whose low columns end like
# those of the block before starts from the rows they share; each run of
# q^s rows compares them with one negated sum of the lead and the high
# term.  An anchor's mask is its product with T.  The row indices split
# the same way, as L[low digits of t] + H[high digits of t] + bases[b]: a
# batch is a few runs of q^s consecutive t, and only the winning t is
# turned back into digits.  The ORs split too (_first_minimum): a mask
# that only the high digits choose is ORed once per run, one that only the
# low digits choose once per pivot set, and only a mask that both choose
# is gathered per subspace.  Each row's free entries are consecutive
# digits, so at most one row, the one straddling the split, is gathered.
#
# Everything but the masks depends on small integers only: q, K, j, the
# columns the pivots lie in (top: the first k1 for a relative scan, all K
# for GHW), the number of anchors the scan walks (0 unanchored), the
# worker count and the batch size.  _plan_scans picks the anchoring
# and the subspace total (_scan_count), and _scan_shape computes the rest
# once per such key and caches it: the chunks of pivot sets, each with
# its layout and each pivot set's index plan (_IndexPlan: its weights,
# bases, split and which columns are ORed per head, per pivot set or per
# subspace).  Both routes of a j share one shape, a pool task carries its
# chunk's plans, and the kernel only builds masks, ORs and counts.  The
# shape holds nothing sized by the points or n: the low index rows are
# built per call, and so are the heads of a batch where some digits are
# high (else the heads are the bases).
#
# Both relative scans are anchored.  The shift (b1, b2) -> (a1 b1, a2 b2)
# shifts every codeword cyclically, so it keeps supports and
# admissibility, and every admissible D is a shift of one that contains an
# orbit representative r (codes.orbit_representatives, computed once per
# spec as CodeSpec.orbit_anchors).  Since r_0 = 1, such a D
# is span(r) + D' with D' = D meet {x_0 = 0}, and D is admissible exactly
# when D' has every pivot in 1..k1-1.  So the scan walks D' on dim-1 rows,
# once per r: each row of bases also looks up the mask of one r.  That is
# |R| [k1-1, j-1]_q q^((j-1) k2) subspaces against [k1, j]_q q^(j k2) for
# the full scan; where the anchored count is the larger (|R| > q^k2 at
# j = k1), neither scan is anchored.
#
# The Gram map carries the anchors to the dual scan.  D contains r exactly
# when D G contains r G, and G is invertible and block diagonal, so it
# keeps {0} x F_q^k2 and maps the admissible family onto itself: the
# minimum over D through some r of the support of D is the minimum over
# D G through some r G of the group points outside D G.  Each r is picked
# in its orbit with (r G)_0 = tr(c1) != 0, and r G rescaled to lead with 1,
# so the dual scan walks the same D' pivot sets over the group points, and
# |R G| = |R| subspaces per D'.  GHW admits D inside {0} x F_q^k2, which
# no anchor reaches, and keeps the full scan.
#
# The dual argmax H = D^perp of the winner takes one elimination, of its
# rows with the columns reversed (_complement_rref): as [I | A] has the
# parity-check matrix [-A^T | I], the kernel vector of each free column of
# that RREF, read back in the original columns, leads with 1 where every
# other one is 0, so they already are the RREF of H.


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
    later column, so one block per pivot serves all pivot sets; with free,
    only the row's free columns, so the table holds only rows they read."""
    skip = pivots if free else ()
    return [(tuple(c for c in range(p + 1, K) if c not in skip), p) for p in pivots]


def _block_starts(q: int, K: int, sets, reps: int) -> tuple[dict, int, bool]:
    """The layout of the table of some pivot sets and reps anchors: the
    first row of every distinct block they use, in order of first use; the
    table's row count, the blocks and then one row per anchor; and the
    block-key rule free, the one of the two with fewer rows (every later
    column on a tie)."""
    layouts = []
    for free in (False, True):
        starts: dict = {}
        rows = 0
        for ps in sets:
            for key in _block_keys(ps, K, free):
                if key not in starts:
                    starts[key] = rows
                    rows += q ** len(key[0])
        layouts.append((starts, rows + reps, free))
    return min(layouts, key=lambda layout: layout[1])


def _table_bytes(layout: tuple[dict, int, bool], n: int) -> int:
    """Bytes of the mask table a _block_starts layout allocates for n
    points: rows of ceil(n/64) 64-bit words."""
    return layout[1] * 8 * -(-n // 64)


def _mask_table(ops: TableOps, points: np.ndarray, anchors: Optional[np.ndarray],
                layout: tuple[dict, int, bool]) -> np.ndarray:
    """N-bit masks of a scan over the rows of an (N, K) point matrix, in
    64-bit words, one block per (columns, lead) key: each row holds
    packbits of the mask in its first ceil(N/8) bytes and zeros after
    them, so the padding adds no bits to a count.

    Row a of block (cols, lead) is the mask (a @ T[cols]) != -T[lead],
    T = points^T, for the a-th base-q assignment of cols (first column most
    significant): the points x with (e_lead + a) x != 0.  An anchored table
    ends with the mask of each anchor r, r @ T != 0.  layout is the
    _block_starts of the pivot sets the scan visits, the one their index
    plans read.

    The anchor masks are products through the field's matmul, of a slice
    of anchors by a slice of points.  Every block value is a sum of rows of
    scaled[d, c] = d T[c], a (q, K, N) array built only when the layout
    has blocks.  A block's low s columns give q^s value rows of about
    SLICE_BYTES, and each run of q^s table rows compares them with one
    negated high sum, -T[lead] minus the run's high digits @ T[high].  The
    low sums are built a column at a time from the last, so the sums of
    any last columns are the leading rows: a block whose low columns end
    like those of the block built before starts from the rows they share.
    """
    q, (n, K) = ops.q, points.shape
    starts, rows, _ = layout
    masks = np.zeros((rows, -(-n // 64)), dtype=np.uint64)
    packed = masks.view(np.uint8)[:, :-(-n // 8)]
    if anchors is not None:
        # products of about SLICE_BYTES, float64 over a prime field: a slice
        # of anchors by a slice of points, a multiple of 8 points so that
        # each packs to whole bytes
        step = 8 * max(1, SLICE_BYTES // (64 * K))
        each = max(1, SLICE_BYTES // (8 * min(n, step)))
        first = rows - len(anchors)
        for r in range(0, len(anchors), each):
            for s in range(0, n, step):
                packed[first + r:first + r + each, s // 8:(s + step) // 8] = np.packbits(
                    ops.matmul(anchors[r:r + each], points[s:s + step].T) != 0, axis=1)
    if not starts:
        return masks
    slice_rows = max(1, SLICE_BYTES // (2 * n))  # rows of n values
    # filled in place a slice of columns at a time: temporaries stay small
    scaled = np.zeros((q, K, n), dtype=np.int16)
    scaled[1] = points.T
    for d in range(2, q):
        for c in range(0, K, slice_rows):
            scaled[d, c:c + slice_rows] = ops.mul_table[d][points[:, c:c + slice_rows].T]
    # the low sums last built and their columns; row 0 is zero
    last, sums = (), np.zeros((1, n), dtype=np.int16)
    for (cols, lead), start in starts.items():
        split = len(cols) - _low_width(len(cols), q, slice_rows)
        low_cols = cols[split:]
        shared = 0  # the last columns that low_cols and last have in common
        while (shared < min(len(low_cols), len(last))
               and low_cols[-1 - shared] == last[-1 - shared]):
            shared += 1
        low = sums[:q ** shared]
        for c in reversed(low_cols[:len(low_cols) - shared]):
            low = ops.add(scaled[:, c, None], low).reshape(-1, n)
        if shared < len(low_cols):
            last, sums = low_cols, low
        # -T[lead] and the negated q multiples of each high column
        high = [scaled[ops.neg_table, c] for c in cols[:split]]
        for h, target in enumerate(_sums(scaled[ops.neg_table[1], lead], high, ops.add)):
            packed[start + h * len(low): start + (h + 1) * len(low)] = np.packbits(
                low != target, axis=1)
    return masks


@dataclass(frozen=True, slots=True, eq=False)
class _IndexPlan:
    """Which table rows the subspaces of one pivot set OR, fixed by the
    scan's shape alone: its pivots and free positions (row, column) in
    digit order; (weights, bases), so that column k of
    digits @ weights + bases[t // q^P] is the table row of the k-th mask
    the t-th basis ORs; the split of its P digits into split high ones and
    P - split low ones, for batches of batch subspaces; and the indices
    of the columns ORed once per head (fixed), once per pivot set (shared)
    and once per subspace (straddle).  Every array is read-only."""

    pivots: tuple[int, ...]
    positions: tuple[tuple[int, int], ...]
    weights: np.ndarray
    bases: np.ndarray
    batch: int
    split: int
    fixed: np.ndarray
    shared: np.ndarray
    straddle: np.ndarray


def _index_plan(q: int, K: int, pivots, layout: tuple[dict, int, bool], reps: int,
                batch: int) -> _IndexPlan:
    """The _IndexPlan of one pivot set on a table laid out by layout whose
    last reps rows are anchors.  Free entry (r, c) is the digit of column c
    in row r's block; an anchored table adds a first column, with no free
    entries, that looks up one anchor per base.  A batch covers the low
    digits whose q^s subspaces fit in it (_low_width)."""
    starts, rows, free = layout
    positions = tuple(free_positions(pivots, K))
    keys = _block_keys(pivots, K, free)
    lead = int(reps > 0)
    weights = np.zeros((len(positions), lead + len(keys)), dtype=np.int64)
    for i, (r, c) in enumerate(positions):
        cols = keys[r][0]
        weights[i, lead + r] = q ** (len(cols) - 1 - cols.index(c))
    heads = [[a] for a in range(rows - reps, rows)] if lead else [[]]
    bases = np.array([head + [starts[key] for key in keys] for head in heads], dtype=np.int64)
    split = len(positions) - _low_width(len(positions), q, batch)
    # the weights are not negative and the low counter holds every digit
    # string, so a column varies with the low digits exactly when one of
    # its low weights is nonzero
    by_low = (weights[split:] != 0).any(axis=0)
    by_head = (weights[:split] != 0).any(axis=0) | (bases != bases[0]).any(axis=0)
    fixed, shared, straddle = (np.flatnonzero(columns) for columns in
                               (~by_low, by_low & ~by_head, by_low & by_head))
    arrays = (weights, bases, fixed, shared, straddle)
    for array in arrays:
        array.flags.writeable = False
    return _IndexPlan(tuple(pivots), positions, weights, bases, batch, split, *arrays[2:])


def _or_rows(masks: np.ndarray, index: np.ndarray) -> np.ndarray:
    """OR over the columns k of index (at least one) of masks[index[:, k]]:
    one mask per row of index."""
    acc = masks.take(index[:, 0], axis=0)
    for k in range(1, index.shape[1]):
        acc |= masks.take(index[:, k], axis=0)
    return acc


def _batch_rows(words: int) -> int:
    """Subspaces a batch scores with masks of this many 64-bit words."""
    return max(1, min(BATCH, BATCH_BYTES // (8 * words)))


def _score_bytes(K: int, n: int, q: int, width: int, batch: int) -> int:
    """Bytes _first_minimum holds at most beside its table, for masks of n
    bits, K columns, at most width free entries per subspace and batches of
    batch subspaces (_batch_rows).

    A batch scores at most rows = max(batch, q) subspaces (one run of q^s,
    or several) and a slice holds at most batch heads.  Per row: int64
    indices of up to K + 1 columns (the plan's rows and an anchor) for the
    low table, its gather and a slice of heads with its fixed columns and
    the temporaries that build them, 6 (K + 1) in all, digits of up to
    width free entries, 3 width, and head numbers and a straddling row's
    index, 8; per row and 64-bit mask word: the low ORs, the accumulator
    and one gathered mask (8 bytes each), the bit counts (1) and their
    float32 copy (4).
    """
    words = -(-n // 64)
    rows = max(batch, q)
    return rows * (8 * (6 * (K + 1) + 3 * width + 8) + 29 * words)


def _first_minimum(masks: np.ndarray, q: int, plan: _IndexPlan,
                   slope: int = 1) -> tuple[int, int]:
    """Least slope * count over the subspaces of one pivot set, and the
    first t in enumeration order attaining it, scored on the rows of a
    GF(q) scan's mask table (_mask_table) that its index plan names.

    The k-th mask of t = h * run + l is row head[h, k] + low[l, k], and
    head h = b * q^split + d is bases[b] plus the high digits of d times
    their weights, built a batch of heads at a time.  A fixed column, whose
    low part is zero (a row with no free entry among the low digits, or an
    anchor), is ORed once per head, in the batch that uses the head; a
    shared one, whose head part is the same for every head (a row whose
    free entries are all low digits), once per pivot set.  Each subspace
    then costs one OR of the two and one bit count, plus one gather for
    each straddling column, which varies with both, such as a row that
    straddles the split.  The order of t is the enumeration order, so the
    first minimum is the one a plain OR of every mask finds.
    """
    batch, split = plan.batch, plan.split
    weights, bases = plan.weights, plan.bases
    width = len(plan.positions)
    run, per = q ** (width - split), q ** split
    # a float64 product runs on BLAS and is exact: every index is below 2^53
    low = (counter(width - split, q) @ weights[split:].astype(np.float64)).astype(np.int64)
    low_or = None
    if len(plan.shared):
        low_or = _or_rows(masks, bases[0, plan.shared] + low[:, plan.shared])
    # a matrix-vector product sums the per-word bit counts, times the slope,
    # far faster than a reduction over the short word axis; every partial
    # sum is an integer of magnitude at most |slope| N <= n, so float32 is
    # exact while n < 2^24, which the byte bound keeps: a scan counts the
    # route's (n, K) int16 matrix and more, over 2 K n >= 4 n bytes
    scale = np.full(masks.shape[1], slope, dtype=np.float32)
    step = max(1, batch // run)
    best: Optional[tuple[int, int]] = None
    for h0 in range(0, len(bases) * per, batch):
        if split:
            h = np.arange(h0, min(h0 + batch, len(bases) * per))
            heads = bases[h // per] + digits(h % per, split, q) @ weights[:split]
        else:  # one head per base
            heads = bases[h0:h0 + batch]
        fixed = heads[:, plan.fixed]
        for r in range(0, len(heads), step):
            acc = None
            if fixed.shape[1]:
                acc = _or_rows(masks, fixed[r:r + step])[:, None]
            if low_or is not None:
                acc = low_or if acc is None else acc | low_or
            for k in plan.straddle:
                rows = masks.take(heads[r:r + step, k, None] + low[:, k], axis=0)
                acc = rows if acc is None else np.bitwise_or(rows, acc, out=rows)
            values = (np.bitwise_count(acc) @ scale).ravel()
            i = int(values.argmin())
            if best is None or values[i] < best[0]:
                best = (int(values[i]), (h0 + r) * run + i)
    return best


def _scan_chunk(task) -> tuple[int, np.ndarray]:
    """Least slope times the number of points outside a subspace, the rows
    x of the point matrix with D x != 0, over the subspaces D of the given
    pivot sets (at least one), and a basis of the first D attaining it.

    task is (q, points, anchors, layout, plans, slope), the same in process
    and in a pool worker: the field ops of GF(q) are looked up (cached), so
    a task carries no CodeSpec, and the chunk's layout and the index plan
    of each of its pivot sets come from the scan's shape, so a worker plans
    nothing.  With anchors, each D is the span of one anchor and of a basis
    with the chunk's pivots.
    """
    q, points, anchors, layout, plans, slope = task
    masks = _mask_table(table_ops(field_for_size(q)), points, anchors, layout)
    scores = [_first_minimum(masks, q, plan, slope) for plan in plans]
    val, i, t = min((v, i, t) for i, (v, t) in enumerate(scores))  # the first minimum
    # the basis of t: its free entries are the last digits of t, least
    # significant last, and what is left of t numbers the anchor
    lead, plan = int(anchors is not None), plans[i]
    rows = np.zeros((lead + len(plan.pivots), points.shape[1]), dtype=np.int16)
    for r, c in reversed(plan.positions):
        t, rows[lead + r, c] = divmod(t, q)
    for r, p in enumerate(plan.pivots):
        rows[lead + r, p] = 1
    if lead:
        rows[0] = anchors[t]
    return val, rows


def _chunks(sets, work: Sequence[int], nchunks: int) -> list[list]:
    """Consecutive runs of sets of about total/nchunks work each, in
    enumeration order; a set goes to the run its preceding work falls in."""
    total, done = sum(work), 0
    runs: dict[int, list] = {}
    for ps, w in zip(sets, work):
        runs.setdefault(done * nchunks // total, []).append(ps)
        done += w
    return list(runs.values())


def _scan_count(q: int, K: int, top: int, dim: int, reps: int) -> tuple[bool, int]:
    """Whether a scan is anchored and how many subspaces it scores, from
    its parameters alone, for pivots in the first top columns (k1 for a
    relative scan, K for GHW): the smaller of [top, dim]_q q^(dim (K-top))
    unanchored and reps [top-1, dim-1]_q q^((dim-1) (K-top)) through the
    reps anchors (anchored on a tie; none without anchors).  These are the
    sums of q^P over the pivot sets scanned."""
    full = gaussian_binomial(top, dim, q) * q ** (dim * (K - top))
    if reps:
        through = reps * gaussian_binomial(top - 1, dim - 1, q) * q ** ((dim - 1) * (K - top))
        if through <= full:
            return True, through
    return False, full


@functools.cache
def _scan_shape(q: int, K: int, top: int, dim: int, reps: int, workers: int,
                batch: int) -> tuple[tuple[tuple[dict, int, bool], tuple[_IndexPlan, ...]], ...]:
    """What the parameters of a scan of dim-dimensional subspaces of GF(q)^K
    fix, before any point: its chunks in enumeration order, each a table
    layout and the index plans of its pivot sets, for pivots in the first
    top columns, through reps anchors (0 for a scan _plan_scans leaves
    unanchored), with workers processes (after the CPU clamp) and batches
    of batch subspaces.

    Cached, as subspaces.counter is: both routes of a j have one shape,
    since |R G| = |R| and both score N points, and every table of
    the same parameters in a process reuses it.  It holds nothing derived
    from the points or n, and _plan_scans checks the subspace cap
    (_scan_count) before the first call for a shape.
    """
    if reps:
        sets = [ps for ps in pivot_sets(top, dim - 1) if 0 not in ps]
    else:
        sets = pivot_sets(top, dim)
    work = [count_for_pivots(ps, K, q) for ps in sets]
    runs = _chunks(sets, work, workers * 4) if workers > 1 else [sets]
    layouts = [_block_starts(q, K, run, reps) for run in runs]
    return tuple((layout, tuple(_index_plan(q, K, ps, layout, reps, batch) for ps in run))
                 for run, layout in zip(runs, layouts))


@dataclass(frozen=True, slots=True)
class ScanPlan:
    """One scan, checked against every limit before any n-row array
    exists: its route's point matrix (the group points g on the dual side,
    the coordinate functionals F otherwise), the map
    value = offset + slope * count from the count of the points it scores
    (_scan_points), the spec's anchors when the scan is anchored, its
    chunks (_scan_shape) and the number of processes that score them,
    1 for a scan in process."""

    dual: bool
    offset: int
    slope: int
    anchors: Optional[np.ndarray]
    chunks: tuple[tuple[tuple[dict, int, bool], tuple[_IndexPlan, ...]], ...]
    workers: int


def _plan_scans(spec: CodeSpec, dim: int, names: Sequence[str], cap: int,
                workers: int) -> list[ScanPlan]:
    """The plan of a scan of each of some routes, all relative or all GHW,
    or their refusal: the cap and worker floors, j, the subspace cap and
    the byte bound are checked once, in that order, and no n-row point
    matrix is read.  No route (a closed form alone, whose refusals
    check_request makes) checks nothing.

    "bruteforce" counts the support of the subspaces D with injective
    first projection, "ghw" of every subspace (plain GHW), and
    "dual_count" the group points outside the same D as "bruteforce": its
    first minimizer is the first D whose complement H = D^perp holds the
    most points.  The two relative routes differ only in their points and
    anchors.  The chunks come from the cache (_scan_shape); this picks the
    spec's anchors, the map from the count to the value and the byte count
    over the points the scan scores.
    """
    if not names:
        return []
    check_floors(cap=cap, workers=workers)
    K, q = spec.ambient_dim, spec.q
    # Admissibility is decided by the pivot set alone.  The first projection
    # of D is injective exactly when every pivot is below k1; H = D^perp is
    # onto GF(Q2) exactly when D meets {0} x F_q^k2 trivially, the same
    # family.  GHW admits every pivot set.
    relative = names[0] != "ghw"
    top = spec.k1 if relative else K
    if not 1 <= dim <= top:
        raise RangeError(f"j={dim} outside 1..{top}")
    # |R G| = |R|, so both scans anchor under one rule
    reps = len(spec.orbit_anchors[0]) if relative else 0
    anchored, total = _scan_count(q, K, top, dim, reps)
    if total > cap:
        raise CapExceeded(
            f"{total} admissible subspaces of dimension {dim} exceed the cap {cap}"
        )
    # the number of points scored (_scan_points) and the map from their
    # count to the value
    if spec.structural:
        scored = _theta(q, spec.k1) + _theta(q, spec.k2)
        offset, slope = _theta(q, K) - _theta(q, K - dim), -1
    else:
        scored = spec.n // spec.multiplicity
        offset, slope = 0, spec.multiplicity
    if workers > 1:
        workers = min(workers, os.cpu_count() or 1)  # the pool starts them all at once
    batch = _batch_rows(-(-scored // 64))
    chunks = _scan_shape(q, K, top, dim, reps if anchored else 0, workers, batch)
    # each chunk builds its own table and scores it, and each of the
    # workers holds one: the W largest tables are alive at once
    live = sorted((_table_bytes(layout, scored) for layout, _ in chunks), reverse=True)[:workers]
    copies = 1 + (len(live) if len(chunks) > 1 else 0)
    # a subspace has at most dim (K - dim) free entries, those of pivots
    # 0..dim-1
    width = dim * (K - dim)
    # the scored points are held by the parent and each busy worker, the
    # route's n-row matrix by the parent, for the confirmation
    scan_bytes = (sum(live) + len(live) * _score_bytes(K, scored, q, width, batch)
                  + 2 * K * scored * (q * len(live) + copies) + 2 * K * spec.n)
    if scan_bytes > TABLE_CAP_BYTES:
        raise CapExceeded(
            f"scan arrays of {scan_bytes} bytes exceed the bound {TABLE_CAP_BYTES}"
        )
    plans = []
    for name in names:
        dual = name == "dual_count"
        plans.append(ScanPlan(dual, offset, slope, spec.orbit_anchors[dual] if anchored else None,
                              chunks, len(live)))
    return plans


def _scan_points(spec: CodeSpec, plan: ScanPlan) -> tuple[np.ndarray, np.ndarray]:
    """The route's n-row point matrix, built on first read, and the points
    the planned scan scores: the factor points on a structural spec, else
    the first n/c rows of the route's matrix."""
    route = spec.group_vectors if plan.dual else spec.coordinate_functionals
    return route, (spec.factor_points if spec.structural
                   else route[:spec.n // spec.multiplicity])


def _points_outside(ops: TableOps, stack: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Number of rows x of a point matrix with D x != 0 for each basis D of
    a (B, r, K) stack, counted a slice of points at a time."""
    step = max(1, SLICE_BYTES // (8 * points.shape[1]))
    return sum(ops.matmul(stack, points[s:s + step].T).any(axis=1).sum(axis=1)
               for s in range(0, len(points), step))


def _run_scan(spec: CodeSpec, plan: ScanPlan) -> tuple[int, np.ndarray]:
    """Best value of a planned scan and a spanning set of the first subspace
    attaining it, confirmed on the route's own n points."""
    route, points = _scan_points(spec, plan)
    tasks = [(spec.q, points, plan.anchors, layout, chunk, plan.slope)
             for layout, chunk in plan.chunks]
    if plan.workers == 1:
        best, rows = _scan_chunk(tasks[0])
    else:
        with ProcessPoolExecutor(max_workers=plan.workers) as pool:
            # chunk order is enumeration order, and min keeps the first minimum
            best, rows = min(pool.map(_scan_chunk, tasks), key=lambda result: result[0])
    value = plan.offset + best
    outside = int(_points_outside(spec.ops, rows[None], route)[0])
    if outside != value:
        raise InvariantViolated(
            f"scan value {value} != {outside} points outside {rows.tolist()}")
    return value, rows


# -- public routes ----------------------------------------------------------
#
# Each scan route plans its scan in process from cap, or runs a plan made
# for the same spec and j (plan_report) and ignores cap.  Only a report
# request sets a worker count, so only it can start a pool.


def rghw_bruteforce(spec: CodeSpec, j: int, cap: int = DEFAULT_ENUM_CAP,
                    plan: Optional[ScanPlan] = None) -> int:
    """Definition-level minimum support over subspaces meeting C' trivially."""
    if plan is None:
        plan = _plan_scans(spec, j, ("bruteforce",), cap, 1)[0]
    val, _ = _run_scan(spec, plan)
    return val


def ghw_bruteforce(spec: CodeSpec, j: int, cap: int = DEFAULT_ENUM_CAP) -> int:
    """Plain generalized Hamming weight (no subcode restriction)."""
    val, _ = _run_scan(spec, _plan_scans(spec, j, ("ghw",), cap, 1)[0])
    return val


def _complement_rref(ops: TableOps, rows: np.ndarray) -> np.ndarray:
    """The RREF basis of {v : rows v = 0}, a fresh array: E, the RREF of
    rows with reversed columns, gives e_f - sum_i E[i, f] e_piv_i for each
    free column f of E, which leads with 1 at K-1-f, in order of f
    decreasing.  The few rows are built as Python lists, as rref's are."""
    K = rows.shape[1]
    red, piv = ops.rref(rows[:, ::-1])
    red, neg = red.tolist(), ops.field.neg
    out = []
    for f in range(K - 1, -1, -1):
        if f not in piv:
            row = [0] * K
            row[K - 1 - f] = 1
            for e, p in zip(red, piv):
                row[K - 1 - p] = neg(e[f])
            out.append(row)
    return np.array(out, dtype=np.int16) if out else np.zeros((0, K), dtype=np.int16)


@dataclass
class DualCountResult:
    m: int
    n_j: int
    argmax: np.ndarray


def mj_dual_count(spec: CodeSpec, j: int, cap: int = DEFAULT_ENUM_CAP,
                  plan: Optional[ScanPlan] = None) -> DualCountResult:
    """Weight via the dual-side maximization: m = n - max |H meet group|.

    H ranges over (k1+k2-j)-dimensional subspaces of the pair space whose
    second projection covers GF(Q2).  The scan walks their complements
    D = H^perp under the standard dot product, the j-dimensional subspaces
    with injective first projection, and minimizes the group points g with
    D g != 0, n - |H meet group|, so m is that minimum.  Ties resolve to the
    first D in the scan's order, and argmax is the RREF basis of its H.
    """
    if plan is None:
        plan = _plan_scans(spec, j, ("dual_count",), cap, 1)[0]
    outside, rows = _run_scan(spec, plan)
    return DualCountResult(outside, spec.n - outside, _complement_rref(spec.ops, rows))


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


# Each route maps (spec, j, plan) to (m, n_j, argmax rows), plan the scan
# route's ScanPlan.  The adapters call the routes through this module's
# globals, so a tracer that rebinds those names sees every call.


def _bruteforce_route(spec: CodeSpec, j: int, plan: ScanPlan):
    return rghw_bruteforce(spec, j, plan=plan), None, None


def _dual_count_route(spec: CodeSpec, j: int, plan: ScanPlan):
    res = mj_dual_count(spec, j, plan=plan)
    return res.m, res.n_j, res.argmax


def _closed_form_route(spec: CodeSpec, j: int, plan: None):
    n_j, m = evaluate_closed_form(spec.q, spec.k1, spec.k2, spec.e1, spec.e2, j)
    return m, n_j, None


_ROUTES = {
    "bruteforce": _bruteforce_route,
    "dual_count": _dual_count_route,
    "closed_form": _closed_form_route,
}
ROUTE_NAMES = tuple(_ROUTES)
# the routes that scan (_plan_scans), the routes of a non-structural spec
_SCAN_ROUTES = ("bruteforce", "dual_count")
# the least value of each numeric parameter of a request
_FLOORS = {"cap": 0, "workers": 1, "samples": 1, "seed": 0, "repeat": 1}


def check_floors(**values: int) -> None:
    """RangeError for the first of the given values below its floor: the
    one check of the cap, worker, sample, seed and repeat floors."""
    for name, value in values.items():
        if value < _FLOORS[name]:
            raise RangeError(f"{name}={value} must be >= {_FLOORS[name]}")


def check_request(q: int, k1: int, k2: int, e1: int, e2: int,
                  routes: Optional[Sequence[str]], cap: int, workers: int) -> None:
    """The refusals of a table request that need no code (plan_report and
    the CLI both call it), in order: routes None (every route that applies)
    or known and each named once (RangeError), a closed form only on a
    structural spec (HypothesisViolated), then the cap and worker floors.
    A named closed form first meets check_parameters, so parameters that
    build_code refuses get its error, and HypothesisViolated is left for
    accepted parameters."""
    if routes is not None:
        if not routes or len(set(routes)) < len(routes):
            raise RangeError(f"routes {tuple(routes)} must name one route or more, each once")
        for name in routes:
            if name not in _ROUTES:
                raise RangeError(f"unknown route {name!r}")
        if "closed_form" in routes:
            check_parameters(q, k1, k2, e1, e2)
            require_structural(q, k1, k2, e1, e2)
    check_floors(cap=cap, workers=workers)


@dataclass(slots=True)
class RghwReport:
    """The outcomes for one j: one field per route, plus the routes that
    ran, in order (a shared tuple, not a per-report dict)."""

    j: int
    order: tuple[str, ...]
    bruteforce: Optional[RouteOutcome] = None
    dual_count: Optional[RouteOutcome] = None
    closed_form: Optional[RouteOutcome] = None

    @property
    def routes(self) -> Mapping[str, RouteOutcome]:
        """Read-only name -> outcome for the routes that ran, in order."""
        return MappingProxyType({name: getattr(self, name) for name in self.order})

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


@dataclass(frozen=True, slots=True)
class ReportPlan:
    """The routes of one j in order, and the ScanPlan of each (None for
    the closed form)."""

    spec: CodeSpec
    j: int
    order: tuple[str, ...]
    scans: tuple[Optional[ScanPlan], ...]


def plan_report(spec: CodeSpec, j: int,
                routes: Optional[Sequence[str]] = None,
                cap: int = DEFAULT_ENUM_CAP,
                workers: int = 1) -> ReportPlan:
    """Check and plan the routes of one j, reading no n-row table: every
    refusal compute_report makes, none of its work.

    None runs every route that applies: the closed form only on a
    structural spec.  Named routes run as given, once each; check_request
    refuses a bad list, a cap or a worker count, then j outside 1..k1 is
    refused, before any route is planned.
    """
    check_request(spec.q, spec.k1, spec.k2, spec.e1, spec.e2, routes, cap, workers)
    if not 1 <= j <= spec.k1:
        raise RangeError(f"j={j} outside 1..{spec.k1}")
    if routes is None:
        routes = ROUTE_NAMES if spec.structural else _SCAN_ROUTES
    scanned = [name for name in routes if name in _SCAN_ROUTES]
    scans = dict(zip(scanned, _plan_scans(spec, j, scanned, cap, workers)))
    return ReportPlan(spec, j, tuple(routes), tuple(scans.get(name) for name in routes))


def run_report(plan: ReportPlan) -> RghwReport:
    """Run the routes of a plan_report and bundle the outcomes."""
    report = RghwReport(plan.j, plan.order)
    for name, scan in zip(plan.order, plan.scans):
        t0 = time.perf_counter()
        m, n_j, argmax_rows = _ROUTES[name](plan.spec, plan.j, scan)
        setattr(report, name,
                RouteOutcome(m, (time.perf_counter() - t0) * 1e3, n_j, argmax_rows))
    return report


def compute_report(spec: CodeSpec, j: int,
                   routes: Optional[Sequence[str]] = None,
                   cap: int = DEFAULT_ENUM_CAP,
                   workers: int = 1) -> RghwReport:
    """Run routes for one j and bundle the outcomes: run_report of
    plan_report, so every refusal comes before any route runs."""
    return run_report(plan_report(spec, j, routes, cap, workers))
