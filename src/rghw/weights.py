"""Support-weight computation for the code pair (C, C').

Three routes are wired together here:

* rghw_bruteforce minimizes the support size over j-dimensional subspaces
  of the flattened pair space whose first projection is injective (those
  are exactly the subspaces of C meeting C' trivially).
* mj_dual_count maximizes, over (k1+k2-j)-dimensional subspaces whose
  second projection is onto, the number of cyclic-group points inside;
  the weight is n minus that maximum.
* the closed form (closed_forms module) covers three parameter families.

Both scans walk subspaces by pivot set, so they partition cleanly across
worker processes with a deterministic merge.
"""

from __future__ import annotations

import functools
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .closed_forms import detect_family, evaluate_closed_form
from .codes import CodeSpec, basis_codewords, build_code
from .errors import CapExceeded, HypothesisViolated, InvariantViolated, RangeError
from .subspaces import (
    SubspaceBasis,
    count_for_pivots,
    dual_subspace,
    free_positions,
    intersect_with_cyclic_group,
    pivot_sets,
    subspace_from_rows,
)

DEFAULT_ENUM_CAP = 10**8
# Bound on the packed lookup tables one scan holds (the support table is
# q^K rows of ceil(n/8) bytes).
TABLE_CAP_BYTES = 1 << 26
# Subspaces scored per numpy batch and vectors per lookup-table block; both
# keep each temporary array to about 100 KiB, since every byte of it adds
# to the peak memory of a run that keeps its reports.
BATCH = 512
TABLE_BLOCK = 16
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def subspace_support_size(spec: CodeSpec, basis: SubspaceBasis) -> int:
    """|Supp| of the codeword space spanned by a product-space subspace."""
    return int(basis_codewords(spec, basis).any(axis=0).sum())


def nj_of_subspace(spec: CodeSpec, basis: SubspaceBasis) -> int:
    """Number of coordinates at which the whole subspace vanishes.

    Computed two independent ways (n - |Supp| and the cyclic-group count
    inside the dual) and cross-checked on every call.
    """
    direct = spec.n - subspace_support_size(spec, basis)
    via_dual = intersect_with_cyclic_group(dual_subspace(basis, spec), spec)
    if direct != via_dual:
        raise InvariantViolated(
            f"zero-coordinate count mismatch: {direct} != {via_dual} for {basis.rows}"
        )
    return direct


# -- pivot-set scan kernel ---------------------------------------------------
#
# A scan walks RREF bases pivot set by pivot set.  Admissibility is decided
# by the pivot set alone, so rejected subspaces are never generated.  Within
# a pivot set with P free entries the t-th basis in enumeration order has
# the last P base-q digits of t (most significant first) as its free
# entries in row-major order; a batch of t values is scored at once by
# combining rows of packed n-bit masks.  A plan (weights, bases, tables,
# combine) says which rows: column k of digits @ weights + bases[t // q^P]
# indexes tables[k], and the looked-up masks are folded with the ufunc
# combine before the bits are counted.
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
        for b2 in [0] + F2.exp_table[:m2]:
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


def _digits(values: np.ndarray, width: int, q: int) -> np.ndarray:
    """Base-q digits of each value, most significant first: (len, width)."""
    powers = q ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return (values[:, None] // powers) % q


def _fill_packed(out: np.ndarray, first: int,
                 rows: Callable[[np.ndarray], np.ndarray]) -> None:
    """out[i] = np.packbits of the boolean n-vector rows(codes) gives for
    code first+i; built TABLE_BLOCK codes at a time."""
    for lo in range(0, len(out), TABLE_BLOCK):
        codes = np.arange(first + lo, first + min(lo + TABLE_BLOCK, len(out)))
        out[lo: lo + len(codes)] = np.packbits(rows(codes), axis=1)


def _support_rows(spec: CodeSpec, anchors: Optional[np.ndarray]) -> int:
    """Rows of a scan's support table: every code of F_q^K or, for an
    anchored scan, whose pivots are never 0, the codes below q^(K-1) and
    then one row per anchor."""
    K = spec.ambient_dim
    return spec.q ** K if anchors is None else spec.q ** (K - 1) + len(anchors)


class _SupportTable:
    """Packed support of the codeword of a vector of F_q^K, indexed by its
    base-q code (column 0 most significant), for the codes _support_rows
    covers; the anchors' masks fill anchor_rows.

    An RREF row with pivot p has its code in [q^(K-1-p), 2 q^(K-1-p)), so
    only the ranges of the pivots in the chunk are built; the rest of the
    table is never written.
    """

    def __init__(self, spec: CodeSpec, anchors: Optional[np.ndarray], chunk):
        self.spec = spec
        self.masks = np.empty((_support_rows(spec, anchors), -(-spec.n // 8)), dtype=np.uint8)
        self.anchor_rows: Optional[range] = None
        if anchors is not None:
            self.anchor_rows = range(len(self.masks) - len(anchors), len(self.masks))
            self.masks[self.anchor_rows.start:] = np.packbits(
                spec.ops.matmul(anchors, spec.coordinate_functionals.T) != 0, axis=1)
        K, q = spec.ambient_dim, spec.q
        funcs = spec.coordinate_functionals.T
        for p in set().union(*chunk):
            lo = q ** (K - 1 - p)
            _fill_packed(self.masks[lo: 2 * lo], lo, lambda codes: spec.ops.matmul(
                _digits(codes, K, q).astype(np.int16), funcs) != 0)


def _support_plan(table: _SupportTable, pivots, positions):
    """Row r of a basis is looked up by its code: q^(K-1-p_r) for the pivot
    plus its free entries; the span's support is the union of the rows'.
    An anchored table adds a first column, with no free entries, that looks
    up one anchor per base."""
    K, q = table.spec.ambient_dim, table.spec.q
    lead = int(table.anchor_rows is not None)
    weights = np.zeros((len(positions), lead + len(pivots)), dtype=np.int64)
    for i, (r, c) in enumerate(positions):
        weights[i, lead + r] = q ** (K - 1 - c)
    codes = [q ** (K - 1 - p) for p in pivots]
    heads = [[a] for a in table.anchor_rows] if lead else [[]]
    bases = np.array([head + codes for head in heads], dtype=np.int64)
    return weights, bases, [table.masks] * bases.shape[1], np.bitwise_or


def _group_plan(spec: CodeSpec, group: np.ndarray, pivots, positions):
    """A group point g is in the row space iff, for every non-pivot column
    c, g_c = sum_r a_{r,c} g_{p_r}; one table per c marks the points that
    pass, for every assignment of the column's free entries a_{r,c}."""
    K, q = spec.ambient_dim, spec.q
    cols = [c for c in range(K) if c not in pivots]
    weights = np.zeros((len(positions), len(cols)), dtype=np.int64)
    tables = []
    for k, c in enumerate(cols):
        rows = [r for r, p in enumerate(pivots) if p < c]
        for t, r in enumerate(rows):
            weights[positions.index((r, c)), k] = q ** (len(rows) - 1 - t)
        coeffs = group[:, [pivots[r] for r in rows]].T
        target = group[:, c]
        table = np.empty((q ** len(rows), -(-spec.n // 8)), dtype=np.uint8)
        _fill_packed(table, 0, lambda a: spec.ops.matmul(
            _digits(a, len(rows), q).astype(np.int16), coeffs) == target)
        tables.append(table)
    return weights, np.zeros((1, len(cols)), dtype=np.int64), tables, np.bitwise_and


def _scan_chunk(spec: CodeSpec, mode: str, chunk, anchors: Optional[np.ndarray]
                ) -> tuple[Optional[int], Optional[np.ndarray]]:
    """Best value over the subspaces of the given pivot sets, and a basis
    (working column order) of the first subspace attaining it.

    mode "min_support" minimizes support over injective-first-projection
    subspaces, "max_group" maximizes the cyclic-group count over
    onto-second-projection subspaces, "min_support_all" minimizes support
    over every subspace (plain GHW).  With anchors, each subspace is the
    span of one anchor and of a basis with the given pivots.
    """
    K, q = spec.ambient_dim, spec.q
    maximize = mode == "max_group"
    if maximize:
        group = spec.group_vectors[:, _column_order(spec.k1, spec.k2, mode)]
        plan = functools.partial(_group_plan, spec, group)
    else:
        plan = functools.partial(_support_plan, _SupportTable(spec, anchors, chunk))
    best: Optional[tuple] = None  # (value, pivots, positions, base number, digits)
    for pivots in chunk:
        positions = free_positions(pivots, K)
        weights, bases, tables, combine = plan(pivots, positions)
        per = q ** len(positions)
        total = len(bases) * per
        for lo in range(0, total, BATCH):
            t = np.arange(lo, min(lo + BATCH, total))
            digits = _digits(t, len(positions), q)
            index = digits @ weights + bases[t // per]
            acc = tables[0][index[:, 0]]
            for k in range(1, len(tables)):
                combine(acc, tables[k][index[:, k]], out=acc)
            values = _POPCOUNT[acc].sum(axis=1)
            i = int(values.argmax() if maximize else values.argmin())
            val = int(values[i])
            if best is None or (val > best[0] if maximize else val < best[0]):
                best = (val, pivots, positions, int(t[i]) // per, digits[i])
    if best is None:
        return None, None
    val, pivots, positions, s, digits = best
    rows = np.zeros((len(pivots), K), dtype=np.int16)
    rows[range(len(pivots)), pivots] = 1
    for (r, c), v in zip(positions, digits):
        rows[r, c] = v
    if anchors is not None:
        rows = np.vstack([anchors[s], rows])
    return val, rows


def _pool_chunk(args) -> tuple[Optional[int], Optional[np.ndarray]]:
    """_scan_chunk inside a pool worker, which rebuilds the spec."""
    params, mode, chunk, anchors = args
    return _scan_chunk(build_code(*params), mode, chunk, anchors)


def _table_bytes(spec: CodeSpec, mode: str, sets, anchors: Optional[np.ndarray]) -> int:
    """Largest lookup-table footprint of one scan (per pivot set for the
    dual route, which frees its tables between pivot sets)."""
    width = -(-spec.n // 8)
    if mode != "max_group":
        return _support_rows(spec, anchors) * width
    return max((sum(spec.q ** sum(p < c for p in ps)
                    for c in range(spec.ambient_dim) if c not in ps) * width
                for ps in sets), default=0)


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
    table_bytes = _table_bytes(spec, mode, sets, anchors)
    if table_bytes > TABLE_CAP_BYTES:
        raise CapExceeded(
            f"lookup tables of {table_bytes} bytes exceed the bound {TABLE_CAP_BYTES}"
        )
    chunks = [sets]
    if workers > 1 and sets:
        workers = min(workers, os.cpu_count() or 1)  # the pool starts them all at once
        chunks = _chunks(sets, work, workers * 4)
    if len(chunks) <= 1:
        results = [_scan_chunk(spec, mode, sets, anchors)]
    else:
        params = (spec.q, spec.k1, spec.k2, spec.e1, spec.e2)
        tasks = [(params, mode, chunk, anchors) for chunk in chunks]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_pool_chunk, tasks))
    prefer_max = mode == "max_group"
    best_val: Optional[int] = None
    best_rows: Optional[np.ndarray] = None
    for val, rows in results:  # chunk order = enumeration order
        if val is None:
            continue
        if best_val is None or (val > best_val if prefer_max else val < best_val):
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
    argmax: SubspaceBasis


def mj_dual_count(spec: CodeSpec, j: int, cap: int = DEFAULT_ENUM_CAP,
                  workers: int = 1) -> DualCountResult:
    """Weight via the dual-side maximization: m = n - max |H meet group|.

    H ranges over (k1+k2-j)-dimensional subspaces of the pair space whose
    second projection covers GF(Q2); ties resolve to the first maximizer in
    enumeration order.
    """
    if not 1 <= j <= spec.k1:
        raise RangeError(f"j={j} outside 1..{spec.k1}")
    n_j, rows = _scan(spec, spec.ambient_dim - j, "max_group", cap, workers)
    original = np.empty_like(rows)
    original[:, _column_order(spec.k1, spec.k2, "max_group")] = rows
    argmax = subspace_from_rows(spec.q, spec.ambient_dim, original, "product")
    return DualCountResult(spec.n - n_j, n_j, argmax)


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
    return res.m, res.n_j, np.array(res.argmax.rows, dtype=np.int16)


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

    With strict_routes a closed-form request on a spec outside all three
    families raises; otherwise that route is quietly skipped.
    """
    report = RghwReport(j, tuple(routes))
    for name in routes:
        if name not in _ROUTES:
            raise RangeError(f"unknown route {name!r}")
        t0 = time.perf_counter()
        result = _ROUTES[name](spec, j, cap, workers)
        if result is None:
            if strict_routes:
                raise HypothesisViolated("spec parameters match no closed-form family")
            continue
        m, n_j, argmax_rows = result
        setattr(report, name,
                RouteOutcome(m, (time.perf_counter() - t0) * 1e3, n_j, argmax_rows))
    return report
