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
# a pivot set the t-th basis in enumeration order has the base-q digits of t
# (most significant first) as its free entries in row-major order; a batch
# of t values is scored at once by combining rows of packed n-bit masks.
# A plan (weights, base, tables, combine) says which rows: column k of
# digits @ weights + base indexes tables[k], and the looked-up masks are
# folded with the ufunc combine before the bits are counted.


def _column_order(k1: int, k2: int, mode: str) -> list[int]:
    """Original column of each working column: the dual scan puts the
    second factor first, so that its admissibility is a pivot condition."""
    if mode == "max_group":
        return list(range(k1, k1 + k2)) + list(range(k1))
    return list(range(k1 + k2))


def admissible_pivot_sets(k1: int, k2: int, dim: int, mode: str
                          ) -> list[tuple[int, ...]]:
    """Pivot sets (working column order) of the subspaces a scan visits.

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


class _SupportTable:
    """Packed support of the codeword of every vector of F_q^K, indexed by
    its base-q code (column 0 most significant).

    An RREF row with pivot p has its code in [q^(K-1-p), 2 q^(K-1-p)), so
    that range is built the first time a pivot set containing p is scanned;
    the rest of the table is never written.
    """

    def __init__(self, spec: CodeSpec):
        self.spec = spec
        self.masks = np.empty((spec.q**spec.ambient_dim, -(-spec.n // 8)), dtype=np.uint8)
        self.built: set[int] = set()

    def require(self, pivots) -> None:
        spec = self.spec
        K, q = spec.ambient_dim, spec.q
        funcs = spec.coordinate_functionals.T
        for p in set(pivots) - self.built:
            lo = q ** (K - 1 - p)
            _fill_packed(self.masks[lo: 2 * lo], lo, lambda codes: spec.ops.matmul(
                _digits(codes, K, q).astype(np.int16), funcs) != 0)
            self.built.add(p)


def _support_plan(table: _SupportTable, pivots, positions):
    """Row r of a basis is looked up by its code: q^(K-1-p_r) for the pivot
    plus its free entries; the span's support is the union of the rows'."""
    K, q = table.spec.ambient_dim, table.spec.q
    table.require(pivots)
    weights = np.zeros((len(positions), len(pivots)), dtype=np.int64)
    for i, (r, c) in enumerate(positions):
        weights[i, r] = q ** (K - 1 - c)
    base = np.array([q ** (K - 1 - p) for p in pivots], dtype=np.int64)
    return weights, base, [table.masks] * len(pivots), np.bitwise_or


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
    return weights, 0, tables, np.bitwise_and


def _scan_chunk(spec: CodeSpec, dim: int, mode: str, chunk
                ) -> tuple[Optional[int], Optional[np.ndarray]]:
    """Best value over the subspaces of the given pivot sets, and the basis
    (working column order) of the first subspace attaining it.

    mode "min_support" minimizes support over injective-first-projection
    subspaces, "max_group" maximizes the cyclic-group count over
    onto-second-projection subspaces, "min_support_all" minimizes support
    over every subspace (plain GHW).
    """
    K, q = spec.ambient_dim, spec.q
    maximize = mode == "max_group"
    if maximize:
        group = spec.group_vectors[:, _column_order(spec.k1, spec.k2, mode)]
        plan = functools.partial(_group_plan, spec, group)
    else:
        plan = functools.partial(_support_plan, _SupportTable(spec))
    best: Optional[tuple] = None  # (value, pivots, positions, digits)
    for pivots in chunk:
        positions = free_positions(pivots, K)
        weights, base, tables, combine = plan(pivots, positions)
        total = q ** len(positions)
        for lo in range(0, total, BATCH):
            digits = _digits(np.arange(lo, min(lo + BATCH, total)), len(positions), q)
            index = digits @ weights + base
            acc = tables[0][index[:, 0]]
            for k in range(1, len(tables)):
                combine(acc, tables[k][index[:, k]], out=acc)
            values = _POPCOUNT[acc].sum(axis=1)
            i = int(values.argmax() if maximize else values.argmin())
            val = int(values[i])
            if best is None or (val > best[0] if maximize else val < best[0]):
                best = (val, pivots, positions, digits[i])
    if best is None:
        return None, None
    val, pivots, positions, digits = best
    rows = np.zeros((dim, K), dtype=np.int16)
    rows[range(dim), pivots] = 1
    for (r, c), v in zip(positions, digits):
        rows[r, c] = v
    return val, rows


def _pool_chunk(args) -> tuple[Optional[int], Optional[np.ndarray]]:
    """_scan_chunk inside a pool worker, which rebuilds the spec."""
    params, dim, mode, chunk = args
    return _scan_chunk(build_code(*params), dim, mode, chunk)


def _table_bytes(spec: CodeSpec, mode: str, sets) -> int:
    """Largest lookup-table footprint of one scan (per pivot set for the
    dual route, which frees its tables between pivot sets)."""
    width = -(-spec.n // 8)
    if mode != "max_group":
        return spec.q ** spec.ambient_dim * width
    return max((sum(spec.q ** sum(p < c for p in ps)
                    for c in range(spec.ambient_dim) if c not in ps) * width
                for ps in sets), default=0)


def _scan(spec: CodeSpec, dim: int, mode: str, cap: int, workers: int
          ) -> tuple[int, SubspaceBasis]:
    K = spec.ambient_dim
    sets = admissible_pivot_sets(spec.k1, spec.k2, dim, mode)
    total = sum(count_for_pivots(ps, K, spec.q) for ps in sets)
    if total > cap:
        raise CapExceeded(
            f"{total} admissible subspaces of dimension {dim} exceed the cap {cap}"
        )
    table_bytes = _table_bytes(spec, mode, sets)
    if table_bytes > TABLE_CAP_BYTES:
        raise CapExceeded(
            f"lookup tables of {table_bytes} bytes exceed the bound {TABLE_CAP_BYTES}"
        )
    workers = min(workers, os.cpu_count() or 1)  # the pool starts them all at once
    if workers <= 1 or len(sets) <= 1:
        results = [_scan_chunk(spec, dim, mode, sets)]
    else:
        params = (spec.q, spec.k1, spec.k2, spec.e1, spec.e2)
        nchunks = min(len(sets), workers * 4)
        bounds = np.linspace(0, len(sets), nchunks + 1).astype(int)
        tasks = [
            (params, dim, mode, sets[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if lo < hi
        ]
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
    original = np.empty_like(best_rows)
    original[:, _column_order(spec.k1, spec.k2, mode)] = best_rows
    return best_val, subspace_from_rows(spec.q, K, original, "product")


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
    n_j, argmax = _scan(spec, spec.ambient_dim - j, "max_group", cap, workers)
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
