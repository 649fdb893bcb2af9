"""The pivot-set scan kernel against definition-level references."""

import dataclasses
import functools
import hashlib
import itertools
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rghw import codes, weights
from rghw.closed_forms import evaluate_closed_form
from rghw.codes import build_code, orbit_representatives
from rghw.errors import CapExceeded, InvariantViolated
from rghw.gf import field_for_size
from rghw.subspaces import (
    count_for_pivots,
    cyclic_group_counts,
    digits,
    gaussian_binomial,
    kernel_rows,
    pivot_sets,
    rref_stack,
)
from rghw.linalg import table_ops
from rghw.weights import ghw_bruteforce, mj_dual_count, rghw_bruteforce


def run_scan(spec, dim, mode):
    """Plan a scan of one worker under the default cap and run it."""
    plan = weights._plan_scan(spec, dim, mode, weights.DEFAULT_ENUM_CAP, 1)
    return weights._run_scan(spec, plan)


def kernel_args(spec, dim, mode):
    """What _plan_scan hands the kernel for an unanchored scan of a mode: the
    pivot sets and the point matrix."""
    sets = pivot_sets(spec.ambient_dim if mode == "min_support_all" else spec.k1, dim)
    points = spec.group_vectors if mode == "max_group" else spec.coordinate_functionals
    return sets, points


def layout(spec, sets, anchors):
    """The _block_starts layout _plan_scan computes for these pivot sets."""
    return weights._block_starts(spec.q, spec.ambient_dim, sets, nanchors(anchors))


def nanchors(anchors):
    return 0 if anchors is None else len(anchors)


def index_plan(spec, pivots, lay, anchors, points):
    """The _IndexPlan a scan's shape holds for one pivot set on a table of
    these points, laid out by lay, with a batch sized by the current BATCH."""
    batch = weights._batch_rows(-(-len(points) // 64))
    return weights._index_plan(spec.q, spec.ambient_dim, pivots, lay, nanchors(anchors), batch)


def chunk_task(spec, points, sets, anchors):
    """The _scan_chunk task of one chunk of these pivot sets, slope 1."""
    lay = layout(spec, sets, anchors)
    plans = tuple(index_plan(spec, ps, lay, anchors, points) for ps in sets)
    return spec.q, points, anchors, lay, plans, 1


@pytest.mark.parametrize("q,k1,k2", [(2, 2, 3), (2, 3, 2), (3, 2, 3), (2, 3, 4)])
def test_pivot_set_admissibility_matches_rank_conditions(q, k1, k2):
    ops = table_ops(field_for_size(q))
    K = k1 + k2
    for mode in ("min_support", "max_group"):
        for dim in range(K + 1):
            admissible = set(pivot_sets(k1, dim))
            for rref in rref_stack(K, dim, q):
                if mode == "min_support":
                    want = len(ops.rref(rref[:, :k1])[1]) == dim
                else:
                    # the dual scan walks D, admissible when H = D^perp is onto
                    h = kernel_rows(rref[None], ops)[0]
                    want = len(ops.rref(h[:, k1:])[1]) == k2
                pivots = tuple((rref != 0).argmax(axis=1).tolist())
                assert (pivots in admissible) == want, (mode, rref.tolist())


def definition_reference(spec):
    """Per dimension d: min support over all d-dim subspaces (GHW), over
    those with injective first projection (RGHW), and max group count over
    those with onto second projection, straight from the enumeration."""
    K, k1, k2, ops = spec.ambient_dim, spec.k1, spec.k2, spec.ops
    ghw, rghw, group = {}, {}, {}
    for d in range(1, K + 1):
        stack = rref_stack(K, d, spec.q)
        supports = ops.matmul(stack, spec.coordinate_functionals.T).any(axis=1).sum(axis=1)
        counts = cyclic_group_counts(stack, spec)
        for rref, supp, count in zip(stack, supports.tolist(), counts.tolist()):
            ghw[d] = min(ghw.get(d, supp), supp)
            if len(ops.rref(rref[:, :k1])[1]) == d:
                rghw[d] = min(rghw.get(d, supp), supp)
            if len(ops.rref(rref[:, k1:])[1]) == k2:
                group[d] = max(group.get(d, count), count)
    return ghw, rghw, group


def test_grid_routes_match_the_definition(small_grid):
    specs = [build_code(*params) for params in small_grid]
    assert len(specs) == 34
    for spec in specs:
        K, k1, k2 = spec.ambient_dim, spec.k1, spec.k2
        ghw, rghw, group = definition_reference(spec)
        for j in range(1, K + 1):
            assert ghw_bruteforce(spec, j) == ghw[j], (spec, j)
        for j in range(1, k1 + 1):
            assert rghw_bruteforce(spec, j) == rghw[j], (spec, j)
            dual = mj_dual_count(spec, j)
            assert (dual.n_j, dual.m) == (group[K - j], spec.n - group[K - j]), (spec, j)
            assert dual.m == rghw[j], (spec, j)
            # the argmax is a canonical basis that attains N_j and is onto GF(Q2)
            arg = dual.argmax
            assert arg.dtype == np.int16 and arg.shape == (K - j, K)
            assert np.array_equal(spec.ops.rref(arg)[0], arg)
            assert cyclic_group_counts(arg[None], spec)[0] == dual.n_j
            assert len(spec.ops.rref(arg[:, k1:])[1]) == k2


def test_frontier_instances():
    spec = build_code(2, 4, 5, 1, 1)
    for j in (1, 2, 3):
        n_j, m_j = evaluate_closed_form(2, 4, 5, 1, 1, j)
        dual = mj_dual_count(spec, j)
        assert rghw_bruteforce(spec, j) == dual.m == m_j
        assert dual.n_j == n_j
    spec = build_code(3, 3, 4, 1, 2)
    got = [(rghw_bruteforce(spec, j), mj_dual_count(spec, j).m) for j in (1, 2)]
    assert got == [(345, 345), (460, 460)]
    # cells the unanchored scan took tens of seconds for
    for params in ((2, 4, 7, 1, 1), (3, 3, 5, 1, 2)):
        spec = build_code(*params)
        for j in (1, 2, 3):
            assert rghw_bruteforce(spec, j) == evaluate_closed_form(*params, j)[1]
    # no closed form covers (4,3,4,1,3); the dual scan gives the same values
    spec = build_code(4, 3, 4, 1, 3)
    assert [rghw_bruteforce(spec, j) for j in (1, 2)] == [4016, 5020]


def shift_orbits(spec):
    """Orbit number of every pair (b1, b2) with b1 != 0 under the shift and
    GF(q)*, by closing each unvisited pair."""
    f1, f2 = spec.factors
    moves = [(f1.alpha, f2.alpha)] + [(f1.embed.apply_code(c), f2.embed.apply_code(c))
                                      for c in range(2, spec.q)]
    orbit = {}
    for start in itertools.product(range(1, f1.field.size), range(f2.field.size)):
        if start in orbit:
            continue
        label, stack = len(set(orbit.values())), [start]
        while stack:
            b1, b2 = stack.pop()
            if (b1, b2) not in orbit:
                orbit[b1, b2] = label
                stack += [(f1.field.mul(b1, u), f2.field.mul(b2, v)) for u, v in moves]
    return orbit


def test_orbit_representatives_partition(small_grid):
    specs = [build_code(*p) for p in small_grid + [
        (2, 3, 4, 1, 1), (4, 2, 3, 1, 3), (5, 2, 3, 1, 4), (2, 3, 5, 1, 1), (3, 3, 4, 1, 2)]]
    counts = []
    for spec in specs:
        reps = orbit_representatives(spec)
        orbit = shift_orbits(spec)
        assert (reps[:, 0] == 1).all(), spec
        labels = sorted(orbit[int(b1), int(b2)] for b1, b2 in zip(*spec.pairs_from_vectors(reps)))
        assert labels == list(range(len(set(orbit.values())))), spec
        counts.append(len(reps))
    assert counts[-5:] == [2, 4, 2, 2, 3]
    for params in ((2, 4, 7, 1, 1), (2, 5, 6, 1, 1), (3, 3, 5, 1, 2), (4, 3, 4, 1, 3),
                   (3, 4, 5, 1, 2)):
        assert len(orbit_representatives(build_code(*params))) == 2, params


def test_gram_anchors_are_images_of_orbit_representatives(small_grid):
    """The dual anchors are r G, one r per orbit, each rescaled so that
    coordinate 0 of r G, tr(c1), is 1."""
    for params in small_grid + [(4, 2, 3, 1, 3), (5, 2, 3, 1, 4), (3, 3, 4, 1, 2)]:
        spec = build_code(*params)
        anchors = orbit_representatives(spec, gram=True)
        orbit = shift_orbits(spec)
        assert (anchors[:, 0] == 1).all(), params
        reps = spec.ops.matmul(anchors, spec.gram_inverse)
        labels = sorted(orbit[int(b1), int(b2)] for b1, b2 in zip(*spec.pairs_from_vectors(reps)))
        assert labels == list(range(len(set(orbit.values())))), params


PROPERTY_GRID = 729  # bound on q^(k1+k2) of the anchored-scan properties


def test_anchored_dual_matches_the_unanchored_scan(spec_grid):
    """On every spec with q^K <= PROPERTY_GRID and every j, the dual scan
    anchored on R G finds the value of the full dual scan, and its argmax
    H holds N_j group points and is onto GF(Q2)."""
    specs = spec_grid(PROPERTY_GRID)
    assert len(specs) == 376
    for params in specs:
        spec = build_code(*params)
        K, k1 = spec.ambient_dim, spec.k1
        for j in range(1, k1 + 1):
            sets, points = kernel_args(spec, j, "max_group")
            full, _ = weights._scan_chunk(chunk_task(spec, points, sets, None))
            dual = mj_dual_count(spec, j)
            assert dual.m == full, (params, j)
            arg = dual.argmax
            assert arg.shape == (K - j, K) and np.array_equal(spec.ops.rref(arg)[0], arg)
            assert cyclic_group_counts(arg[None], spec)[0] == dual.n_j == spec.n - full
            assert len(spec.ops.rref(arg[:, k1:])[1]) == spec.k2, (params, j)


def test_bruteforce_argmax_maps_through_the_gram_matrix(spec_grid):
    """F = g G: the bruteforce argmax D, of support M_j, maps to D G, an
    admissible subspace with exactly M_j group points outside it, so a
    dual optimum."""
    for params in spec_grid(PROPERTY_GRID):
        spec = build_code(*params)
        for j in range(1, spec.k1 + 1):
            m, rows = run_scan(spec, j, "min_support")
            image = spec.ops.matmul(rows, spec.gram)
            assert len(spec.ops.rref(image[:, :spec.k1])[1]) == j, (params, j)
            outside = spec.ops.matmul(image, spec.group_vectors.T).any(axis=0).sum()
            assert outside == m == mj_dual_count(spec, j).m, (params, j)


@functools.cache
def property_specs(spec_grid):
    """The specs with q^K <= PROPERTY_GRID, built once."""
    return tuple(build_code(*params) for params in spec_grid(PROPERTY_GRID))


def n_point_scan(spec, plan):
    """The planned scan on the route's own n points, whose count is the
    value: (value, basis) of the first optimum, chunk by chunk."""
    route, _ = weights._scan_points(spec, plan)
    shape = plan.shape
    return min((weights._scan_chunk((spec.q, route, plan.anchors, lay, chunk, 1))
                for chunk, lay in zip(shape.chunks, shape.layouts)), key=lambda r: r[0])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_scored_points_give_the_n_point_count(spec_grid, data):
    """On a random subspace D of a random spec with q^K <= PROPERTY_GRID,
    the affine map of the count over the points a scan scores (the factor
    points P on a structural spec, the first n/c rows otherwise) equals
    the count over all n points, of F and of g alike."""
    spec = data.draw(st.sampled_from(property_specs(spec_grid)))
    q, K = spec.q, spec.ambient_dim
    rows = np.array(data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=K, max_size=K),
                                       min_size=1, max_size=K)), dtype=np.int16)
    red, pivots = spec.ops.rref(rows)
    if not pivots:
        return
    plan = weights._plan_scan(spec, len(pivots), "min_support_all", weights.DEFAULT_ENUM_CAP, 1)
    assert plan.slope == (-1 if spec.structural else spec.multiplicity)
    for dual in (False, True):
        route, points = weights._scan_points(spec, dataclasses.replace(plan, dual=dual))
        reduced = plan.offset + plan.slope * weights._points_outside(spec.ops, red, points)
        assert reduced == weights._points_outside(spec.ops, red, route), (spec, dual)


def test_reduced_scans_match_the_n_point_scan(spec_grid):
    """On every spec with q^K <= PROPERTY_GRID, every mode and every j, the
    scan over the points it scores finds the value and the first optimum
    of the same scan over the route's n points."""
    specs = property_specs(spec_grid)
    assert {spec.structural for spec in specs} == {True, False}
    assert max(spec.multiplicity for spec in specs) > 1
    for spec in specs:
        for mode, top in (("min_support", spec.k1), ("min_support_all", spec.ambient_dim),
                          ("max_group", spec.k1)):
            for j in range(1, top + 1):
                plan = weights._plan_scan(spec, j, mode, weights.DEFAULT_ENUM_CAP, 1)
                val, rows = weights._run_scan(spec, plan)
                full, full_rows = n_point_scan(spec, plan)
                assert val == full and np.array_equal(rows, full_rows), (spec, mode, j)


@pytest.mark.parametrize("params", [(2, 2, 3, 1, 1), (3, 2, 3, 1, 2), (2, 3, 4, 1, 1)])
def test_a_dropped_factor_point_is_caught(params):
    """With one factor point dropped from P, a scan either raises
    InvariantViolated at its confirmation or still finds the true value,
    never a wrong one.  Every anchored D holds a row led by 1, so the
    point e_0 of P lies outside it: without e_0 the winner's count is one
    short, and the confirmation raises on every j of both routes."""
    truth = {}
    spec = build_code(*params)
    for j in range(1, spec.k1 + 1):
        truth[j] = rghw_bruteforce(spec, j)
    points = spec.factor_points
    e0 = np.flatnonzero((points == np.eye(1, spec.ambient_dim, dtype=np.int16)).all(axis=1))
    assert len(e0) == 1
    for drop in range(len(points)):
        for route in (rghw_bruteforce, lambda spec, j: mj_dual_count(spec, j).m):
            for j in truth:
                spec = build_code(*params)
                spec.__dict__["factor_points"] = np.delete(points, drop, axis=0)
                try:
                    got = route(spec, j)
                except InvariantViolated:
                    continue
                assert drop not in e0 and got == truth[j], (drop, j)


def test_scan_inputs_are_computed_once_per_spec(monkeypatch):
    """The anchors R and R G, c, P and the structural flag are read-only
    and computed once per spec, however many j and routes are planned."""
    calls = []
    reps = codes.orbit_representatives
    monkeypatch.setattr(codes, "orbit_representatives",
                        lambda spec, gram=False: calls.append(gram) or reps(spec, gram))
    spec = build_code(2, 3, 4, 1, 1)
    for j in range(1, spec.k1 + 1):
        weights.plan_report(spec, j, workers=2)
    assert calls == [False, True]
    for array in (*spec.orbit_anchors, spec.factor_points):
        assert not array.flags.writeable
    assert (spec.structural, spec.multiplicity, len(spec.factor_points)) == (True, 1, 7 + 15)
    assert "coordinate_functionals" not in spec.__dict__ and "group_vectors" not in spec.__dict__


def test_cap_counts_admissible_subspaces():
    spec = build_code(2, 2, 3, 1, 1)
    q, k1, k2 = spec.q, spec.k1, spec.k2
    reps = len(orbit_representatives(spec))
    for j in (1, 2):
        # both scans: [k1-1, j-1]_q q^((j-1) k2) subspaces through each
        # anchor, r or r G
        count = reps * gaussian_binomial(k1 - 1, j - 1, q) * q ** ((j - 1) * k2)
        assert rghw_bruteforce(spec, j, cap=count) == (10, 15)[j - 1]
        with pytest.raises(CapExceeded):
            rghw_bruteforce(spec, j, cap=count - 1)
        assert mj_dual_count(spec, j, cap=count).m == (10, 15)[j - 1]
        with pytest.raises(CapExceeded):
            mj_dual_count(spec, j, cap=count - 1)


def test_bruteforce_is_unanchored_where_anchoring_scores_more():
    # 4 orbit representatives > q^k2 = 3: at j = k1 = 2 the anchored scan
    # scores 4 * [1,1]_3 * 3 = 12 subspaces, the full scan [2,2]_3 * 3^2 = 9
    spec = build_code(3, 2, 1, 2, 1)
    assert len(orbit_representatives(spec)) == 4
    assert rghw_bruteforce(spec, 2, cap=9) == 3
    with pytest.raises(CapExceeded, match="^9 admissible"):
        rghw_bruteforce(spec, 2, cap=8)
    # j = 1 stays anchored: 4 subspaces in place of [2,1]_3 * 3 = 12
    assert rghw_bruteforce(spec, 1, cap=4) == 2
    with pytest.raises(CapExceeded, match="^4 admissible"):
        rghw_bruteforce(spec, 1, cap=3)
    # the dual scan follows the same rule, since |R G| = |R|
    for j, count, value in ((2, 9, 3), (1, 4, 2)):
        assert mj_dual_count(spec, j, cap=count).m == value
        with pytest.raises(CapExceeded, match=f"^{count} admissible"):
            mj_dual_count(spec, j, cap=count - 1)


def test_table_bound_raises_before_allocating(monkeypatch):
    # K = 5, n = 21, structural: the scans score the N = 3 + 7 factor
    # points, one 8-byte word per mask
    spec = build_code(2, 2, 3, 1, 1)
    N = len(spec.factor_points)
    width = 8 * -(-N // 64)
    # besides the masks: the (q, K, N) int16 scaled values, the (N, K)
    # int16 scored points, the route's (n, K) int16 point matrix and the
    # scoring arrays of a j-dim scan
    reps = len(orbit_representatives(spec))
    cases = [
        # anchored bruteforce j=2: D' is one row with pivot 1 (columns 2..4
        # vary), then one row per anchor
        (lambda: rghw_bruteforce(spec, 2), 2, 15, 2**3 + reps),
        # GHW j=1: one block per pivot p, columns p+1..4 vary
        (lambda: ghw_bruteforce(spec, 1), 1, 10, 2**4 + 2**3 + 2**2 + 2 + 1),
        # anchored dual j=1: D' is an anchor r G alone, one row per anchor
        (lambda: mj_dual_count(spec, 1).m, 1, 10, reps),
    ]
    table_class = weights._MaskTable

    def no_table(*args):
        raise AssertionError("table allocated past the bound")

    for run, dim, value, rows in cases:
        arrays = 2 * 5 * N * (2 + 1) + 2 * 5 * 21 + weights._score_bytes(5, N, 2, dim * (5 - dim))
        monkeypatch.setattr(weights, "TABLE_CAP_BYTES", rows * width + arrays)
        assert run() == value
        monkeypatch.setattr(weights, "TABLE_CAP_BYTES", rows * width + arrays - 1)
        monkeypatch.setattr(weights, "_MaskTable", no_table)
        with pytest.raises(CapExceeded):
            run()
        monkeypatch.setattr(weights, "_MaskTable", table_class)


def test_the_bound_refuses_before_the_points_are_read(monkeypatch):
    """A bound that the masks alone fit refuses a scan once its point matrix
    and scaled values are counted, and it refuses before the n-row point
    matrix is built."""
    cases = [
        # the masks of test_table_bound_raises_before_allocating, one word each
        (rghw_bruteforce, 2, 2**3 + 2, "coordinate_functionals"),
        (mj_dual_count, 1, 2, "group_vectors"),
    ]
    for route, dim, rows, points in cases:
        spec = build_code(2, 2, 3, 1, 1)
        monkeypatch.setattr(weights, "TABLE_CAP_BYTES", rows * 8)
        with pytest.raises(CapExceeded, match="^scan arrays of"):
            route(spec, dim)
        assert points not in spec.__dict__


def test_table_bound_counts_the_tables_a_pool_holds(monkeypatch, recording_pool):
    # GHW j=2 of (2,2,3,1,1) with 2 workers: 6 chunks, each with its own
    # table, and 2 alive at once; the 2 largest hold as many rows as the
    # one table of the in-process scan, since chunks share blocks
    monkeypatch.setattr(weights.os, "cpu_count", lambda: 2)
    spec = build_code(2, 2, 3, 1, 1)
    N = len(spec.factor_points)  # the scored points, one word per mask
    width = 8 * -(-N // 64)
    sets = pivot_sets(spec.ambient_dim, 2)
    work = [count_for_pivots(ps, 5, 2) for ps in sets]
    chunks = weights._chunks(sets, work, 2 * 4)
    rows = sorted(weights._table_bytes(
        layout(spec, c, None), N) // width for c in chunks)
    assert len(chunks) == 6 and rows[-2:] == [15, 16]
    assert weights._table_bytes(
        layout(spec, sets, None), N) == 31 * width
    # each of the 2 tables holds (q, K, N) int16 scaled values and scoring
    # arrays, the parent and both workers the (N, K) int16 scored points,
    # and the parent the route's (n, K) int16 point matrix
    arrays = (2 * 5 * N * (2 * 2 + 3) + 2 * 5 * 21
              + 2 * weights._score_bytes(5, N, 2, 2 * 3))
    monkeypatch.setattr(weights, "TABLE_CAP_BYTES", (15 + 16) * width + arrays)
    assert ghw_bruteforce(spec, 2, workers=2) == 15
    assert recording_pool == [2]
    monkeypatch.setattr(weights, "TABLE_CAP_BYTES", (15 + 16) * width + arrays - 1)

    def no_table(*args):
        raise AssertionError("table allocated past the bound")

    monkeypatch.setattr(weights, "_MaskTable", no_table)
    with pytest.raises(CapExceeded):
        ghw_bruteforce(spec, 2, workers=2)
    assert recording_pool == [2]  # no second pool started


def counted_bytes(spec, dim, mode, monkeypatch):
    """The bytes _plan_scan counts for a scan, as its refusal names them under a
    bound of 0."""
    with monkeypatch.context() as m:
        m.setattr(weights, "TABLE_CAP_BYTES", 0)
        with pytest.raises(CapExceeded) as exc:
            run_scan(spec, dim, mode)
    return int(re.match(r"scan arrays of (\d+) bytes", str(exc.value)).group(1))


@pytest.mark.parametrize("params,dim,mode", [
    ((2, 7, 8, 1, 1), 1, "min_support"),  # anchor rows only, n = 32385
    ((4, 3, 5, 1, 3), 2, "min_support"),  # GF(4) blocks and anchors
    ((3, 3, 5, 1, 2), 2, "max_group"),    # mod-3 blocks
])
def test_table_build_holds_what_the_bound_counts(params, dim, mode, monkeypatch):
    """The traced peak of a table build, with the point matrix built in the
    same trace, stays within the bytes _plan_scan counts plus the builder's own
    temporaries: a few value slices (the larger of SLICE_BYTES and q rows
    of n int16 values) and one n-row per column of a block."""
    spec = build_code(*params)
    q, K, n = spec.q, spec.ambient_dim, spec.n
    counted = counted_bytes(spec, dim, mode, monkeypatch)
    slack = 4 * max(weights.SLICE_BYTES, 2 * q * n) + 2 * K * n
    peaks = []
    table_class = weights._MaskTable

    def traced_table(*args):
        tracemalloc.reset_peak()
        table = table_class(*args)
        peaks.append(tracemalloc.get_traced_memory()[1])
        return table

    monkeypatch.setattr(weights, "_MaskTable", traced_table)
    tracemalloc.start()
    try:
        run_scan(spec, dim, mode)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 1 and peaks[0] <= counted + slack, (peaks, counted, slack)


@pytest.mark.parametrize("params,dim,mode", [
    ((2, 4, 7, 1, 1), 3, "min_support"),  # short masks: index arrays dominate
    ((3, 3, 5, 1, 2), 2, "max_group"),
    ((2, 7, 8, 1, 1), 1, "min_support"),  # anchors only, no free entry
    ((5, 2, 3, 1, 4), 2, "min_support_all"),  # a run of q > 2 rows
    ((4, 3, 4, 1, 3), 2, "max_group"),
])
def test_scoring_holds_what_the_bound_counts(params, dim, mode):
    """The traced peak of scoring every pivot set of a scan on its table
    stays within the scoring bytes _plan_scan counts once per table."""
    spec = build_code(*params)
    K = spec.ambient_dim
    plan = weights._plan_scan(spec, dim, mode, weights.DEFAULT_ENUM_CAP, 1)
    _, points = weights._scan_points(spec, plan)
    table = weights._MaskTable(spec.ops, points, plan.anchors, plan.shape.layouts[0])
    tracemalloc.start()
    try:
        for index in plan.shape.chunks[0]:
            weights._first_minimum(table, index, plan.slope)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= weights._score_bytes(K, len(points), spec.q, dim * (K - dim))


def test_mask_table_holds_each_block_once(monkeypatch):
    spec = build_code(2, 2, 3, 1, 1)
    reps = orbit_representatives(spec)
    for mode, dim, anchors in (("min_support", 1, reps), ("min_support", 2, None),
                               ("min_support_all", 2, None), ("max_group", 1, None)):
        sets, points = kernel_args(spec, dim, mode)
        if anchors is not None:
            sets = [ps for ps in sets if 0 not in ps]
        lay = layout(spec, sets, anchors)
        table = weights._MaskTable(spec.ops, points, anchors, lay)
        assert weights._table_bytes(lay, spec.n) == table.masks.nbytes, mode
    # (2,3,2,1,1) dual j=2: the pivot sets (0,1), (0,2), (1,2) have 6
    # (pivot set, row) pairs and 5 distinct blocks over the rows' free
    # columns (32 rows), but 3 over every later column (28 rows), which the
    # layout keeps; built by linearity with no matmul
    spec = build_code(2, 3, 2, 1, 1)
    sets = pivot_sets(spec.k1, 2)
    assert sum(len(weights._block_keys(ps, 5, True)) for ps in sets) == 6
    calls = []
    matmul = spec.ops.matmul
    monkeypatch.setattr(spec.ops, "matmul", lambda a, b: calls.append(a.shape) or matmul(a, b))
    table = weights._MaskTable(spec.ops, spec.group_vectors, None,
                               layout(spec, sets, None))
    assert len(table.starts) == 3
    assert calls == []
    assert table.masks.shape[0] == 2**4 + 2**3 + 2**2


@settings(max_examples=100, deadline=None)
@given(params=st.sampled_from([(2, 2, 3, 1, 1), (3, 2, 3, 1, 2), (4, 2, 3, 1, 3),
                               (5, 2, 3, 1, 4)]),
       mode=st.sampled_from(["min_support", "min_support_all", "max_group"]),
       anchored=st.booleans(), slice_rows=st.integers(1, 40), data=st.data())
def test_mask_table_rows_match_the_definition(params, mode, anchored, slice_rows, data):
    """Every row of every block is packbits((a @ funcs[cols]) != target[lead])
    through the field's matmul in its first ceil(n/8) bytes and zero after
    them, for characteristic 2, odd primes and GF(4), whatever the slice
    size splits the block's columns into; an anchor's row is the mask of
    the points outside it."""
    spec = build_code(*params)
    q, K = spec.q, spec.ambient_dim
    dim = data.draw(st.integers(1, K))
    sets, points = kernel_args(spec, dim, mode)
    anchors = orbit_representatives(spec) if anchored else None
    with mock.patch.object(weights, "SLICE_BYTES", slice_rows * 2 * spec.n):
        table = weights._MaskTable(spec.ops, points, anchors,
                                   layout(spec, sets, anchors))
    funcs = points.T
    packed = -(-spec.n // 8)
    rows = table.masks.view(np.uint8)
    assert rows.shape[1] == 8 * -(-spec.n // 64)
    assert not rows[:, packed:].any()
    target = spec.ops.mul_table[spec.field_q.neg(1)][funcs]
    for (cols, lead), start in table.starts.items():
        a = np.array(list(itertools.product(range(q), repeat=len(cols))),
                     dtype=np.int16).reshape(q ** len(cols), len(cols))
        want = np.packbits(spec.ops.matmul(a, funcs[list(cols)]) != target[lead], axis=1)
        assert (rows[start:start + len(a), :packed] == want).all(), (cols, lead)
    if anchored:
        want = np.packbits(spec.ops.matmul(anchors, funcs) != 0, axis=1)
        assert (rows[table.anchor_rows.start:, :packed] == want).all()


def test_every_ladder_scan_argmax_is_pinned(ladder):
    """(value, argmax rows) of every scan of the benchmark's ladder specs,
    every dimension and mode: a change in the argmax tie order fails here.
    The support scans are pinned against a digest of the code before the
    kernel built its rows and indices by linearity, the dual scan against
    a digest taken when it was first anchored on the Gram images r G."""
    digests = {"support": hashlib.sha256(), "dual": hashlib.sha256()}
    scans = 0
    for params in ladder:
        spec = build_code(*params)
        K, k1 = spec.ambient_dim, spec.k1
        for mode, dims in (("min_support", range(1, k1 + 1)),
                           ("min_support_all", range(1, K + 1)),
                           ("max_group", range(1, k1 + 1))):
            digest = digests["dual" if mode == "max_group" else "support"]
            for dim in dims:
                val, rows = run_scan(spec, dim, mode)
                digest.update(f"{params} {mode} {dim} {val} {rows.tolist()}\n".encode())
                scans += 1
    assert scans == 45
    assert digests["support"].hexdigest() == (
        "e9d92f4a2ff8388b4f275317a05438eb3aff0d25e6b22350b41ecbbe8dbbcc97")
    assert digests["dual"].hexdigest() == (
        "16dabd972d16c2f56363d81a3cc07d5949966f584556730e7858fc4ec6aa8a35")


# Bytes of the dual scan's mask table for j = 1..k1 on the frontier and
# ladder specs.  The layout is the smaller of the two block-key rules, so
# no size is above the one the scan over H held, and no CapExceeded
# threshold of TABLE_CAP_BYTES falls.
DUAL_TABLE_BYTES = {
    (2, 4, 7, 1, 1): [460800, 460800, 460800, 122880],
    (3, 3, 5, 1, 2): [1263600, 1069200, 291600],
    (4, 3, 4, 1, 3): [3612672, 2408448, 516096],
    (2, 5, 6, 1, 1): [492032, 492032, 492032, 380928, 79360],
    (3, 4, 5, 1, 2): [11819520, 11819520, 6205248, 1181952],
    (2, 6, 7, 1, 1): [8128512, 8128512, 8128512, 8128512, 4515840, 774144],
    (4, 3, 5, 1, 3): [57802752, 38535168, 8257536],
    (3, 3, 5, 1, 1): [1263600, 1069200, 291600],
    (4, 2, 5, 1, 1): [3276800, 1310720],
    (2, 5, 6, 1, 3): [174592, 174592, 174592, 135168, 28160],
    (2, 6, 7, 3, 1): [2709504, 2709504, 2709504, 2709504, 1505280, 258048],
    (2, 3, 4, 1, 1): [1792, 1792, 768],
    (4, 2, 3, 1, 3): [5120, 2048],
    (5, 2, 3, 1, 4): [72000, 24000],
    (2, 3, 5, 1, 1): [7168, 7168, 3072],
}


def test_dual_table_sizes_are_pinned():
    for params, sizes in DUAL_TABLE_BYTES.items():
        spec = build_code(*params)
        got = [weights._table_bytes(
                   layout(spec, pivot_sets(spec.k1, j), None), spec.n)
               for j in range(1, spec.k1 + 1)]
        assert got == sizes, params


def plain_first_minimum(table, plan, slope=1):
    """Least slope * count over one pivot set's subspaces and the first t
    attaining it, by OR-ing every mask the plan names for every t."""
    weights_, bases = plan.weights, plan.bases
    q, width = table.q, len(plan.positions)
    t = np.arange(len(bases) * q ** width)
    index = digits(t % q ** width, width, q) @ weights_ + bases[t // q ** width]
    counts = np.bitwise_count(np.bitwise_or.reduce(table.masks[index], axis=1)).sum(axis=1)
    values = slope * counts.astype(np.int64)
    return int(values.min()), int(values.argmin())


@settings(max_examples=150, deadline=None)
@given(params=st.sampled_from([(2, 2, 3, 1, 1), (3, 2, 3, 1, 2), (4, 2, 3, 1, 3),
                               (2, 3, 4, 1, 1), (3, 2, 1, 2, 1)]),
       mode=st.sampled_from(["min_support", "min_support_all", "max_group"]),
       anchored=st.booleans(), batch=st.integers(1, 40), slope=st.sampled_from([1, 3, -1]),
       data=st.data())
def test_shared_ors_find_the_plain_first_minimum(params, mode, anchored, batch, slope, data):
    """The batch loop ORs head masks once per head, low masks once per pivot
    set and gathers only straddling rows; with batches of a few subspaces
    (several heads per batch at q > 2, rows split across the low/high
    boundary), it finds the value and first t that OR-ing every mask does,
    for a count scaled by c or negated (the first maximum of the count)."""
    spec = build_code(*params)
    K = spec.ambient_dim
    anchors = orbit_representatives(spec) if anchored and mode != "max_group" else None
    # an unanchored subspace has at least one row
    dim = data.draw(st.integers(0 if anchors is not None else 1, K))
    sets, points = kernel_args(spec, dim, mode)
    sets = [ps for ps in sets if anchors is None or 0 not in ps]
    if not sets:
        return
    pivots = data.draw(st.sampled_from(sets))
    lay = layout(spec, [pivots], anchors)
    table = weights._MaskTable(spec.ops, points, anchors, lay)
    with mock.patch.object(weights, "BATCH", batch):
        plan = index_plan(spec, pivots, lay, anchors, points)
    assert plan.batch == batch
    got = weights._first_minimum(table, plan, slope)
    assert got == plain_first_minimum(table, plan, slope)


def rule_layout(q, K, sets, anchors, free):
    """Reference layout under one block-key rule: the distinct blocks of the
    pivot sets' rows in order of first use, stacked, then the anchors."""
    keys = dict.fromkeys(key for ps in sets for key in weights._block_keys(ps, K, free))
    sizes = [q ** len(cols) for cols, _ in keys]
    starts = dict(zip(keys, itertools.accumulate([0] + sizes)))
    return starts, sum(sizes) + nanchors(anchors), free


@settings(max_examples=100, deadline=None)
@given(mode=st.sampled_from(["min_support", "min_support_all", "max_group"]),
       anchored=st.booleans(), data=st.data())
def test_block_key_rule_moves_no_value_or_argmax(small_grid, mode, anchored, data):
    """A table laid out under either block-key rule gives every pivot set
    the same least count and first t, so _block_starts may keep the smaller
    layout (every later column on a tie)."""
    spec = build_code(*data.draw(st.sampled_from(small_grid)))
    q, K = spec.q, spec.ambient_dim
    anchors = orbit_representatives(spec) if anchored and mode != "max_group" else None
    top = K if mode == "min_support_all" else spec.k1
    dim = data.draw(st.integers(0 if anchors is not None else 1, top))
    sets, points = kernel_args(spec, dim, mode)
    sets = [ps for ps in sets if anchors is None or 0 not in ps]
    if not sets:
        return
    layouts = [rule_layout(q, K, sets, anchors, free) for free in (False, True)]
    tables = [weights._MaskTable(spec.ops, points, anchors, lay) for lay in layouts]
    for pivots in sets:
        later, free = (weights._first_minimum(t, index_plan(spec, pivots, lay, anchors, points))
                       for t, lay in zip(tables, layouts))
        assert later == free, (spec, mode, pivots)
    kept = weights._block_starts(q, K, sets, nanchors(anchors))
    assert kept == layouts[layouts[1][1] < layouts[0][1]]


def test_straddling_rows_keep_the_pinned_argmax():
    """(value, argmax rows) of bruteforce and GHW scans of (4,3,4,1,3),
    against a digest of the code before the shared ORs.  A batch there
    covers 4 base-4 digits, and the rows with pivot 0 or 1 have 6 and 5
    free entries, so they straddle the low/high split."""
    params = (4, 3, 4, 1, 3)
    spec = build_code(*params)
    digest = hashlib.sha256()
    for mode, dims in (("min_support", (1, 2, 3)), ("min_support_all", (1, 2, 6))):
        for dim in dims:
            val, rows = run_scan(spec, dim, mode)
            digest.update(f"{params} {mode} {dim} {val} {rows.tolist()}\n".encode())
    assert digest.hexdigest() == "e8ab5c79ed1765773ec113e9b1262097a69c6ece86d8d051aea426370d46c25d"


def test_the_byte_bound_keeps_bit_counts_exact_in_float32(monkeypatch):
    """_first_minimum sums bit counts times the slope in float32, exact
    while n < 2^24, as |slope| times the points scored is at most n.
    Every scan counts more than 2 K n >= 4 n bytes, the route's (n, K)
    int16 point matrix with K >= 2 and then its scored points, so a bound
    of at most 4 * 2^24 refuses every scan with n >= 2^24."""
    assert weights.TABLE_CAP_BYTES < 12 * 2**24
    assert weights.TABLE_CAP_BYTES <= 4 * 2**24
    spec = build_code(2, 2, 3, 1, 1)
    for mode in ("min_support", "min_support_all", "max_group"):
        assert counted_bytes(spec, 1, mode, monkeypatch) >= 12 * spec.n


def test_anchored_dual_winner_is_reduced_by_one_step(spec_grid):
    """On every anchored dual scan of the specs with q^K <= PROPERTY_GRID,
    reducing the anchor of the winner [r G; D'] at the pivots of D' gives
    the RREF that a full elimination of the rows gives."""
    anchored = 0
    for spec in property_specs(spec_grid):
        for j in range(1, spec.k1 + 1):
            plan = weights._plan_scan(spec, j, "max_group", weights.DEFAULT_ENUM_CAP, 1)
            if plan.anchors is None:
                continue
            _, rows = weights._run_scan(spec, plan)
            assert np.array_equal(weights._anchored_rref(spec.ops, rows),
                                  spec.ops.rref(rows)[0]), (spec, j, rows.tolist())
            anchored += 1
    assert anchored > 500


def assert_same(a, b, path="plan"):
    """a and b hold equal values, field by field, array by array."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b), path
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}")
    elif isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray) and a.dtype == b.dtype, path
        assert a.shape == b.shape and np.array_equal(a, b), path
    elif isinstance(a, (tuple, list, dict)):
        assert type(a) is type(b) and len(a) == len(b), path
        if isinstance(a, dict):
            assert list(a) == list(b), path
            a, b = list(a.values()), list(b.values())
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{path}[{i}]")
    else:
        assert a == b, path


def shape_arrays(shape):
    """Every array a scan shape holds."""
    for chunk in shape.chunks:
        for index in chunk:
            for f in dataclasses.fields(index):
                if isinstance(getattr(index, f.name), np.ndarray):
                    yield getattr(index, f.name)


def test_a_cold_shape_equals_a_warm_one(small_grid, monkeypatch, recording_pool):
    """For every spec with q^K <= 81, every mode, j and workers in {1, 2},
    the plan made from the cached shape equals the one made after the cache
    is cleared; the shape's arrays are read-only, and the subspace count
    the cap is checked against (_scan_count) is the sum over its pivot sets
    of the anchors times q^P.  Every report is
    the same from a cold cache and from a warm one."""
    monkeypatch.setattr(weights.os, "cpu_count", lambda: 2)
    modes = ("min_support", "min_support_all", "max_group")
    shapes = 0
    for params in small_grid:
        spec = build_code(*params)
        for mode in modes:
            top = spec.ambient_dim if mode == "min_support_all" else spec.k1
            for j in range(1, top + 1):
                for workers in (1, 2):
                    first = weights._plan_scan(spec, j, mode, weights.DEFAULT_ENUM_CAP, workers)
                    warm = weights._plan_scan(spec, j, mode, weights.DEFAULT_ENUM_CAP, workers)
                    assert warm.shape is first.shape
                    weights._scan_shape.cache_clear()
                    cold = weights._plan_scan(spec, j, mode, weights.DEFAULT_ENUM_CAP, workers)
                    assert cold.shape is not warm.shape
                    assert_same(cold, warm)
                    shape = cold.shape
                    relative = mode != "min_support_all"
                    reps = len(spec.orbit_anchors[mode == "max_group"]) if relative else 0
                    assert weights._scan_count(spec.q, spec.ambient_dim, spec.k1, j, relative,
                                               reps) == (shape.anchored, sum(
                        len(index.bases) * spec.q ** len(index.positions)
                        for chunk in shape.chunks for index in chunk))
                    assert not any(array.flags.writeable for array in shape_arrays(shape))
                    shapes += 1
        for workers in (1, 2):
            warm = [weights.compute_report(spec, j, workers=workers).as_dict()
                    for j in range(1, spec.k1 + 1)]
            weights._scan_shape.cache_clear()
            cold = [weights.compute_report(spec, j, workers=workers).as_dict()
                    for j in range(1, spec.k1 + 1)]
            assert cold == warm, params
    assert shapes > 300 and 2 in recording_pool


@pytest.mark.parametrize("batch", [1, 2, 3, 7, 40, 2048])
def test_the_index_plan_follows_the_batch(batch):
    """The shape is keyed by the batch size, so a plan made under a patched
    BATCH splits every pivot set's digits for that batch, not for a batch
    cached earlier; masks of one word leave the batch at BATCH."""
    cases = [((2, 3, 4, 1, 1), "min_support_all", 3), ((4, 2, 3, 1, 3), "min_support", 2),
             ((3, 2, 3, 1, 2), "max_group", 2), ((5, 2, 3, 1, 4), "min_support_all", 2)]
    for params, mode, dim in cases:
        spec = build_code(*params)
        weights._plan_scan(spec, dim, mode, weights.DEFAULT_ENUM_CAP, 1)  # the default batch
        with mock.patch.object(weights, "BATCH", batch):
            plan = weights._plan_scan(spec, dim, mode, weights.DEFAULT_ENUM_CAP, 1)
        for chunk in plan.shape.chunks:
            for index in chunk:
                width = len(index.positions)
                assert index.batch == batch, params
                assert index.split == width - weights._low_width(width, spec.q, batch), params
