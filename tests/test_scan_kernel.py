"""The pivot-set scan kernel against definition-level references."""

import hashlib
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rghw import weights
from rghw.closed_forms import evaluate_closed_form
from rghw.codes import build_code
from rghw.errors import CapExceeded
from rghw.gf import field_for_size
from rghw.subspaces import (
    count_for_pivots,
    cyclic_group_counts,
    digits,
    free_positions,
    gaussian_binomial,
    kernel_rows,
    pivot_sets,
    rref_stack,
)
from rghw.linalg import table_ops
from rghw.weights import (
    ghw_bruteforce,
    mj_dual_count,
    orbit_representatives,
    rghw_bruteforce,
)


def kernel_args(spec, dim, mode):
    """What _scan hands the kernel for an unanchored scan of a mode: the
    pivot sets, the point matrix and the block-key rule."""
    sets = pivot_sets(spec.ambient_dim if mode == "min_support_all" else spec.k1, dim)
    points = spec.group_vectors if mode == "max_group" else spec.coordinate_functionals
    return sets, points, mode == "max_group"


def layout(spec, mode, sets, anchors):
    """The _block_starts layout _scan computes for these pivot sets."""
    return weights._block_starts(spec.q, spec.ambient_dim, sets, anchors, mode == "max_group")


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


def test_cap_counts_admissible_subspaces():
    spec = build_code(2, 2, 3, 1, 1)
    q, k1, k2 = spec.q, spec.k1, spec.k2
    reps = len(orbit_representatives(spec))
    for j in (1, 2):
        # bruteforce: [k1-1, j-1]_q q^((j-1) k2) subspaces through each anchor
        count = reps * gaussian_binomial(k1 - 1, j - 1, q) * q ** ((j - 1) * k2)
        assert rghw_bruteforce(spec, j, cap=count) == (10, 15)[j - 1]
        with pytest.raises(CapExceeded):
            rghw_bruteforce(spec, j, cap=count - 1)
        # dual: all [k1, j]_q q^(j k2) admissible subspaces
        count = gaussian_binomial(k1, j, q) * q ** (j * k2)
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


def test_table_bound_raises_before_allocating(monkeypatch):
    spec = build_code(2, 2, 3, 1, 1)  # K = 5, n = 21: one 8-byte word per mask
    width = 8 * -(-spec.n // 64)
    # besides the masks: the (q, K, n) int16 scaled values and the (n, K)
    # int16 point matrix
    arrays = 2 * 5 * 21 * (2 + 1)
    reps = len(orbit_representatives(spec))
    cases = [
        # anchored bruteforce j=2: D' is one row with pivot 1 (columns 2..4
        # vary), then one row per anchor
        (lambda: rghw_bruteforce(spec, 2), 15, 2**3 + reps),
        # GHW j=1: one block per pivot p, columns p+1..4 vary
        (lambda: ghw_bruteforce(spec, 1), 10, 2**4 + 2**3 + 2**2 + 2 + 1),
        # dual j=1: a row with pivot 0 (columns 1..4 vary), one with pivot 1
        # (columns 2..4 vary)
        (lambda: mj_dual_count(spec, 1).m, 10, 2**4 + 2**3),
    ]
    table_class = weights._MaskTable

    def no_table(*args):
        raise AssertionError("table allocated past the bound")

    for run, value, rows in cases:
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
        (mj_dual_count, 1, 2**4 + 2**3, "group_vectors"),
    ]
    for route, dim, rows, points in cases:
        spec = build_code(2, 2, 3, 1, 1)
        monkeypatch.setattr(weights, "TABLE_CAP_BYTES", rows * 8)
        with pytest.raises(CapExceeded, match="^scan arrays of"):
            route(spec, dim)
        assert points not in spec.__dict__


def test_table_bound_counts_the_tables_a_pool_holds(monkeypatch, recording_pool):
    # GHW j=2 of (2,2,3,1,1) with 2 workers: 6 chunks, each with its own
    # table, and 2 alive at once; the 2 largest hold more rows than the one
    # table of the in-process scan, since chunks share blocks
    monkeypatch.setattr(weights.os, "cpu_count", lambda: 2)
    spec = build_code(2, 2, 3, 1, 1)
    width = 8 * -(-spec.n // 64)
    sets = pivot_sets(spec.ambient_dim, 2)
    work = [count_for_pivots(ps, 5, 2) for ps in sets]
    chunks = weights._chunks(sets, work, 2 * 4)
    rows = sorted(weights._table_bytes(
        layout(spec, "min_support_all", c, None), spec.n) // width for c in chunks)
    assert len(chunks) == 6 and rows[-2:] == [20, 24]
    assert weights._table_bytes(
        layout(spec, "min_support_all", sets, None), spec.n) == 31 * width
    # each of the 2 tables holds (q, K, n) int16 scaled values, and the
    # parent and both workers an (n, K) int16 point matrix
    arrays = 2 * 5 * 21 * (2 * 2 + 3)
    monkeypatch.setattr(weights, "TABLE_CAP_BYTES", (20 + 24) * width + arrays)
    assert ghw_bruteforce(spec, 2, workers=2) == 15
    assert recording_pool == [2]
    monkeypatch.setattr(weights, "TABLE_CAP_BYTES", (20 + 24) * width + arrays - 1)

    def no_table(*args):
        raise AssertionError("table allocated past the bound")

    monkeypatch.setattr(weights, "_MaskTable", no_table)
    with pytest.raises(CapExceeded):
        ghw_bruteforce(spec, 2, workers=2)
    assert recording_pool == [2]  # no second pool started


def test_mask_table_holds_each_block_once(monkeypatch):
    spec = build_code(2, 2, 3, 1, 1)
    reps = orbit_representatives(spec)
    for mode, dim, anchors in (("min_support", 1, reps), ("min_support", 2, None),
                               ("min_support_all", 2, None), ("max_group", 1, None)):
        sets, points, _ = kernel_args(spec, dim, mode)
        if anchors is not None:
            sets = [ps for ps in sets if 0 not in ps]
        lay = layout(spec, mode, sets, anchors)
        table = weights._MaskTable(spec.ops, points, anchors, lay)
        assert weights._table_bytes(lay, spec.n) == table.masks.nbytes, mode
    # (2,3,2,1,1) dual j=2: the pivot sets (0,1), (0,2), (1,2) have 6
    # (pivot set, row) pairs but 5 distinct blocks, each over the row's free
    # columns, built by linearity with no matmul
    spec = build_code(2, 3, 2, 1, 1)
    sets = pivot_sets(spec.k1, 2)
    assert sum(len(weights._block_keys(ps, 5, True)) for ps in sets) == 6
    calls = []
    matmul = spec.ops.matmul
    monkeypatch.setattr(spec.ops, "matmul", lambda a, b: calls.append(a.shape) or matmul(a, b))
    table = weights._MaskTable(spec.ops, spec.group_vectors, None,
                               layout(spec, "max_group", sets, None))
    assert len(table.starts) == 5
    assert calls == []
    assert table.masks.shape[0] == 2**3 + 2**3 + 2**3 + 2**2 + 2**2


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
    sets, points, _ = kernel_args(spec, dim, mode)
    anchors = orbit_representatives(spec) if anchored else None
    with mock.patch.object(weights, "SLICE_BYTES", slice_rows * 2 * spec.n):
        table = weights._MaskTable(spec.ops, points, anchors,
                                   layout(spec, mode, sets, anchors))
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
    a digest taken when it first walked D = H^perp."""
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
                val, rows = weights._scan(spec, dim, mode, weights.DEFAULT_ENUM_CAP, 1)
                digest.update(f"{params} {mode} {dim} {val} {rows.tolist()}\n".encode())
                scans += 1
    assert scans == 45
    assert digests["support"].hexdigest() == (
        "e9d92f4a2ff8388b4f275317a05438eb3aff0d25e6b22350b41ecbbe8dbbcc97")
    assert digests["dual"].hexdigest() == (
        "2190aaa9613581a9a4685542514452f5c5f68a13a1701f2d30818a015049613f")


# Bytes of the dual scan's mask table for j = 1..k1 on the frontier and
# ladder specs, as the scan over H itself held them.  Walking D = H^perp
# keys each row on its free columns, which keeps every size, so no
# CapExceeded threshold of TABLE_CAP_BYTES moves.
DUAL_TABLE_BYTES = {
    (2, 4, 7, 1, 1): [460800, 737280, 460800, 122880],
    (3, 3, 5, 1, 2): [1263600, 1069200, 291600],
    (4, 3, 4, 1, 3): [3612672, 2408448, 516096],
    (2, 5, 6, 1, 1): [492032, 1015808, 872960, 380928, 79360],
    (3, 4, 5, 1, 2): [11819520, 13887936, 6205248, 1181952],
    (2, 6, 7, 1, 1): [8128512, 20643840, 22579200, 13418496, 4515840, 774144],
    (4, 3, 5, 1, 3): [57802752, 38535168, 8257536],
    (3, 3, 5, 1, 1): [1263600, 1069200, 291600],
    (4, 2, 5, 1, 1): [3276800, 1310720],
    (2, 5, 6, 1, 3): [174592, 360448, 309760, 135168, 28160],
    (2, 6, 7, 3, 1): [2709504, 6881280, 7526400, 4472832, 1505280, 258048],
    (2, 3, 4, 1, 1): [1792, 2048, 768],
    (4, 2, 3, 1, 3): [5120, 2048],
    (5, 2, 3, 1, 4): [72000, 24000],
    (2, 3, 5, 1, 1): [7168, 8192, 3072],
}


def test_dual_table_sizes_are_pinned():
    for params, sizes in DUAL_TABLE_BYTES.items():
        spec = build_code(*params)
        got = [weights._table_bytes(
                   layout(spec, "max_group", pivot_sets(spec.k1, j), None), spec.n)
               for j in range(1, spec.k1 + 1)]
        assert got == sizes, params


def plain_first_minimum(table, pivots, positions):
    """Least count over one pivot set's subspaces and the first t attaining
    it, by OR-ing every mask the plan names for every t."""
    weights_, bases = table.plan(pivots, positions)
    q, width = table.q, len(positions)
    t = np.arange(len(bases) * q ** width)
    index = digits(t % q ** width, width, q) @ weights_ + bases[t // q ** width]
    values = np.bitwise_count(np.bitwise_or.reduce(table.masks[index], axis=1)).sum(axis=1)
    return int(values.min()), int(values.argmin())


@settings(max_examples=150, deadline=None)
@given(params=st.sampled_from([(2, 2, 3, 1, 1), (3, 2, 3, 1, 2), (4, 2, 3, 1, 3),
                               (2, 3, 4, 1, 1), (3, 2, 1, 2, 1)]),
       mode=st.sampled_from(["min_support", "min_support_all", "max_group"]),
       anchored=st.booleans(), batch=st.integers(1, 40), data=st.data())
def test_shared_ors_find_the_plain_first_minimum(params, mode, anchored, batch, data):
    """The batch loop ORs head masks once per head, low masks once per pivot
    set and gathers only straddling rows; with batches of a few subspaces
    (several heads per batch at q > 2, rows split across the low/high
    boundary), it finds the value and first t that OR-ing every mask does."""
    spec = build_code(*params)
    K = spec.ambient_dim
    anchors = orbit_representatives(spec) if anchored and mode != "max_group" else None
    # an unanchored subspace has at least one row
    dim = data.draw(st.integers(0 if anchors is not None else 1, K))
    sets, points, _ = kernel_args(spec, dim, mode)
    sets = [ps for ps in sets if anchors is None or 0 not in ps]
    if not sets:
        return
    pivots = data.draw(st.sampled_from(sets))
    positions = free_positions(pivots, K)
    table = weights._MaskTable(spec.ops, points, anchors,
                               layout(spec, mode, [pivots], anchors))
    with mock.patch.object(weights, "BATCH", batch):
        got = weights._first_minimum(table, pivots, positions)
    assert got == plain_first_minimum(table, pivots, positions)


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
            val, rows = weights._scan(spec, dim, mode, weights.DEFAULT_ENUM_CAP, 1)
            digest.update(f"{params} {mode} {dim} {val} {rows.tolist()}\n".encode())
    assert digest.hexdigest() == "e8ab5c79ed1765773ec113e9b1262097a69c6ece86d8d051aea426370d46c25d"
