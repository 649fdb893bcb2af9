"""The pivot-set scan kernel against definition-level references."""

import itertools

import numpy as np
import pytest

from rghw import weights
from rghw.closed_forms import evaluate_closed_form
from rghw.codes import build_code
from rghw.errors import CapExceeded
from rghw.gf import field_for_size
from rghw.subspaces import (
    enumerate_subspaces,
    gaussian_binomial,
    intersect_with_cyclic_group,
    subspace_from_rows,
)
from rghw.linalg import table_ops
from rghw.weights import (
    admissible_pivot_sets,
    ghw_bruteforce,
    mj_dual_count,
    orbit_representatives,
    rghw_bruteforce,
    subspace_support_size,
)

@pytest.mark.parametrize("q,k1,k2", [(2, 2, 3), (2, 3, 2), (3, 2, 3), (2, 3, 4)])
def test_pivot_set_admissibility_matches_rank_conditions(q, k1, k2):
    ops = table_ops(field_for_size(q))
    K = k1 + k2
    for mode in ("min_support", "max_group"):
        # the scan enumerates in its working column order
        order = weights._column_order(k1, k2, mode)
        for dim in range(K + 1):
            admissible = set(admissible_pivot_sets(k1, k2, dim, mode))
            for basis in enumerate_subspaces(K, dim, q):
                mat = np.empty((dim, K), dtype=np.int16)
                mat[:, order] = basis.matrix()
                if mode == "min_support":
                    want = ops.rank(mat[:, :k1]) == dim
                else:
                    want = ops.rank(mat[:, k1:]) == k2
                assert (basis.pivots in admissible) == want, (mode, basis.rows)


def definition_reference(spec):
    """Per dimension d: min support over all d-dim subspaces (GHW), over
    those with injective first projection (RGHW), and max group count over
    those with onto second projection, straight from the enumeration."""
    K, k1, k2, ops = spec.ambient_dim, spec.k1, spec.k2, spec.ops
    ghw, rghw, group = {}, {}, {}
    for d in range(1, K + 1):
        for basis in enumerate_subspaces(K, d, spec.q, ambient="product"):
            mat = basis.matrix()
            supp = subspace_support_size(spec, basis)
            ghw[d] = min(ghw.get(d, supp), supp)
            if ops.rank(mat[:, :k1]) == d:
                rghw[d] = min(rghw.get(d, supp), supp)
            if ops.rank(mat[:, k1:]) == k2:
                count = intersect_with_cyclic_group(basis, spec)
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
            assert arg.dim == K - j
            assert subspace_from_rows(spec.q, K, arg.rows).rows == arg.rows
            assert intersect_with_cyclic_group(arg, spec) == dual.n_j
            assert spec.ops.rank(arg.matrix()[:, k1:]) == k2


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
        labels = sorted(orbit[spec.pair_from_vector(r)] for r in reps)
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


def test_table_bound_raises_before_allocating(monkeypatch):
    spec = build_code(2, 2, 3, 1, 1)
    width = -(-spec.n // 8)
    # the anchored table covers the codes below q^(K-1), then the anchors
    anchored_bytes = (spec.q ** (spec.ambient_dim - 1)
                      + len(orbit_representatives(spec))) * width
    support_bytes = spec.q**spec.ambient_dim * width
    monkeypatch.setattr(weights, "TABLE_CAP_BYTES", anchored_bytes)
    assert rghw_bruteforce(spec, 1) == 10
    monkeypatch.setattr(weights, "TABLE_CAP_BYTES", support_bytes)
    assert ghw_bruteforce(spec, 1) == 10
    monkeypatch.setattr(weights, "TABLE_CAP_BYTES", anchored_bytes - 1)

    def no_table(*args):
        raise AssertionError("table allocated past the bound")

    monkeypatch.setattr(weights, "_SupportTable", no_table)
    with pytest.raises(CapExceeded):
        rghw_bruteforce(spec, 1)
    monkeypatch.setattr(weights, "TABLE_CAP_BYTES", support_bytes - 1)
    with pytest.raises(CapExceeded):
        ghw_bruteforce(spec, 1)
    # the dual route holds per-column tables only, far below the support table
    assert mj_dual_count(spec, 1).m == 10
    monkeypatch.setattr(weights, "TABLE_CAP_BYTES", 0)
    with pytest.raises(CapExceeded):
        mj_dual_count(spec, 1)
