"""Optimized partitioning kernels must match the reference bit-for-bit."""

import heapq

import numpy as np
import pytest

from repro.core.dualgraph import DualGraph
from repro.kernels import reference_kernels
from repro.mesh.generate import box_mesh
from repro.partition import Graph, fm_refine, multilevel
from repro.partition.fm_refine import (
    fm_bisection_refine,
    fm_bisection_refine_reference,
    kway_greedy_refine,
    kway_greedy_refine_reference,
)
from repro.partition.matching import (
    heavy_edge_matching,
    heavy_edge_matching_reference,
)
from repro.partition.initial import greedy_graph_growing
from repro.partition.multilevel import multilevel_kway
from repro.partition.quality import edgecut


def _graph(seed: int, n: int = 3):
    rng = np.random.default_rng(seed)
    dual = DualGraph(box_mesh(n, n, n))
    g = dual.graph
    g.vwgt = rng.integers(1, 9, size=g.n).astype(np.int64)
    # symmetric random edge weights
    w = {}
    ew = np.empty_like(g.ewgt)
    for v in range(g.n):
        for i in range(g.ptr[v], g.ptr[v + 1]):
            u = int(g.adj[i])
            key = (min(v, u), max(v, u))
            if key not in w:
                w[key] = int(rng.integers(1, 9))
            ew[i] = w[key]
    g.ewgt = ew
    return g, rng


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_heavy_edge_matching_bit_identical(seed):
    g, _ = _graph(seed)
    opt = heavy_edge_matching(g, np.random.default_rng(seed))
    ref = heavy_edge_matching_reference(g, np.random.default_rng(seed))
    assert np.array_equal(opt, ref)
    # with labels restricting the matching
    lab = np.random.default_rng(seed + 50).integers(0, 3, size=g.n)
    opt = heavy_edge_matching(g, np.random.default_rng(seed), allowed=lab)
    ref = heavy_edge_matching_reference(
        g, np.random.default_rng(seed), allowed=lab
    )
    assert np.array_equal(opt, ref)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fm_bisection_refine_bit_identical(seed):
    g, rng = _graph(seed)
    side0 = rng.integers(0, 2, size=g.n).astype(np.int64)
    for target0 in (0.5, 0.3):
        opt = fm_bisection_refine(g, side0.copy(), target0)
        ref = fm_bisection_refine_reference(g, side0.copy(), target0)
        assert np.array_equal(opt, ref)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kway_greedy_refine_bit_identical(seed):
    g, rng = _graph(seed)
    k = 4
    part0 = rng.integers(0, k, size=g.n).astype(np.int64)
    for balance_only in (False, True):
        opt = kway_greedy_refine(g, part0.copy(), k, balance_only=balance_only)
        ref = kway_greedy_refine_reference(
            g, part0.copy(), k, balance_only=balance_only
        )
        assert np.array_equal(opt, ref)


def _loads(g, part, k):
    return np.bincount(part, weights=g.vwgt.astype(np.float64), minlength=k)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kway_balance_only_mixed_overweight_bit_identical(seed):
    """Some parts overweight, others not: only the overweight parts'
    vertices are examined by the optimized kernel, and the moves match."""
    g, rng = _graph(seed, n=4)
    k = 5
    part0 = rng.integers(0, k, size=g.n).astype(np.int64)
    part0[rng.random(g.n) < 0.25] = 0
    part0[rng.random(g.n) < 0.10] = 3
    cap = 1.05 * g.total_vwgt() / k
    over = _loads(g, part0, k) > cap
    assert over.any() and not over.all()
    opt = kway_greedy_refine(g, part0.copy(), k, balance_only=True)
    ref = kway_greedy_refine_reference(g, part0.copy(), k, balance_only=True)
    assert np.array_equal(opt, ref)
    assert not np.array_equal(opt, part0)
    assert _loads(g, opt, k).max() < _loads(g, part0, k).max()


@pytest.mark.parametrize("seed", [0, 1])
def test_kway_balance_only_balanced_input_unchanged(seed):
    g, _ = _graph(seed, n=4)
    k = 4
    part0 = multilevel_kway(g, k, seed=seed)
    assert _loads(g, part0, k).max() <= 1.5 * g.total_vwgt() / k
    opt = kway_greedy_refine(g, part0.copy(), k, ub=1.5, balance_only=True)
    ref = kway_greedy_refine_reference(
        g, part0.copy(), k, ub=1.5, balance_only=True
    )
    assert np.array_equal(opt, part0)
    assert np.array_equal(ref, part0)


@pytest.mark.parametrize("seed", [0, 1])
def test_multilevel_kway_bit_identical(seed, monkeypatch):
    g, _ = _graph(seed, n=4)
    # count the reference kernels' runs, so a memoised optimized result
    # cannot stand in for the reference computation
    ran = {"fm": 0, "kway": 0}
    for name, kernel in (("fm", "fm_bisection_refine_reference"),
                         ("kway", "kway_greedy_refine_reference")):
        def counting(*args, _real=getattr(fm_refine, kernel), _name=name,
                     **kwargs):
            ran[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(fm_refine, kernel, counting)
    for k in (2, 5):
        opt = multilevel_kway(g, k, seed=seed)
        assert ran == {"fm": 0, "kway": 0}
        with reference_kernels():
            ref = multilevel_kway(g, k, seed=seed)
        assert ran["fm"] >= k - 1 and ran["kway"] == 1
        ran.update(fm=0, kway=0)
        assert np.array_equal(opt, ref)


def test_multilevel_kway_nested_reuse_matches_reference():
    """Whatever the memo holds from earlier calls (nested bisections of
    smaller and larger k, in any order), every result equals a cold
    reference run."""
    g, _ = _graph(3, n=4)
    ks = [1, 2, 4, 8, 16, 32, 64]
    with reference_kernels():
        ref = {k: multilevel_kway(g, k, seed=5) for k in ks + [3, 5, 6, 12]}
    multilevel.clear_partition_memo()
    try:
        for k in ks + ks[::-1] + [3, 5, 6, 12]:
            assert np.array_equal(multilevel_kway(g, k, seed=5), ref[k]), k
    finally:
        multilevel.clear_partition_memo()


def _from_pairs_old(pairs, n, ewgt=None):
    """The two-sort ``Graph.from_pairs``: merge duplicates on canonical
    (lo, hi) keys, then symmetrise and lexsort."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    ewgt = (np.ones(pairs.shape[0], dtype=np.int64) if ewgt is None
            else np.asarray(ewgt, dtype=np.int64))
    keep = pairs[:, 0] != pairs[:, 1]
    pairs, ewgt = pairs[keep], ewgt[keep]
    if pairs.shape[0] == 0:
        return (np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64))
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    keys = lo * n + hi
    order = np.argsort(keys, kind="stable")
    keys_s, lo_s, hi_s, w_s = keys[order], lo[order], hi[order], ewgt[order]
    first = np.r_[True, keys_s[1:] != keys_s[:-1]]
    wsum = np.add.reduceat(w_s, np.flatnonzero(first))
    ulo, uhi = lo_s[first], hi_s[first]
    src, dst = np.concatenate([ulo, uhi]), np.concatenate([uhi, ulo])
    ww = np.concatenate([wsum, wsum])
    order2 = np.lexsort((dst, src))
    src, dst, ww = src[order2], dst[order2], ww[order2]
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(ptr, src + 1, 1)
    np.cumsum(ptr, out=ptr)
    return ptr, dst, ww


def _pair_lists():
    rng = np.random.default_rng(11)
    yield np.empty((0, 2), dtype=np.int64), 5  # edgeless
    yield np.array([[2, 2], [4, 4]]), 5  # self-loops only
    yield np.array([[0, 1], [1, 0], [0, 1], [2, 2], [3, 1]]), 4  # duplicates
    for _ in range(20):
        n = int(rng.integers(1, 40))
        yield rng.integers(0, n, size=(int(rng.integers(0, 150)), 2)), n


def test_from_pairs_matches_two_sort_formulation():
    rng = np.random.default_rng(12)
    for pairs, n in _pair_lists():
        ewgt = rng.integers(1, 9, size=pairs.shape[0])
        for w in (None, ewgt):
            g = Graph.from_pairs(pairs, n, ewgt=w)
            for got, want in zip((g.ptr, g.adj, g.ewgt), _from_pairs_old(pairs, n, w)):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)


def _grow_old(graph, seed, target):
    """Region growing on numpy scalars (the pre-list formulation)."""
    n = graph.n
    in_region = np.zeros(n, dtype=bool)
    gain = np.zeros(n, dtype=np.int64)
    heap = []
    grown = 0.0

    def absorb(v):
        nonlocal grown
        in_region[v] = True
        grown += graph.vwgt[v]
        for u, w in zip(graph.neighbors(v), graph.edge_weights(v)):
            if not in_region[u]:
                gain[u] += 2 * w
                heapq.heappush(heap, (-int(gain[u]), int(u)))

    absorb(seed)
    while grown < target and heap:
        g, v = heapq.heappop(heap)
        if in_region[v] or -g != gain[v]:
            continue
        if grown + graph.vwgt[v] > 1.5 * target and grown > 0.5 * target:
            continue
        absorb(v)
    if grown < target:
        outside = np.flatnonzero(~in_region)
        for v in outside[np.argsort(graph.vwgt[outside])]:
            if grown >= target:
                break
            in_region[v] = True
            grown += graph.vwgt[v]
    return np.where(in_region, 0, 1).astype(np.int64)


def _growing_old(graph, target_frac, rng, ntries=4):
    n = graph.n
    target = target_frac * graph.total_vwgt()
    best_side, best_cut = None, np.inf
    for seed in rng.choice(n, size=min(ntries, n), replace=False):
        side = _grow_old(graph, int(seed), target)
        cut = edgecut(graph, side)
        if side.min() == 0 and side.max() == 1 and cut < best_cut:
            best_cut, best_side = cut, side
    if best_side is None:
        best_side = np.zeros(n, dtype=np.int64)
        best_side[np.argsort(graph.vwgt)[: n // 2]] = 1
    return best_side


def test_greedy_graph_growing_matches_numpy_formulation():
    graphs = [_graph(s)[0] for s in (0, 1, 2)]
    # disconnected (exercises the top-up) and edgeless graphs
    two = np.array([[0, 1], [1, 2], [3, 4], [4, 5], [5, 3], [6, 7]])
    graphs.append(Graph.from_pairs(two, 9, vwgt=np.array([3, 1, 4, 1, 5, 9, 2, 6, 5])))
    graphs.append(Graph.from_pairs(np.empty((0, 2)), 6, vwgt=np.arange(1, 7)))
    for i, g in enumerate(graphs):
        for frac in (0.5, 0.3, 2 / 3):
            got = greedy_graph_growing(g, frac, np.random.default_rng(i))
            want = _growing_old(g, frac, np.random.default_rng(i))
            assert np.array_equal(got, want), (i, frac)
