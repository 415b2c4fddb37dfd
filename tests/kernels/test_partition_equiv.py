"""Optimized partitioning kernels must match the reference bit-for-bit."""

import numpy as np
import pytest

from repro.core.dualgraph import DualGraph
from repro.kernels import reference_kernels
from repro.mesh.generate import box_mesh
from repro.partition import fm_refine
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
from repro.partition.multilevel import multilevel_kway


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
