"""The multilevel_kway memo: exact, bounded, copy-safe, bypassed by the
reference kernels — and the partitioners' input validation."""

import numpy as np
import pytest

from repro.kernels import reference_kernels
from repro.mesh import box_mesh
from repro.partition import Graph, kway_greedy_refine, multilevel_kway, repartition
from repro.partition import fm_refine, multilevel


@pytest.fixture(autouse=True)
def _empty_memo():
    multilevel.clear_partition_memo()
    yield
    multilevel.clear_partition_memo()


@pytest.fixture
def graph():
    m = box_mesh(3, 3, 3)
    return Graph.from_pairs(m.dual_pairs, m.ne)


@pytest.fixture
def fresh_runs(monkeypatch):
    """Count full (non-memoised) partitioner runs."""
    calls = []
    real = multilevel._recurse

    def counting(graph, vertices, k, offset, *rest):
        if offset == 0 and vertices.shape[0] == graph.n:
            calls.append(k)
        return real(graph, vertices, k, offset, *rest)

    monkeypatch.setattr(multilevel, "_recurse", counting)
    return calls


def test_hit_returns_equal_fresh_writable_array(graph, fresh_runs):
    a = multilevel_kway(graph, 4, seed=3)
    b = multilevel_kway(graph, 4, seed=3)
    assert len(fresh_runs) == 1
    assert np.array_equal(a, b)
    assert a is not b and not np.shares_memory(a, b)
    assert a.flags.writeable and b.flags.writeable


def test_mutating_a_result_does_not_poison_the_memo(graph):
    first = multilevel_kway(graph, 4, seed=1)
    expected = first.copy()
    first[:] = 99
    again = multilevel_kway(graph, 4, seed=1)
    assert np.array_equal(again, expected)
    again[0] = -1
    assert np.array_equal(multilevel_kway(graph, 4, seed=1), expected)


def test_memo_is_exact(graph):
    memoised = [multilevel_kway(graph, 5, seed=s) for s in (0, 1, 0, 1)]
    multilevel.clear_partition_memo()
    with reference_kernels():
        cold = [multilevel_kway(graph, 5, seed=s) for s in (0, 1)]
    for got, want in zip(memoised, cold * 2):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("change", ["vwgt", "ewgt", "seed", "ub", "k"])
def test_any_input_change_misses(graph, fresh_runs, change):
    kw = dict(k=4, seed=0, ub=1.05)
    multilevel_kway(graph, **kw)
    if change == "vwgt":
        vwgt = graph.vwgt.copy()
        vwgt[0] += 5
        graph = graph.with_vwgt(vwgt)
    elif change == "ewgt":
        graph = Graph(graph.ptr, graph.adj, graph.vwgt, graph.ewgt * 2)
    else:
        kw[change] = {"seed": 1, "ub": 1.1, "k": 3}[change]
    got = multilevel_kway(graph, **kw)
    assert len(fresh_runs) == 2
    multilevel.clear_partition_memo()
    assert np.array_equal(got, multilevel_kway(graph, **kw))


def test_lru_stays_at_its_bound(graph, fresh_runs):
    bound = multilevel._MEMO_SIZE
    for seed in range(bound + 5):
        multilevel_kway(graph, 2, seed=seed)
        assert len(multilevel._MEMO) <= bound
    assert len(multilevel._MEMO) == bound
    # seeds 0..4 were evicted; the most recent ``bound`` seeds are kept
    runs = len(fresh_runs)
    multilevel_kway(graph, 2, seed=bound + 4)
    assert len(fresh_runs) == runs
    multilevel_kway(graph, 2, seed=0)
    assert len(fresh_runs) == runs + 1
    assert len(multilevel._MEMO) == bound


def test_hit_refreshes_recency(graph, fresh_runs):
    bound = multilevel._MEMO_SIZE
    for seed in range(bound):
        multilevel_kway(graph, 2, seed=seed)
    multilevel_kway(graph, 2, seed=0)  # hit: seed 0 becomes most recent
    multilevel_kway(graph, 2, seed=bound)  # evicts seed 1, not seed 0
    runs = len(fresh_runs)
    multilevel_kway(graph, 2, seed=0)
    assert len(fresh_runs) == runs
    multilevel_kway(graph, 2, seed=1)
    assert len(fresh_runs) == runs + 1


def test_reference_mode_bypasses_the_memo(graph, fresh_runs, monkeypatch):
    multilevel_kway(graph, 4, seed=0)
    ref_fm = []
    real = fm_refine.fm_bisection_refine_reference

    def counting(*args, **kwargs):
        ref_fm.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fm_refine, "fm_bisection_refine_reference", counting)
    with reference_kernels():
        multilevel_kway(graph, 4, seed=0)  # would be a hit: must not read
        multilevel_kway(graph, 4, seed=7)  # a miss: must not write
    assert len(fresh_runs) == 3
    assert ref_fm
    assert len(multilevel._MEMO) == 1


def test_ub_below_one_rejected(graph):
    with pytest.raises(ValueError, match="ub"):
        multilevel_kway(graph, 4, ub=0.5)
    with pytest.raises(ValueError, match="ub"):
        multilevel_kway(graph, 4, ub=float("nan"))
    old = multilevel_kway(graph, 4)
    with pytest.raises(ValueError, match="ub"):
        repartition(graph, 4, old, ub=0.5)


@pytest.mark.parametrize("labels", [[0, 0, 5, 5], [0, -1, 1, 1]])
def test_kway_refine_rejects_out_of_range_labels(labels):
    g = Graph.from_pairs(np.array([[0, 1], [1, 2], [2, 3]]), 4)
    for reference in (False, True):
        with reference_kernels(reference):
            with pytest.raises(ValueError, match=r"\[0, 2\)"):
                kway_greedy_refine(g, np.array(labels), 2)
