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


@pytest.fixture
def bisections(monkeypatch):
    """Count ``multilevel_bisect`` and ``_subgraph`` runs."""
    calls = {"bisect": 0, "subgraph": 0}
    for name, attr in (("bisect", "multilevel_bisect"), ("subgraph", "_subgraph")):
        def counting(*args, _real=getattr(multilevel, attr), _name=name, **kw):
            calls[_name] += 1
            return _real(*args, **kw)

        monkeypatch.setattr(multilevel, attr, counting)
    return calls


def test_nested_bisections_are_reused(graph, bisections):
    multilevel_kway(graph, 4, seed=0)
    assert bisections == {"bisect": 3, "subgraph": 3}
    # 8 parts open with the 3 bisections of 4 parts: only the 4 bottom
    # bisections (of the 4-part leaves) are new
    got = multilevel_kway(graph, 8, seed=0)
    assert bisections == {"bisect": 7, "subgraph": 7}
    multilevel.clear_partition_memo()
    assert np.array_equal(got, multilevel_kway(graph, 8, seed=0))


def _per_k2_call(graph):
    """Bytes one k=2 call stores: the int64 partition and the root
    bisection's boolean mask."""
    return 9 * graph.n


def test_lru_stays_at_its_bound(graph, fresh_runs, monkeypatch):
    keep = 8
    monkeypatch.setattr(multilevel._MEMO, "max_bytes", keep * _per_k2_call(graph))
    for seed in range(keep + 5):
        multilevel_kway(graph, 2, seed=seed)
        assert multilevel._MEMO.nbytes <= multilevel._MEMO.max_bytes
    assert multilevel._MEMO.nbytes == keep * _per_k2_call(graph)
    assert len(multilevel._MEMO) == 2 * keep
    # seeds 0..4 were evicted; the most recent ``keep`` seeds are kept
    runs = len(fresh_runs)
    multilevel_kway(graph, 2, seed=keep + 4)
    assert len(fresh_runs) == runs
    multilevel_kway(graph, 2, seed=0)
    assert len(fresh_runs) == runs + 1
    assert multilevel._MEMO.nbytes == keep * _per_k2_call(graph)


def test_entry_larger_than_the_bound_is_not_kept(graph, fresh_runs, monkeypatch):
    # room for the boolean bisection mask but not the int64 partition
    monkeypatch.setattr(multilevel._MEMO, "max_bytes", 4 * graph.n)
    multilevel_kway(graph, 2, seed=0)
    assert len(multilevel._MEMO) == 1
    assert multilevel._MEMO.nbytes == graph.n
    multilevel_kway(graph, 2, seed=0)
    assert len(fresh_runs) == 2


def test_hit_refreshes_recency(graph, fresh_runs, monkeypatch):
    keep = 8
    monkeypatch.setattr(multilevel._MEMO, "max_bytes", keep * _per_k2_call(graph))
    for seed in range(keep):
        multilevel_kway(graph, 2, seed=seed)
    multilevel_kway(graph, 2, seed=0)  # hit: seed 0 becomes most recent
    multilevel_kway(graph, 2, seed=keep)  # evicts seed 1, not seed 0
    runs = len(fresh_runs)
    multilevel_kway(graph, 2, seed=0)
    assert len(fresh_runs) == runs
    multilevel_kway(graph, 2, seed=1)
    assert len(fresh_runs) == runs + 1


def test_reference_mode_bypasses_the_memo(graph, fresh_runs, bisections,
                                          monkeypatch):
    multilevel_kway(graph, 4, seed=0)
    before = list(multilevel._MEMO._items.items())
    nbytes = multilevel._MEMO.nbytes
    ref_fm = []
    real = fm_refine.fm_bisection_refine_reference

    def counting(*args, **kwargs):
        ref_fm.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fm_refine, "fm_bisection_refine_reference", counting)
    with reference_kernels():
        multilevel_kway(graph, 4, seed=0)  # k-way and bisection hits: no read
        multilevel_kway(graph, 8, seed=0)  # nested bisection hits: no read
        multilevel_kway(graph, 4, seed=7)  # a miss: must not write
    assert len(fresh_runs) == 4
    assert bisections["bisect"] == 3 + 3 + 7 + 3
    assert ref_fm
    # the memo is unchanged, entry for entry and in LRU order
    after = list(multilevel._MEMO._items.items())
    assert [k for k, _ in after] == [k for k, _ in before]
    assert all(a is b for (_, a), (_, b) in zip(after, before))
    assert multilevel._MEMO.nbytes == nbytes


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
