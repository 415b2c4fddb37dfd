"""Multilevel k-way graph partitioning (the MeTiS algorithm family).

Coarsen with heavy-edge matching until the graph is small, bisect the
coarsest graph with greedy graph growing, then uncoarsen while refining
with FM at every level.  k-way partitions come from recursive bisection
with proportional weight splits, followed by a final k-way greedy boundary
refinement.  All randomness flows through an explicit seed.

A k-way partition is a pure function of the graph's content, ``k``, the
seed and ``ub``, so :func:`multilevel_kway` memoises it in a small LRU
keyed by a digest of the CSR arrays: the figure sweep builds dozens of
solvers on one mesh and would otherwise partition it from scratch each
time.  Reference-kernel runs bypass the memo so the oracle really runs.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

import numpy as np

from repro.kernels import reference_enabled

from .contract import contract
from .fm_refine import fm_bisection_refine, kway_greedy_refine
from .graph import Graph
from .initial import greedy_graph_growing
from .matching import heavy_edge_matching

__all__ = [
    "MultilevelPartitioner",
    "clear_partition_memo",
    "multilevel_bisect",
    "multilevel_kway",
]

#: Stop coarsening below this many vertices.
_COARSEN_TO = 64
#: Stop coarsening when a level shrinks by less than this factor.
_MIN_SHRINK = 0.95
#: Most partitions :func:`multilevel_kway` keeps (least recently used go).
_MEMO_SIZE = 32
#: (graph digest, k, seed, ub) -> read-only partition, in LRU order.
_MEMO: OrderedDict[tuple, np.ndarray] = OrderedDict()


def multilevel_bisect(
    graph: Graph,
    target0: float,
    seed: int = 0,
    ub: float = 1.05,
) -> np.ndarray:
    """Bisect into sides {0, 1}; side 0 targets ``target0`` of the weight."""
    rng = np.random.default_rng(seed)
    levels: list[tuple[Graph, np.ndarray]] = []
    g = graph
    while g.n > _COARSEN_TO:
        match = heavy_edge_matching(g, rng)
        coarse, cmap = contract(g, match)
        if coarse.n > _MIN_SHRINK * g.n:
            break
        levels.append((g, cmap))
        g = coarse
    side = greedy_graph_growing(g, target0, rng)
    side = fm_bisection_refine(g, side, target0, ub=ub)
    for fine, cmap in reversed(levels):
        side = side[cmap]
        side = fm_bisection_refine(fine, side, target0, ub=ub)
    return side


def multilevel_kway(
    graph: Graph,
    k: int,
    seed: int = 0,
    ub: float = 1.05,
) -> np.ndarray:
    """Partition into ``k`` parts via recursive bisection + k-way refine.

    Results are memoised by graph content (see the module docstring); every
    call returns a fresh array the caller may modify.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not ub >= 1.0:
        raise ValueError(f"ub must be >= 1, got {ub}")
    memo = not reference_enabled()
    if memo:
        key = _memo_key(graph, k, seed, ub)
        hit = _MEMO.pop(key, None)
        if hit is not None:
            _MEMO[key] = hit  # now the most recently used
            return hit.copy()
    part = np.zeros(graph.n, dtype=np.int64)
    _recurse(graph, np.arange(graph.n, dtype=np.int64), k, 0, seed, ub, part)
    if k > 1:
        part = kway_greedy_refine(graph, part, k, ub=ub)
    if memo:
        part.setflags(write=False)
        _MEMO[key] = part
        if len(_MEMO) > _MEMO_SIZE:
            _MEMO.popitem(last=False)
        part = part.copy()
    return part


def clear_partition_memo() -> None:
    """Forget every memoised :func:`multilevel_kway` result."""
    _MEMO.clear()


def _memo_key(graph: Graph, k: int, seed: int, ub: float) -> tuple:
    """Digest of the CSR arrays (lengths included) plus the parameters."""
    arrays = [np.ascontiguousarray(a, dtype=np.int64)
              for a in (graph.ptr, graph.adj, graph.vwgt, graph.ewgt)]
    h = hashlib.blake2b(digest_size=16)
    h.update(np.array([a.size for a in arrays], dtype=np.int64).tobytes())
    for a in arrays:
        h.update(a)
    return h.digest(), int(k), int(seed), float(ub)


def _recurse(
    graph: Graph,
    vertices: np.ndarray,
    k: int,
    offset: int,
    seed: int,
    ub: float,
    out: np.ndarray,
) -> None:
    if k == 1:
        out[vertices] = offset
        return
    k0 = (k + 1) // 2
    sub = _subgraph(graph, vertices)
    side = multilevel_bisect(sub, target0=k0 / k, seed=seed, ub=ub)
    left = vertices[side == 0]
    right = vertices[side == 1]
    _recurse(graph, left, k0, offset, seed * 2 + 1, ub, out)
    _recurse(graph, right, k - k0, offset + k0, seed * 2 + 2, ub, out)


def _subgraph(graph: Graph, vertices: np.ndarray) -> Graph:
    """Induced subgraph with vertices renumbered 0..len(vertices)-1."""
    n = graph.n
    local = np.full(n, -1, dtype=np.int64)
    local[vertices] = np.arange(vertices.shape[0])
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.ptr))
    sel = (local[src] >= 0) & (local[graph.adj] >= 0)
    half = sel & (src < graph.adj)
    pairs = np.column_stack([local[src[half]], local[graph.adj[half]]])
    return Graph.from_pairs(
        pairs, vertices.shape[0], vwgt=graph.vwgt[vertices], ewgt=graph.ewgt[half]
    )


class MultilevelPartitioner:
    """Facade used by the load balancer (paper: "any partitioning algorithm
    could be used, as long as it is fast and delivers reasonably balanced
    partitions based on the new weights")."""

    def __init__(self, ub: float = 1.05, seed: int = 0):
        self.ub = ub
        self.seed = seed

    def partition(self, graph: Graph, k: int) -> np.ndarray:
        """Fresh k-way partition of ``graph``."""
        return multilevel_kway(graph, k, seed=self.seed, ub=self.ub)
