"""Multilevel k-way graph partitioning (the MeTiS algorithm family).

Coarsen with heavy-edge matching until the graph is small, bisect the
coarsest graph with greedy graph growing, then uncoarsen while refining
with FM at every level.  k-way partitions come from recursive bisection
with proportional weight splits, followed by a final k-way greedy boundary
refinement.  All randomness flows through an explicit seed.

A k-way partition is a pure function of the graph's content, ``k``, the
seed and ``ub``, and so is every bisection of the recursion: a node's
bisection depends only on its vertex set, its weight target ``k0/k``, its
seed and ``ub``.  :func:`multilevel_kway` memoises both kinds of result in
one LRU bounded by the bytes it stores, keyed by a digest of the CSR
arrays: the figure sweep builds dozens of solvers on one mesh and would
otherwise partition it from scratch each time, and ``2k`` parts open with
the same bisections as ``k`` parts.  Reference-kernel runs bypass the memo
so the oracle really runs.
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


class _Memo:
    """LRU map of read-only arrays, bounded by the bytes they hold."""

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._items: OrderedDict[tuple, np.ndarray] = OrderedDict()

    def __len__(self) -> int:
        return len(self._items)

    def get(self, key: tuple) -> np.ndarray | None:
        hit = self._items.get(key)
        if hit is not None:
            self._items.move_to_end(key)  # now the most recently used
        return hit

    def put(self, key: tuple, value: np.ndarray) -> None:
        """Store ``value`` read-only; evict the least recently used entries
        until the bound holds.  An array larger than the bound is not kept."""
        if value.nbytes > self.max_bytes:
            return
        value.setflags(write=False)
        self._items[key] = value
        self.nbytes += value.nbytes
        while self.nbytes > self.max_bytes:
            _, old = self._items.popitem(last=False)
            self.nbytes -= old.nbytes

    def clear(self) -> None:
        self._items.clear()
        self.nbytes = 0


#: ("kway", graph digest, k, seed, ub) -> partition and ("bisect", graph
#: digest, vertex-set digest, target0, seed, ub) -> side-1 mask.  Bounded by
#: bytes, not entries: a figure-sweep pass stores ~400 small entries.
_MEMO = _Memo(max_bytes=16 << 20)


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
    digest = None if reference_enabled() else _digest(
        graph.ptr, graph.adj, graph.vwgt, graph.ewgt)
    if digest is not None:
        key = ("kway", digest, int(k), int(seed), float(ub))
        hit = _MEMO.get(key)
        if hit is not None:
            return hit.copy()
    part = np.zeros(graph.n, dtype=np.int64)
    _recurse(graph, np.arange(graph.n, dtype=np.int64), k, 0, seed, ub, part,
             digest)
    if k > 1:
        part = kway_greedy_refine(graph, part, k, ub=ub)
    if digest is not None:
        _MEMO.put(key, part)
        part = part.copy()
    return part


def clear_partition_memo() -> None:
    """Forget every memoised k-way partition and bisection."""
    _MEMO.clear()


def _digest(*arrays: np.ndarray) -> bytes:
    """Digest of int64 arrays, lengths included."""
    arrays = tuple(np.ascontiguousarray(a, dtype=np.int64) for a in arrays)
    h = hashlib.blake2b(digest_size=16)
    h.update(np.array([a.size for a in arrays], dtype=np.int64).tobytes())
    for a in arrays:
        h.update(a)
    return h.digest()


def _recurse(
    graph: Graph,
    vertices: np.ndarray,
    k: int,
    offset: int,
    seed: int,
    ub: float,
    out: np.ndarray,
    digest: bytes | None,
) -> None:
    """Label ``vertices`` with parts ``offset .. offset+k-1``; ``digest``
    (of ``graph``) keys the bisection memo, ``None`` bypasses it."""
    if k == 1:
        out[vertices] = offset
        return
    k0 = (k + 1) // 2
    right = _bisect(graph, vertices, k0 / k, seed, ub, digest)
    _recurse(graph, vertices[~right], k0, offset, seed * 2 + 1, ub, out, digest)
    _recurse(graph, vertices[right], k - k0, offset + k0, seed * 2 + 2, ub,
             out, digest)


def _bisect(
    graph: Graph,
    vertices: np.ndarray,
    target0: float,
    seed: int,
    ub: float,
    digest: bytes | None,
) -> np.ndarray:
    """Mask of the ``vertices`` that bisecting their induced subgraph puts
    on side 1, memoised under ``digest`` unless it is ``None``."""
    if digest is not None:
        key = ("bisect", digest, _digest(vertices), target0, int(seed), float(ub))
        hit = _MEMO.get(key)
        if hit is not None:
            return hit
    sub = _subgraph(graph, vertices)
    right = multilevel_bisect(sub, target0=target0, seed=seed, ub=ub) == 1
    if digest is not None:
        _MEMO.put(key, right)
    return right


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
