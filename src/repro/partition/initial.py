"""Greedy graph growing bisection of the coarsest graph (paper §4.2:
"applies a greedy graph growing algorithm for partitioning the coarsest
graph").

A region is grown from a seed vertex by repeatedly absorbing the frontier
vertex with the highest gain (edge weight toward the region minus edge
weight away) until it holds the target share of the total vertex weight.
Several seeds are tried; the bisection with the smallest cut that meets the
balance tolerance wins.
"""

from __future__ import annotations

import heapq

import numpy as np

from .graph import Graph
from .quality import edgecut

__all__ = ["greedy_graph_growing"]


def greedy_graph_growing(
    graph: Graph,
    target_frac: float,
    rng: np.random.Generator,
    ntries: int = 4,
) -> np.ndarray:
    """Bisect ``graph`` into sides {0, 1}; side 0 aims for ``target_frac``
    of the total vertex weight.  Returns the side array."""
    if not 0.0 < target_frac < 1.0:
        raise ValueError(f"target_frac must be in (0, 1), got {target_frac}")
    n = graph.n
    if n == 1:
        return np.zeros(1, dtype=np.int64)
    total = graph.total_vwgt()
    target = target_frac * total

    best_side = None
    best_cut = np.inf
    seeds = rng.choice(n, size=min(ntries, n), replace=False)
    lists = (graph.ptr.tolist(), graph.adj.tolist(), graph.ewgt.tolist(),
             graph.vwgt.tolist())
    for seed in seeds:
        side = _grow(graph, lists, int(seed), target)
        cut = edgecut(graph, side)
        # prefer smaller cut; require both sides non-empty
        if side.min() == 0 and side.max() == 1 and cut < best_cut:
            best_cut, best_side = cut, side
    if best_side is None:  # pathological (e.g. single vertex dominating)
        side = np.zeros(n, dtype=np.int64)
        side[np.argsort(graph.vwgt)[: n // 2]] = 1
        best_side = side
    return best_side


def _grow(
    graph: Graph,
    lists: tuple[list[int], list[int], list[int], list[int]],
    seed: int,
    target: float,
) -> np.ndarray:
    """Grow side 0 from ``seed``; ``lists`` is the graph's ``ptr``, ``adj``,
    ``ewgt`` and ``vwgt`` as Python lists (scalar loops stay off numpy)."""
    ptr, adj, ewgt, vwgt = lists
    in_region = bytearray(graph.n)
    gain = [0] * graph.n
    heap: list[tuple[int, int]] = []
    grown = 0.0

    def absorb(v: int) -> None:
        nonlocal grown
        in_region[v] = 1
        grown += vwgt[v]
        for i in range(ptr[v], ptr[v + 1]):
            u = adj[i]
            if not in_region[u]:
                gu = gain[u] + 2 * ewgt[i]  # edge flips from cut to internal
                gain[u] = gu
                heapq.heappush(heap, (-gu, u))

    absorb(seed)
    while grown < target and heap:
        g, v = heapq.heappop(heap)
        if in_region[v] or -g != gain[v]:
            continue  # stale heap entry
        if grown + vwgt[v] > 1.5 * target and grown > 0.5 * target:
            continue  # adding a huge vertex would overshoot badly
        absorb(v)
    if grown < target:
        # graph was disconnected: top up with the lightest outside vertices
        outside = np.flatnonzero(np.frombuffer(in_region, dtype=np.uint8) == 0)
        for v in outside[np.argsort(graph.vwgt[outside])].tolist():
            if grown >= target:
                break
            in_region[v] = 1
            grown += vwgt[v]
    return 1 - np.frombuffer(in_region, dtype=np.uint8).astype(np.int64)
