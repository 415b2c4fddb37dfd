"""Seeded repartitioning — the parallel-MeTiS mode the paper relies on.

Paper §4.2: "An additional benefit of the algorithm is the potential
reduction in remapping cost since parallel MeTiS, unlike the serial
version, uses the previous partition as the initial guess for the
repartitioning."

We reproduce that behaviour: coarsen with heavy-edge matching *restricted
to vertices of the same old partition* (so the old partition projects
exactly onto every coarse level), install the old partition on the coarsest
graph, rebalance it there with k-way greedy refinement, and refine on the
way back up.  The result is balanced under the new weights while staying
close to the old partition, which is what keeps the similarity matrix
diagonal-heavy and the remap volume low.
"""

from __future__ import annotations

import numpy as np

from repro.obs import current_tracer, maybe_phase

from .contract import contract
from .fm_refine import kway_greedy_refine
from .graph import Graph
from .matching import heavy_edge_matching
from .multilevel import multilevel_kway

__all__ = ["repartition"]

_COARSEN_TO = 256
_MIN_SHRINK = 0.95


def repartition(
    graph: Graph,
    k: int,
    old_part: np.ndarray,
    seed: int = 0,
    ub: float = 1.05,
    tracer=None,
) -> np.ndarray:
    """k-way partition balanced under ``graph.vwgt``, biased toward
    ``old_part`` to reduce data movement.

    With a :class:`repro.obs.Tracer` (passed or ambient), the coarsen /
    rebalance / uncoarsen stages are recorded as wall-clock spans (the
    *virtual* partitioning time is modelled separately, by
    :func:`repro.partition.parallel_model.partition_time`).
    """
    tracer = tracer if tracer is not None else current_tracer()
    if not ub >= 1.0:
        raise ValueError(f"ub must be >= 1, got {ub}")
    old_part = np.asarray(old_part, dtype=np.int64)
    if old_part.shape != (graph.n,):
        raise ValueError(f"old_part must have shape ({graph.n},)")
    if old_part.size and (old_part.min() < 0 or old_part.max() >= k):
        raise ValueError("old_part labels must be in [0, k)")
    if k == 1:
        return np.zeros(graph.n, dtype=np.int64)
    if _max_over(graph, old_part, k) <= ub + 1e-9:
        # already balanced under the new weights: moving nothing is the
        # cheapest remap of all (the framework's evaluation step would not
        # normally even call us in this case)
        return old_part.copy()

    rng = np.random.default_rng(seed)
    levels: list[tuple[Graph, np.ndarray]] = []  # (fine graph, fine->coarse map)
    g = graph
    part = old_part
    with maybe_phase(tracer, "repartition.coarsen", n_fine=graph.n) as sp:
        while g.n > max(_COARSEN_TO, 8 * k):
            match = heavy_edge_matching(g, rng, allowed=part)
            coarse, cmap = contract(g, match)
            if coarse.n > _MIN_SHRINK * g.n:
                break
            levels.append((g, cmap))
            # matching never crosses partitions, so the projection is exact
            cpart = np.zeros(coarse.n, dtype=np.int64)
            cpart[cmap] = part
            g, part = coarse, cpart
        if sp is not None:
            sp.attrs.update(levels=len(levels), n_coarse=g.n)

    # rebalance on the coarsest graph, then refine on the way back up;
    # balance_only keeps cut-improving (but data-moving) churn out
    old_coarse = part
    with maybe_phase(tracer, "repartition.rebalance") as sp:
        part = kway_greedy_refine(g, part, k, ub=ub, max_passes=8,
                                  balance_only=True)
        fallback = _max_over(g, part, k) > ub + 1e-9
        if fallback:
            # the old partition is too skewed for local moves to fix: fall
            # back to a fresh partition of the coarse graph (loses some
            # locality but stays cheap — the coarse graph is small), then
            # relabel its parts for maximum weighted agreement with the old
            # partition so the fallback still moves as little data as
            # possible
            part = multilevel_kway(g, k, seed=seed, ub=ub)
            part = _relabel_for_agreement(g, old_coarse, part, k)
        if sp is not None:
            sp.attrs["fallback"] = fallback
    with maybe_phase(tracer, "repartition.uncoarsen", levels=len(levels)):
        for fine, cmap in reversed(levels):
            part = part[cmap]
            part = kway_greedy_refine(fine, part, k, ub=ub, balance_only=True)
    return part


def _max_over(g: Graph, part: np.ndarray, k: int) -> float:
    loads = np.bincount(part, weights=g.vwgt.astype(np.float64), minlength=k)
    return float(loads.max() / (g.total_vwgt() / k))


def _relabel_for_agreement(
    g: Graph, old: np.ndarray, new: np.ndarray, k: int
) -> np.ndarray:
    """Permute ``new``'s labels to maximise weight staying on its old label
    (a k×k assignment problem — the same MWBG structure the processor
    reassignment solves downstream, applied here at the label level)."""
    from scipy.optimize import linear_sum_assignment

    overlap = np.zeros((k, k), dtype=np.int64)
    np.add.at(overlap, (new, old), g.vwgt)
    rows, cols = linear_sum_assignment(overlap, maximize=True)
    perm = np.empty(k, dtype=np.int64)
    perm[rows] = cols
    return perm[new]
