"""Layer probes: time each layer of the program from outside it.

Each probe replaces a public function or method *where the program looks it
up* (``repro.core.framework``'s module globals, the ``AdaptiveMesh`` and
``CostModel`` classes it calls, and the mesh builder ``make_case`` binds),
so no file under ``src/`` changes.  Spans are kept in memory as
``(name, start, end, parent, step)`` rows and written out by ``run.py``
when the run ends.  Per-layer metrics are derived from the spans alone.
"""

from __future__ import annotations

import functools
import time
import types
from collections import defaultdict
from contextlib import contextmanager

#: Spans the framework itself opens around its layers (their self time is
#: the framework's glue: tracer/metrics bookkeeping, the extra optimal MWBG
#: solve for reporting, evaluate, gather/scatter modelling).
FRAMEWORK_SPANS = ("framework.construct", "framework.adapt_step")


class SpanLog:
    """In-memory spans and counters of one traced workload run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, step]
        self.counts: dict[str, float] = defaultdict(float)
        self.step = -1  # -1 = set-up, else the workload step index
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = [name, time.perf_counter(), None, self._open[-1] if self._open else -1,
               self.step]
        self.spans.append(rec)
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            rec[2] = time.perf_counter()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n


def _timed(log: SpanLog, name: str, fn, tally=None):
    @functools.wraps(fn)
    def probe(*args, **kwargs):
        with log.span(name):
            out = fn(*args, **kwargs)
        log.count(name + ".calls")
        if tally is not None:
            tally(log, out)
        return out

    return probe


def _mark_tally(log, marking):
    log.count("adapt.mark.iters", marking.iterations)
    log.count("adapt.edges_marked", int(marking.edge_marked.sum()))


def _refine_tally(log, result):
    log.count("adapt.elements_created",
              result.parent.shape[0] - result.child_count.shape[0])


def _coarsen_tally(log, report):
    log.count("adapt.elements_removed", report.elements_removed)


def _remap_tally(log, execu):
    log.count("core.remap.makespan_s", execu.time_seconds)
    log.count("core.remap.messages", execu.messages)
    log.count("core.remap.words", execu.words_moved)
    log.count("core.remap.elements", execu.elements_moved)


@contextmanager
def installed(log: SpanLog):
    """Install every probe for the duration of the block, then restore."""
    import repro.core.framework as fw
    import repro.experiments.cases as cases
    from repro.adapt.adaptor import AdaptiveMesh
    from repro.core.cost import CostModel
    from repro.partition import quality

    targets = [
        (cases, "rotor_domain_mesh", "mesh.build", None),
        (fw, "DualGraph", "core.dualgraph.build", None),
        (fw, "multilevel_kway", "partition.init", None),
        (fw, "repartition", "partition.repartition", None),
        (fw, "similarity_matrix", "core.similarity", None),
        # the configured reassigner; the framework's extra optimal_mwbg
        # solve for its Table-1 metrics stays in framework self time
        (fw, "heuristic_mwbg", "core.reassign", None),
        (fw, "execute_remap", "core.remap", _remap_tally),
        (AdaptiveMesh, "mark", "adapt.mark", _mark_tally),
        (AdaptiveMesh, "refine", "adapt.refine", _refine_tally),
        (AdaptiveMesh, "coarsen", "adapt.coarsen", _coarsen_tally),
        (CostModel, "decide", "core.decide", None),
        (fw.LoadBalancedAdaptiveSolver, "__init__", "framework.construct", None),
        (fw.LoadBalancedAdaptiveSolver, "adapt_step", "framework.adapt_step", None),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in targets]
    # the framework reads partition quality through its module alias ``pq``
    pq_proxy = types.SimpleNamespace(
        imbalance=_timed(log, "partition.quality", quality.imbalance),
        edgecut=_timed(log, "partition.quality", quality.edgecut),
    )
    saved.append((fw, "pq", fw.pq))
    try:
        for owner, attr, name, tally in targets:
            setattr(owner, attr, _timed(log, name, owner.__dict__[attr], tally))
        fw.pq = pq_proxy
        yield log
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(log: SpanLog) -> dict[str, float]:
    """Per-layer self seconds and counts of one traced run."""
    selfs = self_times(log.spans)
    secs: dict[str, float] = defaultdict(float)
    fw_self = 0.0
    for (name, _, _, _, step), s in zip(log.spans, selfs):
        secs[name] += s
        if name in FRAMEWORK_SPANS and step >= 0:
            fw_self += s
    c = log.counts
    return {
        "mesh.build_s": secs["mesh.build"],
        "core.dualgraph.build_s": secs["core.dualgraph.build"],
        "partition.init_s": secs["partition.init"],
        "partition.init_calls": c["partition.init.calls"],
        "partition.repartition_s": secs["partition.repartition"],
        "partition.repartition_calls": c["partition.repartition.calls"],
        "partition.quality_s": secs["partition.quality"],
        "adapt.mark_s": secs["adapt.mark"],
        "adapt.mark_iters": c["adapt.mark.iters"],
        "adapt.edges_marked": c["adapt.edges_marked"],
        "adapt.refine_s": secs["adapt.refine"],
        "adapt.elements_created": c["adapt.elements_created"],
        "adapt.coarsen_s": secs["adapt.coarsen"],
        "adapt.elements_removed": c["adapt.elements_removed"],
        "core.similarity_s": secs["core.similarity"],
        "core.reassign_s": secs["core.reassign"],
        "core.reassign_calls": c["core.reassign.calls"],
        "core.decide_s": secs["core.decide"],
        "core.remap_s": secs["core.remap"],
        "core.remap.makespan_s": c["core.remap.makespan_s"],
        "core.remap.messages": c["core.remap.messages"],
        "core.remap.words": c["core.remap.words"],
        "core.remap.elements": c["core.remap.elements"],
        "framework.self_s": fw_self,
    }


def step_coverage(log: SpanLog, step_walls: list[float]) -> float:
    """Share of the externally timed step wall that the layer spans plus
    framework self time account for (1.0 = the spans tile the steps)."""
    covered = sum(end - start for _, start, end, parent, step in log.spans
                  if step >= 0 and parent == -1)
    return covered / sum(step_walls)
