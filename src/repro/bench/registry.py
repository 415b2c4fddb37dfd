"""The benchmark registry: one entry per tracked workload.

Each bench is a function of the mesh ``resolution`` that runs a complete
figure/table/extension workload (seeds pinned inside the experiment
code) and returns a small dict of JSON-scalar ``extra`` metadata.  Wall
timing, tracer installation, and sweep-cache clearing are the suite's
job (:mod:`repro.bench.suite`) — registry functions only do the work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

__all__ = ["Bench", "BENCHES", "QUICK_BENCHES"]


@dataclass(frozen=True)
class Bench:
    name: str
    description: str
    fn: Callable[[int], dict]


def _bench_fig4(resolution: int) -> dict:
    from repro.experiments.figures import fig4_speedup

    data = fig4_speedup(resolution)
    return {"cases": len(data)}


def _bench_fig5(resolution: int) -> dict:
    from repro.experiments.figures import fig5_remap_times

    data = fig5_remap_times(resolution)
    return {"cases": len(data)}


def _bench_fig6(resolution: int) -> dict:
    from repro.experiments.figures import fig6_anatomy

    data = fig6_anatomy(resolution)
    # one stable scalar per phase so drift in the anatomy itself is visible
    return {
        f"real2_{phase}_p8": series[8]
        for phase, series in data["Real_2"].items()
    }


def _bench_fig7(resolution: int) -> dict:
    from repro.experiments.figures import fig7_max_improvement

    data = fig7_max_improvement(resolution)
    return {"cases": len(data)}


def _bench_fig8(resolution: int) -> dict:
    from repro.experiments.figures import fig8_actual_improvement

    data = fig8_actual_improvement(resolution)
    return {"cases": len(data)}


def _bench_table1(resolution: int) -> dict:
    from repro.experiments.sweep import case_for
    from repro.experiments.table1 import grid_sizes

    rows = grid_sizes(case_for(resolution))
    return {
        "initial_elements": rows["Initial"]["elements"],
        "real3_elements": rows["Real_3"]["elements"],
    }


def _bench_table2(resolution: int) -> dict:
    from repro.experiments.sweep import case_for
    from repro.experiments.table2 import mapper_comparison

    rows = mapper_comparison(case_for(resolution))
    return {"rows": len(rows)}


def _bench_ext_vm_vs_ledger(resolution: int) -> dict:
    from repro.adapt.marking import propagate_markings
    from repro.dist import decompose, parallel_mark
    from repro.experiments.sweep import case_for
    from repro.parallel import CostLedger, SP2_1997
    from repro.partition import Graph, multilevel_kway

    case = case_for(resolution)
    mesh = case.mesh
    g = Graph.from_pairs(mesh.dual_pairs, mesh.ne)
    part = multilevel_kway(g, 8, seed=0)
    locals_ = decompose(mesh, part, 8)
    marks = case.marking_mask("Real_2")
    ledger = CostLedger(8, SP2_1997)
    propagate_markings(mesh, marks, part=part, ledger=ledger)
    vm_result = parallel_mark(mesh, locals_, marks)
    return {
        "ledger_virtual_seconds": float(ledger.elapsed),
        "vm_virtual_seconds": float(vm_result.time_seconds),
    }


def _bench_ext_weak_scaling(resolution: int) -> dict:
    """Weak-scaling sweep of the VM scheduler itself (fig6-style cycle).

    Runs :func:`repro.experiments.weak_scaling.measure_speedup` —
    scheduler scale, not mesh scale, so ``resolution`` only selects the
    rank sweep.  Each speedup point times the optimized and the
    ``REPRO_REFERENCE_KERNELS`` scheduler on the *same* traced cycle
    (fresh ambient tracer per shot, best of N shots per path), so the
    recorded ``speedup_p*`` extras are the tracked perf gate for the
    vectorized scheduler.  The quick profile keeps the reference shots
    to the 1024-rank point and times 4096 optimized-only — the slow
    reference shots dominate the bench's wall and would make the CI wall
    gate flaky on a loaded host; the full profile runs both schedulers
    at 1k/4k/16k (the 16k point is where the reference path's per-op
    object churn hurts it most).
    """
    from repro.experiments.weak_scaling import measure_point, measure_speedup

    extra: dict = {}
    if resolution < 6:
        speedup_ranks, opt_only_ranks, repeats = (1024,), (4096,), 2
    else:
        speedup_ranks, opt_only_ranks, repeats = (1024, 4096, 16384), (), 3
    for nranks in speedup_ranks:
        opt, ref, speedup = measure_speedup(nranks, repeats=repeats)
        extra[f"wall_seconds_p{nranks}"] = round(opt.wall_seconds, 4)
        extra[f"ref_wall_seconds_p{nranks}"] = round(ref.wall_seconds, 4)
        extra[f"speedup_p{nranks}"] = round(speedup, 2)
        extra[f"ops_per_second_p{nranks}"] = round(opt.ops_per_second)
        extra[f"scheduler_ops_p{nranks}"] = int(opt.ops)
    for nranks in opt_only_ranks:
        from repro.obs import Tracer, use_tracer

        best = None
        for _ in range(repeats):
            with use_tracer(Tracer()):
                pt = measure_point(nranks)
            if best is None or pt.wall_seconds < best.wall_seconds:
                best = pt
        extra[f"wall_seconds_p{nranks}"] = round(best.wall_seconds, 4)
        extra[f"ops_per_second_p{nranks}"] = round(best.ops_per_second)
        extra[f"scheduler_ops_p{nranks}"] = int(best.ops)
    return extra


def _bench_ext_tracing_overhead(resolution: int) -> dict:
    """Measured-tracing recorder overhead on the fig6 mp workload.

    Runs the exec-phase pipeline on the ``multiprocessing`` backend with
    and without a tracer installed (the tracer turns on the per-rank
    ``WallRecorder``, the clock handshake, and the merge/emit tail) and
    records the median host wall of each mode plus their ratio.  The
    tracked expectation is single-digit-percent ``overhead_ratio``: the
    recorder itself is a handful of list appends per op and the clock
    handshake runs after the program, so the remaining cost is the
    post-run probe rounds and the merge — a few milliseconds per run,
    fully serialized only on single-core hosts where nothing overlaps.
    """
    from statistics import median

    from repro.experiments.calibrate import run_exec_phase_workload
    from repro.obs import Tracer

    repeats = 3 if resolution < 6 else 5

    def total_wall(tracer) -> float:
        res = run_exec_phase_workload(
            resolution, 4, "multiprocessing", tracer=tracer
        )
        return sum(p.host_wall for p in res.phases)

    plain = median(total_wall(None) for _ in range(repeats))
    traced = median(total_wall(Tracer()) for _ in range(repeats))
    return {
        "plain_wall_seconds": round(plain, 4),
        "traced_wall_seconds": round(traced, 4),
        "overhead_ratio": round(traced / plain, 3) if plain > 0 else 0.0,
    }


def _bench_ext_partitioners(resolution: int) -> dict:
    from repro.core.dualgraph import DualGraph
    from repro.experiments.sweep import case_for
    from repro.partition import edgecut, multilevel_kway

    dual = DualGraph(case_for(resolution).mesh)
    g = dual.comp_graph()
    part = multilevel_kway(g, 8, seed=0)
    return {"multilevel_edgecut_p8": int(edgecut(g, part))}


BENCHES: dict[str, Bench] = {
    b.name: b
    for b in (
        Bench("fig4", "Fig. 4 — adaptor speedup, remap after vs before", _bench_fig4),
        Bench("fig5", "Fig. 5 — remapping seconds, after vs before", _bench_fig5),
        Bench("fig6", "Fig. 6 — anatomy of execution time (span-derived)", _bench_fig6),
        Bench("fig7", "Fig. 7 — maximum load-balancing improvement", _bench_fig7),
        Bench("fig8", "Fig. 8 — measured solver-load improvement", _bench_fig8),
        Bench("table1", "Table 1 — grid sizes per strategy", _bench_table1),
        Bench("table2", "Table 2 — processor reassignment mappers", _bench_table2),
        Bench(
            "ext_vm_vs_ledger",
            "Extension — VM vs ledger marking-time agreement",
            _bench_ext_vm_vs_ledger,
        ),
        Bench(
            "ext_weak_scaling",
            "Extension — weak-scaling wall/speedup of the VM scheduler",
            _bench_ext_weak_scaling,
        ),
        Bench(
            "ext_tracing_overhead",
            "Extension — measured-tracing recorder overhead on the mp backend",
            _bench_ext_tracing_overhead,
        ),
        Bench(
            "ext_partitioners",
            "Extension — multilevel k-way partition of the dual graph",
            _bench_ext_partitioners,
        ),
    )
}

#: The CI subset: one sweep-driven bench, one adaptor bench, one VM bench
#: and the scheduler weak-scaling perf gate.
QUICK_BENCHES = ("fig6", "table1", "ext_vm_vs_ledger", "ext_weak_scaling")
