"""One pass of one benchmark workload, in its own process.

    python3 perfbench/workloads.py <workload> <seed> <traced 0|1>

prints one JSON object: set-up seconds, the wall of every timed step,
balance quality, modelled virtual seconds, peak RSS, output-check failures
and, when traced, the spans and per-layer metrics.  ``perfbench/run.py``
starts one such process per pass so that peak RSS, import cost and
module-level caches never leak between passes or workloads.

Every workload drives the public ``LoadBalancedAdaptiveSolver``; inputs
(the rotor case and the per-step edge masks) are generated from the seed
outside the timed steps.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from contextlib import nullcontext

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.adapt.marking import target_elements_by_fraction  # noqa: E402
from repro.core import CostModel, LoadBalancedAdaptiveSolver  # noqa: E402
from repro.experiments.cases import CASE_NAMES, make_case  # noqa: E402
from repro.experiments.sweep import SWEEP_PROCS  # noqa: E402
from repro.parallel.machine import SP2_1997  # noqa: E402
from repro.partition.quality import edgecut  # noqa: E402
from repro.solver.fields import rotor_acoustics_field  # noqa: E402

from checks import check_step  # noqa: E402
from probes import SpanLog, installed, layer_metrics, step_coverage  # noqa: E402

VIRTUAL_FIELDS = ("marking", "partition", "gather_scatter", "reassign",
                  "remap", "subdivision")

FRONT_RES, FRONT_P, FRONT_FRAC = 8, 2, 0.20
#: wave-front radii around the blade tip, in blade radii, one per step
FRONT_RADII = (2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0)


def _solver(mesh, nproc, seed, **kw):
    # threshold 1.0: the balancer engages on every step, as in the paper's runs
    return LoadBalancedAdaptiveSolver(
        mesh, nproc, machine=SP2_1997, cost_model=CostModel(machine=SP2_1997),
        imbalance_threshold=1.0, seed=seed, **kw,
    )


class Pass:
    """Timers, step bookkeeping and output checks of one workload pass."""

    def __init__(self, log: SpanLog | None):
        self.log = log
        self.step_walls: list[float] = []
        self.failures: list[str] = []
        self.failed_steps = 0
        self.virtual = dict.fromkeys(VIRTUAL_FIELDS, 0.0)
        self.triggered = 0
        self.accepted = 0
        self.remap_elements = 0

    def begin_step(self) -> None:
        self.step_walls.append(0.0)
        if self.log is not None:
            self.log.step = len(self.step_walls) - 1

    def timed(self, fn, *args, **kwargs):
        """Call ``fn`` and add its wall to the current step."""
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.step_walls[-1] += time.perf_counter() - t0
        return out

    def fail(self, fails: list[str]) -> None:
        if fails:
            self.failed_steps += 1
            step = len(self.step_walls) - 1
            self.failures += [f"step {step}: {msg}" for msg in fails]

    def end_step(self, solver, report, old_part, wremap_at_remap) -> None:
        if self.log is not None:
            self.log.step = -1
        self.fail(check_step(solver, report, old_part, wremap_at_remap))
        for f in VIRTUAL_FIELDS:
            self.virtual[f] += getattr(report, f + "_time")
        self.triggered += report.repartition_triggered
        self.accepted += report.accepted
        if report.remap is not None:
            self.remap_elements += report.remap.elements_moved


def _step(run: Pass, solver, **step_kw):
    """One timed ``adapt_step`` of ``solver`` plus its output checks."""
    old_part = solver.part.copy()
    wremap_before = solver.adaptive.wremap()
    report = run.timed(solver.adapt_step, **step_kw)
    wremap_at_remap = (wremap_before if solver.remap_when == "before"
                       else solver.adaptive.wremap())
    run.end_step(solver, report, old_part, wremap_at_remap)


def _final_quality(solver) -> tuple[float, float]:
    return solver.solver_imbalance(), float(edgecut(solver.dual.graph, solver.part))


# Each workload is a (set-up, steps) pair: set-up builds the inputs from the
# seed (and the solver, where one solver lives across steps); steps runs the
# timed cycle and returns the final balance quality.

def figure_sweep_setup(seed: int):
    case = make_case(resolution=6, seed=seed)
    return case, {name: case.marking_mask(name) for name in CASE_NAMES}


def figure_sweep(run: Pass, seed: int, state) -> dict:
    """Real_1/2/3 x remap after/before x P in 1..64: 42 fresh solvers,
    one step each (the paper's Fig. 4/5/6/8 sweep), virtual backend.

    Quality is the mean imbalance over the 36 balanced points (P >= 2; the
    worst point swings with the seed at P=64) and the summed edge-cut."""
    case, masks = state
    imb, cut = [], 0.0
    for name in CASE_NAMES:
        for mode in ("after", "before"):
            for nproc in SWEEP_PROCS:
                run.begin_step()
                solver = run.timed(_solver, case.mesh, nproc, seed, remap_when=mode)
                _step(run, solver, edge_mask=masks[name])
                i, c = _final_quality(solver)
                if nproc > 1:
                    imb.append(i)
                cut += c
    return {"imbalance_final": float(np.mean(imb)), "edgecut_final": cut}


def moving_front_setup(seed: int):
    case = make_case(resolution=FRONT_RES, seed=seed)
    coords, blade = case.mesh.coords, case.blade
    # the front's own density bump: the field minus the field without a front
    no_front = rotor_acoustics_field(coords, blade, wave_radius=1e6)[:, 0]
    masks = []
    for r in FRONT_RADII:
        rho = rotor_acoustics_field(coords, blade, wave_radius=r * blade.radius)
        bump = (rho[:, 0] - no_front)[case.mesh.elems].max(axis=1)
        masks.append(target_elements_by_fraction(case.mesh, bump, FRONT_FRAC))
    return case, masks, _solver(case.mesh, FRONT_P, seed, backend="multiprocessing")


def moving_front(run: Pass, seed: int, state) -> dict:
    """One P=2 solver on the multiprocessing backend: each step coarsens
    the previous front away and refines the front at a larger radius."""
    case, masks, solver = state
    for mask in masks:
        adaptive = solver.adaptive
        everything = np.ones(adaptive.mesh.nedges, dtype=bool)
        run.begin_step()
        run.timed(adaptive.coarsen, everything)
        if adaptive.mesh is not case.mesh:
            run.fail(["coarsening left refined elements behind"])
            continue
        _step(run, solver, edge_mask=mask)
    i, c = _final_quality(solver)
    return {"imbalance_final": i, "edgecut_final": c}


#: name -> (set-up, steps, set-up builds per untraced pass).  The sweep's
#: ~10 ms set-up is built five times and the front's ~0.1 s one three times,
#: so host slowdown bursts do not decide their medians.
WORKLOADS = {
    "figure_sweep": (figure_sweep_setup, figure_sweep, 5),
    "moving_front": (moving_front_setup, moving_front, 3),
}


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    setup, steps, repeats = WORKLOADS[workload]
    log = SpanLog() if traced else None
    with installed(log) if traced else nullcontext():
        # traced passes build once, so span counts show one set-up
        setups = []
        for _ in range(1 if traced else repeats):
            t0 = time.perf_counter()
            state = setup(seed)
            setups.append(time.perf_counter() - t0)
        run = Pass(log)
        quality = steps(run, seed, state)
    out = {
        "setup_s": float(np.median(setups)),
        "step_walls": run.step_walls,
        **quality,
        "remap_elements": run.remap_elements,
        "triggered": run.triggered,
        "accepted": run.accepted,
        "virtual": run.virtual,
        "failed_steps": run.failed_steps,
        "failures": run.failures,
        # ru_maxrss is KiB on Linux; the children term is the largest rank
        # process, whose resident set includes pages shared with this one
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        / 1024.0,
    }
    if traced:
        out["layers"] = layer_metrics(log)
        out["coverage"] = step_coverage(log, run.step_walls)
        out["spans"] = log.spans
    return out


if __name__ == "__main__":
    name, seed, traced = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    print(json.dumps(run_pass(name, seed, traced)))
