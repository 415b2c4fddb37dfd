"""The measured-vs-modelled calibration report over the exec-phase workload."""

import numpy as np

from repro.experiments import calibrate, format_calibration, run_exec_phase_workload
from repro.experiments.calibrate import PHASES
from repro.obs import Tracer


def test_workload_runs_all_phases_on_virtual():
    res = run_exec_phase_workload(3, 2, "virtual")
    assert [p.phase for p in res.phases] == list(PHASES)
    assert res.backend == "virtual"
    assert all(p.makespan > 0 for p in res.phases)
    assert all(p.host_wall >= 0 for p in res.phases)
    assert res.final_ne > 0
    assert res.edge_marked.any()


def test_calibrate_payloads_identical_across_backends():
    tracer = Tracer()
    report = calibrate(resolution=3, nproc=2, tracer=tracer)
    assert report.payloads_identical, report.mismatches
    assert [r.backend for r in report.measured] == ["multiprocessing"]
    ref = report.reference
    for run in report.measured:
        assert np.array_equal(run.edge_marked, ref.edge_marked)
        assert np.array_equal(run.refine_signature, ref.refine_signature)
        assert run.elements_moved == ref.elements_moved
        assert run.final_ne == ref.final_ne

    # obs layer carries measured wall + modelled makespan for both backends
    backends_seen = {
        s.labels_dict["backend"]
        for s in tracer.metrics.samples()
        if s.name == "repro.backend.makespan_seconds"
    }
    assert backends_seen == {"virtual", "multiprocessing"}
    assert any(
        s.name == "repro.backend.wall_seconds"
        and s.labels_dict["backend"] == "multiprocessing"
        for s in tracer.metrics.samples()
    )

    out = format_calibration(report)
    assert "backend 'multiprocessing' vs 'virtual'" in out
    assert "payloads: identical across backends" in out
    for phase in PHASES:
        assert phase in out


def test_format_reports_mismatches():
    report = calibrate(resolution=3, nproc=2, backends=())
    object.__setattr__(report, "payloads_identical", False)
    object.__setattr__(report, "mismatches", ["x: marking fixpoint differs"])
    out = format_calibration(report)
    assert "payloads: MISMATCH" in out
    assert "marking fixpoint differs" in out
