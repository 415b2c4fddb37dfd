"""Integration tests of the full Fig.-1 cycle."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import CostModel, LoadBalancedAdaptiveSolver
from repro.mesh import box_mesh, edge_midpoints
from repro.parallel import MachineModel, create_communicator

CHEAP_MACHINE = MachineModel(t_setup=1e-5, t_word=1e-7, t_work=1e-6)


def corner_error(mesh):
    """Error indicator concentrated near the origin corner."""
    mid = edge_midpoints(mesh.coords, mesh.edges)
    return 1.0 / (0.05 + np.linalg.norm(mid, axis=1))


def make_solver(nproc=4, **kw):
    m = box_mesh(3, 3, 3)
    return LoadBalancedAdaptiveSolver(
        m, nproc, machine=CHEAP_MACHINE,
        cost_model=CostModel(machine=CHEAP_MACHINE), **kw
    )


#: (nproc, keyword arguments, error-message pattern) the constructor rejects
_BAD_CONSTRUCTOR_ARGS = [
    (0, {}, "nproc"),
    (2.5, {}, "nproc must be an integer"),
    (True, {}, "nproc must be an integer"),
    (2, {"F": 0}, "F must be an integer >= 1"),
    (2, {"F": 2.0}, "F must be an integer"),
    (2, {"seed": -1}, "seed must be an integer >= 0"),
    (2, {"seed": 1.5}, "seed must be an integer"),
    (2, {"imbalance_threshold": np.nan}, "imbalance_threshold"),
    (2, {"imbalance_threshold": 0.99}, "imbalance_threshold"),
    (2, {"imbalance_threshold": "1.2"}, "imbalance_threshold"),
    (2, {"reassigner": "nope"}, "reassigner"),
    (2, {"remap_when": "sometimes"}, "remap_when"),
    (2, {"reassigner": "optimal_bmcm", "F": 2}, "F = 1"),
    (2, {"backend": SimpleNamespace(run=None, nranks=3)}, "spans 3 ranks"),
]


def test_constructor_validation():
    m = box_mesh(1, 1, 1)
    for nproc, kw, match in _BAD_CONSTRUCTOR_ARGS:
        with pytest.raises(ValueError, match=match):
            LoadBalancedAdaptiveSolver(m, nproc, **kw)
    # numpy integers, an infinite threshold (balancing off) and a
    # ready-made backend object of the right size are legal
    comm = create_communicator("virtual", 2)
    s = LoadBalancedAdaptiveSolver(
        m, np.int64(2), F=np.int32(1), seed=np.int64(3),
        imbalance_threshold=np.inf, backend=comm,
    )
    assert s.nproc == 2 and s.backend is comm


@pytest.mark.parametrize("nproc, kw", [
    (1, {}),  # one rank never remaps
    (2, {"imbalance_threshold": np.inf}),  # balancing never triggers
])
def test_unknown_backend_rejected_at_construction(nproc, kw):
    m = box_mesh(1, 1, 1)
    with pytest.raises(ValueError) as registry_err:
        create_communicator("no_such_backend", nproc)
    with pytest.raises(ValueError) as solver_err:
        LoadBalancedAdaptiveSolver(m, nproc, backend="no_such_backend", **kw)
    assert str(solver_err.value) == str(registry_err.value)


def test_more_partitions_than_elements_rejected():
    m = box_mesh(1, 1, 1)  # 6 tetrahedra
    LoadBalancedAdaptiveSolver(m, 6)
    with pytest.raises(ValueError, match="exceed the 6 elements"):
        LoadBalancedAdaptiveSolver(m, 8)
    with pytest.raises(ValueError, match="F\\*nproc = 8"):
        LoadBalancedAdaptiveSolver(m, 4, F=2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_edge_error_rejected(bad):
    s = make_solver(4)
    part0 = s.part.copy()
    ne0 = s.adaptive.mesh.ne
    err = corner_error(s.adaptive.mesh)
    for poisoned in (np.full_like(err, bad), np.where(np.arange(err.size) == 3,
                                                      bad, err)):
        with pytest.raises(ValueError, match="finite"):
            s.adapt_step(edge_error=poisoned, refine_frac=0.3)
    # rejected before any state changed: a clean step still runs
    assert np.array_equal(s.part, part0)
    assert s.adaptive.mesh.ne == ne0
    assert s.adapt_step(edge_error=err, refine_frac=0.3).accepted


@pytest.mark.parametrize("kind", ["float", "int", "string"])
def test_non_boolean_edge_mask_rejected(kind):
    s = make_solver(4)
    nedges, ne0 = s.adaptive.mesh.nedges, s.adaptive.mesh.ne
    mask = {
        "float": np.full(nedges, 0.7),
        "int": np.ones(nedges, dtype=np.int64),
        "string": np.full(nedges, "yes"),
    }[kind]
    with pytest.raises(ValueError, match="edge_mask must be boolean"):
        s.adapt_step(edge_mask=mask)
    assert s.adaptive.mesh.ne == ne0


def test_wrong_shaped_edge_error_names_edge_error():
    s = make_solver(4)
    err = corner_error(s.adaptive.mesh)
    with pytest.raises(ValueError, match=r"edge_error must have shape"):
        s.adapt_step(edge_error=err[:-1], refine_frac=0.3)
    with pytest.raises(ValueError, match=r"edge_error must have shape"):
        s.adapt_step(edge_error=err.reshape(1, -1), refine_frac=0.3)
    assert s.adapt_step(edge_error=err, refine_frac=0.3).accepted


def test_initial_partition_balanced():
    s = make_solver(4)
    assert s.solver_imbalance() <= 1.15
    assert np.bincount(s.part, minlength=4).min() > 0


def test_localized_refinement_triggers_rebalance():
    s = make_solver(4)
    err = corner_error(s.adaptive.mesh)
    report = s.adapt_step(edge_error=err, refine_frac=0.15)
    assert report.repartition_triggered
    assert report.accepted
    assert report.imbalance_after < report.imbalance_before
    assert s.solver_imbalance() <= 1.3
    # ownership still covers every initial element exactly once
    assert s.part.shape == (s.adaptive.initial_mesh.ne,)
    assert s.part.min() >= 0 and s.part.max() < 4


def test_uniform_refinement_skips_balancing():
    """Uniform 1:8 refinement multiplies every weight by 8 — balance is
    preserved, so the evaluation step must skip the load balancer."""
    s = make_solver(4)
    report = s.adapt_step(edge_mask=np.ones(s.adaptive.mesh.nedges, dtype=bool))
    assert not report.repartition_triggered
    assert report.remap_time == 0.0
    assert report.growth_factor == pytest.approx(8.0)


def test_single_proc_never_balances():
    s = make_solver(1)
    err = corner_error(s.adaptive.mesh)
    report = s.adapt_step(edge_error=err, refine_frac=0.2)
    assert not report.repartition_triggered
    assert report.adaption_time > 0


def test_remap_before_moves_less_than_after():
    """§4.6: remapping before subdivision moves the un-grown mesh."""
    err = None
    moved = {}
    for when in ("before", "after"):
        s = make_solver(4, remap_when=when, seed=1)
        err = corner_error(s.adaptive.mesh)
        rep = s.adapt_step(edge_error=err, refine_frac=0.2)
        assert rep.accepted, f"remap_when={when} should accept"
        moved[when] = rep.remap.elements_moved
    assert moved["before"] < moved["after"]


def test_remap_before_balances_subdivision():
    err = None
    subdiv = {}
    for when in ("before", "after"):
        s = make_solver(4, remap_when=when, seed=1)
        err = corner_error(s.adaptive.mesh)
        rep = s.adapt_step(edge_error=err, refine_frac=0.2)
        subdiv[when] = rep.subdivision_time
    assert subdiv["before"] < subdiv["after"]


@pytest.mark.parametrize(
    "method", ["heuristic_mwbg", "optimal_mwbg", "optimal_bmcm", "combined"]
)
def test_all_reassigners_run(method):
    s = make_solver(4, reassigner=method)
    err = corner_error(s.adaptive.mesh)
    rep = s.adapt_step(edge_error=err, refine_frac=0.15)
    assert rep.repartition_triggered
    assert rep.stats is not None
    assert rep.reassign_time >= 0


def test_F2_partitions_per_processor():
    s = make_solver(2, F=2)
    err = corner_error(s.adaptive.mesh)
    rep = s.adapt_step(edge_error=err, refine_frac=0.2)
    if rep.repartition_triggered and rep.accepted:
        assert s.part.max() < 2  # partitions folded back onto processors


def test_multiple_adaption_steps():
    s = make_solver(4)
    for _ in range(3):
        err = corner_error(s.adaptive.mesh)
        s.adapt_step(edge_error=err, refine_frac=0.1)
        s.adaptive.mesh.check()
    assert s.adaptive.forest.depth == 3
    assert s.solver_imbalance() < 2.0


def test_report_times_populated():
    s = make_solver(4)
    err = corner_error(s.adaptive.mesh)
    rep = s.adapt_step(edge_error=err, refine_frac=0.15)
    assert rep.marking_time > 0
    assert rep.subdivision_time > 0
    assert rep.adaption_time == rep.marking_time + rep.subdivision_time
    if rep.accepted:
        assert rep.partition_time > 0
        assert rep.remap_time > 0
        assert rep.total_time >= rep.adaption_time
        # §4.3's "minuscule" gather/scatter claim: dwarfed by the remap
        assert 0 < rep.gather_scatter_time < rep.remap_time


def test_rejection_leaves_partition_unchanged():
    """With an absurdly expensive machine the gain can't pay for the move."""
    expensive = MachineModel(t_setup=10.0, t_word=1.0, t_work=1e-6)
    m = box_mesh(3, 3, 3)
    s = LoadBalancedAdaptiveSolver(
        m, 4, machine=expensive,
        cost_model=CostModel(machine=expensive, t_iter=1e-9, n_adapt=1),
    )
    before = s.part.copy()
    err = corner_error(s.adaptive.mesh)
    rep = s.adapt_step(edge_error=err, refine_frac=0.15)
    assert rep.repartition_triggered
    assert not rep.accepted
    assert np.array_equal(s.part, before)
