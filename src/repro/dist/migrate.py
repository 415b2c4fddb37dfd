"""Element migration at the data-structure level (paper §4.6's remapper).

"When an element is moved from one processor to another, a communication
cost as well as a computational overhead are incurred ... The
computational overhead is the time necessary to rebuild the internal and
shared data structures."

:func:`migrate` physically moves elements between local meshes and
rebuilds every per-rank structure (local numbering, l2g maps, shared
flags, SPLs).  The result is bit-identical to decomposing the global mesh
under the new partition — asserted in tests — while the communication is
executed on the virtual machine for timing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mesh.tetmesh import TetMesh
from repro.parallel.backends import record_backend_run, resolve_backend
from repro.parallel.machine import MachineModel, SP2_1997
from repro.parallel.runtime import per_rank

from .decompose import decompose
from .localmesh import LocalMesh

__all__ = ["migrate", "MigrateResult"]


@dataclass(frozen=True)
class MigrateResult:
    locals: list[LocalMesh]  #: rebuilt per-rank meshes under the new partition
    seconds: float  #: VM-measured migration time (transfer + rebuild)
    elements_moved: int
    messages: int


def migrate(
    global_mesh: TetMesh,
    locals_: list[LocalMesh],
    new_part: np.ndarray,
    storage_words_per_elem: int = 24,
    rebuild_work_per_elem: float = 6.0,
    machine: MachineModel = SP2_1997,
    tracer=None,
    backend="virtual",
) -> MigrateResult:
    """Move elements so rank ``r`` ends up owning ``new_part == r``.

    ``new_part`` indexes *global* elements.  Transfer sizes follow the
    per-element storage model; each rank pays rebuild work proportional to
    its new local size (compaction + shared-data reconstruction).
    ``tracer`` (or the ambient one) records the migration's events and
    causal message DAG.  ``backend`` selects the communicator backend;
    ``seconds`` is that backend's makespan (modelled on ``virtual``,
    measured wall on real-execution backends).
    """
    if tracer is None:
        from repro.obs import current_tracer

        tracer = current_tracer()
    nproc = len(locals_)
    new_part = np.asarray(new_part, dtype=np.int64)
    if new_part.shape != (global_mesh.ne,):
        raise ValueError(
            f"new_part must have shape ({global_mesh.ne},), got {new_part.shape}"
        )

    old_part = np.empty(global_mesh.ne, dtype=np.int64)
    for lm in locals_:
        old_part[lm.elem_l2g] = lm.rank

    move = np.zeros((nproc, nproc), dtype=np.int64)
    np.add.at(move, (old_part, new_part), 1)
    np.fill_diagonal(move, 0)

    # physical exchange on the VM: one message per (src, dst) element set
    send_plans = [
        [(d, int(move[r, d])) for d in range(nproc) if move[r, d] > 0]
        for r in range(nproc)
    ]
    recv_counts = [int((move[:, r] > 0).sum()) for r in range(nproc)]
    new_sizes = np.bincount(new_part, minlength=nproc)

    comm = resolve_backend(backend, nproc, machine=machine, tracer=tracer)
    # On measured backends the element blocks really cross the wire —
    # `nwords`-sized float64 payloads — so the wall clocks pay for the
    # words the model charges.  The virtual machine keeps the
    # modelled-traffic form: the clock only reads `nwords`, and skipping
    # the allocation keeps the deterministic path's host wall unchanged.
    real_wire = bool(getattr(comm, "measured", False))

    def program(comm, sends, n_in, new_size):
        for dest, elems in sends:
            yield from comm.compute(2.0 * elems)  # pack
            words = elems * storage_words_per_elem
            payload = np.zeros(words, dtype=np.float64) if real_wire else None
            yield from comm.send(payload, dest=dest, tag=3, nwords=words)
        for _ in range(n_in):
            _ = yield from comm.recv(tag=3)
        # rebuild local numbering, adjacency, shared flags, SPLs
        yield from comm.compute(rebuild_work_per_elem * new_size)
        yield from comm.barrier()
    res = comm.run(
        program,
        per_rank(send_plans),
        per_rank(recv_counts),
        per_rank([int(s) for s in new_sizes]),
    )
    record_backend_run(tracer, "migrate", res)

    new_locals = decompose(global_mesh, new_part, nproc)
    return MigrateResult(
        locals=new_locals,
        seconds=res.makespan,
        elements_moved=int(move.sum()),
        messages=int((move > 0).sum()),
    )
