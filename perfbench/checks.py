"""Output checks run after every workload step, on public data only.

Each check returns nothing when it holds and a one-line message when it
does not; a step with any message counts as a failed step.
"""

from __future__ import annotations

import numpy as np

from repro.core.reassign import heuristic_mwbg, objective_value, optimal_mwbg
from repro.core.remap import build_move_matrix
from repro.core.similarity import similarity_matrix


def check_step(solver, report, old_part: np.ndarray, wremap_at_remap: np.ndarray
               ) -> list[str]:
    """Check one finished ``adapt_step``.

    ``old_part`` is the processor of each initial element before the step and
    ``wremap_at_remap`` the remap weights at the moment the remap ran (before
    subdivision for ``remap_when="before"``, after it otherwise).
    """
    fails: list[str] = []
    P = solver.nproc
    adaptive = solver.adaptive
    part = solver.part

    owner = solver.elem_owner()
    if owner.shape != (adaptive.mesh.ne,):
        fails.append(f"owner covers {owner.shape[0]} of {adaptive.mesh.ne} elements")
    elif owner.size and (owner.min() < 0 or owner.max() >= P):
        fails.append("an element has no valid owner")
    # every workload runs F = 1, so part ids (< F*P) are processor ids (< P)
    if part.min() < 0 or part.max() >= P:
        fails.append(f"part ids outside [0, F*P={P})")

    wcomp_sum = int(adaptive.wcomp().sum())
    if wcomp_sum != adaptive.mesh.ne:
        fails.append(f"sum(wcomp)={wcomp_sum} != mesh.ne={adaptive.mesh.ne}")

    if report.remap is None:
        if not np.array_equal(part, old_part):
            fails.append("partition changed without an accepted remap")
        return fails

    if not np.array_equal(report.remap.new_owner, part):
        fails.append("remap new_owner differs from the solver partition")
    move = build_move_matrix(old_part, part, wremap_at_remap, P)
    if int(move.sum()) != report.remap.elements_moved:
        fails.append(f"elements_moved={report.remap.elements_moved} != "
                     f"move-matrix sum {int(move.sum())}")
    before = np.bincount(old_part, weights=wremap_at_remap, minlength=P)
    after = np.bincount(part, weights=wremap_at_remap, minlength=P)
    if not np.array_equal(before - move.sum(axis=1) + move.sum(axis=0), after):
        fails.append("wremap not conserved across the remap")

    # paper Theorem 1 on the accepted mapping: with the new processor ids as
    # partition labels, the applied assignment is the identity, so its kept
    # weight is the diagonal; greedy must keep at least half the optimum
    S = similarity_matrix(old_part, part, wremap_at_remap, P, P)
    kept = int(np.trace(S))
    if kept != report.stats.objective:
        fails.append(f"kept weight {kept} != reported objective "
                     f"{report.stats.objective}")
    greedy = objective_value(S, heuristic_mwbg(S))
    best = objective_value(S, optimal_mwbg(S))
    if 2 * greedy < best:
        fails.append(f"greedy kept {greedy} < half of optimal {best}")
    return fails
