"""One-pass MRC planner and performer (Table 1; Cormen [4], Section 1).

"Any MRC permutation can be performed by reading in a memoryload,
permuting its records in memory, and writing them out to a (possibly
different) memoryload number."  Reads and writes are both striped, so a
pass costs exactly ``2N/BD`` parallel I/Os, all striped.

Planning is pure: :func:`plan_mrc_pass` turns the permutation into an
:class:`~repro.pdm.schedule.IOPlan` without touching a simulator;
:func:`perform_mrc_pass` executes that plan under either engine.
"""

from __future__ import annotations

import numpy as np

from repro.errors import NotInClassError
from repro.pdm.cache import PlanCache, cached_execute, plan_key
from repro.pdm.engine import execute_plan
from repro.pdm.geometry import DiskGeometry
from repro.pdm.schedule import IOPlan, PlanBuilder
from repro.pdm.system import ParallelDiskSystem
from repro.perms.bmmc import BMMCPermutation
from repro.perms.mrc import require_mrc

__all__ = ["plan_mrc_pass", "perform_mrc_pass"]


def plan_mrc_pass(
    geometry: DiskGeometry,
    perm: BMMCPermutation,
    source_portion: int = 0,
    target_portion: int = 1,
    label: str = "mrc",
    check_class: bool = True,
) -> IOPlan:
    """Plan an MRC permutation as one pass of striped reads and writes.

    Raises :class:`NotInClassError` if ``perm`` is not MRC for the
    geometry's memory size.  With ``check_class=False`` the form check
    is skipped, but the in-flight check that every memoryload lands in
    one memoryload still raises it.
    """
    g = geometry
    if check_class:
        require_mrc(perm, g.m)
    # The source of every target address (``hi[tml] ^ lo[o]``).
    # Memoryloads are read in address order, so a source address is
    # also its stream slot.
    hi, lo = perm.inverse().image_halves(g.m)
    # MRC guarantee, for every memoryload at once: a memoryload's
    # sources lie in one memoryload, ``hi[tml] >> m``.
    if (lo >> g.m).any():
        raise NotInClassError(
            "memoryload scattered across target memoryloads; "
            "matrix is not MRC despite passing the form check"
        )
    target_ml = np.empty(g.num_memoryloads, dtype=np.int64)
    target_ml[hi >> g.m] = np.arange(g.num_memoryloads, dtype=np.int64)
    per_ml = g.blocks_per_memoryload
    write_ids = target_ml[:, None] * per_ml + np.arange(per_ml, dtype=np.int64)
    write_source = hi[target_ml][:, None] ^ lo
    builder = PlanBuilder(g)
    builder.add_memoryload_pass(
        label,
        source_portion, np.arange(g.num_blocks, dtype=np.int64),
        target_portion, write_ids.reshape(-1), write_source.reshape(-1),
    )
    return builder.build()


def perform_mrc_pass(
    system: ParallelDiskSystem,
    perm: BMMCPermutation,
    source_portion: int = 0,
    target_portion: int = 1,
    label: str = "mrc",
    engine: str = "strict",
    optimize: bool = False,
    cache: PlanCache | None = None,
    stream_records=None,
) -> None:
    """Perform an MRC permutation in one pass (striped reads and writes).

    ``cache`` reuses a compiled plan for repeated (geometry, matrix)
    workloads; ``optimize`` enables the plan-level rewrites;
    ``stream_records`` bounds the executor's host buffer.
    """
    if cache is not None:
        key = plan_key(
            "mrc", system.geometry, perm.matrix, perm.complement,
            source_portion, target_portion, label,
            system.num_portions, system.simple_io,
        )
        cached_execute(
            system, cache, key,
            lambda: (
                plan_mrc_pass(
                    system.geometry, perm, source_portion, target_portion, label=label
                ),
                None,
            ),
            engine=engine, optimize=optimize, stream_records=stream_records,
        )
        return
    plan = plan_mrc_pass(
        system.geometry, perm, source_portion, target_portion, label=label
    )
    execute_plan(
        system, plan, engine=engine, optimize=optimize,
        stream_records=stream_records,
    )
