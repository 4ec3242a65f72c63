"""One-pass MLD planner and performer (Section 3, Theorem 15).

For each source memoryload: ``M/BD`` *striped* reads bring in ``M``
records; the kernel condition guarantees (Lemmas 13-14 and property 3)
that they cluster into exactly ``M/B`` *full* target blocks distributed
evenly over the disks, ``M/BD`` per disk; ``M/BD`` *independent* writes
put them down.  Total: one pass, ``2N/BD`` parallel I/Os.

The planner *asserts* the Theorem 15 properties as it builds the plan,
over all memoryloads at once: a BMMC map is affine, so its image of the
``N`` addresses splits into the images of the ``N/M`` memoryload bases
and of the ``M`` offsets (:meth:`BMMCPermutation.image_halves`).
Lemma 13 (full target blocks) then becomes a condition on the ``M``
offset images alone, and property 3 (``M/BD`` blocks per disk) one
``bincount`` over the ``N/B`` blocks.  Planning a random MLD instance
is an executable proof of Theorem 15, and handing it a non-MLD matrix
fails loudly (before any I/O) rather than silently scattering records.
The per-memoryload planners this replaced are kept as test oracles.
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
from repro.perms.mld import require_mld

__all__ = ["plan_mld_pass", "perform_mld_pass"]


def block_memoryloads(
    g: DiskGeometry, hi: np.ndarray, lo: np.ndarray, message: str
) -> np.ndarray:
    """Memoryload each block's records map to under ``(hi, lo)``.

    Lemma 13, for every memoryload at once: the ``B`` records of a
    block must all land in one memoryload.  The record at offset ``o``
    of memoryload ``ml`` lands in memoryload ``(hi[ml] ^ lo[o]) >> m``,
    so the condition depends on ``lo`` alone.  Raises
    :class:`NotInClassError` with ``message`` when it fails.
    """
    lo_ml = (lo >> g.m).reshape(g.blocks_per_memoryload, g.B)
    if (lo_ml != lo_ml[:, :1]).any():
        raise NotInClassError(message)
    return ((hi >> g.m)[:, None] ^ lo_ml[None, :, 0]).reshape(-1)


def disk_major_blocks(
    g: DiskGeometry, block_ml: np.ndarray, message: str
) -> np.ndarray:
    """Every block id, in the step order of ``M/BD`` independent I/Os per
    memoryload.

    ``block_ml[k]`` is the memoryload block ``k`` is moved with.
    Property 3, for every memoryload at once: each memoryload has
    exactly ``M/BD`` blocks on each disk (else :class:`NotInClassError`
    with ``message``).  Parallel I/O ``i`` of a memoryload then takes
    the ``i``-th smallest of its blocks on each disk, in disk order.
    """
    disks = np.arange(g.num_blocks, dtype=np.int64) & (g.D - 1)
    counts = np.bincount(block_ml * g.D + disks, minlength=g.num_memoryloads * g.D)
    if (counts != g.stripes_per_memoryload).any():
        raise NotInClassError(message)
    # Column d of the (stripes, D) block grid lists disk d's blocks in
    # ascending order; a stable sort by memoryload keeps that order
    # within each memoryload's M/BD rows.  A narrow key sorts by radix.
    key = block_ml.reshape(g.num_stripes, g.D).T.astype(
        np.min_scalar_type(g.num_memoryloads - 1)
    )
    stripes = np.argsort(key, axis=1, kind="stable").T
    return ((stripes << g.d) + np.arange(g.D, dtype=np.int64)).reshape(-1)


def plan_mld_pass(
    geometry: DiskGeometry,
    perm: BMMCPermutation,
    source_portion: int = 0,
    target_portion: int = 1,
    label: str = "mld",
    check_class: bool = True,
) -> IOPlan:
    """Plan an MLD permutation: striped reads, independent writes.

    Even with ``check_class=False`` a non-MLD matrix cannot slip
    through: the in-flight Lemma 13 / property 3 assertions raise
    :class:`NotInClassError` while the plan is being built.
    """
    g = geometry
    if check_class:
        require_mld(perm, g.b, g.m)
    # The source of every target address.  Memoryloads are read in
    # address order, so a source address is also its stream slot.
    hi, lo = perm.inverse().image_halves(g.m)
    source_ml = block_memoryloads(
        g, hi, lo,
        "memoryload does not cluster into full target blocks; "
        "the kernel condition (eq. 4) is violated",
    )
    write_ids = disk_major_blocks(
        g, source_ml, "target blocks are not spread evenly over the disks"
    )
    per_ml = g.blocks_per_memoryload
    lo_blocks = lo.reshape(per_ml, g.B)
    write_source = (
        hi[write_ids >> (g.m - g.b)][:, None] ^ lo_blocks[write_ids & (per_ml - 1)]
    )
    builder = PlanBuilder(g)
    builder.add_memoryload_pass(
        label,
        source_portion, np.arange(g.num_blocks, dtype=np.int64),
        target_portion, write_ids, write_source.reshape(-1),
    )
    return builder.build()


def perform_mld_pass(
    system: ParallelDiskSystem,
    perm: BMMCPermutation,
    source_portion: int = 0,
    target_portion: int = 1,
    label: str = "mld",
    check_class: bool = True,
    engine: str = "strict",
    optimize: bool = False,
    cache: PlanCache | None = None,
    stream_records=None,
) -> None:
    """Perform an MLD permutation in one pass (striped reads, independent writes).

    ``cache`` reuses a compiled plan for repeated (geometry, matrix)
    workloads; ``optimize`` runs the plan-level rewrites of
    :mod:`repro.pdm.optimize` (fast engine only); ``stream_records``
    bounds the executor's host read-stream buffer.
    """
    if cache is not None:
        key = plan_key(
            "mld", system.geometry, perm.matrix, perm.complement,
            source_portion, target_portion, label,
            system.num_portions, system.simple_io,
        )
        cached_execute(
            system, cache, key,
            lambda: (
                plan_mld_pass(
                    system.geometry, perm, source_portion, target_portion,
                    label=label, check_class=check_class,
                ),
                None,
            ),
            engine=engine, optimize=optimize, stream_records=stream_records,
        )
        return
    plan = plan_mld_pass(
        system.geometry,
        perm,
        source_portion,
        target_portion,
        label=label,
        check_class=check_class,
    )
    execute_plan(
        system, plan, engine=engine, optimize=optimize,
        stream_records=stream_records,
    )
