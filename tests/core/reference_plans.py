"""Golden reference for the one-pass planners: the per-memoryload code.

These are the MLD, MRC and inverse-MLD emitters `repro.core` shipped
before its planners went whole-pass, kept verbatim (names, imports and
the MRC ``check_class`` switch aside) as a differential oracle: the
vectorized planners must emit identical :class:`PassColumns`, field by
field and dtype by dtype.  Each visits the ``N/M`` memoryloads one at a
time through the per-step :class:`PlanBuilder` calls.
"""

from __future__ import annotations

import numpy as np

from repro.core.inverse_mld import require_inverse_mld
from repro.errors import NotInClassError
from repro.pdm.geometry import DiskGeometry
from repro.pdm.schedule import IOPlan, PlanBuilder
from repro.perms.bmmc import BMMCPermutation
from repro.perms.mld import require_mld
from repro.perms.mrc import require_mrc

__all__ = ["reference_mld_pass", "reference_mrc_pass", "reference_inverse_mld_pass"]


def reference_mld_pass(
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
    blocks_per_ml = g.blocks_per_memoryload  # M/B
    writes_per_ml = g.stripes_per_memoryload  # M/BD
    builder = PlanBuilder(g)
    builder.begin_pass(label)
    for ml in range(g.num_memoryloads):
        slots = builder.read_memoryload(source_portion, ml)
        addresses = g.memoryload_addresses(ml).astype(np.uint64)
        targets = np.asarray(perm.apply_array(addresses), dtype=np.int64)
        order = np.argsort(targets)
        sorted_targets = targets[order]

        # Lemma 13: exactly M/B full target blocks.
        per_block_targets = sorted_targets.reshape(blocks_per_ml, g.B)
        block_ids = per_block_targets[:, 0] >> g.b
        if not (per_block_targets >> g.b == block_ids[:, None]).all():
            raise NotInClassError(
                "memoryload does not cluster into full target blocks; "
                "the kernel condition (eq. 4) is violated"
            )
        if np.unique(block_ids).size != blocks_per_ml:
            raise NotInClassError("duplicate target blocks within a memoryload")

        # Property 3: M/BD blocks per disk.
        disks = g.block_disk(block_ids)
        if not (np.bincount(disks, minlength=g.D) == writes_per_ml).all():
            raise NotInClassError(
                "target blocks are not spread evenly over the disks"
            )

        # Group blocks by disk and emit M/BD independent writes of D
        # blocks each, one block per disk per write.
        disk_order = np.argsort(disks, kind="stable")
        grouped_ids = block_ids[disk_order].reshape(g.D, writes_per_ml)
        grouped_slots = slots[order].reshape(blocks_per_ml, g.B)[disk_order].reshape(
            g.D, writes_per_ml, g.B
        )
        for i in range(writes_per_ml):
            builder.write(
                target_portion, grouped_ids[:, i], grouped_slots[:, i].reshape(-1)
            )
    return builder.build()


def reference_mrc_pass(
    geometry: DiskGeometry,
    perm: BMMCPermutation,
    source_portion: int = 0,
    target_portion: int = 1,
    label: str = "mrc",
    check_class: bool = True,
) -> IOPlan:
    """Plan an MRC permutation as one pass of striped reads and writes.

    Raises :class:`NotInClassError` if ``perm`` is not MRC for the
    geometry's memory size.
    """
    g = geometry
    if check_class:
        require_mrc(perm, g.m)
    builder = PlanBuilder(g)
    builder.begin_pass(label)
    for ml in range(g.num_memoryloads):
        slots = builder.read_memoryload(source_portion, ml)
        addresses = g.memoryload_addresses(ml).astype(np.uint64)
        targets = np.asarray(perm.apply_array(addresses), dtype=np.int64)
        order = np.argsort(targets)
        sorted_targets = targets[order]
        target_ml = int(sorted_targets[0]) >> g.m
        # MRC guarantee: the whole memoryload lands in one memoryload.
        if int(sorted_targets[-1]) >> g.m != target_ml:
            raise NotInClassError(
                "memoryload scattered across target memoryloads; "
                "matrix is not MRC despite passing the form check"
            )
        builder.write_memoryload(target_portion, target_ml, slots[order])
    return builder.build()


def _slot_of_block(g: DiskGeometry, read_order_ids: np.ndarray, slots: np.ndarray):
    """Map source addresses to stream slots given blocks in read order.

    ``read_order_ids`` lists the block ids in the order they were read;
    ``slots`` is the concatenation of the slot arrays those reads
    returned (so block ``j`` of the read order owns slots
    ``slots[j*B : (j+1)*B]``).  Returns a vectorized address-to-slot map.
    """
    bases = slots[:: g.B]
    sort_idx = np.argsort(read_order_ids)
    sorted_ids = read_order_ids[sort_idx]
    sorted_bases = bases[sort_idx]

    def lookup(addresses: np.ndarray) -> np.ndarray:
        rows = np.searchsorted(sorted_ids, g.block_of(addresses))
        return sorted_bases[rows] + g.offset(addresses)

    return lookup


def reference_inverse_mld_pass(
    geometry: DiskGeometry,
    perm: BMMCPermutation,
    source_portion: int = 0,
    target_portion: int = 1,
    label: str = "inv-mld",
    check_class: bool = True,
) -> IOPlan:
    """Plan one pass of independent reads and striped writes.

    For each target memoryload: compute the source addresses via the
    inverse map; Lemma 13 on ``A^-1`` guarantees they form ``M/B`` full
    source blocks, ``M/BD`` per disk; read them with ``M/BD``
    independent parallel reads, rearrange in memory (slot permutation),
    and write the target memoryload with ``M/BD`` striped writes.
    Total: ``2N/BD`` parallel I/Os.
    """
    g = geometry
    if check_class:
        require_inverse_mld(perm, g.b, g.m)
    inverse = perm.inverse()
    blocks_per_ml = g.blocks_per_memoryload
    reads_per_ml = g.stripes_per_memoryload
    builder = PlanBuilder(g)
    builder.begin_pass(label)
    for ml in range(g.num_memoryloads):
        targets = g.memoryload_addresses(ml).astype(np.uint64)
        sources = np.asarray(inverse.apply_array(targets), dtype=np.int64)
        order = np.argsort(sources)
        sorted_sources = sources[order]

        per_block = sorted_sources.reshape(blocks_per_ml, g.B)
        block_ids = per_block[:, 0] >> g.b
        if not (per_block >> g.b == block_ids[:, None]).all():
            raise NotInClassError(
                "target memoryload does not gather from full source "
                "blocks; the inverse kernel condition is violated"
            )
        disks = g.block_disk(block_ids)
        if not (np.bincount(disks, minlength=g.D) == reads_per_ml).all():
            raise NotInClassError("source blocks not spread evenly over disks")

        # Independent reads: one block per disk per parallel read.
        disk_order = np.argsort(disks, kind="stable")
        grouped = block_ids[disk_order].reshape(g.D, reads_per_ml)
        slot_parts = [builder.read(source_portion, grouped[:, i]) for i in range(reads_per_ml)]
        read_order_ids = grouped.T.reshape(-1)
        slot_of = _slot_of_block(g, read_order_ids, np.concatenate(slot_parts))

        # ``sources`` is aligned to ascending target addresses, so the
        # slot permutation below *is* the in-memory rearrangement.
        builder.write_memoryload(target_portion, ml, slot_of(sources))
    return builder.build()
