"""Plan-level optimization: rewrite *how* a plan executes, not what it does.

The paper counts parallel I/Os; the simulator additionally pays host
work to move every record through the portion arrays.  For multi-pass
plans (the Theorem 21 factor chain, the merge-sort baseline) most of
that traffic is a write immediately consumed by the next pass's read --
the ping-pong portion is a glorified pipe.  :func:`optimize_plan`
detects those links statically and produces an :class:`OptimizedPlan`
that executes the whole chain as *one* physical gather → composed slot
permutation → scatter, while still reporting pass-by-pass
:class:`~repro.pdm.stats.IOStats` and memory peaks exactly as the
unoptimized plan would.  Three rewrites:

* **pass fusion across ping-pong portions** -- pass ``k+1`` reads
  (consuming) exactly the records pass ``k`` writes, so the write/read
  round trip through the portion array is replaced by composing the two
  slot permutations.  A chain of ``p`` passes becomes one gather and
  one scatter.
* **dead-write elimination** -- a write whose target block is
  overwritten by a later pass with no intervening read never influences
  the final state; the physical scatter is skipped (its I/O is still
  counted).  Only applies outside simple I/O: under simple I/O such a
  plan faults, and the optimizer must preserve the fault.
* **step coalescing** -- adjacent steps with identical (kind, portion,
  consume) metadata collapse into single gather/scatter segments; this
  falls out of the fused columnar representation and is reported, not
  re-derived.

Equivalence is by construction, and :meth:`OptimizedPlan.verify` checks
the construction cheaply: every fused link is a portion-qualified
address bijection, every composed slot map stays in range, and the
per-pass I/O counters the optimized executor will report are the
original plan's own fused counters.  The executed result is
byte-identical in portions and identical in stats to strict execution
(property-tested in ``tests/pdm/test_optimize.py``).

Simple-I/O discipline makes fusion sound: a consumed link leaves its
blocks exactly as empty as never materializing them would, and the
write-to-empty rule (checked by the optimized executor on every skipped
link) guarantees no pre-existing payload is lost by the skip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import BlockStateError, PlanError, ValidationError
from repro.pdm.cancel import checkpoint
from repro.pdm.engine import (
    ENGINES,
    ExecReport,
    _check_memory,
    _check_pass,
    _execute_fast,
    _execute_strict,
    _finish_pass,
    _fuse_pass,
    _portion_groups,
    _require_write_targets_empty,
    _run_fused_pass,
    _stream_budget,
)
from repro.pdm.schedule import IOPlan
from repro.pdm.system import ParallelDiskSystem

__all__ = ["OptimizeReport", "OptimizedPlan", "optimize_plan"]


@dataclass(frozen=True)
class OptimizeReport:
    """What the optimizer found and rewrote."""

    passes: int                     # original plan passes
    physical_passes: int            # gather/scatter units after fusion
    fused_groups: int               # chains of >= 2 passes fused into one
    fused_links: int                # eliminated write->read round trips
    eliminated_write_records: int   # records whose scatter was dead
    coalesced_steps: int            # steps folded into wider segments
    partial_groups: int = 0         # pass pairs fused on an address subset
    partial_link_records: int = 0   # records piped through partial links

    def summary(self) -> str:
        return (
            f"{self.passes} passes -> {self.physical_passes} physical "
            f"({self.fused_groups} fused groups, {self.fused_links} links "
            f"eliminated, {self.partial_groups} partial pairs, "
            f"{self.partial_link_records} records piped partially, "
            f"{self.eliminated_write_records} dead write records, "
            f"{self.coalesced_steps} steps coalesced)"
        )


class _Group:
    """One physical execution unit covering >= 1 original passes."""

    __slots__ = ("members", "source_map", "write_keep", "partial")

    def __init__(self, members, source_map=None, write_keep=None, partial=None):
        self.members = members          # list[_FusedPass], plan order
        self.source_map = source_map    # fused chain: out <- first-stream slots
        self.write_keep = write_keep    # dead-write record mask (singletons)
        self.partial = partial          # _PartialLink for two-pass subset fusion


class _PartialLink:
    """A two-pass fusion over the *subset* of addresses the passes share.

    ``fa`` writes some blocks that ``fb`` immediately re-reads, but the
    match is not the exact bijection :func:`_link_map` needs -- ``fa``
    also writes blocks ``fb`` never touches, or ``fb`` also reads
    blocks ``fa`` never wrote.  Fuse the overlap (pipe those records
    straight from ``fa``'s read stream) and materialize only the
    remainder physically.
    """

    __slots__ = ("link_slots", "b_link_idx", "a_keep", "b_phys_idx")

    def __init__(self, link_slots, b_link_idx, a_keep, b_phys_idx):
        self.link_slots = link_slots    # fa-stream slots feeding piped fb reads
        self.b_link_idx = b_link_idx    # fb-stream positions filled by the pipe
        self.a_keep = a_keep            # fa write records still scattered
        self.b_phys_idx = b_phys_idx    # fb-stream positions gathered physically


def _reads_pipeable(f, simple_io: bool) -> bool:
    """All of a pass's reads consume and keep their records (no discard)."""
    return (
        f.read_addr.size > 0
        and bool(f.resolved_consume(simple_io).all())
        and not bool(f.read_discard.any())
    )


def _link_map(g, fa, fb, simple_io: bool) -> np.ndarray | None:
    """Slot map realizing ``fb``'s read stream from ``fa``'s read stream.

    Exists when ``fb`` reads (consuming) exactly the records ``fa``
    writes: then ``fb_stream = fa_stream[link]``, and the write/read
    round trip through the portion array can be skipped.
    """
    if not fa.write_addr.size or fa.write_addr.size != fb.read_addr.size:
        return None
    if not _reads_pipeable(fb, simple_io):
        return None
    qa = fa.rec_write_portion * g.N + fa.write_addr
    qb = fb.rec_read_portion * g.N + fb.read_addr
    order = np.argsort(qa)
    qa_sorted = qa[order]
    pos = np.searchsorted(qa_sorted, qb)
    if pos.size and int(pos.max()) >= qa_sorted.size:
        return None
    if not np.array_equal(qa_sorted[pos], qb):
        return None
    return fa.write_source[order[pos]]


def _partial_link(g, fa, fb, simple_io: bool) -> _PartialLink | None:
    """Subset link between consecutive passes; ``None`` when unsound.

    Requirements mirror :func:`_link_map` -- simple I/O, ``fb``'s reads
    all consume and keep -- relaxed from *exact bijection* to *any
    overlap*.  Qualified-address matching is block-exact: passes read
    and write whole blocks at the same record addresses, so a shared
    block matches on all of its records or none.

    One extra soundness condition: ``fb``'s writes must not target a
    skipped (piped) ``fa`` write block.  Strict execution would fault
    there (writing to the non-empty block ``fa`` materialized); with
    the block never materialized the fault would be lost, so such pairs
    refuse partial fusion and stay physical.
    """
    if not fa.write_addr.size or not fb.read_addr.size:
        return None
    if not _reads_pipeable(fa, simple_io) or not _reads_pipeable(fb, simple_io):
        return None
    qa = fa.rec_write_portion * g.N + fa.write_addr
    qb = fb.rec_read_portion * g.N + fb.read_addr
    order = np.argsort(qa)
    qa_sorted = qa[order]
    pos = np.minimum(np.searchsorted(qa_sorted, qb), qa_sorted.size - 1)
    matched = qa_sorted[pos] == qb
    if not matched.any():
        return None
    if fb.write_addr.size:
        qw = fb.rec_write_portion * g.N + fb.write_addr
        if np.intersect1d(qb[matched], qw).size:
            return None
    hit = order[pos[matched]]
    a_keep = np.ones(qa.size, dtype=bool)
    a_keep[hit] = False
    return _PartialLink(
        link_slots=fa.write_source[hit],
        b_link_idx=np.flatnonzero(matched),
        a_keep=a_keep,
        b_phys_idx=np.flatnonzero(~matched),
    )


def _dead_write_masks(g, fused, simple_io: bool):
    """Per-pass record keep-masks for writes overwritten before any read.

    Walks passes last-to-first carrying the set of portion-qualified
    addresses that a later pass overwrites with no read in between.
    Under simple I/O the strict engine faults on such plans, so the
    rewrite is offered only outside it.
    """
    if simple_io:
        return {}, 0
    masks = {}
    eliminated = 0
    kill = np.zeros(0, dtype=np.int64)
    for idx in range(len(fused) - 1, -1, -1):
        f = fused[idx]
        qw = f.rec_write_portion * g.N + f.write_addr
        qr = f.rec_read_portion * g.N + f.read_addr
        if kill.size and qw.size:
            dead = np.isin(qw, kill)
            if dead.any():
                masks[idx] = ~dead
                eliminated += int(dead.sum())
        if qw.size:
            kill = np.union1d(kill, qw)
        if qr.size and kill.size:
            kill = np.setdiff1d(kill, qr)
    return masks, eliminated


def _coalesced_steps(f, simple_io: bool) -> int:
    """Steps whose metadata folds into a wider contiguous segment."""
    folded = 0
    if f.read_sizes.size > 1:
        consume = f.resolved_consume(simple_io)
        runs = 1 + int(
            np.count_nonzero(
                (np.diff(f.read_portions) != 0)
                | (np.diff(consume.astype(np.int8)) != 0)
                | (np.diff(f.read_discard.astype(np.int8)) != 0)
            )
        )
        folded += f.read_sizes.size - runs
    if f.write_sizes.size > 1:
        runs = 1 + int(np.count_nonzero(np.diff(f.write_portions) != 0))
        folded += f.write_sizes.size - runs
    return folded


def optimize_plan(
    plan: IOPlan,
    num_portions: int = 2,
    simple_io: bool = True,
    fuse: bool = True,
    eliminate_dead_writes: bool = True,
    fuse_partial: bool = True,
) -> "OptimizedPlan":
    """Compile an :class:`IOPlan` into an :class:`OptimizedPlan`.

    ``num_portions`` and ``simple_io`` pin the system shape the
    optimized artifact is valid for (consume defaults and the fusion
    soundness argument depend on them); executing it against a system
    with a different shape transparently falls back to the plain fast
    engine.  ``fuse_partial`` enables the subset-overlap pair fusion
    for consecutive passes full-chain fusion refuses.
    """
    g = plan.geometry
    fused = [_fuse_pass(g, p) for p in plan.passes]
    for f in fused:
        _check_pass(g, num_portions, simple_io, f)

    masks, eliminated = (
        _dead_write_masks(g, fused, simple_io) if eliminate_dead_writes else ({}, 0)
    )

    groups: list[_Group] = []
    links = 0
    partial_records = 0
    i = 0
    while i < len(fused):
        members = [fused[i]]
        to_first: np.ndarray | None = None
        if fuse and simple_io and i not in masks and _reads_pipeable(fused[i], simple_io):
            while i + len(members) < len(fused):
                nxt_idx = i + len(members)
                if nxt_idx in masks:
                    break
                link = _link_map(g, members[-1], fused[nxt_idx], simple_io)
                if link is None:
                    break
                to_first = link if to_first is None else to_first[link]
                members.append(fused[nxt_idx])
        if len(members) > 1:
            source_map = to_first[members[-1].write_source]
            groups.append(_Group(members, source_map=source_map))
            links += len(members) - 1
            i += len(members)
            continue
        # Full-chain fusion refused; try fusing just the shared subset
        # with the next pass -- unless that pass would rather head a
        # full chain of its own (full links pipe strictly more).
        if (
            fuse
            and fuse_partial
            and simple_io
            and i not in masks
            and i + 1 < len(fused)
            and (i + 1) not in masks
        ):
            nxt = fused[i + 1]
            heads_full_chain = (
                i + 2 < len(fused)
                and (i + 2) not in masks
                and _reads_pipeable(nxt, simple_io)
                and _link_map(g, nxt, fused[i + 2], simple_io) is not None
            )
            plink = None if heads_full_chain else _partial_link(
                g, fused[i], nxt, simple_io
            )
            if plink is not None:
                groups.append(_Group([fused[i], nxt], partial=plink))
                partial_records += int(plink.link_slots.size)
                i += 2
                continue
        groups.append(_Group(members, write_keep=masks.get(i)))
        i += 1

    report = OptimizeReport(
        passes=len(fused),
        physical_passes=len(groups),
        fused_groups=sum(
            1 for grp in groups if len(grp.members) > 1 and grp.partial is None
        ),
        fused_links=links,
        eliminated_write_records=eliminated,
        coalesced_steps=sum(_coalesced_steps(f, simple_io) for f in fused),
        partial_groups=sum(1 for grp in groups if grp.partial is not None),
        partial_link_records=partial_records,
    )
    return OptimizedPlan(plan, fused, groups, report, num_portions, simple_io)


class OptimizedPlan:
    """A compiled plan: original passes plus their physical rewrite.

    The artifact owns nothing the original plan does not imply -- it can
    always fall back to executing ``plan`` directly (strict engine,
    attached observers, capture, or a system whose portion count /
    simple-I/O discipline differs from what it was compiled for), and
    the optimized path reports the *original* plan's per-pass stats and
    memory envelope.
    """

    __slots__ = ("plan", "_fused", "groups", "report", "num_portions", "simple_io")

    def __init__(self, plan, fused, groups, report, num_portions, simple_io):
        self.plan = plan
        self._fused = fused
        self.groups = groups
        self.report = report
        self.num_portions = num_portions
        self.simple_io = simple_io

    @property
    def geometry(self):
        return self.plan.geometry

    # ------------------------------------------------------------ certificate
    def verify(self) -> dict:
        """Cheap equivalence certificate; raises :class:`PlanError` on any
        structural violation, returns a summary dict otherwise.

        Checks: fused chains conserve record counts link by link, every
        composed slot map indexes inside the first member's read stream,
        dead-write masks only mask write records, and the pass list the
        optimized executor will report equals the original plan's.
        """
        total_passes = 0
        for grp in self.groups:
            total_passes += len(grp.members)
            if grp.source_map is not None:
                first, last = grp.members[0], grp.members[-1]
                for fa, fb in zip(grp.members, grp.members[1:]):
                    if fa.write_addr.size != fb.read_addr.size:
                        raise PlanError(
                            f"fused link {fa.label!r} -> {fb.label!r} does not "
                            "conserve records"
                        )
                if grp.source_map.size != last.write_addr.size:
                    raise PlanError(
                        f"group ending at {last.label!r}: slot map does not "
                        "cover the final writes"
                    )
                if grp.source_map.size and (
                    int(grp.source_map.min()) < 0
                    or int(grp.source_map.max()) >= first.stream_records
                ):
                    raise PlanError(
                        f"group ending at {last.label!r}: slot map escapes the "
                        "first pass's read stream"
                    )
            if grp.write_keep is not None:
                if grp.write_keep.shape != grp.members[0].write_addr.shape:
                    raise PlanError(
                        f"pass {grp.members[0].label!r}: dead-write mask shape "
                        "mismatch"
                    )
            if grp.partial is not None:
                fa, fb = grp.members
                pl = grp.partial
                if pl.b_link_idx.size != pl.link_slots.size:
                    raise PlanError(
                        f"partial pair {fa.label!r} -> {fb.label!r}: piped "
                        "slot counts do not match"
                    )
                if pl.b_link_idx.size + pl.b_phys_idx.size != fb.read_addr.size:
                    raise PlanError(
                        f"partial pair {fa.label!r} -> {fb.label!r}: piped and "
                        "physical reads do not cover the second pass"
                    )
                if pl.a_keep.shape != fa.write_addr.shape:
                    raise PlanError(
                        f"partial pair {fa.label!r} -> {fb.label!r}: keep mask "
                        "shape mismatch"
                    )
                if int(pl.a_keep.sum()) + pl.link_slots.size != fa.write_addr.size:
                    raise PlanError(
                        f"partial pair {fa.label!r} -> {fb.label!r}: skipped and "
                        "kept writes do not cover the first pass"
                    )
                if pl.link_slots.size and (
                    int(pl.link_slots.min()) < 0
                    or int(pl.link_slots.max()) >= fa.stream_records
                ):
                    raise PlanError(
                        f"partial pair {fa.label!r} -> {fb.label!r}: piped slots "
                        "escape the first pass's read stream"
                    )
        if total_passes != len(self._fused) or total_passes != self.plan.num_passes:
            raise PlanError("optimized groups do not cover the plan's passes")
        return {
            "passes": total_passes,
            "physical_passes": len(self.groups),
            "fused_links": self.report.fused_links,
            "partial_groups": self.report.partial_groups,
            "stats_identical_by_construction": True,
        }

    # -------------------------------------------------------------- execution
    def execute(
        self,
        system: ParallelDiskSystem,
        engine: str = "fast",
        stream_records=None,
        capture: bool = False,
    ) -> ExecReport:
        if engine not in ENGINES:
            raise ValidationError(f"unknown engine {engine!r}; choose from {ENGINES}")
        if self.plan.geometry != system.geometry:
            raise ValidationError("plan and system geometries differ")
        if engine == "strict" or system._observers:
            report = _execute_strict(
                system, self.plan, capture=capture, stream_records=stream_records
            )
            if engine == "fast":
                report.fell_back = "observers"
            return report
        if capture:
            return _execute_fast(system, self.plan, capture=True)
        if (
            system.num_portions != self.num_portions
            or system.simple_io != self.simple_io
        ):
            report = _execute_fast(system, self.plan, stream_records=stream_records)
            report.fell_back = "system-shape-mismatch"
            return report
        return self._execute_optimized(system, stream_records)

    def _execute_optimized(self, system, stream_records) -> ExecReport:
        g = system.geometry
        for f in self._fused:
            _check_pass(g, system.num_portions, system.simple_io, f)
        _, _, mems = _check_memory(
            g, system.memory.capacity, system.memory.in_use, self._fused
        )
        # Groups cover self._fused in plan order; walk the per-execution
        # memory list alongside them (it is never stored on the shared
        # fused metadata -- concurrent executions each get their own).
        mem_of = dict(zip(map(id, self._fused), mems))
        budget = _stream_budget(stream_records)
        report = ExecReport(engine="fast", optimized=True)
        for grp in self.groups:
            checkpoint("pass", grp.members[0].label)
            if grp.partial is not None:
                # A partial pair buffers both read streams at once.
                buffered = sum(f.stream_records for f in grp.members)
                run = self._run_partial_group
            elif grp.source_map is not None:
                # A fused chain buffers its first pass's whole read stream.
                buffered = grp.members[0].stream_records
                run = self._run_group
            else:
                f = grp.members[0]
                _run_fused_pass(
                    system, f, budget, report, mem_of[id(f)], write_keep=grp.write_keep
                )
                continue
            if budget is not None and buffered > budget:
                # The stream budget wins: run the members unfused
                # through the streaming path.
                for f in grp.members:
                    _run_fused_pass(system, f, budget, report, mem_of[id(f)])
                continue
            report.host_peak_records = max(report.host_peak_records, run(system, grp))
            for f in grp.members:
                _finish_pass(system, f, mem_of[id(f)])
        return report

    def _run_group(self, system, grp) -> int:
        """One fused chain: gather first reads, apply the composed slot
        permutation, scatter last writes; enforce every simple-I/O check
        the skipped link operations would have performed."""
        g = system.geometry
        data = system._data
        first, last = grp.members[0], grp.members[-1]

        stream = np.empty(first.stream_records, dtype=system.dtype)
        for portion, idx in _portion_groups(first.read_portions, first.rec_read_portion):
            if isinstance(idx, slice):
                np.take(data[portion], first.read_addr, out=stream)
            else:
                stream[idx] = data[portion, first.read_addr[idx]]
        empty = system._is_empty(stream)
        if empty.any():
            bad = np.unique(np.repeat(first.read_ids, g.B)[empty])
            raise BlockStateError(
                f"reading empty/partial blocks {list(bad)} under simple I/O"
            )
        for portion, idx in _portion_groups(first.read_portions, first.rec_read_portion):
            if isinstance(idx, slice):
                data[portion][first.read_addr] = system.empty
            else:
                data[portion, first.read_addr[idx]] = system.empty

        # Skipped links: their write targets must have been empty (the
        # write-to-empty rule); after the consume above, portion state
        # matches what strict execution would show at each link's time.
        for fa in grp.members[:-1]:
            _require_write_targets_empty(
                system, fa.write_portions, fa.rec_write_portion, fa.write_addr
            )

        _require_write_targets_empty(
            system, last.write_portions, last.rec_write_portion, last.write_addr
        )
        out = stream[grp.source_map]
        for portion, idx in _portion_groups(last.write_portions, last.rec_write_portion):
            if isinstance(idx, slice):
                data[portion][last.write_addr] = out
            else:
                data[portion, last.write_addr[idx]] = out[idx]
        return stream.size

    def _run_partial_group(self, system, grp) -> int:
        """One partial pair: run ``fa`` whole (skipping the piped
        writes), then realize ``fb``'s stream from the pipe plus a
        physical gather of the remainder.

        Check order preserves strict fault semantics: ``fa``'s *entire*
        write set must target empty blocks (piped targets included --
        they stay physically empty, exactly as a consumed link leaves
        them), and ``fb``'s physical reads run through the same
        empty-and-consume discipline as any other read.  ``fb`` writing
        a piped block is refused at compile time (see
        :func:`_partial_link`), so no fault can hide behind the skip.
        """
        g = system.geometry
        data = system._data
        fa, fb = grp.members
        pl = grp.partial

        stream_a = np.empty(fa.stream_records, dtype=system.dtype)
        for portion, idx in _portion_groups(fa.read_portions, fa.rec_read_portion):
            if isinstance(idx, slice):
                np.take(data[portion], fa.read_addr, out=stream_a)
            else:
                stream_a[idx] = data[portion, fa.read_addr[idx]]
        empty = system._is_empty(stream_a)
        if empty.any():
            bad = np.unique(np.repeat(fa.read_ids, g.B)[empty])
            raise BlockStateError(
                f"reading empty/partial blocks {list(bad)} under simple I/O"
            )
        for portion, idx in _portion_groups(fa.read_portions, fa.rec_read_portion):
            if isinstance(idx, slice):
                data[portion][fa.read_addr] = system.empty
            else:
                data[portion, fa.read_addr[idx]] = system.empty

        _require_write_targets_empty(
            system, fa.write_portions, fa.rec_write_portion, fa.write_addr
        )
        out_a = stream_a[fa.write_source]
        for portion, idx in _portion_groups(fa.write_portions, fa.rec_write_portion):
            mask = pl.a_keep if isinstance(idx, slice) else (idx & pl.a_keep)
            data[portion, fa.write_addr[mask]] = out_a[mask]

        stream_b = np.empty(fb.stream_records, dtype=system.dtype)
        stream_b[pl.b_link_idx] = stream_a[pl.link_slots]
        if pl.b_phys_idx.size:
            phys_addr = fb.read_addr[pl.b_phys_idx]
            phys_port = fb.rec_read_portion[pl.b_phys_idx]
            for portion, idx in _portion_groups(phys_port, phys_port):
                if isinstance(idx, slice):
                    values = data[portion][phys_addr]
                else:
                    values = data[portion, phys_addr[idx]]
                empty = system._is_empty(values)
                if empty.any():
                    bad = np.unique(phys_addr[idx][empty] >> g.b)
                    raise BlockStateError(
                        f"reading empty/partial blocks {list(bad)} under simple I/O"
                    )
                stream_b[pl.b_phys_idx[idx]] = values
                if isinstance(idx, slice):
                    data[portion][phys_addr] = system.empty
                else:
                    data[portion, phys_addr[idx]] = system.empty

        _require_write_targets_empty(
            system, fb.write_portions, fb.rec_write_portion, fb.write_addr
        )
        out_b = stream_b[fb.write_source]
        for portion, idx in _portion_groups(fb.write_portions, fb.rec_write_portion):
            if isinstance(idx, slice):
                data[portion][fb.write_addr] = out_b
            else:
                data[portion, fb.write_addr[idx]] = out_b[idx]
        return stream_a.size + stream_b.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OptimizedPlan({self.report.summary()})"
