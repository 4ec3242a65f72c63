"""Tests for the plan-level optimizer (:mod:`repro.pdm.optimize`)."""

import numpy as np
import pytest

from repro.core.bmmc_algorithm import plan_bmmc_io, plan_bmmc_passes
from repro.core.general import plan_general_sort
from repro.core.mld_algorithm import plan_mld_pass
from repro.errors import BlockStateError, PlanError
from repro.pdm.engine import execute_plan
from repro.pdm.geometry import DiskGeometry
from repro.pdm.optimize import optimize_plan
from repro.pdm.schedule import PlanBuilder
from repro.pdm.system import ParallelDiskSystem
from repro.perms.base import ExplicitPermutation
from repro.perms.library import bit_reversal


@pytest.fixture
def geometry() -> DiskGeometry:
    return DiskGeometry(N=2**12, B=2**3, D=2**2, M=2**7)


def fresh(g, **kwargs):
    s = ParallelDiskSystem(g, **kwargs)
    s.fill_identity(0)
    return s


def multi_pass_plan(g):
    steps = plan_bmmc_passes(bit_reversal(g.n), g)
    plan, final = plan_bmmc_io(g, steps)
    assert plan.num_passes >= 2, "need a ping-pong chain to exercise fusion"
    return plan, final


def assert_equivalent(a: ParallelDiskSystem, b: ParallelDiskSystem):
    for portion in range(a.num_portions):
        assert (a.portion_values(portion) == b.portion_values(portion)).all()
    assert a.stats.snapshot() == b.stats.snapshot()
    assert [p for p in a.stats.passes] == [p for p in b.stats.passes]
    assert a.memory.peak == b.memory.peak
    assert a.memory.in_use == b.memory.in_use


class TestFusion:
    def test_ping_pong_chain_fuses_to_one_physical_pass(self, geometry):
        plan, _ = multi_pass_plan(geometry)
        op = optimize_plan(plan)
        assert op.report.passes == plan.num_passes
        assert op.report.physical_passes == 1
        assert op.report.fused_groups == 1
        assert op.report.fused_links == plan.num_passes - 1

    def test_fused_execution_matches_strict(self, geometry):
        g = geometry
        plan, final = multi_pass_plan(g)
        strict = fresh(g)
        execute_plan(strict, plan, engine="strict")
        fast = fresh(g)
        report = optimize_plan(plan).execute(fast)
        assert report.optimized
        assert_equivalent(strict, fast)
        assert fast.verify_permutation(bit_reversal(g.n), np.arange(g.N), final)

    def test_host_peak_is_one_stream_not_per_pass(self, geometry):
        g = geometry
        plan, _ = multi_pass_plan(g)
        report = optimize_plan(plan).execute(fresh(g))
        # one gather for the whole chain: peak equals one pass's stream
        assert report.host_peak_records == g.N

    def test_single_pass_plan_passes_through(self, geometry):
        g = geometry
        from repro.bits.random import random_mld_matrix
        from repro.perms.bmmc import BMMCPermutation

        perm = BMMCPermutation(random_mld_matrix(g.n, g.b, g.m, np.random.default_rng(0)))
        plan = plan_mld_pass(g, perm)
        op = optimize_plan(plan)
        assert op.report.fused_groups == 0
        strict = fresh(g)
        execute_plan(strict, plan, engine="strict")
        fast = fresh(g)
        op.execute(fast)
        assert_equivalent(strict, fast)

    def test_general_sort_chain_fuses(self, geometry):
        g = geometry
        perm = ExplicitPermutation(np.random.default_rng(3).permutation(g.N))
        strict = fresh(g)
        gplan = plan_general_sort(g, perm, strict.peek(0, 0, g.N))
        op = optimize_plan(gplan.io_plan)
        assert op.report.fused_groups == 1
        assert op.report.physical_passes == 1
        execute_plan(strict, gplan.io_plan, engine="strict")
        fast = fresh(g)
        op.execute(fast)
        assert_equivalent(strict, fast)

    def test_non_consuming_reads_block_fusion(self, geometry):
        """A chain whose second pass peeks (consume=False) must not fuse."""
        g = geometry
        b = PlanBuilder(g)
        b.begin_pass("a")
        slots = b.read_memoryload(0, 0)
        b.write_memoryload(1, 0, slots)
        b.begin_pass("b")
        b.read_memoryload(1, 0, consume=False)
        plan = b.build()
        op = optimize_plan(plan, simple_io=False)
        assert op.report.fused_groups == 0

    def test_simple_io_fault_preserved(self, geometry):
        """A fused link writing to occupied blocks must still fault."""
        g = geometry
        plan, _ = multi_pass_plan(g)
        s = fresh(g)
        # occupy one of the first link's target blocks (portion 1)
        s._data[1, 0] = 42
        op = optimize_plan(plan)
        with pytest.raises(BlockStateError):
            op.execute(s)
        strict = fresh(g)
        strict._data[1, 0] = 42
        with pytest.raises(BlockStateError):
            execute_plan(strict, plan, engine="strict")

    def test_reading_empty_block_faults(self, geometry):
        g = geometry
        plan, _ = multi_pass_plan(g)
        s = ParallelDiskSystem(g)  # portion 0 empty
        with pytest.raises(BlockStateError):
            optimize_plan(plan).execute(s)


class TestDeadWriteElimination:
    def overwrite_plan(self, g):
        """Pass 1 writes memoryload 0 of portion 1; pass 2 overwrites it
        from a different source without reading it -- the first write is
        dead (legal only outside simple I/O)."""
        b = PlanBuilder(g)
        b.begin_pass("first")
        slots = b.read_memoryload(0, 0, consume=False)
        b.write_memoryload(1, 0, slots)
        b.begin_pass("second")
        slots = b.read_memoryload(0, 1, consume=False)
        b.write_memoryload(1, 0, slots)
        return b.build()

    def test_dead_write_detected_and_skipped(self, geometry):
        g = geometry
        plan = self.overwrite_plan(g)
        op = optimize_plan(plan, simple_io=False)
        assert op.report.eliminated_write_records == g.M
        strict = fresh(g, simple_io=False)
        execute_plan(strict, plan, engine="strict")
        fast = fresh(g, simple_io=False)
        report = op.execute(fast)
        assert report.optimized
        assert_equivalent(strict, fast)

    def test_dead_write_skipping_streams_under_budget(self, geometry):
        """Masked passes go through the streaming path too: the budget
        bounds the host buffer and the mask survives segmentation."""
        g = geometry
        b = PlanBuilder(g)
        b.begin_pass("first")
        for ml in (0, 1):
            slots = b.read_memoryload(0, ml, consume=False)
            b.write_memoryload(1, ml, slots)
        b.begin_pass("second")
        for ml in (0, 1):
            slots = b.read_memoryload(0, ml + 2, consume=False)
            b.write_memoryload(1, ml, slots)
        plan = b.build()
        op = optimize_plan(plan, simple_io=False)
        assert op.report.eliminated_write_records == 2 * g.M
        strict = fresh(g, simple_io=False)
        execute_plan(strict, plan, engine="strict")
        fast = fresh(g, simple_io=False)
        report = op.execute(fast, stream_records=g.M)
        assert report.host_peak_records <= g.M
        assert report.streamed_passes == 2
        assert_equivalent(strict, fast)

    def test_not_applied_under_simple_io(self, geometry):
        g = geometry
        plan = self.overwrite_plan(g)
        op = optimize_plan(plan, simple_io=True)
        assert op.report.eliminated_write_records == 0

    def test_intervening_read_keeps_write(self, geometry):
        g = geometry
        b = PlanBuilder(g)
        b.begin_pass("first")
        slots = b.read_memoryload(0, 0, consume=False)
        b.write_memoryload(1, 0, slots)
        b.begin_pass("reader")
        b.read_memoryload(1, 0, consume=False)
        b.begin_pass("second")
        slots = b.read_memoryload(0, 1, consume=False)
        b.write_memoryload(1, 0, slots)
        op = optimize_plan(b.build(), simple_io=False)
        assert op.report.eliminated_write_records == 0


class TestArtifact:
    def test_verify_certificate(self, geometry):
        plan, _ = multi_pass_plan(geometry)
        op = optimize_plan(plan)
        cert = op.verify()
        assert cert["passes"] == plan.num_passes
        assert cert["physical_passes"] == 1
        assert cert["stats_identical_by_construction"]

    def test_verify_catches_corruption(self, geometry):
        plan, _ = multi_pass_plan(geometry)
        op = optimize_plan(plan)
        group = next(grp for grp in op.groups if grp.source_map is not None)
        group.source_map = group.source_map[:-1]  # corrupt
        with pytest.raises(PlanError):
            op.verify()

    def test_system_shape_mismatch_falls_back(self, geometry):
        """Compiled for simple I/O, run without it: plain fast fallback."""
        g = geometry
        plan, _ = multi_pass_plan(g)
        op = optimize_plan(plan, simple_io=True)
        s = fresh(g, simple_io=False)
        report = op.execute(s)
        assert not report.optimized
        assert report.fell_back == "system-shape-mismatch"
        strict = fresh(g, simple_io=False)
        execute_plan(strict, plan, engine="strict")
        assert_equivalent(strict, s)

    def test_strict_engine_falls_back_to_replay(self, geometry):
        g = geometry
        plan, _ = multi_pass_plan(g)
        op = optimize_plan(plan)
        s = fresh(g)
        report = op.execute(s, engine="strict")
        assert report.engine == "strict"
        strict = fresh(g)
        execute_plan(strict, plan, engine="strict")
        assert_equivalent(strict, s)

    def test_observers_force_strict_events(self, geometry):
        g = geometry
        plan, _ = multi_pass_plan(g)
        op = optimize_plan(plan)
        s = fresh(g)
        events = []
        s.add_observer(events.append)
        report = op.execute(s, engine="fast")
        assert report.fell_back == "observers"
        assert len(events) == plan.parallel_ios

    def test_stream_budget_overrides_fusion(self, geometry):
        """A fused chain that would bust the stream budget runs unfused
        and streamed: the budget bounds the host buffer either way."""
        g = geometry
        plan, final = multi_pass_plan(g)
        strict = fresh(g)
        execute_plan(strict, plan, engine="strict")
        fast = fresh(g)
        report = optimize_plan(plan).execute(fast, stream_records=g.M)
        assert report.host_peak_records <= g.M  # not one whole N-record stream
        assert report.streamed_passes == plan.num_passes
        assert_equivalent(strict, fast)
        assert fast.verify_permutation(bit_reversal(g.n), np.arange(g.N), final)

    def test_execute_plan_optimize_knob(self, geometry):
        g = geometry
        plan, final = multi_pass_plan(g)
        strict = fresh(g)
        execute_plan(strict, plan, engine="strict")
        fast = fresh(g)
        report = execute_plan(fast, plan, engine="fast", optimize=True)
        assert report.optimized
        assert_equivalent(strict, fast)


class TestPartialFusion:
    """Consecutive passes overlapping on a *subset* of blocks: the
    optimizer pipes the overlap through host memory and materializes
    the remainder, where full-chain fusion refuses outright."""

    @pytest.fixture
    def small(self) -> DiskGeometry:
        return DiskGeometry(N=2**10, B=2**2, D=2**2, M=2**7)

    def overlap_plan(self, g):
        """Pass "a" writes stripe 0 of portion 1; pass "b" re-reads that
        stripe *plus* stripe 1 of portion 0 (untouched by "a"), so the
        passes overlap on exactly half of "b"'s reads."""
        b = PlanBuilder(g)
        b.begin_pass("a")
        sa = b.read_stripe(0, 0)
        b.write_stripe(1, 0, sa[::-1])
        b.begin_pass("b")
        s1 = b.read_stripe(1, 0)
        s2 = b.read_stripe(0, 1)
        b.write_stripe(0, 0, s2)
        b.write_stripe(1, 1, s1)
        return b.build()

    def test_partial_pair_fuses_where_full_fusion_refuses(self, small):
        g = small
        plan = self.overlap_plan(g)
        off = optimize_plan(plan, fuse_partial=False)
        assert off.report.physical_passes == 2
        assert off.report.fused_groups == 0
        assert off.report.partial_groups == 0
        on = optimize_plan(plan)
        assert on.report.physical_passes == 1
        assert on.report.partial_groups == 1
        assert on.report.partial_link_records == g.records_per_stripe
        assert on.report.fused_groups == 0  # partial pairs counted apart

    def test_partial_fused_execution_matches_strict(self, small):
        g = small
        plan = self.overlap_plan(g)
        strict = fresh(g)
        execute_plan(strict, plan, engine="strict")
        fast = fresh(g)
        report = optimize_plan(plan).execute(fast)
        assert report.optimized
        assert_equivalent(strict, fast)

    def test_partial_group_streams_under_budget(self, small):
        """A partial pair whose combined stream busts the budget runs
        its members unfused and chunked -- still strict-identical."""
        g = small
        plan = self.overlap_plan(g)
        strict = fresh(g)
        execute_plan(strict, plan, engine="strict")
        fast = fresh(g)
        # below the pair's combined 3-stripe stream, at pass "b"'s own
        # 2-stripe floor (its writes need both reads resident)
        budget = 2 * g.records_per_stripe
        report = optimize_plan(plan).execute(fast, stream_records=budget)
        assert report.host_peak_records <= budget
        assert_equivalent(strict, fast)

    def test_partial_certificate_verifies(self, small):
        op = optimize_plan(self.overlap_plan(small))
        cert = op.verify()
        assert cert["partial_groups"] == 1

    def test_partial_fusion_off_by_knob(self, small):
        """``fuse_partial=False`` is the before/after control: both
        settings execute to the same observable state."""
        g = small
        plan = self.overlap_plan(g)
        a, b = fresh(g), fresh(g)
        optimize_plan(plan, fuse_partial=False).execute(a)
        optimize_plan(plan, fuse_partial=True).execute(b)
        assert_equivalent(a, b)

    def test_full_chain_not_degraded_to_partial(self, geometry):
        """Fully-overlapping chains keep using whole-chain fusion; the
        partial path only claims pairs full fusion cannot."""
        plan, _ = multi_pass_plan(geometry)
        op = optimize_plan(plan)
        assert op.report.fused_groups == 1
        assert op.report.partial_groups == 0


class TestMixedPortions:
    """Passes whose steps read from and write to both portions.

    Fused passes keep per-step portions only; a pass that mixes them
    derives per-portion record groups at execution, and the optimizer
    matches links block by block across portions."""

    @pytest.fixture
    def small(self) -> DiskGeometry:
        return DiskGeometry(N=2**10, B=2**2, D=2**2, M=2**7)

    def mixed_plan(self, g):
        """"seed" moves stripe 2 to portion 1; "mix" reads stripe 0 of
        portion 0 and stripe 2 of portion 1 and writes one stripe to
        each portion; "back" reads exactly what "mix" wrote, from both
        portions, and writes to both again."""
        b = PlanBuilder(g)
        b.begin_pass("seed")
        s = b.read_stripe(0, 2)
        b.write_stripe(1, 2, s[::-1])
        b.begin_pass("mix")
        s0 = b.read_stripe(0, 0)
        s1 = b.read_stripe(1, 2)
        b.write_stripe(1, 0, s1)
        b.write_stripe(0, 2, s0[::-1])
        b.begin_pass("back")
        t0 = b.read_stripe(0, 2)
        t1 = b.read_stripe(1, 0)
        b.write_stripe(0, 0, t1[::-1])
        b.write_stripe(1, 2, t0)
        return b.build()

    def test_same_result_under_every_executor(self, small):
        from repro.pdm.cache import PlanCache, cached_execute

        g = small
        plan = self.mixed_plan(g)
        strict = fresh(g)
        execute_plan(strict, plan, engine="strict")
        fast = fresh(g)
        execute_plan(fast, plan, engine="fast")
        assert_equivalent(strict, fast)
        optimized = fresh(g)
        op = optimize_plan(plan)
        assert op.report.fused_links == 1  # "mix" -> "back", across portions
        assert op.execute(optimized).optimized
        assert_equivalent(strict, optimized)
        cache = PlanCache()
        for expect_hit in (False, True):
            cached = fresh(g)
            _, _, hit = cached_execute(
                cached, cache, ("mixed",), lambda: (plan, None), engine="fast"
            )
            assert hit is expect_hit
            assert_equivalent(strict, cached)

    def test_streamed_segments_keep_portions_apart(self, small):
        g = small
        plan = self.mixed_plan(g)
        strict = fresh(g)
        execute_plan(strict, plan, engine="strict")
        fast = fresh(g)
        execute_plan(fast, plan, engine="fast", stream_records=g.records_per_stripe)
        assert_equivalent(strict, fast)

    def test_link_map_across_portions(self, small):
        from repro.pdm.engine import _fuse_pass
        from repro.pdm.optimize import _link_map

        g = small
        plan = self.mixed_plan(g)
        seed, mix, back = (_fuse_pass(g, p) for p in plan.passes)
        assert _link_map(g, seed, mix, True) is None  # "mix" also reads stripe 0
        link = _link_map(g, mix, back, True)
        # "back" reads stripe 2 of portion 0 (written from mix's stripe-0
        # slots, reversed), then stripe 0 of portion 1 (mix's stripe-2 slots).
        per = g.records_per_stripe
        expected = np.concatenate((np.arange(per)[::-1], per + np.arange(per)))
        assert np.array_equal(link, expected)

    def test_partial_link_across_portions(self, small):
        """A pass that pipes two of its blocks' worth of records from
        both portions and gathers the rest physically from both."""
        from repro.pdm.engine import _fuse_pass
        from repro.pdm.optimize import _partial_link

        g = small
        per = g.records_per_stripe
        setup = PlanBuilder(g)
        setup.begin_pass("seed")
        s2, s3 = setup.read_stripe(0, 2), setup.read_stripe(0, 3)
        setup.write_stripe(1, 2, s2[::-1])
        setup.write_stripe(1, 3, s3)
        b = PlanBuilder(g)
        b.begin_pass("mix")
        s0, s1 = b.read_stripe(0, 0), b.read_stripe(1, 2)
        b.write_stripe(1, 0, s1)
        b.write_stripe(0, 2, s0[::-1])
        b.begin_pass("part")
        parts = [b.read_stripe(0, 2), b.read_stripe(1, 0), b.read_stripe(1, 3), b.read_stripe(0, 1)]
        b.write_stripe(0, 0, parts[1])
        b.write_stripe(1, 2, parts[3])
        b.write_stripe(0, 3, parts[0][::-1])
        b.write_stripe(1, 1, parts[2])
        pair = b.build()

        mix, part = (_fuse_pass(g, p) for p in pair.passes)
        pl = _partial_link(g, mix, part, True)
        assert np.array_equal(pl.b_link_idx, np.arange(2 * per))
        assert np.array_equal(pl.b_phys_idx, 2 * per + np.arange(2 * per))
        assert np.array_equal(
            pl.link_slots, np.concatenate((np.arange(per)[::-1], per + np.arange(per)))
        )
        assert not pl.a_keep.any()

        op = optimize_plan(pair)
        assert op.report.partial_groups == 1
        strict, optimized = fresh(g), fresh(g)
        for s in (strict, optimized):
            execute_plan(s, setup.build(), engine="strict")
        execute_plan(strict, pair, engine="strict")
        assert op.execute(optimized).optimized
        assert_equivalent(strict, optimized)
