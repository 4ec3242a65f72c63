"""Whole-pass planners vs the per-memoryload emitters they replaced.

The MLD, MRC and inverse-MLD planners build a pass from a handful of
numpy calls over all memoryloads at once.  The per-memoryload code they
replaced is kept in ``tests/core/reference_plans`` as the oracle: every
:class:`PassColumns` field must match it exactly, dtype included, on
every conformance geometry with zero and nonzero complements.  The
in-flight Lemma 13 / property 3 checks must still reject non-class
matrices when the up-front class check is skipped.
"""

import numpy as np
import pytest

from repro.bits.random import random_mld_matrix, random_mrc_matrix
from repro.core.inverse_mld import plan_inverse_mld_pass
from repro.core.mld_algorithm import plan_mld_pass
from repro.core.mrc_algorithm import plan_mrc_pass
from repro.errors import NotInClassError
from repro.pdm.geometry import DiskGeometry
from repro.pdm.schedule import PassColumns
from repro.perms.bmmc import BMMCPermutation
from repro.perms.bpc import BPCPermutation

from tests.core.reference_plans import (
    reference_inverse_mld_pass,
    reference_mld_pass,
    reference_mrc_pass,
)
from tests.core.test_conformance import GEOMETRIES

GEOMETRY_IDS = [f"N{p['N']}-B{p['B']}-D{p['D']}-M{p['M']}" for p in GEOMETRIES]


def assert_same_columns(plan, reference):
    assert plan.num_passes == reference.num_passes == 1
    got, want = plan.passes[0]._columns, reference.passes[0]._columns
    assert got.num_steps == want.num_steps
    for field in PassColumns.__slots__:
        if field == "num_steps":
            continue
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, field
        assert np.array_equal(a, b), field
    assert plan.passes[0].label == reference.passes[0].label


def members(g, seed, complemented):
    """One MLD and one MRC permutation (the latter is also MLD)."""
    rng = np.random.default_rng(seed)
    c = int(rng.integers(1, g.N)) if complemented else 0
    mld = BMMCPermutation(random_mld_matrix(g.n, g.b, g.m, rng), c)
    mrc = BMMCPermutation(random_mrc_matrix(g.n, g.m, rng), c)
    return mld, mrc


@pytest.mark.parametrize("complemented", [False, True], ids=["plain", "complement"])
@pytest.mark.parametrize("geom", GEOMETRIES, ids=GEOMETRY_IDS)
class TestColumnsMatchReference:
    @pytest.mark.parametrize("seed", range(3))
    def test_mld(self, geom, complemented, seed):
        g = DiskGeometry(**geom)
        mld, mrc = members(g, seed, complemented)
        assert_same_columns(plan_mld_pass(g, mld), reference_mld_pass(g, mld))
        # Every MRC permutation is MLD, and portions may run either way.
        assert_same_columns(
            plan_mld_pass(g, mrc, 1, 0, label="x"),
            reference_mld_pass(g, mrc, 1, 0, label="x"),
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_mrc(self, geom, complemented, seed):
        g = DiskGeometry(**geom)
        _, mrc = members(g, seed, complemented)
        assert_same_columns(plan_mrc_pass(g, mrc), reference_mrc_pass(g, mrc))
        assert_same_columns(
            plan_mrc_pass(g, mrc, 1, 0), reference_mrc_pass(g, mrc, 1, 0)
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_inverse_mld(self, geom, complemented, seed):
        g = DiskGeometry(**geom)
        mld, _ = members(g, seed, complemented)
        inv = mld.inverse()
        assert_same_columns(
            plan_inverse_mld_pass(g, inv), reference_inverse_mld_pass(g, inv)
        )


def bit_swap(g, i, j, complement=0):
    """The BPC permutation exchanging address bits ``i`` and ``j``."""
    target_of = list(range(g.n))
    target_of[i], target_of[j] = j, i
    return BPCPermutation(target_of, complement)


@pytest.mark.parametrize("geom", GEOMETRIES, ids=GEOMETRY_IDS)
class TestInFlightChecks:
    """``check_class=False`` skips the matrix-form check; the whole-pass
    Lemma 13 and property 3 checks must still refuse, as the reference
    emitters do."""

    @pytest.mark.parametrize(
        "planner, reference",
        [
            (plan_mld_pass, reference_mld_pass),
            (plan_inverse_mld_pass, reference_inverse_mld_pass),
        ],
        ids=["mld", "inverse-mld"],
    )
    def test_lemma13_violation(self, geom, planner, reference):
        g = DiskGeometry(**geom)
        # An offset bit trades places with a memoryload bit: every block
        # splits across two memoryloads.
        perm = bit_swap(g, 0, g.m, complement=1)
        with pytest.raises(NotInClassError, match="full .* blocks"):
            planner(g, perm, check_class=False)
        with pytest.raises(NotInClassError):
            reference(g, perm, check_class=False)

    @pytest.mark.parametrize(
        "planner, reference",
        [
            (plan_mld_pass, reference_mld_pass),
            (plan_inverse_mld_pass, reference_inverse_mld_pass),
        ],
        ids=["mld", "inverse-mld"],
    )
    def test_property3_violation(self, geom, planner, reference):
        g = DiskGeometry(**geom)
        # A disk bit trades places with a memoryload bit: blocks stay
        # whole, but each memoryload's blocks use half of the disks.
        perm = bit_swap(g, g.b, g.m)
        with pytest.raises(NotInClassError, match="evenly"):
            planner(g, perm, check_class=False)
        with pytest.raises(NotInClassError):
            reference(g, perm, check_class=False)

    def test_mrc_scatter_violation(self, geom):
        g = DiskGeometry(**geom)
        perm = bit_swap(g, 0, g.m, complement=g.N - 1)
        with pytest.raises(NotInClassError, match="scattered"):
            plan_mrc_pass(g, perm, check_class=False)
        with pytest.raises(NotInClassError):
            reference_mrc_pass(g, perm, check_class=False)
        with pytest.raises(NotInClassError):
            plan_mrc_pass(g, perm)  # the form check fires first

    @pytest.mark.parametrize(
        "planner, reference",
        [
            (plan_mld_pass, reference_mld_pass),
            (plan_mrc_pass, reference_mrc_pass),
            (plan_inverse_mld_pass, reference_inverse_mld_pass),
        ],
        ids=["mld", "mrc", "inverse-mld"],
    )
    def test_random_matrices_agree_with_reference(self, geom, planner, reference):
        """On arbitrary nonsingular matrices the whole-pass checks refuse
        exactly when the per-memoryload ones do (the record-level
        conditions can hold for a matrix outside the form), and an
        accepted matrix plans identical columns."""
        from repro.bits.random import random_nonsingular

        g = DiskGeometry(**geom)
        rng = np.random.default_rng(11)
        refused = 0
        for _ in range(30):
            perm = BMMCPermutation(random_nonsingular(g.n, rng), int(rng.integers(g.N)))
            try:
                want = reference(g, perm, check_class=False)
            except NotInClassError:
                refused += 1
                with pytest.raises(NotInClassError):
                    planner(g, perm, check_class=False)
                continue
            assert_same_columns(planner(g, perm, check_class=False), want)
        assert refused
