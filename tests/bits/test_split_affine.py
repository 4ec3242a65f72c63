"""The split GF(2) images against the per-bit oracle.

``apply_affine`` (one table lookup per 11-bit address slice),
``affine_halves``/``affine_image`` (the image of every address as two
small tables) and ``BMMCPermutation.target_vector`` must all agree with
:mod:`tests.bits.reference_affine` bit for bit, for any shape, with and
without a complement, on unsorted, duplicated and scalar inputs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits import bitops
from repro.bits.matrix import BitMatrix
from repro.bits.random import random_matrix, random_nonsingular
from repro.errors import ValidationError
from repro.perms.bmmc import BMMCPermutation

from tests.bits.reference_affine import reference_affine, reference_image


@st.composite
def affine_maps(draw, max_rows: int = 30, max_cols: int = 30):
    """A random ``p x q`` matrix (``q`` may be 0 or odd) and a complement
    that is either 0 or any ``p``-bit value."""
    p = draw(st.integers(0, max_rows))
    q = draw(st.integers(0, max_cols))
    seed = draw(st.integers(0, 2**31))
    matrix = random_matrix(p, q, np.random.default_rng(seed))
    complement = draw(st.one_of(st.just(0), st.integers(0, (1 << p) - 1)))
    return matrix, complement


@given(affine_maps(), st.data())
@settings(max_examples=150, deadline=None)
def test_apply_affine_matches_the_oracle_on_unsorted_duplicated_input(case, data):
    matrix, complement = case
    q = matrix.num_cols
    xs = np.array(
        data.draw(st.lists(st.integers(0, (1 << q) - 1), min_size=0, max_size=64)),
        dtype=np.uint64,
    )
    xs = np.concatenate([xs, xs[::-1]])  # unsorted, every value at least twice
    got = bitops.apply_affine(matrix, complement, xs)
    assert got.dtype == np.uint64
    assert np.array_equal(got, reference_affine(matrix, complement, xs))


@given(affine_maps(), st.data())
@settings(max_examples=100, deadline=None)
def test_apply_affine_scalar_path_matches_the_oracle(case, data):
    matrix, complement = case
    x = data.draw(st.integers(0, (1 << matrix.num_cols) - 1))
    got = bitops.apply_affine(matrix, complement, x)
    assert isinstance(got, int)
    assert got == int(reference_affine(matrix, complement, [x])[0])


@given(affine_maps(max_cols=16), st.data())
@settings(max_examples=100, deadline=None)
def test_affine_halves_and_image_match_the_oracle(case, data):
    matrix, complement = case
    q = matrix.num_cols
    low = data.draw(st.integers(0, q))
    hi, lo = bitops.affine_halves(matrix, complement, low)
    image = reference_image(matrix, complement)
    assert hi.size == 1 << (q - low) and lo.size == 1 << low
    assert np.array_equal((hi[:, None] ^ lo[None, :]).reshape(-1), image)
    assert np.array_equal(bitops.affine_image(matrix, complement), image)


@pytest.mark.parametrize("n", range(0, 23))
def test_target_vector_is_the_oracle_image(n):
    rng = np.random.default_rng(n)
    perm = BMMCPermutation(random_nonsingular(n, rng), int(rng.integers(0, 1 << n)))
    got = perm.target_vector()
    assert got.dtype == np.int64
    assert np.array_equal(got, reference_image(perm.matrix, perm.complement))


def test_64_bit_addresses_use_six_bounded_tables():
    a = random_nonsingular(64, np.random.default_rng(3))
    assert [t.size for t in a.slice_tables] == [2048] * 5 + [512]
    xs = np.array([0, 1, (1 << 64) - 1, 1 << 63, 12345678901234567], dtype=np.uint64)
    c = (1 << 64) - 2
    assert np.array_equal(bitops.apply_affine(a, c, xs), reference_affine(a, c, xs))


def test_slice_tables_are_read_only():
    table = random_nonsingular(12, np.random.default_rng(4)).slice_tables[0]
    with pytest.raises(ValueError):
        table[0] = 1


@pytest.mark.parametrize("q", [0, 1, 11, 12, 30])
def test_an_address_wider_than_q_bits_is_rejected(q):
    matrix = random_matrix(5, q, np.random.default_rng(q))
    with pytest.raises(ValidationError):
        bitops.apply_affine(matrix, 0, np.array([0, 1 << q], dtype=np.uint64))
    with pytest.raises(ValidationError):
        bitops.apply_affine(matrix, 0, 1 << q)


def test_halves_reject_a_split_outside_the_address():
    with pytest.raises(ValidationError):
        bitops.affine_halves(BitMatrix.identity(4), 0, 5)
