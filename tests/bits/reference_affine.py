"""The per-bit form of ``y = A x (+) c``: the oracle for the split images.

This is how :func:`repro.bits.bitops.apply_affine` evaluated the map
before it became a table lookup: one XOR pass over the whole input per
matrix column, flipping the column's output bits wherever input bit
``j`` is set.  It shares nothing with the table form beyond the
matrix's integer-encoded columns.
"""

from __future__ import annotations

import numpy as np

from repro.bits.matrix import BitMatrix


def reference_affine(matrix: BitMatrix, complement: int, addresses) -> np.ndarray:
    """``A x (+) c`` for every entry of ``addresses``, as uint64."""
    xs = np.asarray(addresses, dtype=np.uint64).reshape(-1)
    ys = np.full(xs.shape, np.uint64(int(complement)), dtype=np.uint64)
    one = np.uint64(1)
    for j, column in enumerate(matrix.column_ints):
        if column:
            mask = -((xs >> np.uint64(j)) & one)  # all-ones where bit j is set
            ys ^= mask & np.uint64(column)
    return ys


def reference_image(matrix: BitMatrix, complement: int) -> np.ndarray:
    """The oracle image of every address ``0 .. 2^q - 1``."""
    return reference_affine(matrix, complement, np.arange(1 << matrix.num_cols))
