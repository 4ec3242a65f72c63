"""GF(2) bit-vector and bit-matrix linear algebra.

This subpackage is the algebraic substrate of the reproduction: every
permutation in the paper is described by an ``n x n`` 0-1 matrix acting
on ``n``-bit record addresses over GF(2), where ``n = lg N``.  The
conventions match the paper exactly:

* addresses are bit vectors ``x = (x_0, x_1, ..., x_{n-1})`` with the
  *least significant bit first* (Figure 2 of the paper);
* matrix rows/columns are indexed from 0; ``A[r0:r1, c0:c1]`` is the
  paper's ``A_{r0..r1-1, c0..c1-1}``;
* all arithmetic is modulo 2 (logical AND for multiplication,
  exclusive-or for addition).
"""

from repro.bits.bitops import (
    affine_halves,
    affine_image,
    apply_affine,
    bits_to_int,
    column_ints,
    int_to_bits,
    parity,
    popcount,
)
from repro.bits.matrix import BitMatrix
from repro.bits.linalg import (
    complete_column_basis,
    express_in_column_basis,
    independent_columns,
    inverse,
    is_nonsingular,
    kernel_basis,
    matrix_range_size,
    preimage,
    preimage_size,
    rank,
    row_space_basis,
    solve,
)
from repro.bits.colops import (
    column_addition_matrix,
    erasure_matrix,
    is_column_addition_matrix,
    is_erasure_form,
    is_reducer_form,
    is_swapper_form,
    is_trailer_form,
    lu_factor_column_addition,
    reducer_matrix,
    swapper_matrix,
    trailer_matrix,
)
from repro.bits.random import (
    random_bit_permutation,
    random_bmmc_matrix,
    random_bmmc_with_rank_gamma,
    random_matrix,
    random_matrix_with_rank,
    random_mld_matrix,
    random_mrc_matrix,
    random_nonsingular,
)

__all__ = [
    "BitMatrix",
    "affine_halves",
    "affine_image",
    "apply_affine",
    "bits_to_int",
    "column_ints",
    "int_to_bits",
    "parity",
    "popcount",
    "complete_column_basis",
    "express_in_column_basis",
    "independent_columns",
    "inverse",
    "is_nonsingular",
    "kernel_basis",
    "matrix_range_size",
    "preimage",
    "preimage_size",
    "rank",
    "row_space_basis",
    "solve",
    "column_addition_matrix",
    "erasure_matrix",
    "is_column_addition_matrix",
    "is_erasure_form",
    "is_reducer_form",
    "is_swapper_form",
    "is_trailer_form",
    "lu_factor_column_addition",
    "reducer_matrix",
    "swapper_matrix",
    "trailer_matrix",
    "random_bit_permutation",
    "random_bmmc_matrix",
    "random_bmmc_with_rank_gamma",
    "random_matrix",
    "random_matrix_with_rank",
    "random_mld_matrix",
    "random_mrc_matrix",
    "random_nonsingular",
]
