"""Scalar and vectorized operations on addresses as GF(2) bit vectors.

Addresses are plain Python/numpy integers; bit ``k`` of the integer is
coordinate ``x_k`` of the paper's column vector ``x = (x_0 ... x_{n-1})``
(least significant bit first, Figure 2).

The array paths rest on one fact: ``y = A x (+) c`` is affine, so the
image of an address splits over any partition of its bits into the
XOR of the images of the parts.  :func:`span_table` tabulates
``A x`` for every ``x`` over a run of columns; then

* :func:`affine_halves` images ``2^(q-k) + 2^k`` addresses in place of
  ``2^q``: ``A(h || l) (+) c = hi[h] ^ lo[l]``;
* :func:`affine_image` is the whole image of ``0 .. 2^q - 1`` as one
  broadcast XOR of two tables of ``2^ceil(q/2)`` entries;
* :func:`apply_affine` on an arbitrary array XORs one table lookup per
  slice of at most :data:`SLICE_BITS` address bits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.bits.matrix import BitMatrix

__all__ = [
    "int_to_bits",
    "bits_to_int",
    "popcount",
    "parity",
    "column_ints",
    "span_table",
    "slice_tables",
    "affine_halves",
    "affine_image",
    "apply_affine",
    "apply_linear_scalar",
]


def int_to_bits(x: int, n: int) -> np.ndarray:
    """Expand integer ``x`` into an LSB-first length-``n`` 0/1 vector.

    ``int_to_bits(x, n)[k]`` is the paper's address bit ``x_k``.
    """
    x = int(x)
    if x < 0:
        raise ValidationError(f"addresses are nonnegative, got {x}")
    if n < 0:
        raise ValidationError(f"bit length must be nonnegative, got {n}")
    if x >> n:
        raise ValidationError(f"{x} does not fit in {n} bits")
    return np.array([(x >> k) & 1 for k in range(n)], dtype=np.uint8)


def bits_to_int(bits: Sequence[int] | np.ndarray) -> int:
    """Fold an LSB-first 0/1 vector back into an integer."""
    out = 0
    for k, bit in enumerate(bits):
        bit = int(bit)
        if bit not in (0, 1):
            raise ValidationError(f"bit vector entries must be 0/1, got {bit}")
        out |= bit << k
    return out


def popcount(x: int) -> int:
    """Number of set bits of a nonnegative integer."""
    return int(x).bit_count()


def parity(x: int) -> int:
    """Parity (sum over GF(2)) of the bits of ``x``."""
    return int(x).bit_count() & 1


def column_ints(matrix: "BitMatrix") -> list[int]:
    """Integer encodings of a matrix's columns.

    Column ``j`` of ``A`` becomes the integer ``sum_i A[i, j] << i``.
    Since ``y = A x`` over GF(2) is the XOR of the columns ``A_j`` with
    ``x_j = 1``, these integers let :func:`span_table` tabulate the map
    with word-level XORs.
    """
    a = matrix.to_array()
    weights = 1 << np.arange(a.shape[0], dtype=np.uint64)
    return [int(np.bitwise_xor.reduce(weights[a[:, j] != 0], initial=0)) for j in range(a.shape[1])]


#: Address bits per lookup slice of :func:`apply_affine`: a 2048-entry
#: table (16 KiB) stays cache resident, and a 20-bit address takes two
#: lookups where the per-bit form took twenty XOR passes.
SLICE_BITS = 11


def span_table(columns: Sequence[int]) -> np.ndarray:
    """``T[v]``: the XOR of ``columns[j]`` over the set bits ``j`` of ``v``.

    That is ``A v`` for the matrix with these integer-encoded columns,
    for every ``v`` below ``2^len(columns)``.  Entry ``v + 2^j`` is entry
    ``v ^ columns[j]`` (``v < 2^j``), so the table doubles once per
    column.
    """
    table = np.zeros(1 << len(columns), dtype=np.uint64)
    for j, column in enumerate(columns):
        np.bitwise_xor(table[: 1 << j], np.uint64(column), out=table[1 << j : 2 << j])
    return table


def affine_halves(
    matrix: "BitMatrix", complement: int, low_bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(hi, lo)`` with ``A((h << low_bits) | l) (+) c == hi[h] ^ lo[l]``.

    ``lo`` images the ``2^low_bits`` values of the low address bits
    without the complement, ``hi`` the ``2^(q - low_bits)`` values of the
    high bits with it.  A planner splits at ``m`` (memoryload base and
    offset); :func:`affine_image` splits in the middle.
    """
    cols = matrix.column_ints
    if not 0 <= low_bits <= len(cols):
        raise ValidationError(f"cannot split {len(cols)} address bits at {low_bits}")
    hi = span_table(cols[low_bits:])
    hi ^= np.uint64(int(complement))
    return hi, span_table(cols[:low_bits])


def slice_tables(columns: Sequence[int]) -> tuple[np.ndarray, ...]:
    """:func:`span_table` of each run of :data:`SLICE_BITS` columns, read-only.

    Table ``k`` images address bits ``11k .. 11k + 10``: at most
    ``ceil(q / 11)`` tables of at most 2048 entries, for any ``q`` up to
    64 (one one-entry table when ``q = 0``).
    """
    tables = []
    for low in range(0, max(len(columns), 1), SLICE_BITS):
        table = span_table(columns[low : low + SLICE_BITS])
        table.setflags(write=False)
        tables.append(table)
    return tuple(tables)


def affine_image(matrix: "BitMatrix", complement: int) -> np.ndarray:
    """``y = A x (+) c`` for every ``x`` in ``0 .. 2^q - 1``, as uint64.

    Address ``x = (h << k) | l`` with ``k = floor(q/2)`` maps to
    ``hi[h] ^ lo[l]``, so the image is ``hi[:, None] ^ lo[None, :]``
    read row-major: one sequential pass that writes the output.
    """
    hi, lo = affine_halves(matrix, complement, matrix.shape[1] // 2)
    return (hi[:, None] ^ lo[None, :]).reshape(-1)


def apply_affine(
    matrix: "BitMatrix",
    complement: int,
    addresses: np.ndarray | Sequence[int] | int,
) -> np.ndarray | int:
    """Evaluate ``y = A x (+) c`` for one address or an array of them.

    ``matrix`` is ``p x q``; addresses must fit in ``q`` bits and results
    are ``p``-bit integers.  The array path cuts each address into
    slices of at most :data:`SLICE_BITS` bits and XORs one lookup per
    slice into the matrix's :func:`slice_tables` (built once per matrix,
    :attr:`~repro.bits.matrix.BitMatrix.slice_tables`): ``ceil(q / 11)``
    gathers from tables of at most 2048 entries.
    """
    scalar = np.isscalar(addresses) or isinstance(addresses, int)
    xs = np.asarray(addresses, dtype=np.uint64).reshape(-1)
    p, q = matrix.shape
    if q < 64 and xs.size and int(xs.max(initial=0)) >> q:
        raise ValidationError(f"address does not fit in {q} bits")
    ys = None
    for k, table in enumerate(matrix.slice_tables):
        if k == 0 and complement:  # every address takes one entry of table 0
            table = table ^ np.uint64(int(complement))
        part = (xs >> np.uint64(k * SLICE_BITS)) & np.uint64(table.size - 1)
        looked = table.take(part.view(np.int64))
        if ys is None:
            ys = looked
        else:
            ys ^= looked
    if scalar:
        return int(ys[0])
    return ys


def apply_linear_scalar(columns: Sequence[int], x: int) -> int:
    """Evaluate ``y = A x`` from precomputed column integers, scalar path."""
    y = 0
    j = 0
    x = int(x)
    while x:
        if x & 1:
            y ^= columns[j]
        x >>= 1
        j += 1
    return y
