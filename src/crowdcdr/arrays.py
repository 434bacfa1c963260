"""Integer-array helpers shared by the layers: runs, distinct values,
packed sort keys and the width of positions and keys."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

INT64_MIN, INT64_MAX = -(2 ** 63), 2 ** 63 - 1
INT32_MAX = 2 ** 31 - 1


def index_dtype(largest: int) -> type:
    """The dtype that holds the integers 0 to ``largest``: int32 where it
    does, else int64.

    For positions inside the graph arrays and for keys that are sorted
    in place, which half the bytes in int32. Not for the index arrays of
    a large gather: numpy gathers by an intp index faster than by an
    int32 one, which it converts as it goes.
    """
    return np.int32 if largest <= INT32_MAX else np.int64


def run_starts(*keys: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal key tuples.

    Built in the mask itself, with one temporary mask for each key after
    the first.
    """
    starts = np.ones(len(keys[0]), bool)
    np.not_equal(keys[0][1:], keys[0][:-1], out=starts[1:])
    for k in keys[1:]:
        starts[1:] |= k[1:] != k[:-1]
    return starts


def distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of an integer array, ascending.

    ``np.unique``'s result by one sort: numpy 2.3 and later give a plain
    ``np.unique`` of integers to a hash table, which is many times slower
    on these arrays, and whose first call imports ``numpy.ma`` (as
    ``np.percentile`` and ``np.quantile`` do, through ``np.unique``).
    """
    values = np.sort(values)
    return values[run_starts(values)]


def column_bounds(column: np.ndarray) -> tuple[int, int]:
    """A column's (minimum, span), as ``pack_keys`` packs it."""
    if not len(column):
        return 0, 1
    low = int(column.min())
    return low, int(column.max()) - low + 1


def pack_keys(
    *columns: np.ndarray, bounds: Sequence[tuple[int, int]] | None = None
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """One int64 key per row that orders rows as the column tuples do.

    The first column is the most significant; each enters as its offset
    from its minimum. Returns the key and each column's (minimum, span),
    which ``unpack_keys`` takes. ``bounds`` gives them for columns that
    are blocks of longer ones, so that each block packs as the whole
    would. The spans are multiplied in Python ints, and ValueError is
    raised when their product is beyond int64, so a key never wraps
    around.
    """
    bounds = [column_bounds(c) for c in columns] if bounds is None else list(bounds)
    if math.prod(span for _, span in bounds) > INT64_MAX:
        raise ValueError(f"packed key of spans {[s for _, s in bounds]} "
                         "overflows int64")
    key = np.zeros(len(columns[0]), np.int64)
    for col, (low, span) in zip(columns, bounds):
        # In place, with no temporary column; a sum past int64 wraps and
        # subtracting ``low`` wraps it back.
        key *= span
        key += col
        key -= low
    return key, bounds


def unpack_keys(key: np.ndarray, bounds: Sequence[tuple[int, int]]) -> list[np.ndarray]:
    """The columns ``pack_keys`` packed into ``key``, given its bounds."""
    columns = []
    for low, span in reversed(bounds):
        key, offset = np.divmod(key, span)
        columns.append(offset + low)
    return columns[::-1]
