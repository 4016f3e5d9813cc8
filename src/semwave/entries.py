"""Typed reads of JSON entry lists for the mesh and FV file loaders, naming the first bad entry."""
from itertools import chain

import numpy as np


def floats(rows: list, width: int, what, error) -> np.ndarray:
    """rows as floats, shape (n,) when width is 0, else (n, width): each row a
    number, or a list of width numbers.  The first row that is not is an
    error naming what(i)."""
    n = len(rows)
    try:
        if not width:
            return np.fromiter(rows, float, n)
        if all(type(row) is list and len(row) == width for row in rows):
            return np.fromiter(chain.from_iterable(rows), float, n * width).reshape(n, width)
    except (TypeError, ValueError, OverflowError):  # an object, a string, a nested list or a huge integer
        pass
    shape = (width,) if width else ()
    for i, row in enumerate(rows):
        try:
            ok = np.asarray(row, dtype=float).shape == shape
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            raise error(f"{what(i)} must be {f'{width} numbers' if width else 'a number'}, got {row!r}")
    raise error(f"{what('*')} must be {f'{width} numbers' if width else 'a number'}")


def indices(rows: list, width: int, what, error) -> np.ndarray:
    """floats(rows, width, what, error) as integers; a row holding a value that
    is not a whole number in the int64 range is an error naming what(i)."""
    v = floats(rows, width, what, error)
    bad = np.flatnonzero(~(np.abs(v) < 2.0**62) | (v != np.trunc(v)))  # NaN fails the first test
    if bad.size:
        i = bad[0] // max(width, 1)
        raise error(f"{what(i)} must be {f'{width} integer indices' if width else 'an integer index'}, got {rows[i]!r}")
    return v.astype(int)
