"""Validation helpers shared across the package."""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np


def require(cond: bool, message: str) -> None:
    """Raise ``ValueError(message)`` unless ``cond`` holds."""
    if not cond:
        raise ValueError(message)


def check_nonempty(mats: Sequence) -> None:
    """SpKAdd inputs must contain at least one matrix."""
    if len(mats) == 0:
        raise ValueError("SpKAdd requires at least one input matrix")


def check_same_shape(mats: Iterable) -> Tuple[int, int]:
    """Verify all matrices share one shape; return it.

    The paper assumes all A_i (and B) live in R^{m x n}.
    """
    shapes = {m.shape for m in mats}
    if len(shapes) != 1:
        raise ValueError(f"all SpKAdd inputs must share one shape, got {sorted(shapes)}")
    return next(iter(shapes))


def check_row_bounds(mats: Sequence) -> None:
    """Every stored row index of every CSC addend must lie in ``[0, m)``.

    Matrices built with ``check=False`` skip this on construction; a
    row outside the range would otherwise land in a neighbouring column
    or collide with a hash table's empty-slot marker.  Raises a
    ``ValueError`` naming the first offending addend and row.
    """
    for i, A in enumerate(mats):
        m = A.shape[0]
        rows = A.indices[int(A.indptr[0]):int(A.indptr[-1])]
        if rows.size and (rows.min() < 0 or rows.max() >= m):
            bad = rows[(rows < 0) | (rows >= m)][0]
            raise ValueError(
                f"addend {i} has row index {bad} outside [0, {m})"
            )


def check_product_rows(A, B) -> None:
    """Every row index the product ``A @ B`` reads must be in range:
    B's stored rows in ``[0, ka)`` and the rows of the A columns they
    select in ``[0, ma)``.

    Raises a ``ValueError`` naming the operand and the first offending
    index in the order the multiply visits them (B in storage order,
    then the selected A column in storage order).
    """
    ma, ka = A.shape
    t = B.indices[int(B.indptr[0]):int(B.indptr[-1])]
    bad_t = (t < 0) | (t >= ka)
    if bad_t.any():
        raise ValueError(
            f"B has row index {t[np.argmax(bad_t)]} outside [0, {ka})"
        )
    a0 = int(A.indptr[0])
    rows = A.indices[a0:int(A.indptr[-1])]
    bad = np.flatnonzero((rows < 0) | (rows >= ma))
    if bad.size == 0:
        return
    # The A columns holding a bad row; the first B entry selecting one
    # names the column the multiply meets first.
    bad_cols = np.searchsorted(A.indptr, a0 + bad, side="right") - 1
    hit = np.isin(t, bad_cols)
    if hit.any():
        col = int(t[np.argmax(hit)])
        seg = A.indices[int(A.indptr[col]):int(A.indptr[col + 1])]
        r = seg[(seg < 0) | (seg >= ma)][0]
        raise ValueError(f"A has row index {r} outside [0, {ma})")
