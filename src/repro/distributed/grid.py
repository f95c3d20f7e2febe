"""Process grids and block distribution of sparse matrices."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.formats.csc import CSCMatrix
from repro.formats.convert import csc_to_coo


@dataclass(frozen=True)
class ProcessGrid:
    """A logical 2-D grid of ``rows x cols`` processes.

    Process ``(i, j)`` has rank ``i * cols + j``.  SUMMA broadcasts
    travel along grid rows (for A blocks) and grid columns (for B
    blocks).
    """

    rows: int
    cols: int

    def __post_init__(self) -> None:
        # Reject malformed grids loudly, naming the argument (the same
        # convention as the executor's threads validation): a zero or
        # negative extent would silently produce an empty rank list and
        # a vacuously "successful" SUMMA.
        for name, value in (("rows", self.rows), ("cols", self.cols)):
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(
                    f"ProcessGrid {name} must be a positive integer, "
                    f"got {value!r}"
                )

    @property
    def size(self) -> int:
        return self.rows * self.cols

    def rank(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i},{j}) outside {self.rows}x{self.cols} grid")
        return i * self.cols + j

    def coords(self, rank: int) -> Tuple[int, int]:
        if not 0 <= rank < self.size:
            raise IndexError(f"rank {rank} outside grid of {self.size}")
        return divmod(rank, self.cols)


def block_bounds(extent: int, parts: int) -> np.ndarray:
    """Near-equal 1-D block boundaries: part p covers
    ``[bounds[p], bounds[p+1])``."""
    return (np.arange(parts + 1, dtype=np.int64) * extent) // parts


@dataclass
class BlockDistribution:
    """An ``br x bc`` block partition of one sparse matrix.

    ``blocks[i][j]`` is the (row-range i, col-range j) submatrix stored
    as a local CSC matrix with *local* indices; row/col offsets are in
    ``row_bounds``/``col_bounds``.
    """

    shape: Tuple[int, int]
    row_bounds: np.ndarray
    col_bounds: np.ndarray
    blocks: List[List[CSCMatrix]]

    @classmethod
    def distribute(cls, mat: CSCMatrix, br: int, bc: int) -> "BlockDistribution":
        """Cut ``mat`` into ``br x bc`` blocks (one pass over the COO)."""
        m, n = mat.shape
        rb = block_bounds(m, br)
        cb = block_bounds(n, bc)
        coo = csc_to_coo(mat)
        bi = np.searchsorted(rb, coo.rows, side="right") - 1
        bj = np.searchsorted(cb, coo.cols, side="right") - 1
        flat = bi * bc + bj
        order = np.argsort(flat, kind="stable")
        rows, cols, vals, flat = (
            coo.rows[order], coo.cols[order], coo.vals[order], flat[order]
        )
        starts = np.searchsorted(flat, np.arange(br * bc + 1))
        blocks: List[List[CSCMatrix]] = []
        for i in range(br):
            row: List[CSCMatrix] = []
            for j in range(bc):
                b = i * bc + j
                lo, hi = int(starts[b]), int(starts[b + 1])
                shape_local = (int(rb[i + 1] - rb[i]), int(cb[j + 1] - cb[j]))
                # Localize indices in the parent's own index dtype: the
                # bounds arrays are int64 and would otherwise upcast
                # int32 indices, inflating every block — and the comm
                # log's broadcast volumes — to wide widths.
                row.append(
                    CSCMatrix.from_arrays(
                        shape_local,
                        rows[lo:hi] - rows.dtype.type(rb[i]),
                        cols[lo:hi] - cols.dtype.type(cb[j]),
                        vals[lo:hi],
                        sum_duplicates=False,
                    )
                )
            blocks.append(row)
        return cls((m, n), rb, cb, blocks)

    def block(self, i: int, j: int) -> CSCMatrix:
        return self.blocks[i][j]

    def reassemble(self) -> CSCMatrix:
        """Inverse of :meth:`distribute` (used for verification)."""
        m, n = self.shape
        rows_l, cols_l, vals_l = [], [], []
        for i, row in enumerate(self.blocks):
            for j, blk in enumerate(row):
                if blk.nnz == 0:
                    continue
                coo = csc_to_coo(blk)
                rows_l.append(coo.rows + self.row_bounds[i])
                cols_l.append(coo.cols + self.col_bounds[j])
                vals_l.append(coo.vals)
        if not rows_l:
            return CSCMatrix.zeros((m, n))
        return CSCMatrix.from_arrays(
            (m, n),
            np.concatenate(rows_l),
            np.concatenate(cols_l),
            np.concatenate(vals_l),
            sum_duplicates=False,
        )
