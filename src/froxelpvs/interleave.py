"""Volume-preserving 3D interleaving between froxel grids and channel tensors.

A grid of shape (N_x, N_y, N_z) is split into d x d x d blocks; each block
becomes one spatial cell with d^3 channels. Channel k addresses the local
offset (lx, ly, lz) with k = lx + d*(ly + d*lz), matching the x-major bit
packing of the grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .froxel import FroxelGrid


@dataclass
class ChannelTensor:
    """Interleaved grid: spatial dims (N_x/d, N_y/d, N_z/d), d^3 channels last."""

    values: np.ndarray
    d: int

    def __post_init__(self):
        if self.values.ndim != 4:
            raise ValueError("channel tensor must be 4-dimensional (x, y, z, channels)")
        if self.values.shape[3] != self.d ** 3:
            raise ValueError(
                f"channel count {self.values.shape[3]} does not match d^3 = {self.d ** 3}")

    @property
    def spatial_dims(self) -> tuple:
        return self.values.shape[:3]

    @property
    def channels(self) -> int:
        return self.values.shape[3]


def interleave(grid, d: int) -> ChannelTensor:
    """Repack d x d x d froxel blocks into d^3-channel cells; the cells of
    a :class:`~froxelpvs.froxel.FroxelGrid` are bool."""
    dense = grid.to_dense() if isinstance(grid, FroxelGrid) else np.asarray(grid)
    if dense.ndim != 3:
        raise ValueError("expected a FroxelGrid or a dense 3D array")
    nx, ny, nz = dense.shape
    if d < 1 or nx % d or ny % d or nz % d:
        raise ValueError(f"interleave factor {d} must divide grid dims {(nx, ny, nz)}")
    blocks = dense.reshape(nx // d, d, ny // d, d, nz // d, d)
    # cell axes first, then local (lz, ly, lx) so the flattened channel index
    # is lx + d*(ly + d*lz)
    cells = blocks.transpose(0, 2, 4, 5, 3, 1)
    return ChannelTensor(np.ascontiguousarray(cells.reshape(
        nx // d, ny // d, nz // d, d ** 3)), d)


def deinterleave(tensor: ChannelTensor, d: int | None = None,
                 threshold: float | None = None):
    """Invert :func:`interleave`.

    Without a threshold the dense real-valued grid is returned. With a
    threshold tau the indicator [value >= tau] is applied and the result is
    packed into a FroxelGrid of role ``predicted_pvs``.
    """
    if d is None:
        d = tensor.d
    if d != tensor.d or tensor.channels != d ** 3:
        raise ValueError(f"channel count {tensor.channels} does not match d^3 = {d ** 3}")
    bx, by, bz = tensor.spatial_dims
    cells = tensor.values.reshape(bx, by, bz, d, d, d)     # (.., lz, ly, lx)
    dense = cells.transpose(0, 5, 1, 4, 2, 3).reshape(bx * d, by * d, bz * d)
    if threshold is None:
        return np.ascontiguousarray(dense)
    return FroxelGrid.from_dense(dense >= threshold, role="predicted_pvs")
