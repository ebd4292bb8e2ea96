"""Shared fixtures and scene helpers."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from froxelpvs.core import Vec3, ViewCell
from froxelpvs.froxel import _CHUNK_ROWS, _MAX_PAIRS, _MAX_ROWS, _ROW_ARRAYS

# Froxelization tests carry the id "perspective", the projection they cover,
# so their test ids stay comparable across the project's history.
PERSPECTIVE = pytest.mark.parametrize("projection", ["perspective"])


def default_cell(height: float = 1.5, far: float = 20.0) -> ViewCell:
    return ViewCell.from_forward(Vec3(0.0, height, 0.0), 0.3, 60.0, 15.0,
                                 Vec3(0.0, 0.0, 1.0), 0.3, far)


def quad_at(z: float, half_w: float, half_h: float, cy: float = 0.0):
    """Axis-facing quad vertices/triangles at forward depth z."""
    verts = np.array([[-half_w, cy - half_h, z], [half_w, cy - half_h, z],
                      [half_w, cy + half_h, z], [-half_w, cy + half_h, z]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    return verts, tris


def peak_mb(fn) -> float:
    """``tracemalloc`` peak, in MB, of one call to ``fn``.

    Refuses to run inside an active trace: starting and stopping its own
    would end the outer one and lose its peak.
    """
    if tracemalloc.is_tracing():
        raise RuntimeError("peak_mb cannot nest inside an active tracemalloc trace")
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def raster_work_bytes() -> int:
    """Bytes of a full-sized ``RasterWork`` at the default budgets, with the
    index arrays of the two compactions a chunk may run."""
    return 8 * ((_CHUNK_ROWS + 1 + 2) * _MAX_PAIRS + _ROW_ARRAYS * _MAX_ROWS)


@pytest.fixture(scope="session")
def rng():
    return np.random.Generator(np.random.PCG64(20260810))
