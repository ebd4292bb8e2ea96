"""Ground-truth from-region PVS by dense viewpoint sampling.

Each sampled viewpoint renders a software depth buffer, and the surviving
fragments are reprojected into the viewcell frustum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Camera, TriScene, ViewCell, build_viewcell_frustum, reproject_fragments
from .froxel import FroxelGrid, interp_affine, iter_raster_chunks, quantize, \
    screen_triangles

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
DEPTH_SCALE = 4       # oracle depth-buffer pixels per froxel along x and y


@dataclass
class OracleConfig:
    """Viewpoint count for GT generation."""

    viewpoints: int = 128

    def __post_init__(self):
        if self.viewpoints < 1:
            raise ValueError("viewpoint count must be >= 1")


@dataclass
class DepthBuffer:
    """Per-pixel nearest forward depth and primitive id.

    ``depth`` is +inf and ``prim`` is -1 where nothing was rasterized;
    buffers are indexed [row, col] = [v pixel, u pixel]. Read coverage as
    ``np.isfinite(depth)``: -1 is also a valid primitive id.
    """

    depth: np.ndarray
    prim: np.ndarray


def _vdc(i: int) -> float:
    """Van der Corput radical inverse, base 2."""
    x, f = 0.0, 0.5
    while i:
        x += f * (i & 1)
        i >>= 1
        f *= 0.5
    return x


def sample_viewpoints(cell: ViewCell, cfg: OracleConfig) -> list:
    """Deterministic cameras covering the cell's lateral disc and yaw range.

    M=1 pins the camera to the cell center with zero yaw. Otherwise camera i
    sits on a golden-angle spiral over the disc, and its yaw follows the
    bit-reversed (van der Corput) sequence over [-beta, beta].
    """
    m = cfg.viewpoints
    if m == 1:
        return [cell.camera_at(cell.center, 0.0)]
    cams = []
    for i in range(m):
        rad = cell.radius * math.sqrt((i + 0.5) / m)
        ang = i * GOLDEN_ANGLE
        pos = cell.center + cell.right * (rad * math.cos(ang)) \
            + cell.up * (rad * math.sin(ang))
        yaw = cell.beta_deg * (2.0 * _vdc(i + 1) - 1.0)
        cams.append(cell.camera_at(pos, yaw))
    return cams


def render_depth(scene: TriScene, camera: Camera, resolution) -> DepthBuffer:
    """Barycentric triangle rasterization with a z-test.

    Depth is measured along the camera's forward axis and is
    perspective-correct (1/z interpolated in screen space). Exact depth ties
    resolve to the smallest primitive id, keeping output order-independent.
    """
    w, h = int(resolution[0]), int(resolution[1])
    zflat = np.full(w * h, np.inf)
    iflat = np.full(w * h, np.iinfo(np.int64).max, dtype=np.int64)
    if len(scene) > 0:
        tris2d, invz, src = screen_triangles(scene, camera, w, h)
        chunks = []
        for tri, px, py, b1, b2 in iter_raster_chunks(tris2d, w, h):
            depth = 1.0 / interp_affine(invz, tri, b1, b2)
            keep = depth <= camera.far
            if not keep.any():
                continue
            flat = py[keep] * w + px[keep]
            depth = depth[keep]
            np.minimum.at(zflat, flat, depth)
            chunks.append((flat, depth, scene.primitive_ids[src[tri[keep]]]))
        for flat, depth, pid in chunks:
            win = depth <= zflat[flat]
            np.minimum.at(iflat, flat[win], pid[win])
    prim = np.where(np.isfinite(zflat), iflat, -1).reshape(h, w)
    return DepthBuffer(zflat.reshape(h, w), prim)


def compute_gt_pvs(scene: TriScene, cell: ViewCell, dims, ocfg: OracleConfig,
                   cameras: list | None = None) -> FroxelGrid:
    """Ground-truth PVS grid: OR of reprojected depth fragments over all
    sampled viewpoints (``cameras`` overrides the sampled set).

    Each camera renders a depth buffer of ``DEPTH_SCALE`` times the grid's
    x and y resolution. The result need not lie inside ``froxelize``'s grid,
    because the two sample the scene at different points; training pairs
    take ``froxelize(...) | gt`` as geometry, which holds the
    PVS-subset-of-geometry property bit-exactly.
    """
    frustum = build_viewcell_frustum(cell)
    dims = tuple(int(d) for d in dims)
    cams = cameras if cameras is not None else sample_viewpoints(cell, ocfg)
    res = (DEPTH_SCALE * dims[0], DEPTH_SCALE * dims[1])
    seen = np.zeros(dims, dtype=bool)
    for cam in cams:
        buf = render_depth(scene, cam, res)
        rows, cols = np.nonzero(np.isfinite(buf.depth))
        if len(rows) == 0:
            continue
        uvw, inside = reproject_fragments(cam, frustum, cols, rows,
                                          buf.depth[rows, cols], res)
        x, y, z = quantize(uvw[inside], dims).T
        seen[x, y, z] = True
    return FroxelGrid.from_dense(seen, role="gt_pvs")
