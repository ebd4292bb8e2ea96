"""Ground-truth from-region PVS by dense viewpoint sampling.

Each sampled viewpoint renders a software depth buffer, and the surviving
fragments are reprojected into the viewcell frustum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Camera, TriScene, ViewCell, build_viewcell_frustum, reproject_fragments
from .froxel import _MAX_PAIRS, FroxelGrid, grid_dims, interp_affine, iter_raster_chunks, \
    quantize, screen_triangles

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


def _fragment_chunks(tris2d, invz, far: float, w: int, h: int):
    """Rasterize screen triangles into a w x h buffer; yields per raster
    chunk ``(flat pixel, depth, triangle)``, flat = row * w + col.

    Depth is perspective-correct forward depth (1/z interpolated in screen
    space). A fragment beyond ``far`` keeps its slot with depth +inf, which
    no z-test lets through.
    """
    for tri, px, py, b1, b2 in iter_raster_chunks(tris2d, w, h):
        depth = 1.0 / interp_affine(invz, tri, b1, b2)
        depth[depth > far] = np.inf
        py *= w
        py += px
        yield py, depth, tri


def _depth_pass(scene: TriScene, camera: Camera, w: int, h: int) -> np.ndarray:
    """Flat depth buffer of a w x h render, +inf where nothing is covered."""
    zflat = np.full(w * h, np.inf)
    tris2d, invz, _src = screen_triangles(scene, camera, w, h)
    for flat, depth, _tri in _fragment_chunks(tris2d, invz, camera.far, w, h):
        np.minimum.at(zflat, flat, depth)
    return zflat


def render_depth(scene: TriScene, camera: Camera, resolution) -> DepthBuffer:
    """Barycentric triangle rasterization with a z-test and primitive ids.

    Depth is measured along the camera's forward axis and is
    perspective-correct (1/z interpolated in screen space). Exact depth ties
    resolve to the smallest primitive id, keeping output order-independent.
    Ids resolve chunk by chunk: where a chunk lowers a pixel's depth, the
    pixel's id resets, then the chunk's fragments at the new depth take the
    minimum. Memory stays the two buffers and one chunk's arrays.
    """
    w, h = int(resolution[0]), int(resolution[1])
    top = np.iinfo(np.int64).max
    zflat = np.full(w * h, np.inf)
    iflat = np.full(w * h, top, dtype=np.int64)
    tris2d, invz, src = screen_triangles(scene, camera, w, h)
    pids = scene.primitive_ids[src]
    for flat, depth, tri in _fragment_chunks(tris2d, invz, camera.far, w, h):
        old = zflat[flat]
        np.minimum.at(zflat, flat, depth)
        new = zflat[flat]
        iflat[flat[new < old]] = top
        win = depth == new
        np.minimum.at(iflat, flat[win], pids[tri[win]])
    iflat[~np.isfinite(zflat)] = -1
    return DepthBuffer(zflat.reshape(h, w), iflat.reshape(h, w))


def compute_gt_pvs(scene: TriScene, cell: ViewCell, dims, ocfg: OracleConfig,
                   cameras: list | None = None) -> FroxelGrid:
    """Ground-truth PVS grid: OR of reprojected depth fragments over all
    sampled viewpoints (``cameras`` overrides the sampled set).

    Grid dims are checked before anything renders. Each camera renders a
    depth-only buffer of ``DEPTH_SCALE`` times the grid's x and y
    resolution; its covered pixels are reprojected into the viewcell
    frustum and quantized in slices of at most ``_MAX_PAIRS``, so memory
    stays one depth buffer, the grid and a chunk's arrays at any resolution.
    The result need not lie inside ``froxelize``'s grid, because the two
    sample the scene at different points.
    """
    nx, ny, nz = dims = grid_dims(dims)
    frustum = build_viewcell_frustum(cell)
    cams = cameras if cameras is not None else sample_viewpoints(cell, ocfg)
    seen = np.zeros(nx * ny * nz, dtype=bool)
    for cam in cams:
        zflat = _depth_pass(scene, cam, DEPTH_SCALE * nx, DEPTH_SCALE * ny)
        _mark_covered(seen, zflat, cam, frustum, dims)
    return FroxelGrid.from_flat(dims, seen, role="gt_pvs")


def _mark_covered(seen: np.ndarray, zflat: np.ndarray, camera: Camera, frustum: Camera,
                  dims) -> None:
    """Set in the flat grid ``seen`` the froxels that the covered pixels of
    ``camera``'s flat depth buffer reproject into, in slices of at most
    ``_MAX_PAIRS`` pixels; the slices' arrays are freed on return."""
    nx, ny, _ = dims
    w, h = DEPTH_SCALE * nx, DEPTH_SCALE * ny
    for start in range(0, len(zflat), _MAX_PAIRS):
        block = zflat[start:start + _MAX_PAIRS]
        hit = np.flatnonzero(block < np.inf)
        if len(hit) == 0:
            continue
        depth = block[hit]
        py, px = np.divmod(hit + start, w)
        uvw, inside = reproject_fragments(camera, frustum, px, py, depth, (w, h))
        idx = quantize(uvw, dims)
        flat = idx[:, 0] + nx * (idx[:, 1] + ny * idx[:, 2])
        seen[flat[inside]] = True
