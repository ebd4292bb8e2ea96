"""Ground-truth from-region PVS by dense viewpoint sampling.

Each sampled viewpoint renders a software depth buffer, and the surviving
fragments are reprojected into the viewcell frustum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Camera, TriScene, ViewCell, build_viewcell_frustum, reproject_fragments
from .froxel import _MAX_PAIRS, FroxelGrid, RasterWork, _affine_table, _interp_into, \
    grid_dims, screen_triangles

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


def _fragment_chunks(tris2d, invz, far: float, w: int, h: int, work: RasterWork):
    """Rasterize screen triangles into a w x h buffer; yields per raster
    chunk ``(flat pixel, depth, triangle)``, flat = row * w + col.

    Depth is perspective-correct forward depth (1/z interpolated in screen
    space). A fragment beyond ``far`` keeps its slot with depth +inf, which
    no z-test lets through. The chunks are views into rows 0, 2 and 5 of
    ``work``, valid until the next chunk; rows 1, 3, 4, 6 and 7 are free
    for the consumer.
    """
    table = _affine_table(invz)
    for tri, px, py, b1, b2 in work.chunks(tris2d, w, h):
        k = len(tri)
        depth = work.rows[5, :k]
        _interp_into(depth, work.rows[6, :k], table, tri, b1, b2)
        np.divide(1.0, depth, out=depth)
        beyond = np.greater(depth, far, out=work.masks[7, 0, :k])
        np.copyto(depth, np.inf, where=beyond)
        py *= w
        py += px
        yield py, depth, tri


def _depth_pass(scene: TriScene, camera: Camera, zflat: np.ndarray, w: int, h: int,
                work: RasterWork):
    """Render the flat depth buffer ``zflat`` of a w x h view, +inf where
    nothing is covered."""
    zflat.fill(np.inf)
    tris2d, invz, _src = screen_triangles(scene, camera, w, h)
    for flat, depth, _tri in _fragment_chunks(tris2d, invz, camera.far, w, h, work):
        np.minimum.at(zflat, flat, depth)


def render_depth(scene: TriScene, camera: Camera, resolution) -> DepthBuffer:
    """Barycentric triangle rasterization with a z-test and primitive ids.

    Depth is measured along the camera's forward axis and is
    perspective-correct (1/z interpolated in screen space). Exact depth ties
    resolve to the smallest primitive id, keeping output order-independent.
    Ids resolve chunk by chunk: where a chunk lowers a pixel's depth, the
    pixel's id resets, then the chunk's fragments at the new depth take the
    minimum. Memory stays the two buffers and one :class:`RasterWork`.
    """
    w, h = int(resolution[0]), int(resolution[1])
    top = np.iinfo(np.int64).max
    zflat = np.full(w * h, np.inf)
    iflat = np.full(w * h, top, dtype=np.int64)
    tris2d, invz, src = screen_triangles(scene, camera, w, h)
    pids = scene.primitive_ids[src]
    work = RasterWork(_MAX_PAIRS)
    for flat, depth, tri in _fragment_chunks(tris2d, invz, camera.far, w, h, work):
        rows, ints, masks, k = work.rows, work.ints, work.masks, len(flat)
        old = zflat.take(flat, out=rows[3, :k], mode="wrap")
        np.minimum.at(zflat, flat, depth)
        new = zflat.take(flat, out=rows[4, :k], mode="wrap")
        lowered = np.flatnonzero(np.less(new, old, out=masks[7, 0, :k]))
        iflat[flat.take(lowered, out=ints[1, :len(lowered)], mode="wrap")] = top
        win = np.flatnonzero(np.equal(depth, new, out=masks[7, 0, :k]))
        j = len(win)
        win_tri = tri.take(win, out=ints[3, :j], mode="wrap")
        np.minimum.at(iflat, flat.take(win, out=ints[1, :j], mode="wrap"),
                      pids.take(win_tri, out=ints[6, :j], mode="wrap"))
    iflat[~np.isfinite(zflat)] = -1
    return DepthBuffer(zflat.reshape(h, w), iflat.reshape(h, w))


def compute_gt_pvs(scene: TriScene, cell: ViewCell, dims, ocfg: OracleConfig,
                   cameras: list | None = None) -> FroxelGrid:
    """Ground-truth PVS grid: OR of reprojected depth fragments over all
    sampled viewpoints (``cameras`` overrides the sampled set).

    Grid dims are checked before anything renders. Each camera renders a
    depth-only buffer of ``DEPTH_SCALE`` times the grid's x and y
    resolution; its covered pixels are reprojected into the viewcell
    frustum and quantized in slices. One flat depth buffer and one
    :class:`RasterWork` serve every camera's depth pass and reprojection
    slices, so memory stays the depth buffer (8 bytes a pixel), the grid
    and that working set, at most 1 MiB at the default 2^13 samples and
    4096 rows (ten chunk arrays, the sample offsets, ten per-row arrays),
    at any resolution. The result need not lie inside ``froxelize``'s grid,
    because the two sample the scene at different points.
    """
    nx, ny, nz = dims = grid_dims(dims)
    frustum = build_viewcell_frustum(cell)
    cams = cameras if cameras is not None else sample_viewpoints(cell, ocfg)
    w, h = DEPTH_SCALE * nx, DEPTH_SCALE * ny
    seen = np.zeros(nx * ny * nz, dtype=bool)
    zflat = np.empty(w * h)
    work = RasterWork(_MAX_PAIRS)
    for cam in cams:
        _depth_pass(scene, cam, zflat, w, h, work)
        _mark_covered(seen, zflat, cam, frustum, dims, work)
    return FroxelGrid.from_flat(dims, seen, role="gt_pvs")


def _mark_covered(seen: np.ndarray, zflat: np.ndarray, camera: Camera, frustum: Camera,
                  dims, work: RasterWork) -> None:
    """Set in the flat grid ``seen`` the froxels that the covered pixels of
    ``camera``'s flat depth buffer reproject into, in slices of at most
    ``work.max_pairs`` pixels (2^13 by default) that run in the ten chunk
    rows of ``work``, 640 KiB: three hold the slice's depths and pixel
    coordinates, then its froxel indices, and seven the reprojection. Each
    slice allocates only the index arrays of its covered and its inside
    pixels. Each axis quantizes in place as u * N clipped to [0, N - 1],
    truncated (reference: ``quantize`` in ``tests/reference.py``)."""
    nx, ny, _ = dims
    w, h = DEPTH_SCALE * nx, DEPTH_SCALE * ny
    step = min(work.max_pairs, len(zflat))
    work.reserve(step, 0)
    rows, ints, masks = work.rows, work.ints, work.masks
    for start in range(0, len(zflat), step):
        block = zflat[start:start + step]
        hit = np.flatnonzero(np.less(block, np.inf, out=masks[0, 0, :len(block)]))
        n = len(hit)
        if n == 0:
            continue
        depth = block.take(hit, out=rows[0, :n], mode="wrap")
        py, px = ints[1, :n], ints[2, :n]
        hit += start
        np.divmod(hit, w, out=(py, px))
        uvw, inside = reproject_fragments(camera, frustum, px, py, depth, (w, h), rows[3:])
        idx = [ints[a, :n] for a in range(3)]
        for a, size in enumerate(dims):
            u = uvw[:, a]
            u *= float(size)
            np.copyto(idx[a], np.clip(u, 0, size - 1, out=u), casting="unsafe")
        flat, iy, iz = idx
        iz *= ny
        iy += iz
        iy *= nx
        flat += iy
        keep = np.flatnonzero(inside)
        seen[flat.take(keep, out=ints[1, :len(keep)], mode="wrap")] = True
