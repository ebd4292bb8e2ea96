"""Bit-packed frustum-aligned occupancy grids and triangle froxelization.

Bits are packed eight-per-byte along the x axis, least significant bit
first: byte index = (x >> 3) + (N_x/8) * (y + N_y * z), bit index = x & 7.

Rasterization works on flat (triangle, sample) candidate pairs so the hot
path stays inside numpy; the same traversal backs occupancy grids, the
froxel-to-primitive map, and the oracle's depth buffers.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .core import Frustum, TriScene, project_points

FPVS_MAGIC = b"FPVS"
FPVS_VERSION = 1
FPVS_HEADER = 24
ROLE_TAGS = ("geometry", "gt_pvs", "predicted_pvs")

_DEGEN_EPS = 1e-12
_MAX_PAIRS = 4_000_000


def quantize(uvw, dims):
    """Map NDC coordinates in [0,1]^3 to froxel indices.

    Applies floor(u * N) per axis with the exact upper boundary (1.0)
    clamped back into range. Accepts a single triple or an (N, 3) array and
    returns int64 indices of the same leading shape.
    """
    arr = np.asarray(uvw, dtype=np.float64)
    scalar = arr.ndim == 1
    arr = np.atleast_2d(arr)
    d = np.asarray(dims, dtype=np.int64)
    idx = np.floor(arr * d).astype(np.int64)
    np.clip(idx, 0, d - 1, out=idx)
    return idx[0] if scalar else idx


@dataclass
class FroxelizeConfig:
    """Controls scene rasterization into a froxel grid.

    ``supersample`` multiplies the rasterization resolution; ``mode``
    selects the fast perspective path or the orthographic three-view
    reprojection path used when building training data.
    """

    supersample: int = 4
    mode: str = "perspective"     # "perspective" | "ortho"
    depth_mode: str = "linear"

    def __post_init__(self):
        if self.supersample < 1:
            raise ValueError("supersample factor must be >= 1")
        if self.mode not in ("perspective", "ortho"):
            raise ValueError(f"unknown froxelize mode {self.mode!r}")


class FroxelGrid:
    """Binary occupancy over an N_x x N_y x N_z frustum-aligned grid."""

    def __init__(self, dims, role: str = "geometry", supersample: int = 1, bits=None):
        nx, ny, nz = (int(d) for d in dims)
        if nx <= 0 or ny <= 0 or nz <= 0:
            raise ValueError("grid dims must be positive")
        if nx % 8 != 0:
            raise ValueError(f"N_x must be divisible by 8, got {nx}")
        if role not in ROLE_TAGS:
            raise ValueError(f"unknown role {role!r}")
        self.dims = (nx, ny, nz)
        self.role = role
        self.supersample = int(supersample)
        nbytes = (nx // 8) * ny * nz
        if bits is None:
            self.bits = np.zeros(nbytes, dtype=np.uint8)
        else:
            self.bits = np.ascontiguousarray(bits, dtype=np.uint8)
            if self.bits.shape != (nbytes,):
                raise ValueError("bit buffer size does not match dims")

    # -- indexing ----------------------------------------------------------
    @property
    def row_bytes(self) -> int:
        return self.dims[0] // 8

    def _check(self, x, y, z):
        nx, ny, nz = self.dims
        if not (0 <= x < nx and 0 <= y < ny and 0 <= z < nz):
            raise IndexError(f"froxel coordinate {(x, y, z)} out of range for dims {self.dims}")

    def set(self, x: int, y: int, z: int):
        self._check(x, y, z)
        byte = (x >> 3) + self.row_bytes * (y + self.dims[1] * z)
        self.bits[byte] |= np.uint8(1 << (x & 7))

    def get(self, x: int, y: int, z: int) -> int:
        self._check(x, y, z)
        byte = (x >> 3) + self.row_bytes * (y + self.dims[1] * z)
        return int(self.bits[byte] >> (x & 7)) & 1

    def _checked(self, coords) -> np.ndarray:
        coords = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
        if (coords < 0).any() or (coords >= np.array(self.dims)).any():
            raise IndexError("froxel coordinate out of range")
        return coords

    def set_many(self, coords):
        """Set a batch of (N, 3) integer froxel coordinates."""
        coords = self._checked(coords)
        if coords.size == 0:
            return
        self._set_unchecked(coords[:, 0], coords[:, 1], coords[:, 2])

    def get_many(self, coords) -> np.ndarray:
        """Boolean occupancy of a batch of (N, 3) integer froxel coordinates."""
        x, y, z = self._checked(coords).T
        byte = (x >> 3) + self.row_bytes * (y + self.dims[1] * z)
        return ((self.bits[byte] >> (x & 7)) & 1).astype(bool)

    def _set_unchecked(self, x, y, z):
        byte = (x >> 3) + self.row_bytes * (y + self.dims[1] * z)
        mask = (np.uint8(1) << (x & 7).astype(np.uint8)).astype(np.uint8)
        np.bitwise_or.at(self.bits, byte, mask)

    # -- views and counts ---------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Boolean array of shape (N_x, N_y, N_z)."""
        nx, ny, nz = self.dims
        packed = self.bits.reshape(nz, ny, self.row_bytes)
        dense = np.unpackbits(packed, axis=2, bitorder="little").astype(bool)
        return np.ascontiguousarray(dense.transpose(2, 1, 0))

    @classmethod
    def from_dense(cls, dense, role: str = "geometry", supersample: int = 1) -> "FroxelGrid":
        dense = np.asarray(dense).astype(bool)
        if dense.ndim != 3:
            raise ValueError("dense occupancy must be 3-dimensional")
        grid = cls(dense.shape, role=role, supersample=supersample)
        packed = np.packbits(dense.transpose(2, 1, 0), axis=2, bitorder="little")
        grid.bits = np.ascontiguousarray(packed.reshape(-1))
        return grid

    def occupied_count(self) -> int:
        return int(np.bitwise_count(self.bits).sum())

    def occupancy(self) -> float:
        nx, ny, nz = self.dims
        return self.occupied_count() / float(nx * ny * nz)

    def occupied_coords(self) -> np.ndarray:
        """Integer (N, 3) coordinates of all set froxels."""
        xs, ys, zs = np.nonzero(self.to_dense())
        return np.column_stack([xs, ys, zs]).astype(np.int64)

    # -- set algebra ---------------------------------------------------------
    def copy(self) -> "FroxelGrid":
        return FroxelGrid(self.dims, self.role, self.supersample, self.bits.copy())

    def __or__(self, other: "FroxelGrid") -> "FroxelGrid":
        self._match(other)
        return FroxelGrid(self.dims, self.role, self.supersample, self.bits | other.bits)

    def __and__(self, other: "FroxelGrid") -> "FroxelGrid":
        self._match(other)
        return FroxelGrid(self.dims, self.role, self.supersample, self.bits & other.bits)

    def subset_of(self, other: "FroxelGrid") -> bool:
        """True iff every set froxel here is also set in ``other`` (bit-exact)."""
        self._match(other)
        return not np.any(self.bits & ~other.bits)

    def _match(self, other):
        if self.dims != other.dims:
            raise ValueError(f"grid dims mismatch: {self.dims} vs {other.dims}")

    def __eq__(self, other):
        if not isinstance(other, FroxelGrid):
            return NotImplemented
        return (self.dims == other.dims and self.role == other.role
                and np.array_equal(self.bits, other.bits))

    # -- file format ----------------------------------------------------------
    def save(self, path):
        header = FPVS_MAGIC + struct.pack("<IIIIBBxx", FPVS_VERSION, *self.dims,
                                          ROLE_TAGS.index(self.role),
                                          self.supersample & 0xFF)
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(self.bits.tobytes())

    @classmethod
    def load(cls, path) -> "FroxelGrid":
        with open(path, "rb") as fh:
            raw = fh.read()
        if raw[:4] != FPVS_MAGIC:
            raise ValueError(f"{path}: not an FPVS grid file")
        if len(raw) < FPVS_HEADER:
            raise ValueError(f"{path}: truncated FPVS header")
        version, nx, ny, nz, role, ss = struct.unpack_from("<IIIIBB", raw, 4)
        if version != FPVS_VERSION:
            raise ValueError(f"{path}: unsupported FPVS version {version}")
        if role >= len(ROLE_TAGS):
            raise ValueError(f"{path}: unknown role tag {role}")
        nbytes = (nx // 8) * ny * nz
        if len(raw) - FPVS_HEADER != nbytes:
            raise ValueError(f"{path}: payload holds {len(raw) - FPVS_HEADER} bytes, "
                             f"dims {(nx, ny, nz)} need {nbytes}")
        payload = np.frombuffer(raw, dtype=np.uint8, offset=FPVS_HEADER)
        return cls((nx, ny, nz), ROLE_TAGS[role], ss, payload.copy())


# ---------------------------------------------------------------------------
# Flat-pair rasterization core
# ---------------------------------------------------------------------------

def clip_polygon_halfspace(poly: np.ndarray, signed_dist: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex polygon against one half-space.

    ``signed_dist`` holds per-vertex distances, kept side >= 0. Returns the
    clipped polygon (possibly empty) with interpolated vertices.
    """
    n = len(poly)
    out = []
    for i in range(n):
        j = (i + 1) % n
        di, dj = signed_dist[i], signed_dist[j]
        if di >= 0:
            out.append(poly[i])
        if (di >= 0) != (dj >= 0):
            t = di / (di - dj)
            out.append(poly[i] + t * (poly[j] - poly[i]))
    return np.asarray(out, dtype=np.float64).reshape(-1, poly.shape[1])


def interp_affine(attrs: np.ndarray, b1, b2):
    """Interpolate per-vertex attributes (N, 3) with the weights of vertices
    1 and 2; anchoring at vertex 0 keeps constant attributes bit-exact."""
    return attrs[:, 0] + b1 * (attrs[:, 1] - attrs[:, 0]) \
        + b2 * (attrs[:, 2] - attrs[:, 0])


def iter_raster_chunks(tris2d: np.ndarray, width: int, height: int,
                       max_pairs: int = _MAX_PAIRS):
    """Rasterize 2D triangles at integer+0.5 sample positions.

    ``tris2d`` is (T, 3, 2) screen positions. Yields chunks
    ``(tri_index, px, py, b1, b2)`` of interior samples, where tri_index
    addresses ``tris2d`` rows and b1/b2 are the barycentric weights of
    vertices 1 and 2. Coverage uses inclusive (>= 0) edge tests.
    """
    tris2d = np.asarray(tris2d, dtype=np.float64)
    if len(tris2d) == 0:
        return
    v0 = tris2d[:, 0]
    e1 = tris2d[:, 1] - v0
    e2 = tris2d[:, 2] - v0
    den = e1[:, 0] * e2[:, 1] - e2[:, 0] * e1[:, 1]
    mins = tris2d.min(axis=1)
    maxs = tris2d.max(axis=1)
    x0 = np.clip(np.ceil(mins[:, 0] - 0.5), 0, width).astype(np.int64)
    x1 = np.clip(np.floor(maxs[:, 0] - 0.5) + 1, 0, width).astype(np.int64)
    y0 = np.clip(np.ceil(mins[:, 1] - 0.5), 0, height).astype(np.int64)
    y1 = np.clip(np.floor(maxs[:, 1] - 0.5) + 1, 0, height).astype(np.int64)
    w = np.maximum(x1 - x0, 0)
    h = np.maximum(y1 - y0, 0)
    counts = w * h
    live = (np.abs(den) > _DEGEN_EPS) & (counts > 0)
    idx_all = np.nonzero(live)[0]
    if len(idx_all) == 0:
        return

    bounds = np.cumsum(counts[idx_all])
    start = 0
    while start < len(idx_all):
        base = bounds[start - 1] if start else 0
        stop = int(np.searchsorted(bounds, base + max_pairs, side="left")) + 1
        stop = min(max(stop, start + 1), len(idx_all))
        sel = idx_all[start:stop]
        cnt = counts[sel]
        offs = np.concatenate([[0], np.cumsum(cnt)])
        total = int(offs[-1])
        pair_t = np.repeat(np.arange(len(sel)), cnt)
        ridx = np.arange(total) - offs[pair_t]
        tw = w[sel][pair_t]
        px = x0[sel][pair_t] + ridx % tw
        py = y0[sel][pair_t] + ridx // tw
        gsel = sel[pair_t]
        dx = (px + 0.5) - v0[gsel, 0]
        dy = (py + 0.5) - v0[gsel, 1]
        dd = den[gsel]
        b1 = (dx * e2[gsel, 1] - e2[gsel, 0] * dy) / dd
        b2 = (e1[gsel, 0] * dy - dx * e1[gsel, 1]) / dd
        b0 = 1.0 - b1 - b2
        inside = (b0 >= 0) & (b1 >= 0) & (b2 >= 0)
        if inside.any():
            yield (gsel[inside], px[inside], py[inside],
                   b1[inside], b2[inside])
        start = stop


def _camera_space(verts: np.ndarray, origin: np.ndarray, basis: np.ndarray) -> np.ndarray:
    return (verts - origin) @ basis.T


def screen_triangles(scene: TriScene, origin: np.ndarray, basis: np.ndarray,
                     half_extent: float, near: float, far: float,
                     width: int, height: int):
    """Project scene triangles to screen space with near-plane clipping.

    Returns ``(tris2d, invz, src)``: screen positions (T', 3, 2), per-vertex
    reciprocal forward depths for perspective-correct interpolation, and the
    originating scene triangle index per output triangle.
    """
    cam = _camera_space(scene.vertices, origin, basis)
    tris = scene.triangles
    if len(tris) == 0:
        empty = np.zeros((0, 3, 2)), np.zeros((0, 3)), np.zeros(0, dtype=np.int64)
        return empty
    z = cam[:, 2][tris]
    candidates = np.nonzero((z.max(axis=1) > near) & (z.min(axis=1) < far))[0]
    clean = candidates[z[candidates].min(axis=1) >= near]
    crossing = candidates[z[candidates].min(axis=1) < near]

    polys = [cam[tris[clean]]] if len(clean) else []
    srcs = [clean]
    for t in crossing:
        poly = clip_polygon_halfspace(cam[tris[t]], cam[tris[t], 2] - near)
        for k in range(1, len(poly) - 1):
            polys.append(poly[[0, k, k + 1]][None, :, :])
            srcs.append(np.array([t], dtype=np.int64))
    if not polys:
        return np.zeros((0, 3, 2)), np.zeros((0, 3)), np.zeros(0, dtype=np.int64)
    cam3 = np.concatenate(polys, axis=0)
    src = np.concatenate(srcs)
    zc = cam3[:, :, 2]
    u = (0.5 + 0.5 * cam3[:, :, 0] / (zc * half_extent)) * width
    v = (0.5 + 0.5 * cam3[:, :, 1] / (zc * half_extent)) * height
    return np.stack([u, v], axis=2), 1.0 / zc, src


def _perspective_fragments(scene: TriScene, frustum: Frustum, dims, cfg: FroxelizeConfig):
    nx, ny, nz = dims
    s = cfg.supersample
    sx, sy = s * nx, s * ny
    tris2d, invz, src = screen_triangles(scene, frustum._o, frustum._basis,
                                         frustum.half_extent, frustum.near,
                                         frustum.far, sx, sy)
    if cfg.depth_mode == "linear":
        wv = (1.0 / invz - frustum.near) / (frustum.far - frustum.near)
    else:
        wv = np.log(1.0 / (invz * frustum.near)) / np.log(frustum.far / frustum.near)
    for tri, px, py, b1, b2 in iter_raster_chunks(tris2d, sx, sy):
        inv = interp_affine(invz[tri], b1, b2)
        # perspective-corrected weights keep depth exact on constant-z faces
        w = interp_affine(wv[tri], b1 * invz[tri, 1] / inv, b2 * invz[tri, 2] / inv)
        keep = (w >= 0) & (w <= 1)
        if not keep.any():
            continue
        uvw = np.column_stack([(px[keep] + 0.5) / sx, (py[keep] + 0.5) / sy, w[keep]])
        idx = quantize(uvw, dims)
        yield idx, src[tri[keep]]


def _ortho_fragments(scene: TriScene, frustum: Frustum, dims, cfg: FroxelizeConfig):
    """Three axis-aligned orthographic passes over the frustum's world AABB,
    each covered sample point reprojected into the frustum."""
    lo, hi = frustum.world_aabb()
    extent = hi - lo
    spacing = extent.max() / (cfg.supersample * max(dims))
    counts = np.maximum(np.ceil(extent / spacing).astype(np.int64), 1)
    tv = scene.triangle_vertices()
    if len(tv) == 0:
        return
    tmin = tv.min(axis=1)
    tmax = tv.max(axis=1)
    live = np.nonzero(((tmax >= lo) & (tmin <= hi)).all(axis=1))[0]
    for a0, a1, ar in ((1, 2, 0), (2, 0, 1), (0, 1, 2)):
        tris2d = (tv[live][:, :, [a0, a1]] - lo[[a0, a1]]) / spacing
        attrs = tv[live][:, :, ar]
        for tri, su, sv, b1, b2 in iter_raster_chunks(
                tris2d, int(counts[a0]), int(counts[a1])):
            world = np.empty((len(su), 3))
            world[:, a0] = lo[a0] + (su + 0.5) * spacing
            world[:, a1] = lo[a1] + (sv + 0.5) * spacing
            world[:, ar] = interp_affine(attrs[tri], b1, b2)
            uvw, inside = project_points(frustum, world, cfg.depth_mode)
            if not inside.any():
                continue
            yield quantize(uvw[inside], dims), live[tri[inside]]


def _fragment_stream(scene, frustum, dims, cfg):
    nx = int(dims[0])
    if nx % 8 != 0:
        raise ValueError(f"N_x must be divisible by 8, got {nx}")
    gen = _perspective_fragments if cfg.mode == "perspective" else _ortho_fragments
    return gen(scene, frustum, tuple(int(d) for d in dims), cfg)


def froxelize(scene: TriScene, frustum: Frustum, dims,
              cfg: FroxelizeConfig | None = None) -> FroxelGrid:
    """Rasterize a triangle scene into a binary geometry grid."""
    cfg = cfg or FroxelizeConfig()
    grid = FroxelGrid(dims, role="geometry", supersample=cfg.supersample)
    for idx, _src in _fragment_stream(scene, frustum, grid.dims, cfg):
        grid._set_unchecked(idx[:, 0], idx[:, 1], idx[:, 2])
    return grid


def froxel_id_map(scene: TriScene, frustum: Frustum, dims,
                  cfg: FroxelizeConfig | None = None) -> dict:
    """Map each covered froxel to the set of primitive ids touching it.

    Shares the fragment traversal with :func:`froxelize`, so the key set
    matches the froxelized occupancy bit-exactly. Each (froxel, primitive)
    fragment becomes one scalar key ``flat * span + (pid - min_pid)``; one
    sort deduplicates them and groups them by froxel.
    """
    cfg = cfg or FroxelizeConfig()
    nx, ny, nz = (int(d) for d in dims)
    stream = _fragment_stream(scene, frustum, (nx, ny, nz), cfg)
    pids = scene.primitive_ids
    if len(pids) == 0:
        return {}
    lo = int(pids.min())
    span = int(pids.max()) - lo + 1
    if nx * ny * nz * span > np.iinfo(np.int64).max:
        raise ValueError("primitive id range too wide for the froxel id map keys")
    keys = []
    for idx, src in stream:
        flat = idx[:, 0] + nx * (idx[:, 1] + ny * idx[:, 2])
        keys.append(flat * span + (pids[src] - lo))
    if not keys:
        return {}
    flat, pid = np.divmod(np.unique(np.concatenate(keys)), span)
    bounds = np.concatenate([[0], np.flatnonzero(np.diff(flat)) + 1, [len(flat)]])
    cells = flat[bounds[:-1]]
    coords = zip((cells % nx).tolist(), (cells // nx % ny).tolist(),
                 (cells // (nx * ny)).tolist())
    ids = (pid + lo).tolist()
    return {c: set(ids[s:e]) for c, s, e in zip(coords, bounds[:-1].tolist(),
                                                 bounds[1:].tolist())}
