"""Bit-packed frustum-aligned occupancy grids and triangle froxelization.

Bits are packed eight-per-byte along the x axis, least significant bit
first: byte index = (x >> 3) + (N_x/8) * (y + N_y * z), bit index = x & 7.

Rasterization works on flat (triangle, sample) candidate pairs so the hot
path stays inside numpy; the same traversal backs occupancy grids, the
froxel-to-primitive map, and the oracle's depth buffers. The pairs come in
chunks of at most ``_MAX_PAIRS`` candidates, cut between raster rows, so a
chunk's temporaries stay about 2.8 MiB whatever the grid resolution or the
size of a triangle; only the per-row set-up grows with the number of raster
rows (see :func:`iter_raster_chunks`). Only :class:`FroxelGrid` reads or
writes packed bits, and only :func:`grid_dims` checks dims.
"""

from __future__ import annotations

import operator
import struct
from collections.abc import Mapping

import numpy as np

from .core import Camera, TriScene, depth_to_w

FPVS_MAGIC = b"FPVS"
FPVS_VERSION = 1
FPVS_HEADER = 24
ROLE_TAGS = ("geometry", "gt_pvs", "predicted_pvs")

_DEGEN_EPS = 1e-12
_MAX_PAIRS = 1 << 14  # candidate samples per raster chunk; see iter_raster_chunks
_SPAN_ULPS = 16      # bound on the inside test's rounding, in eps of its operands
SUPERSAMPLE = 4      # raster samples per froxel along x and along y


def grid_dims(dims) -> tuple:
    """``dims`` as a tuple of three ints, checked: every axis positive and
    N_x a multiple of 8, so each grid row packs into whole bytes."""
    nx, ny, nz = (int(d) for d in dims)
    if nx <= 0 or ny <= 0 or nz <= 0:
        raise ValueError("grid dims must be positive")
    if nx % 8 != 0:
        raise ValueError(f"N_x must be divisible by 8, got {nx}")
    return nx, ny, nz


def quantize(uvw, dims):
    """Map NDC coordinates in [0,1]^3 to froxel indices.

    Applies floor(u * N) per axis with the exact upper boundary (1.0)
    clamped back into range. Accepts a single triple or an (N, 3) array and
    returns int64 indices of the same leading shape. On finite input,
    clipping u * N to [0, N - 1] and truncating equals the floor, clipped.
    """
    arr = np.asarray(uvw, dtype=np.float64)
    scalar = arr.ndim == 1
    arr = np.atleast_2d(arr)
    idx = np.empty(arr.shape, dtype=np.int64)
    for a, n in enumerate(int(d) for d in dims):
        np.clip(arr[..., a] * float(n), 0, n - 1, out=idx[..., a], casting="unsafe")
    return idx[0] if scalar else idx


class FroxelGrid:
    """Binary occupancy over an N_x x N_y x N_z frustum-aligned grid."""

    def __init__(self, dims, role: str = "geometry", bits=None):
        self.dims = nx, ny, nz = grid_dims(dims)
        if role not in ROLE_TAGS:
            raise ValueError(f"unknown role {role!r}")
        self.role = role
        nbytes = (nx // 8) * ny * nz
        if bits is None:
            self.bits = np.zeros(nbytes, dtype=np.uint8)
        else:
            self.bits = np.ascontiguousarray(bits, dtype=np.uint8)
            if self.bits.shape != (nbytes,):
                raise ValueError("bit buffer size does not match dims")

    # -- indexing ----------------------------------------------------------
    def _check(self, x, y, z):
        nx, ny, nz = self.dims
        if not (0 <= x < nx and 0 <= y < ny and 0 <= z < nz):
            raise IndexError(f"froxel coordinate {(x, y, z)} out of range for dims {self.dims}")

    def _locate(self, x, y, z):
        """Byte and bit of froxel (x, y, z), on ints or arrays; (f, 0, 0) locates
        flat index f. With N_x a multiple of 8, f sits in byte f >> 3, bit f & 7."""
        flat = x + self.dims[0] * (y + self.dims[1] * z)
        return flat >> 3, flat & 7

    def set(self, x: int, y: int, z: int):
        self._check(x, y, z)
        byte, bit = self._locate(x, y, z)
        self.bits[byte] |= np.uint8(1 << bit)

    def get(self, x: int, y: int, z: int) -> int:
        self._check(x, y, z)
        byte, bit = self._locate(x, y, z)
        return int(self.bits[byte] >> bit) & 1

    def set_many(self, coords):
        """Set a batch of (N, 3) integer froxel coordinates."""
        coords = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
        if (coords < 0).any() or (coords >= np.array(self.dims)).any():
            raise IndexError("froxel coordinate out of range")
        byte, bit = self._locate(*coords.T)
        np.bitwise_or.at(self.bits, byte, (1 << bit).astype(np.uint8))

    def at(self, cells) -> np.ndarray:
        """Bool occupancy of each flat froxel index x + N_x * (y + N_y * z)
        in the integer array ``cells``."""
        byte, bit = self._locate(np.asarray(cells), 0, 0)
        return ((self.bits[byte] >> bit.astype(np.uint8)) & 1).astype(bool)

    # -- views and counts ---------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Boolean array of shape (N_x, N_y, N_z)."""
        nx, ny, nz = self.dims
        packed = self.bits.reshape(nz, ny, nx // 8)
        dense = np.unpackbits(packed, axis=2, bitorder="little").astype(bool)
        return np.ascontiguousarray(dense.transpose(2, 1, 0))

    @classmethod
    def from_dense(cls, dense, role: str = "geometry") -> "FroxelGrid":
        dense = np.asarray(dense).astype(bool)
        if dense.ndim != 3:
            raise ValueError("dense occupancy must be 3-dimensional")
        return cls.from_flat(dense.shape, dense.transpose(2, 1, 0).reshape(-1), role)

    @classmethod
    def from_flat(cls, dims, occupied, role: str) -> "FroxelGrid":
        """Grid from a bool per flat froxel index x + N_x * (y + N_y * z)."""
        nx, ny, nz = dims = grid_dims(dims)
        occupied = np.asarray(occupied, dtype=bool)
        if occupied.shape != (nx * ny * nz,):
            raise ValueError(f"{occupied.shape} occupancy does not match dims {dims}")
        return cls(dims, role, np.packbits(occupied, bitorder="little"))

    def occupied_count(self) -> int:
        return int(np.bitwise_count(self.bits).sum())

    def occupancy(self) -> float:
        nx, ny, nz = self.dims
        return self.occupied_count() / float(nx * ny * nz)

    # -- set algebra ---------------------------------------------------------
    def __or__(self, other: "FroxelGrid") -> "FroxelGrid":
        self._match(other)
        return FroxelGrid(self.dims, self.role, self.bits | other.bits)

    def __and__(self, other: "FroxelGrid") -> "FroxelGrid":
        self._match(other)
        return FroxelGrid(self.dims, self.role, self.bits & other.bits)

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
    # Header: magic, version, N_x, N_y, N_z (u32 little-endian), role tag
    # (byte 20), then three reserved bytes, written as 0 and ignored on load;
    # files that keep a supersampling factor in byte 21 still load.
    def save(self, path):
        header = FPVS_MAGIC + struct.pack("<IIIIBxxx", FPVS_VERSION, *self.dims,
                                          ROLE_TAGS.index(self.role))
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
        version, nx, ny, nz, role = struct.unpack_from("<IIIIB", raw, 4)
        if version != FPVS_VERSION:
            raise ValueError(f"{path}: unsupported FPVS version {version}")
        if role >= len(ROLE_TAGS):
            raise ValueError(f"{path}: unknown role tag {role}")
        nbytes = (nx // 8) * ny * nz
        if len(raw) - FPVS_HEADER != nbytes:
            raise ValueError(f"{path}: payload holds {len(raw) - FPVS_HEADER} bytes, "
                             f"dims {(nx, ny, nz)} need {nbytes}")
        payload = np.frombuffer(raw, dtype=np.uint8, offset=FPVS_HEADER)
        return cls((nx, ny, nz), ROLE_TAGS[role], payload.copy())


# ---------------------------------------------------------------------------
# Flat-pair rasterization core
# ---------------------------------------------------------------------------

def clip_triangles_halfspace(tris: np.ndarray, dist: np.ndarray):
    """Sutherland-Hodgman clip of triangles against one half-space, fanned
    back into triangles.

    ``tris`` is (N, 3, D) and ``dist`` (N, 3) holds per-vertex signed
    distances, kept side >= 0. A crossing edge (i, j) gains the vertex
    ``p_i + t (p_j - p_i)`` with ``t = d_i / (d_i - d_j)``. Each clipped
    polygon of 3 or 4 vertices becomes 1 or 2 fan triangles around its first
    vertex; a triangle wholly on the far side gives none. Returns the fan
    triangles and the input row of each, in input order.
    """
    n, dim = len(tris), tris.shape[2]
    keep = dist >= 0
    nxt = [1, 2, 0]
    cross = keep != keep[:, nxt]
    t = np.divide(dist, dist - dist[:, nxt], out=np.zeros_like(dist), where=cross)
    hit = tris + t[:, :, None] * (tris[:, nxt] - tris)
    # the clip visits vertex i, then the crossing on edge (i, i + 1)
    cand = np.stack([tris, hit], axis=2).reshape(n, 6, dim)
    valid = np.stack([keep, cross], axis=2).reshape(n, 6)
    order = np.argsort(~valid, axis=1, kind="stable")
    poly = np.take_along_axis(cand, order[:, :, None], axis=1)
    fans = poly[:, [[0, 1, 2], [0, 2, 3]]].reshape(2 * n, 3, dim)
    corners = valid.sum(axis=1)
    emit = np.column_stack([corners >= 3, corners == 4]).ravel()
    return fans[emit], np.repeat(np.arange(n), 2)[emit]


def interp_affine(attrs: np.ndarray, tri, b1, b2):
    """Interpolate per-vertex attributes (T, 3) over samples of triangles
    ``tri`` with the weights of vertices 1 and 2; anchoring at vertex 0
    keeps constant attributes bit-exact. The vertex differences are taken
    per triangle and gathered per sample."""
    a0 = attrs[:, 0]
    return a0[tri] + b1 * (attrs[:, 1] - a0)[tri] + b2 * (attrs[:, 2] - a0)[tri]


def _ranges(starts: np.ndarray, counts: np.ndarray):
    """Concatenated integer ranges ``[s, s + n)``, and for each element the
    index of the range it came from."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return np.arange(len(owner)) + (starts - (np.cumsum(counts) - counts))[owner], owner


def iter_raster_chunks(tris2d: np.ndarray, width: int, height: int,
                       max_pairs: int = _MAX_PAIRS):
    """Rasterize 2D triangles at integer+0.5 sample positions.

    ``tris2d`` is (T, 3, 2) screen positions. Yields chunks
    ``(tri_index, px, py, b1, b2)`` of interior samples, where tri_index
    addresses ``tris2d`` rows and b1/b2 are the barycentric weights of
    vertices 1 and 2. Coverage uses inclusive (>= 0) edge tests.

    Candidates are generated per bounding-box row, from the x-span that the
    three barycentric half-planes leave at the row's sample y (Pineda,
    SIGGRAPH 1988), widened by one pixel on each side; the inside test then
    runs on them unchanged, so the output equals testing every pixel of the
    box. Samples come out triangle by triangle, row by row, left to right.

    The spans of every row are found in one pass; the rows are then cut,
    in that order, into chunks of at most ``max_pairs`` candidate samples,
    so a large triangle is split between rows, and a row longer than the
    budget is a chunk of its own. A chunk's temporaries, with those of its
    consumer, are about twenty arrays of at most ``max_pairs`` elements: at
    the default of 2^14 (128 KiB per 8-byte array) they hold about 2.8 MiB
    at any resolution and triangle size, more than a 2 MiB L2 cache. The
    per-row set-up is not bounded: about a dozen arrays with one entry per
    raster row of every triangle live until the last chunk, so they grow
    with the raster's height and the triangles' heights. On the generated
    scene ``SceneGenConfig(seed=frame_seed(0, 0))``, 1324 triangles, they
    hold 1.81 / 2.61 / 4.23 MB at 64^3 / 128^3 / 256^3 froxel grids.
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
    live = np.nonzero((np.abs(den) > _DEGEN_EPS) & (w * h > 0))[0]
    if len(live) == 0:
        return

    # b_k * den = alpha_k * dx + beta_k * dy + gamma_k for k = 0, 1, 2
    alpha = np.column_stack([e1[:, 1] - e2[:, 1], e2[:, 1], -e1[:, 1]])
    beta = np.column_stack([e2[:, 0] - e1[:, 0], -e2[:, 0], e1[:, 0]])
    gamma = np.column_stack([den, np.zeros_like(den), np.zeros_like(den)])
    # bound on the inside test's rounding of b_k * den over the box, where
    # |dx| <= mx and |dy| <= my
    mx = np.maximum(np.abs(x0 + 0.5 - v0[:, 0]), np.abs(x1 - 0.5 - v0[:, 0]))
    my = np.maximum(np.abs(y0 + 0.5 - v0[:, 1]), np.abs(y1 - 0.5 - v0[:, 1]))
    slack = _SPAN_ULPS * np.finfo(np.float64).eps * (
        mx * (np.abs(e1[:, 1]) + np.abs(e2[:, 1]))
        + my * (np.abs(e1[:, 0]) + np.abs(e2[:, 0])) + np.abs(den))
    # that rounding moves a span bound by under half a pixel where the
    # x-coefficient exceeds twice it; an edge nearer horizontal bounds nothing
    bounded = np.abs(alpha) > 2.0 * slack[:, None]
    lower = bounded & (alpha * np.sign(den)[:, None] > 0)
    upper = bounded & ~lower
    alpha = np.where(bounded, alpha, 1.0)

    row_y, row_t = _ranges(y0[live], h[live])
    row_t = live[row_t]
    # dx at which each b_k crosses zero on the row
    ry = (row_y + 0.5) - v0[row_t, 1]
    zero = -(beta[row_t] * ry[:, None] + gamma[row_t]) / alpha[row_t]
    lo = np.where(lower[row_t], zero, -np.inf).max(axis=1)
    hi = np.where(upper[row_t], zero, np.inf).min(axis=1)
    # px = dx + sx; one pixel of widening on each side absorbs the rounding
    sx = v0[row_t, 0] - 0.5
    xa = np.clip(np.ceil(lo + sx) - 1, x0[row_t], x1[row_t]).astype(np.int64)
    xb = np.clip(np.floor(hi + sx) + 2, x0[row_t], x1[row_t]).astype(np.int64)
    rows = np.flatnonzero(xb > xa)
    row_t, row_y, ry, xa = row_t[rows], row_y[rows], ry[rows], xa[rows]
    count = xb[rows] - xa
    # per-row factors, gathered per sample below; ry is the sample's dy, so
    # each product equals its per-sample form
    rv0x, rden, re1y, re2y = v0[row_t, 0], den[row_t], e1[row_t, 1], e2[row_t, 1]
    re1xy, re2xy = e1[row_t, 0] * ry, e2[row_t, 0] * ry

    ends = np.cumsum(count)
    start = 0
    while start < len(rows):
        base = ends[start - 1] if start else 0
        stop = int(np.searchsorted(ends, base + max_pairs, side="right"))
        stop = max(stop, start + 1)
        px, r = _ranges(xa[start:stop], count[start:stop])
        r += start
        dx = (px + 0.5) - rv0x[r]
        dd = rden[r]
        b1 = (dx * re2y[r] - re2xy[r]) / dd
        b2 = (re1xy[r] - dx * re1y[r]) / dd
        inside = np.flatnonzero((1.0 - b1 - b2 >= 0) & (b1 >= 0) & (b2 >= 0))
        if len(inside):
            r = r[inside]
            yield row_t[r], px[inside], row_y[r], b1[inside], b2[inside]
        start = stop


def screen_triangles(scene: TriScene, camera: Camera, width: int, height: int):
    """Project scene triangles to ``camera``'s width x height screen, with
    clipping at the near plane.

    Returns ``(tris2d, invz, src)``: screen positions (T', 3, 2), per-vertex
    reciprocal forward depths for perspective-correct interpolation, and the
    originating scene triangle index per output triangle.
    """
    near, far, half_extent = camera.near, camera.far, camera.half_extent
    cam = (scene.vertices - camera.origin) @ camera.basis.T
    tris = scene.triangles
    z = cam[:, 2][tris]
    candidates = np.nonzero((z.max(axis=1) > near) & (z.min(axis=1) < far))[0]
    clean = candidates[z[candidates].min(axis=1) >= near]
    crossing = candidates[z[candidates].min(axis=1) < near]
    clipped, owner = clip_triangles_halfspace(cam[tris[crossing]], z[crossing] - near)
    cam3 = np.concatenate([cam[tris[clean]], clipped])
    src = np.concatenate([clean, crossing[owner]])
    zc = cam3[:, :, 2]
    u = (0.5 + 0.5 * cam3[:, :, 0] / (zc * half_extent)) * width
    v = (0.5 + 0.5 * cam3[:, :, 1] / (zc * half_extent)) * height
    return np.stack([u, v], axis=2), 1.0 / zc, src


def _fragment_stream(scene: TriScene, frustum: Camera, dims):
    """Rasterize the scene through the viewcell frustum at ``SUPERSAMPLE``
    times the froxel resolution in x and y; yields chunks ``(flat froxel
    indices, source triangle)``, where flat = x + N_x * (y + N_y * z).

    x and y are the sample's pixel divided by ``SUPERSAMPLE``, which equals
    :func:`quantize` of its center: ``(px + 0.5) / sx * nx`` lies at least
    1/8 from an integer. z is ``floor(w * N_z)``, clamped at w = 1.
    """
    nx, ny, nz = dims = grid_dims(dims)
    sx, sy = SUPERSAMPLE * nx, SUPERSAMPLE * ny
    tris2d, invz, src = screen_triangles(scene, frustum, sx, sy)
    wv = depth_to_w(frustum, 1.0 / invz)
    for tri, px, py, b1, b2 in iter_raster_chunks(tris2d, sx, sy):
        inv = interp_affine(invz, tri, b1, b2)
        # perspective-corrected weights keep depth exact on constant-z faces
        w = interp_affine(wv, tri, b1 * invz[tri, 1] / inv, b2 * invz[tri, 2] / inv)
        keep = np.flatnonzero((w >= 0) & (w <= 1))
        if len(keep) == 0:
            continue
        z = np.minimum((w[keep] * nz).astype(np.int64), nz - 1)
        yield (px[keep] // SUPERSAMPLE + nx * (py[keep] // SUPERSAMPLE + ny * z),
               src[tri[keep]])


def froxelize(scene: TriScene, frustum: Camera, dims) -> FroxelGrid:
    """Rasterize a triangle scene into a binary geometry grid.

    A froxel is set when a raster sample lands in it; samples sit at pixel
    centers of a ``SUPERSAMPLE``-times finer image of the frustum, and each
    sample's depth ``w`` comes from :func:`~froxelpvs.core.depth_to_w`.
    """
    nx, ny, nz = dims = grid_dims(dims)
    occupied = np.zeros(nx * ny * nz, dtype=bool)
    for flat, _src in _fragment_stream(scene, frustum, dims):
        occupied[flat] = True
    return FroxelGrid.from_flat(dims, occupied, role="geometry")


class FroxelIdMap(Mapping):
    """Read-only map from froxel ``(x, y, z)`` to the set of primitive ids
    touching it, held as compressed sparse rows.

    ``cells`` holds the sorted flat indices x + N_x * (y + N_y * z) of the
    covered froxels, and ``ids[starts[i]:starts[i + 1]]`` the sorted
    primitive ids of ``cells[i]``. Keys iterate as tuples of ints in flat
    order, that is by (z, y, x); a lookup builds its set on demand.
    """

    def __init__(self, dims, cells: np.ndarray, starts: np.ndarray, ids: np.ndarray):
        self.dims = tuple(int(d) for d in dims)
        self.cells, self.starts, self.ids = cells, starts, ids
        for arr in (cells, starts, ids):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        nx, ny, _ = self.dims
        c = self.cells
        return zip((c % nx).tolist(), (c // nx % ny).tolist(), (c // (nx * ny)).tolist())

    def __getitem__(self, key) -> set:
        try:
            x, y, z = map(operator.index, key)
        except (TypeError, ValueError):
            raise KeyError(key) from None
        nx, ny, nz = self.dims
        if not (0 <= x < nx and 0 <= y < ny and 0 <= z < nz):
            raise KeyError(key)
        flat = x + nx * (y + ny * z)
        i = int(np.searchsorted(self.cells, flat))
        if i == len(self.cells) or self.cells[i] != flat:
            raise KeyError(key)
        return set(self.ids[self.starts[i]:self.starts[i + 1]].tolist())

    def values(self) -> list:
        """The id sets in key order, built in one pass."""
        ids, bounds = self.ids.tolist(), self.starts.tolist()
        return [set(ids[s:e]) for s, e in zip(bounds, bounds[1:])]


def froxel_id_map(scene: TriScene, frustum: Camera, dims) -> FroxelIdMap:
    """Map each covered froxel to the primitive ids touching it.

    Shares the fragment traversal with :func:`froxelize`, so the key set
    matches the froxelized occupancy bit-exactly. Each (froxel, primitive)
    fragment becomes one scalar key ``flat * span + (pid - min_pid)``; one
    sort, keeping each key that differs from its predecessor, deduplicates
    them and orders them by froxel into the rows of a :class:`FroxelIdMap`,
    which builds no Python set until one is read.
    """
    dims = nx, ny, nz = grid_dims(dims)
    pids = scene.primitive_ids
    lo = int(pids.min()) if len(pids) else 0
    span = int(pids.max()) - lo + 1 if len(pids) else 1
    if nx * ny * nz * span > np.iinfo(np.int64).max:
        raise ValueError("primitive id range too wide for the froxel id map keys")
    keys = [np.zeros(0, dtype=np.int64)]
    for flat, src in _fragment_stream(scene, frustum, dims):
        key = flat * span + (pids[src] - lo)
        # raster order puts a triangle's samples in one froxel next to each other
        keys.append(key[np.flatnonzero(np.diff(key, prepend=-1))])
    keys = np.sort(np.concatenate(keys))
    flat, pid = np.divmod(keys[np.flatnonzero(np.diff(keys, prepend=-1))], span)
    first = np.flatnonzero(np.diff(flat, prepend=-1))
    return FroxelIdMap(dims, flat[first], np.append(first, len(flat)), pid + lo)
