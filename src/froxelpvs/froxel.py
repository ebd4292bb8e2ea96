"""Bit-packed frustum-aligned occupancy grids and triangle froxelization.

Bits are packed eight-per-byte along the x axis, least significant bit
first: byte index = (x >> 3) + (N_x/8) * (y + N_y * z), bit index = x & 7.

Rasterization works on flat (triangle, sample) candidate pairs so the hot
path stays inside numpy; the same traversal backs occupancy grids, the
froxel-to-primitive map, and the oracle's depth buffers. The pairs come in
chunks of at most ``_MAX_PAIRS`` = 2^13 candidates, cut between raster
rows, and one pass runs all of its chunks in one :class:`RasterWork`: a
block of ten 8-byte arrays of chunk length, the sample offsets and ten
per-row arrays over batches of ``_MAX_ROWS`` = 4096 rows, 1 MiB in all,
with two compaction index arrays of at most 64 KiB per chunk. That fits a
2 MiB L2 cache at any grid resolution or triangle size (see
:class:`RasterWork`). Only :class:`FroxelGrid` reads or writes
packed bits, and only :func:`grid_dims` checks dims.
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
_MAX_PAIRS = 1 << 13  # candidate samples per raster chunk; see RasterWork
_CHUNK_ROWS = 10      # chunk-length arrays of a RasterWork
_ROW_ARRAYS = 10      # batch-length (per raster row) arrays of a RasterWork
_MAX_ROWS = 1 << 12   # raster rows per batch, unless max_pairs / 2 is larger
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
    def _locate(self, x, y, z):
        """Byte and bit of froxel (x, y, z), on ints or arrays; (f, 0, 0) locates
        flat index f. With N_x a multiple of 8, f sits in byte f >> 3, bit f & 7."""
        flat = x + self.dims[0] * (y + self.dims[1] * z)
        return flat >> 3, flat & 7

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


def _affine_table(attrs: np.ndarray) -> np.ndarray:
    """(3, T) rows a0, a1 - a0 and a2 - a0 of per-vertex attributes (T, 3):
    the per-triangle terms that :func:`_interp_into` gathers per sample."""
    a0 = attrs[:, 0]
    return np.stack([a0, attrs[:, 1] - a0, attrs[:, 2] - a0])


def _interp_into(out, tmp, table, tri, b1, b2):
    """Interpolate attributes over samples of triangles ``tri`` with the
    weights ``b1``, ``b2`` of vertices 1 and 2 from their :func:`_affine_table`
    into ``out``, ``tmp`` as scratch: (a1 - a0) b1 + a0 + (a2 - a0) b2, which
    equals a0 + b1 (a1 - a0) + b2 (a2 - a0) bit for bit and keeps constant
    attributes exact (reference: ``interp_affine`` in ``tests/reference.py``)."""
    table[1].take(tri, out=out, mode="wrap")
    out *= b1
    table[0].take(tri, out=tmp, mode="wrap")
    out += tmp
    table[2].take(tri, out=tmp, mode="wrap")
    tmp *= b2
    out += tmp


class RasterWork:
    """The working set of one rasterizer pass, reused by every chunk.

    One float64 block holds ``_CHUNK_ROWS`` arrays of chunk length,
    :attr:`rows`, the sample offsets 0, 1, 2, ..., and ``_ROW_ARRAYS``
    arrays of batch length. The raster writes each chunk into rows 0-4 and
    leaves rows 5 to the last free, so a chunk's consumer works in those
    with ``out=`` and views of the chunk's length. :attr:`ints` reads the
    rows as int64, and ``masks[i, k]`` is the k-th of the eight bool arrays
    of chunk length in the bytes of row i. :meth:`chunks` cuts chunks of
    at most ``max_pairs`` samples and batches of at most ``row_budget``
    rows: ``_MAX_ROWS``, or ``max_pairs // 2`` if larger, so that a budget
    covering the whole raster keeps it one chunk. The block is sized to
    the first triangle set that needs it, capped at those budgets, and
    grows (batches at least twofold) only when a later set needs more; per
    chunk the pass allocates only the index array of each compaction.

    At the default budgets the block is at most (10 + 1) * 64 KiB +
    10 * 32 KiB = 1 MiB, whatever the resolution and the triangles.
    """

    def __init__(self, max_pairs: int):
        self.max_pairs = max_pairs
        self.row_budget = max(_MAX_ROWS, max_pairs // 2)
        self.rows = self.ints = np.empty((_CHUNK_ROWS, 0))
        self.masks = np.empty((_CHUNK_ROWS, 8, 0), dtype=np.bool_)
        self._iota = np.empty(0, dtype=np.int64)
        self._per_row = np.empty((_ROW_ARRAYS, 0))

    def reserve(self, n: int, nrows: int):
        """Grow the block to hold chunks of ``n`` samples and batches of
        ``nrows`` raster rows."""
        m, b = self.rows.shape[1], self._per_row.shape[1]
        if n <= m and nrows <= b:
            return
        # batches grow at least twofold, so a pass over many views regrows rarely
        m, b = max(n, m), b if nrows <= b else max(nrows, min(2 * b, self.row_budget))
        # free the old block first
        self.rows = self.ints = self.masks = self._iota = self._per_row = None
        block = np.empty((_CHUNK_ROWS + 1) * m + _ROW_ARRAYS * b)
        self.rows = block[:_CHUNK_ROWS * m].reshape(_CHUNK_ROWS, m)
        self.ints = self.rows.view(np.int64)
        self.masks = self.rows.view(np.bool_).reshape(_CHUNK_ROWS, 8, m)
        self._iota = block[_CHUNK_ROWS * m:(_CHUNK_ROWS + 1) * m].view(np.int64)
        self._iota[:] = np.arange(m)
        self._per_row = block[(_CHUNK_ROWS + 1) * m:].reshape(_ROW_ARRAYS, b)

    def chunks(self, tris2d: np.ndarray, width: int, height: int):
        """Rasterize 2D triangles at integer+0.5 sample positions.

        ``tris2d`` is (T, 3, 2) screen positions in a ``width`` x ``height``
        raster. Yields chunks ``(tri_index, px, py, b1, b2)`` of interior
        samples, where tri_index addresses ``tris2d`` rows and b1/b2 are the
        barycentric weights of vertices 1 and 2. Coverage uses inclusive
        (>= 0) edge tests.

        Candidates are generated per bounding-box row, from the x-span that
        the three barycentric half-planes leave at the row's sample y
        (Pineda, SIGGRAPH 1988), widened by one pixel on each side; the
        inside test then runs on them unchanged, so the output equals
        testing every pixel of the box. Samples come out triangle by
        triangle, row by row, left to right.

        The rows of all triangles, in that order, are cut into batches of at
        most :attr:`row_budget` rows, whose spans are found in one pass;
        each batch's rows are then cut into chunks of at most
        :attr:`max_pairs` candidate samples, so a large triangle is split
        between rows, and a row longer than the budget is a chunk of its
        own. The chunks are views into rows 0-4 of this working set, valid
        until the next chunk is drawn; copy a chunk to keep it.
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

        # contiguous per-live-triangle tables, gathered per row below
        tables = {"live": live, "den": den[live], "x0": x0[live].astype(np.float64),
                  "x1": x1[live].astype(np.float64)}
        for name, arr in (("v0", v0), ("e1", e1), ("e2", e2)):
            tables[name + "x"], tables[name + "y"] = arr[live].T.copy()
        for name, arr in (("alpha", alpha), ("beta", beta), ("gamma", gamma),
                          ("lower", lower), ("upper", upper)):
            tables[name] = arr[live].T.copy()
        # the rows of every live triangle, concatenated: triangle k holds
        # rows [ends[k] - h[k], ends[k]), whose raster y starts at y0[k]
        hl = h[live]
        tables["ends"] = ends = np.cumsum(hl)
        tables["y0"] = y0[live] - (ends - hl)
        total = int(ends[-1])
        budget = self.row_budget
        nrows = min(total, budget)
        # the chunk rows also serve as the batch set-up's scratch
        self.reserve(max(nrows, min(int((w[live] * hl).sum()), max(self.max_pairs, width))),
                     nrows)
        for r0 in range(0, total, budget):
            yield from self._batch_chunks(self._batch_rows(tables, r0, min(r0 + budget, total)))

    def _batch_rows(self, tables: dict, r0: int, r1: int) -> int:
        """Per-row set-up of the concatenated rows [r0, r1) into the per-row
        arrays; returns how many rows have candidates."""
        nb = r1 - r0
        rows, ints, masks, per = self.rows, self.ints, self.masks, self._per_row
        per_ints = per.view(np.int64)
        # live triangle of each row: a 1 where a triangle's rows begin, summed
        kk = ints[0, :nb]
        kk.fill(0)
        ends = tables["ends"]
        j0 = int(np.searchsorted(ends, r0, side="right"))
        kk[ends[j0:np.searchsorted(ends, r1, side="left")] - r0] = 1
        np.cumsum(kk, out=kk)
        kk += j0

        def gather(name, idx, out):
            return tables[name].take(idx, out=out, mode="wrap")

        row_y = gather("y0", kk, ints[1, :nb])
        row_y += self._iota[:nb]
        row_y += r0
        # dx at which each b_k crosses zero on the row, for k = 0, 1, 2
        ry = rows[2, :nb]
        np.copyto(ry, row_y)
        ry += 0.5
        ry -= gather("v0y", kk, rows[3, :nb])
        z, tmp = (rows[i:i + 3].reshape(-1)[:3 * nb].reshape(3, nb) for i in (3, 6))
        side = rows[9].view(np.bool_)[:3 * nb].reshape(3, nb)

        def gather3(name, out):
            return tables[name].take(kk, axis=1, out=out, mode="wrap")

        gather3("beta", z)
        z *= ry
        z += gather3("gamma", tmp)
        np.negative(z, out=z)
        z /= gather3("alpha", tmp)
        lo = np.max(z, axis=0, where=gather3("lower", side), initial=-np.inf, out=rows[6, :nb])
        hi = np.min(z, axis=0, where=gather3("upper", side), initial=np.inf, out=rows[7, :nb])
        # px = dx + sx; one pixel of widening on each side absorbs the rounding
        sx, bx0, bx1 = (gather(name, kk, rows[i, :nb]) for i, name in
                        ((3, "v0x"), (4, "x0"), (5, "x1")))
        sx -= 0.5
        xa, xb = ints[8, :nb], ints[9, :nb]
        lo += sx
        np.ceil(lo, out=lo)
        lo -= 1
        np.copyto(xa, np.clip(lo, bx0, bx1, out=lo), casting="unsafe")
        hi += sx
        np.floor(hi, out=hi)
        hi += 2
        np.copyto(xb, np.clip(hi, bx0, bx1, out=hi), casting="unsafe")
        keep = np.flatnonzero(np.greater(xb, xa, out=masks[6, 0, :nb]))
        n = len(keep)
        # the kept rows' arrays: triangle, y, xa minus the row's first sample
        # index, end sample index, then the factors gathered per sample
        row_t, kept_y, first, row_end = (per_ints[i, :n] for i in range(4))
        kept = kk.take(keep, out=ints[3, :n], mode="wrap")
        gather("live", kept, row_t)
        row_y.take(keep, out=kept_y, mode="wrap")
        count, start = ints[4, :n], ints[5, :n]
        xb.take(keep, out=count, mode="wrap")
        xa.take(keep, out=start, mode="wrap")
        count -= start
        np.cumsum(count, out=row_end)
        np.subtract(row_end, count, out=first)
        np.subtract(start, first, out=first)
        for i, name in ((4, "v0x"), (5, "den"), (6, "e1y"), (7, "e2y"), (8, "e1x"), (9, "e2x")):
            gather(name, kept, per[i, :n])
        # ry is the sample's dy, so each product equals its per-sample form
        ry = ry.take(keep, out=rows[7, :n], mode="wrap")
        per[8, :n] *= ry
        per[9, :n] *= ry
        return n

    def _batch_chunks(self, nrows: int):
        """Cut a batch's rows into chunks and test their samples."""
        rows, ints, masks, per = self.rows, self.ints, self.masks, self._per_row
        row_t, row_y, first, row_end = per.view(np.int64)[:4, :nrows]
        rv0x, rden, re1y, re2y, re1xy, re2xy = per[4:, :nrows]
        start = base = 0
        while start < nrows:
            stop = int(np.searchsorted(row_end, base + self.max_pairs, side="right"))
            stop = max(stop, start + 1)
            end = int(row_end[stop - 1])
            n = end - base
            # row of each sample: a 1 where a row begins, summed
            r = ints[5, :n]
            r.fill(0)
            bounds = ints[6, :stop - start - 1]
            np.subtract(row_end[start:stop - 1], base, out=bounds)
            r[bounds] = 1
            np.cumsum(r, out=r)
            r += start
            px = first.take(r, out=ints[6, :n], mode="wrap")
            px += self._iota[:n]
            px += base
            dx, g, b1, b2, t = rows[:5, :n]
            np.copyto(dx, px)
            dx += 0.5
            dx -= rv0x.take(r, out=g, mode="wrap")
            re2y.take(r, out=b1, mode="wrap")
            b1 *= dx
            b1 -= re2xy.take(r, out=g, mode="wrap")
            b1 /= rden.take(r, out=g, mode="wrap")
            re1y.take(r, out=b2, mode="wrap")
            b2 *= dx
            np.subtract(re1xy.take(r, out=t, mode="wrap"), b2, out=b2)
            b2 /= g
            # all of 1 - b1 - b2, b1 and b2 are >= 0 (a NaN fails either way)
            np.subtract(1.0, b1, out=t)
            t -= b2
            np.minimum(t, b1, out=t)
            np.minimum(t, b2, out=t)
            inside = np.flatnonzero(np.greater_equal(t, 0, out=masks[7, 0, :n]))
            k = len(inside)
            if k:
                # compact into rows 0-4 in an order that reads each source first
                out_px = px.take(inside, out=ints[1, :k], mode="wrap")
                out_b2 = b2.take(inside, out=rows[4, :k], mode="wrap")
                out_b1 = b1.take(inside, out=rows[3, :k], mode="wrap")
                rr = r.take(inside, out=ints[7, :k], mode="wrap")
                yield (row_t.take(rr, out=ints[0, :k], mode="wrap"), out_px,
                       row_y.take(rr, out=ints[2, :k], mode="wrap"), out_b1, out_b2)
            start, base = stop, end


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


def _fragments(scene: TriScene, frustum: Camera, dims, work: RasterWork):
    """Rasterize the scene through the viewcell frustum at ``SUPERSAMPLE``
    times the froxel resolution in x and y; yields chunks ``(flat, src,
    tri, keep)``: the kept samples' froxel indices flat = x + N_x * (y +
    N_y * z), and their scene triangles ``src[tri[keep]]`` for a consumer
    that gathers them (``src`` is the same in every chunk).

    x and y are the sample's pixel divided by ``SUPERSAMPLE``, which equals
    floor(u * N_x) of its center u = (px + 0.5) / sx, because u * N_x lies
    at least 1/8 from an integer. z is ``floor(w * N_z)``, clamped at w = 1
    (reference for all three: ``quantize`` in ``tests/reference.py``).

    ``flat`` and ``tri`` are views into ``work``'s integer rows 5 and 0,
    valid until the next chunk; rows 1-4, 6 and 7 are free for the
    consumer.
    """
    nx, ny, nz = dims = grid_dims(dims)
    sx, sy = SUPERSAMPLE * nx, SUPERSAMPLE * ny
    tris2d, invz, src = screen_triangles(scene, frustum, sx, sy)
    inv_table, w_table = _affine_table(invz), _affine_table(depth_to_w(frustum, 1.0 / invz))
    invz_by_vertex = invz.T.copy()
    for tri, px, py, b1, b2 in work.chunks(tris2d, sx, sy):
        k = len(tri)
        rows, ints, masks = work.rows, work.ints, work.masks
        inv, tmp = rows[5, :k], rows[6, :k]
        _interp_into(inv, tmp, inv_table, tri, b1, b2)
        # perspective-corrected weights keep depth exact on constant-z faces
        for b, vertex in ((b1, 1), (b2, 2)):
            b *= invz_by_vertex[vertex].take(tri, out=tmp, mode="wrap")
            b /= inv
        w = inv
        _interp_into(w, tmp, w_table, tri, b1, b2)
        keep = masks[7, 0, :k]
        np.greater_equal(w, 0, out=keep)
        keep &= np.less_equal(w, 1, out=masks[7, 1, :k])
        keep = np.flatnonzero(keep)
        j = len(keep)
        if j == 0:
            continue
        z = ints[3, :j]
        zf = w.take(keep, out=tmp[:j], mode="wrap")
        zf *= nz
        np.copyto(z, zf, casting="unsafe")
        np.minimum(z, nz - 1, out=z)
        y = py.take(keep, out=ints[4, :j], mode="wrap")
        y //= SUPERSAMPLE
        z *= ny
        y += z
        y *= nx
        flat = px.take(keep, out=ints[5, :j], mode="wrap")
        flat //= SUPERSAMPLE
        flat += y
        yield flat, src, tri, keep


def froxelize(scene: TriScene, frustum: Camera, dims) -> FroxelGrid:
    """Rasterize a triangle scene into a binary geometry grid.

    A froxel is set when a raster sample lands in it; samples sit at pixel
    centers of a ``SUPERSAMPLE``-times finer image of the frustum, and each
    sample's depth ``w`` comes from :func:`~froxelpvs.core.depth_to_w`.
    """
    nx, ny, nz = dims = grid_dims(dims)
    occupied = np.zeros(nx * ny * nz, dtype=bool)
    for flat, *_ in _fragments(scene, frustum, dims, RasterWork(_MAX_PAIRS)):
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
    work = RasterWork(_MAX_PAIRS)
    pid_of = None       # primitive id less lo, per pass triangle
    for flat, src, tri, keep in _fragments(scene, frustum, dims, work):
        if pid_of is None:
            pid_of = pids.take(src) - lo
        k = len(flat)
        key = flat
        key *= span
        key += pid_of.take(tri.take(keep, out=work.ints[6, :k], mode="wrap"),
                           out=work.ints[3, :k], mode="wrap")
        # raster order puts a triangle's samples in one froxel next to each other
        first = work.masks[7, 0, :k]
        first[0] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        keys.append(key[np.flatnonzero(first)])
    keys = np.sort(np.concatenate(keys))
    flat, pid = np.divmod(keys[np.flatnonzero(np.diff(keys, prepend=-1))], span)
    first = np.flatnonzero(np.diff(flat, prepend=-1))
    return FroxelIdMap(dims, flat[first], np.append(first, len(flat)), pid + lo)
