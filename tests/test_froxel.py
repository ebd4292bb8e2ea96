"""Bit-packed grids, quantization, froxelization, and the id map."""

import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from froxelpvs.core import Camera, TriScene, Vec3, build_viewcell_frustum, depth_to_w
import froxelpvs
from froxelpvs.froxel import (_DEGEN_EPS, _MAX_PAIRS, SUPERSAMPLE, FroxelGrid, RasterWork,
                              clip_triangles_halfspace, froxel_id_map, froxelize, grid_dims,
                              screen_triangles)
from froxelpvs.scenegen import SceneGenConfig, frame_seed, generate_scene

from conftest import PERSPECTIVE, default_cell, peak_mb, quad_at, raster_work_bytes
from reference import fragment_sources, froxel_bit, interp_affine, quantize, set_froxel, \
    unproject_ndc


class TestQuantize:
    def test_half_grid(self):
        assert tuple(quantize((0.5, 0.5, 0.5), (16, 16, 16))) == (8, 8, 8)

    def test_upper_boundary_clamped(self):
        assert tuple(quantize((1.0, 1.0, 1.0), (16, 16, 16))) == (15, 15, 15)

    def test_near_one(self):
        # floor(0.999 * 16) = 15
        assert tuple(quantize((0.999, 0.0, 0.0), (16, 16, 16))) == (15, 0, 0)

    def test_batch(self, rng):
        uvw = rng.random((1000, 3))
        idx = quantize(uvw, (32, 16, 8))
        ref = np.minimum(np.floor(uvw * np.array([32, 16, 8])).astype(int),
                         np.array([31, 15, 7]))
        assert np.array_equal(idx, ref)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("dims", [(16, 16, 16), (8, 24, 5), (512, 64, 1)])
    def test_per_axis_equals_broadcast_formula(self, dims):
        def broadcast(uvw):
            arr = np.atleast_2d(np.asarray(uvw, dtype=np.float64))
            d = np.asarray(dims, dtype=np.int64)
            return np.clip(np.floor(arr * d).astype(np.int64), 0, d - 1)

        edges = np.concatenate([np.arange(n + 1) / n for n in dims])
        vals = np.concatenate([[0.0, -0.0, 1.0, np.nextafter(1.0, 0.0), 1.5, -0.25],
                               edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2.0)])
        uvw = np.column_stack([vals, vals[::-1], np.roll(vals, 7)])
        got = quantize(uvw, dims)
        assert got.dtype == np.int64 and np.array_equal(got, broadcast(uvw))
        for row in uvw[::5]:
            one = quantize(tuple(row.tolist()), dims)
            assert one.shape == (3,) and np.array_equal(one, broadcast(row)[0])


class TestFroxelGrid:
    def test_bit_packing_layout(self):
        grid = FroxelGrid((16, 4, 4))
        grid.set_many([[0, 0, 0], [3, 0, 0]])
        assert grid.bits[0] == 0b00001001

    def test_set_get(self):
        grid = FroxelGrid((16, 4, 4))
        grid.set_many([[11, 2, 3]])
        assert froxel_bit(grid, 11, 2, 3) == 1
        assert froxel_bit(grid, 11, 2, 2) == 0
        assert grid.at([11 + 16 * (2 + 4 * 3), 11 + 16 * (2 + 4 * 2)]).tolist() == [True, False]

    def test_set_idempotent(self):
        grid = FroxelGrid((16, 4, 4))
        grid.set_many([[5, 1, 2]])
        snapshot = grid.bits.copy()
        grid.set_many([[5, 1, 2]])
        assert np.array_equal(grid.bits, snapshot)

    def test_out_of_range_rejected(self):
        grid = FroxelGrid((16, 4, 4))
        for coord in ([16, 0, 0], [0, -1, 0], [0, 0, 4]):
            with pytest.raises(IndexError):
                grid.set_many(np.array([coord]))

    def test_dims_must_be_multiple_of_eight(self):
        with pytest.raises(ValueError):
            FroxelGrid((12, 4, 4))

    def test_round_trip_random_subset(self, rng):
        dims = (32, 8, 8)
        dense = rng.random(dims) < 0.2
        grid = FroxelGrid.from_dense(dense)
        assert np.array_equal(grid.to_dense(), dense)
        assert grid.occupied_count() == int(dense.sum())
        xs, ys, zs = np.nonzero(dense)
        for i in range(0, len(xs), max(1, len(xs) // 50)):
            assert froxel_bit(grid, xs[i], ys[i], zs[i]) == 1

    def test_set_many_matches_loop(self, rng):
        dims = (24, 6, 5)
        coords = np.column_stack([rng.integers(0, dims[0], 300),
                                  rng.integers(0, dims[1], 300),
                                  rng.integers(0, dims[2], 300)])
        a = FroxelGrid(dims)
        a.set_many(coords)
        b = FroxelGrid(dims)
        for x, y, z in coords:
            set_froxel(b, x, y, z)
        assert a == b

    @pytest.mark.parametrize("dims", [(16, 3, 5), (8, 1, 1), (24, 6, 2)])
    def test_from_flat_and_at_match_dense(self, dims, rng):
        """Flat index x + N_x * (y + N_y * z) is the dense grid's (z, y, x)
        C-order index, on non-cubic dims too."""
        dense = rng.random(dims) < 0.4
        flat = dense.transpose(2, 1, 0).reshape(-1)
        grid = FroxelGrid.from_flat(dims, flat, role="gt_pvs")
        assert grid == FroxelGrid.from_dense(dense, role="gt_pvs")
        assert np.array_equal(grid.to_dense(), dense)
        cells = rng.permutation(flat.size)
        assert np.array_equal(grid.at(cells), flat[cells])
        x, y, z = np.unravel_index(cells, dims, order="F")
        assert [froxel_bit(grid, *c) for c in zip(x, y, z)] == flat[cells].astype(int).tolist()

    def test_from_flat_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            FroxelGrid.from_flat((16, 3, 5), np.zeros(16 * 3 * 5 - 1, dtype=bool), "gt_pvs")

    def test_subset_and_or(self, rng):
        dims = (16, 4, 4)
        dense = rng.random(dims) < 0.3
        full = FroxelGrid.from_dense(dense)
        part = FroxelGrid.from_dense(dense & (rng.random(dims) < 0.5))
        assert part.subset_of(full)
        assert not full.subset_of(part) or part == full
        assert (part | full) == FroxelGrid.from_dense(dense)

    def test_file_round_trip(self, tmp_path, rng):
        dense = rng.random((32, 16, 8)) < 0.1
        grid = FroxelGrid.from_dense(dense, role="gt_pvs")
        path = tmp_path / "grid.fpvs"
        grid.save(path)
        raw = path.read_bytes()
        assert raw[:4] == b"FPVS"
        again = FroxelGrid.load(path)
        assert again == grid
        # bit-exact file round trip
        again.save(tmp_path / "copy.fpvs")
        assert (tmp_path / "copy.fpvs").read_bytes() == raw

    def test_loads_supersample_byte(self, tmp_path, rng):
        """Byte 21 is written as 0; files that hold 4 there, as older files
        do, load to the same grid and re-save with 0."""
        grid = FroxelGrid.from_dense(rng.random((16, 8, 8)) < 0.2, role="gt_pvs")
        path = tmp_path / "grid.fpvs"
        grid.save(path)
        raw = bytearray(path.read_bytes())
        assert raw[21] == 0
        raw[21] = 4
        path.write_bytes(bytes(raw))
        again = FroxelGrid.load(path)
        assert again == grid
        again.save(tmp_path / "copy.fpvs")
        resaved = (tmp_path / "copy.fpvs").read_bytes()
        assert resaved[21] == 0
        assert resaved[:21] + resaved[22:] == bytes(raw[:21] + raw[22:])

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.fpvs"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(ValueError):
            FroxelGrid.load(path)

    @pytest.mark.parametrize("corrupt", ["short", "role", "payload_short", "payload_long"])
    def test_load_rejects_corrupt_file(self, tmp_path, corrupt):
        path = tmp_path / "grid.fpvs"
        FroxelGrid((16, 8, 8)).save(path)
        raw = bytearray(path.read_bytes())
        if corrupt == "short":
            raw = raw[:20]
        elif corrupt == "role":
            raw[20] = 3
        elif corrupt == "payload_short":
            raw = raw[:-1]
        else:
            raw += b"\0"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            FroxelGrid.load(path)

    @pytest.mark.parametrize("corrupt", ["short", "role"])
    def test_cli_maps_corrupt_grid_to_validation_exit(self, tmp_path, capsys, corrupt):
        from froxelpvs.cli import EXIT_VALIDATION, main
        from froxelpvs.neural import ModelConfig, PvsNet
        geometry = tmp_path / "geo.fpvs"
        FroxelGrid((16, 16, 16)).save(geometry)
        raw = bytearray(geometry.read_bytes())
        if corrupt == "short":
            raw = raw[:10]
        else:
            raw[20] = 7
        geometry.write_bytes(bytes(raw))
        checkpoint = tmp_path / "net.fpvw"
        PvsNet(ModelConfig.default(4, hidden=8)).save(checkpoint)
        rc = main(["infer", "--geometry", str(geometry), "--checkpoint", str(checkpoint),
                   "--out", str(tmp_path / "pred.fpvs")])
        assert rc == EXIT_VALIDATION
        assert "Traceback" not in capsys.readouterr().err


def _exact_frustum():
    """Frustum whose depth arithmetic is exact in binary floating point."""
    return Camera(Vec3(0, 0, 0), Vec3(0, 0, 1), Vec3(0, 1, 0), Vec3(1, 0, 0),
                  90.0, 2.0, 18.0)


def _full_span_quad_scene(frustum, w: float):
    """Quad at fractional depth w covering the whole frustum cross-section."""
    z = frustum.near + w * (frustum.far - frustum.near)
    half = 1.2 * z * frustum.half_extent
    verts, tris = quad_at(z, half, half)
    world = frustum.origin + verts @ frustum.basis
    return TriScene(world, tris)


class TestFroxelize:
    def test_empty_scene(self):
        cell = default_cell()
        frustum = build_viewcell_frustum(cell)
        scene = TriScene(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
        assert froxelize(scene, frustum, (16, 16, 16)).occupied_count() == 0

    def test_rejects_bad_dims(self):
        cell = default_cell()
        frustum = build_viewcell_frustum(cell)
        scene = TriScene(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
        with pytest.raises(ValueError):
            froxelize(scene, frustum, (15, 16, 16))

    @pytest.mark.parametrize("dims", [(8, 0, 8), (8, 8, 0), (8, -8, 8), (12, 8, 8)])
    def test_every_dims_reader_rejects_the_same_dims(self, dims):
        """``grid_dims`` is the one rule: the grid, ``froxelize`` and the id
        map reject the same dims, with a scene in view."""
        frustum = build_viewcell_frustum(default_cell())
        scene = TriScene(*quad_at(5.0, 1.0, 1.0, cy=1.5))
        for read in (grid_dims, FroxelGrid, lambda d: froxelize(scene, frustum, d),
                     lambda d: froxel_id_map(scene, frustum, d)):
            with pytest.raises(ValueError):
                read(dims)

    @PERSPECTIVE
    def test_full_span_quad_single_layer(self, projection):
        """A full-cross-section quad at w=0.5, the lower boundary of layer
        iz=8 of 16 (exact there), fills exactly that layer."""
        frustum = _exact_frustum()
        scene = _full_span_quad_scene(frustum, 0.5)
        grid = froxelize(scene, frustum, (16, 16, 16))
        dense = grid.to_dense()
        assert dense[:, :, 8].all()
        dense[:, :, 8] = False
        assert not dense.any()

    def test_full_span_quad_brute_force_oracle(self):
        """Froxel centers on the quad plane verify layer membership."""
        frustum = _exact_frustum()
        scene = _full_span_quad_scene(frustum, 0.5)
        tv = scene.vertices[scene.triangles]
        centers = []
        for ix in range(16):
            for iy in range(16):
                centers.append(((ix + 0.5) / 16, (iy + 0.5) / 16, 0.5))
        pts = unproject_ndc(frustum, np.array(centers))
        # brute-force point-in-triangle on the quad plane
        z_plane = tv[0][0][2] if abs(tv[0][0][2] - tv[0][1][2]) < 1e-9 else None
        for p in pts:
            inside_any = False
            for tri in tv:
                v0, v1, v2 = tri
                n = np.cross(v1 - v0, v2 - v0)
                if abs((p - v0) @ n) > 1e-6 * np.linalg.norm(n):
                    continue
                area = np.linalg.norm(n)
                b0 = np.linalg.norm(np.cross(v1 - p, v2 - p)) / area
                b1 = np.linalg.norm(np.cross(v2 - p, v0 - p)) / area
                b2 = np.linalg.norm(np.cross(v0 - p, v1 - p)) / area
                if abs(b0 + b1 + b2 - 1.0) < 1e-9:
                    inside_any = True
            assert inside_any

    def test_outside_triangles_contribute_nothing(self):
        cell = default_cell()
        frustum = build_viewcell_frustum(cell)
        verts, tris = quad_at(-5.0, 3.0, 3.0)   # behind the origin
        grid = froxelize(TriScene(verts, tris), frustum, (16, 16, 16))
        assert grid.occupied_count() == 0


def _quantized_stream_reference(scene, frustum, dims):
    """The fragment stream with each sample's (u, v, w) run through
    :func:`quantize`, and depth interpolated per sample from (N, 3) gathers."""
    nx, ny, nz = dims
    sx, sy = SUPERSAMPLE * nx, SUPERSAMPLE * ny
    tris2d, invz, src = screen_triangles(scene, frustum, sx, sy)
    wv = depth_to_w(frustum, 1.0 / invz)
    for tri, px, py, b1, b2 in RasterWork(_MAX_PAIRS).chunks(tris2d, sx, sy):
        a = invz[tri]
        inv = a[:, 0] + b1 * (a[:, 1] - a[:, 0]) + b2 * (a[:, 2] - a[:, 0])
        c1, c2 = b1 * a[:, 1] / inv, b2 * a[:, 2] / inv
        d = wv[tri]
        w = d[:, 0] + c1 * (d[:, 1] - d[:, 0]) + c2 * (d[:, 2] - d[:, 0])
        keep = (w >= 0) & (w <= 1)
        idx = quantize(np.column_stack([(px[keep] + 0.5) / sx, (py[keep] + 0.5) / sy,
                                        w[keep]]), dims)
        yield idx[:, 0] + nx * (idx[:, 1] + ny * idx[:, 2]), src[tri[keep]]


def test_interp_affine_equals_per_sample_form(rng):
    attrs = rng.normal(0.0, 10.0, (50, 3))
    attrs[:5] = 0.7         # constant attributes interpolate exactly
    tri = rng.integers(0, 50, 5000)
    b1, b2 = rng.random((2, 5000))
    a = attrs[tri]
    ref = a[:, 0] + b1 * (a[:, 1] - a[:, 0]) + b2 * (a[:, 2] - a[:, 0])
    got = interp_affine(attrs, tri, b1, b2)
    assert got.tobytes() == ref.tobytes()
    assert np.all(got[tri < 5] == 0.7)


class TestFragmentStream:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_flat_indices_equal_quantized_samples(self, seed):
        scene, cell = generate_scene(SceneGenConfig(seed=seed))
        frustum = build_viewcell_frustum(cell)
        for dims in ((32, 16, 24), (64, 64, 64)):
            got = [np.concatenate(p) for p in zip(*fragment_sources(scene, frustum, dims))]
            ref = [np.concatenate(p) for p in
                   zip(*_quantized_stream_reference(scene, frustum, dims))]
            assert len(got[0]) > 0
            for a, b in zip(got, ref):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_pixel_column_equals_quantized_centre(self):
        # (px + 0.5) / sx * nx lies at least 1/8 from an integer
        for nx in range(8, 520, 8):
            px = np.arange(SUPERSAMPLE * nx)
            u = (px + 0.5) / (SUPERSAMPLE * nx)
            assert np.array_equal(quantize(np.column_stack([u, u, u]), (nx, 1, 1))[:, 0],
                                  px // SUPERSAMPLE)

    def test_far_plane_sample_sets_last_slab(self):
        """A sample whose interpolated depth is exactly the far plane (w = 1)
        lands in slab N_z - 1, not one slab past the grid."""
        # tan(fov / 2) = 0.25 and far = 64 make the projection exact, and
        # 1 / (1 / 64) round-trips
        frustum = Camera(Vec3(0, 0, 0), Vec3(0, 0, 1), Vec3(0, 1, 0), Vec3(1, 0, 0),
                         2.0 * np.degrees(np.arctan(0.25)), 1.0, 64.0)
        assert frustum.half_extent == 0.25
        # vertex 0 sits on the far plane at the centre of raster pixel (16, 16);
        # the sample there has b1 = b2 = 0, so its depth is vertex 0's
        verts = np.array([[0.5, 0.5, 64.0], [4.0, 0.5, 32.0], [0.5, 4.0, 32.0]])
        scene = TriScene(verts, [[0, 1, 2]])
        tris2d, _, _ = screen_triangles(scene, frustum, SUPERSAMPLE * 8, SUPERSAMPLE * 8)
        assert tris2d[0, 0].tolist() == [16.5, 16.5]
        key = (16 // SUPERSAMPLE, 16 // SUPERSAMPLE, 7)
        assert froxelize(scene, frustum, (8, 8, 8)).to_dense()[key]
        assert key in froxel_id_map(scene, frustum, (8, 8, 8))


class TestIdMap:
    def test_single_triangle_single_froxel(self):
        cell = default_cell()
        frustum = build_viewcell_frustum(cell)
        z = frustum.near + 0.5 * (frustum.far - frustum.near)
        size = 0.4 * z * frustum.half_extent / 16
        verts, tris = quad_at(z, size, size, cy=1.5)
        scene = TriScene(verts, tris[:1], primitive_ids=[42])
        mapping = froxel_id_map(scene, frustum, (16, 16, 16))
        assert mapping
        assert all(ids == {42} for ids in mapping.values())

    def test_coplanar_triangles_share_froxel(self):
        cell = default_cell()
        frustum = build_viewcell_frustum(cell)
        z = frustum.near + 0.5 * (frustum.far - frustum.near)
        size = 0.4 * z * frustum.half_extent / 16
        verts, tris = quad_at(z, size, size, cy=1.5)
        scene = TriScene(verts, tris, primitive_ids=[1, 2])
        mapping = froxel_id_map(scene, frustum, (16, 16, 16))
        assert any(ids == {1, 2} for ids in mapping.values())

    @PERSPECTIVE
    def test_key_set_matches_froxelize(self, projection):
        scene, cell = generate_scene(SceneGenConfig(seed=5, count_range=(3, 6)))
        frustum = build_viewcell_frustum(cell)
        grid = froxelize(scene, frustum, (16, 16, 16))
        mapping = froxel_id_map(scene, frustum, (16, 16, 16))
        from_map = FroxelGrid((16, 16, 16))
        if mapping:
            from_map.set_many(np.array(sorted(mapping)))
        assert from_map == grid

    def test_rows_equal_unique_reference(self):
        """At 64^3 the same (froxel, primitive) key recurs in later chunks;
        the map holds each once, sorted, as one ``np.unique`` over every
        fragment's key gives it."""
        scene, cell = generate_scene(SceneGenConfig(seed=frame_seed(0, 0)))
        frustum = build_viewcell_frustum(cell)
        dims = (64, 64, 64)
        pids = scene.primitive_ids
        lo, span = int(pids.min()), int(pids.max() - pids.min()) + 1
        chunks = [np.unique(flat * span + pids[src] - lo)
                  for flat, src in fragment_sources(scene, frustum, dims)]
        every = np.concatenate(chunks)
        keys = np.unique(every)
        assert len(keys) < len(every)       # keys repeat across chunks
        flat, pid = np.divmod(keys, span)
        cells, first = np.unique(flat, return_index=True)
        mapping = froxel_id_map(scene, frustum, dims)
        assert np.array_equal(mapping.cells, cells)
        assert np.array_equal(mapping.starts, np.append(first, len(flat)))
        assert np.array_equal(mapping.ids, pid + lo)


# ---------------------------------------------------------------------------
# Rasterizer and near-plane clip against plain reference implementations
# ---------------------------------------------------------------------------

def _bbox_raster_reference(tris2d, width, height):
    """Tests every pixel of each triangle's bounding box, with the same
    inside test as :meth:`RasterWork.chunks`, in one chunk; only the
    concatenated output of the rasterizer is compared with it."""
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
    sel = np.nonzero((np.abs(den) > _DEGEN_EPS) & (counts > 0))[0]
    if len(sel) == 0:
        return
    cnt = counts[sel]
    offs = np.concatenate([[0], np.cumsum(cnt)])
    pair_t = np.repeat(np.arange(len(sel)), cnt)
    ridx = np.arange(int(offs[-1])) - offs[pair_t]
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
        yield gsel[inside], px[inside], py[inside], b1[inside], b2[inside]


def _copied(chunks) -> list:
    """Each chunk's arrays copied: a chunk is a view of the rasterizer's
    working set, valid until the next one is drawn."""
    return [tuple(a.copy() for a in chunk) for chunk in chunks]


def _concat(chunks):
    parts = list(zip(*_copied(chunks)))
    if not parts:
        return [np.zeros(0)] * 5
    return [np.concatenate(p) for p in parts]


def _clip_polygon_reference(poly, signed_dist):
    """Per-polygon Sutherland-Hodgman clip, kept side >= 0."""
    out = []
    for i in range(len(poly)):
        j = (i + 1) % len(poly)
        di, dj = signed_dist[i], signed_dist[j]
        if di >= 0:
            out.append(poly[i])
        if (di >= 0) != (dj >= 0):
            t = di / (di - dj)
            out.append(poly[i] + t * (poly[j] - poly[i]))
    return np.asarray(out, dtype=np.float64).reshape(-1, poly.shape[1])


def _screen_triangles_reference(scene, camera, width, height):
    """:func:`screen_triangles` with a Python loop clipping one triangle at a time."""
    near, far, half_extent = camera.near, camera.far, camera.half_extent
    cam = (scene.vertices - camera.origin) @ camera.basis.T
    tris = scene.triangles
    z = cam[:, 2][tris]
    candidates = np.nonzero((z.max(axis=1) > near) & (z.min(axis=1) < far))[0]
    clean = candidates[z[candidates].min(axis=1) >= near]
    crossing = candidates[z[candidates].min(axis=1) < near]
    polys = [cam[tris[clean]]]
    srcs = [clean]
    for t in crossing:
        poly = _clip_polygon_reference(cam[tris[t]], cam[tris[t], 2] - near)
        for k in range(1, len(poly) - 1):
            polys.append(poly[[0, k, k + 1]][None])
            srcs.append(np.array([t]))
    cam3 = np.concatenate(polys)
    zc = cam3[:, :, 2]
    u = (0.5 + 0.5 * cam3[:, :, 0] / (zc * half_extent)) * width
    v = (0.5 + 0.5 * cam3[:, :, 1] / (zc * half_extent)) * height
    return np.stack([u, v], axis=2), 1.0 / zc, np.concatenate(srcs)


def _sorted_rows(*columns):
    rows = np.column_stack([np.asarray(c, dtype=np.float64).reshape(len(c), -1)
                            for c in columns])
    return rows[np.lexsort(rows.T[::-1])]


def _raster_cases():
    rng = np.random.Generator(np.random.PCG64(7))
    cases = {"random": rng.uniform(-4.0, 40.0, (300, 3, 2))}
    # vertices on pixel centres and on pixel edges
    cases["centres"] = rng.integers(0, 36, (200, 3, 2)) + 0.5
    cases["edges"] = rng.integers(0, 36, (200, 3, 2)).astype(np.float64)
    # axis-aligned edges, both windings, and edges a hair off axis, some on
    # y = 0 where the hair can be subnormal
    axis = []
    for x, y, a, b in rng.uniform(0.0, 30.0, (60, 4)):
        for y in (y, 0.0):
            for tilt in (0.0, 5e-324, 1e-14, 1e-9):
                axis += [[[x, y], [x + a, y + tilt], [x, y + b]],
                         [[x, y], [x, y + b], [x + a, y + tilt]],
                         [[x + tilt, y], [x, y + b], [x + a, y + b]],
                         [[x, y + 0.5], [x + a, y + 0.5 + tilt], [x + a / 2, y + b]]]
    cases["axis"] = np.array(axis)
    # slivers whose doubled area straddles the degeneracy threshold, lying
    # along pixel-centre rows, columns and diagonals
    slivers = []
    for k in (0.5, 1.0, 1.5, 4.0, 1e3):
        for (x, y), (dx, dy) in zip(rng.integers(0, 30, (40, 2)) + 0.5,
                                    rng.uniform(-20.0, 20.0, (40, 2))):
            for d in ((dx, 0.0), (0.0, dy), (dx, dx), (dx, dy)):
                length = np.hypot(*d) or 1.0
                off = k * _DEGEN_EPS / length
                nrm = np.array([-d[1], d[0]]) / length
                a = np.array([x, y])
                slivers.append([a, a + d, a + np.array(d) / 2 + off * nrm])
    cases["slivers"] = np.array(slivers)
    # partly off-screen, some very large
    cases["offscreen"] = np.concatenate([rng.uniform(-60.0, 100.0, (150, 3, 2)),
                                         rng.uniform(-1e6, 1e6, (50, 3, 2))])
    return cases


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestRasterizer:
    @pytest.mark.parametrize("max_pairs", [4_000_000, 37, 1])
    @pytest.mark.parametrize("case", ["random", "centres", "edges", "axis", "slivers",
                                      "offscreen"])
    def test_row_spans_match_bbox_enumeration(self, case, max_pairs):
        tris2d = _raster_cases()[case]
        got = _concat(RasterWork(max_pairs).chunks(tris2d, 36, 28))
        ref = _concat(_bbox_raster_reference(tris2d, 36, 28))
        assert len(ref[0]) > 0
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("max_pairs", [200, 37, 1])
    @pytest.mark.parametrize("case", ["random", "centres", "edges", "axis", "slivers",
                                      "offscreen"])
    def test_chunks_split_between_rows_within_budget(self, case, max_pairs):
        tris2d = _raster_cases()[case]
        whole = _copied(RasterWork(1 << 40).chunks(tris2d, 36, 28))
        assert len(whole) == 1
        chunks = _copied(RasterWork(max_pairs).chunks(tris2d, 36, 28))
        assert len(chunks) > 1
        seen = set()
        for tri, px, py, b1, b2 in chunks:
            rows = set(zip(tri.tolist(), py.tolist()))
            # at most max_pairs samples, or one (triangle, row) past the budget
            assert len(tri) <= max_pairs or len(rows) == 1
            if max_pairs == 1:
                assert len(rows) == 1
            # no row is split between chunks
            assert not rows & seen
            seen |= rows
        for a, b in zip(_concat(chunks), _concat(whole)):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_froxelize_peak_memory_follows_chunk_budget(self):
        """A full-screen quad at 128^3 has 262k samples; the raster working
        set stays one RasterWork beside the grid itself."""
        dims = (128, 128, 128)
        frustum = _exact_frustum()
        scene = _full_span_quad_scene(frustum, 0.5)
        tracemalloc.start()
        try:
            grid = froxelize(scene, frustum, dims)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.to_dense()[:, :, 64].all()
        # a cache-sized working set: it fits a 2 MiB L2
        assert raster_work_bytes() <= 2 << 20
        # the flat bool grid, its packed bits, the working set, and 64 KiB
        # for the set-up of the scene's two triangles
        bound = dims[0] * dims[1] * dims[2] * 9 // 8 + raster_work_bytes() + (64 << 10)
        assert peak < bound

    def test_froxelize_working_set_does_not_grow_with_resolution(self):
        """On the viewcell pool's scene 0 (1324 triangles) the raster rows
        grow from 2943 at 32^3 to 12318 at 128^3; froxelize's peak beside
        its grid stays within 0.25 MB, because batches bound the per-row
        set-up."""
        scene, cell = generate_scene(SceneGenConfig(seed=frame_seed(0, 0)))
        frustum = build_viewcell_frustum(cell)
        beside = [peak_mb(lambda: froxelize(scene, frustum, (n, n, n))) - n ** 3 * 9 / 8 / 2 ** 20
                  for n in (32, 128)]
        assert abs(beside[1] - beside[0]) <= 0.25

    def test_froxelize_faults_do_not_depend_on_heap_history(self):
        """Minor page faults per froxelize call are the same in a fresh
        process and after it freed a 4 MiB block, which raises glibc's
        dynamic mmap and trim thresholds; the working set is one block
        reused by every chunk. (A 2 MiB free is too small to tell: a raster
        that allocates its temporaries per chunk takes about 1100 faults per
        call at 64^3 either way, and 16 after a 4 MiB free.)"""
        code = textwrap.dedent("""
            import resource, statistics, sys
            import numpy as np
            from froxelpvs.core import build_viewcell_frustum
            from froxelpvs.froxel import froxelize
            from froxelpvs.scenegen import SceneGenConfig, frame_seed, generate_scene

            scene, cell = generate_scene(SceneGenConfig(seed=frame_seed(0, 0)))
            frustum = build_viewcell_frustum(cell)

            def faults():
                counts = []
                for _ in range(3):
                    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                    froxelize(scene, frustum, (64, 64, 64))
                    counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
                return statistics.median(counts)

            froxelize(scene, frustum, (64, 64, 64))
            fresh = faults()
            block = np.ones(1 << 19)
            del block
            print(fresh, faults())
        """)
        src = str(Path(froxelpvs.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        fresh, after = map(float, out.stdout.split())
        assert abs(fresh - after) <= 0.1 * max(fresh, after) + 32

    def test_clip_matches_polygon_loop(self, rng):
        tris = rng.normal(0.0, 1.0, (400, 3, 3))
        dist = rng.normal(0.0, 1.0, (400, 3))
        dist[::7, 1] = 0.0      # vertices exactly on the plane
        dist[::11] = np.abs(dist[::11])      # wholly kept
        dist[::13] = -np.abs(dist[::13]) - 1e-3   # wholly cut
        got, owner = clip_triangles_halfspace(tris, dist)
        ref, ref_owner = [], []
        for i in range(len(tris)):
            poly = _clip_polygon_reference(tris[i], dist[i])
            for k in range(1, len(poly) - 1):
                ref.append(poly[[0, k, k + 1]])
                ref_owner.append(i)
        assert np.array_equal(owner, ref_owner)
        assert np.array_equal(got, np.array(ref))

    def test_screen_triangles_match_clip_loop(self, rng):
        near = 0.5
        zs = [[0.2, 3.0, 4.0],     # one vertex behind the near plane
              [0.1, 0.3, 5.0],     # two behind
              [0.5, 0.2, 3.0],     # one on it, one behind
              [0.5, 2.0, 0.5],     # two on it
              [2.0, 3.0, 4.0],     # wholly in front
              [0.1, 0.2, 0.4]]     # wholly behind
        zs += rng.uniform(-0.5, 2.0, (200, 3)).tolist()
        verts, tris = [], []
        for i, z in enumerate(zs):
            xy = rng.uniform(-2.0, 2.0, (3, 2))
            verts += np.column_stack([xy, z]).tolist()
            tris.append([3 * i, 3 * i + 1, 3 * i + 2])
        scene = TriScene(np.array(verts), np.array(tris))
        args = (Camera(Vec3(0, 0, 0), Vec3(0, 0, 1), Vec3(0, 1, 0), Vec3(1, 0, 0),
                       90.0, near, 20.0), 64, 48)
        got = screen_triangles(scene, *args)
        ref = _screen_triangles_reference(scene, *args)
        assert len(ref[2]) > len(zs) // 2
        assert np.array_equal(_sorted_rows(got[2], got[0], got[1]),
                              _sorted_rows(ref[2], ref[0], ref[1]))
