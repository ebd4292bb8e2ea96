"""Depth-buffer rendering, viewpoint sampling, the GT oracle, and a
brute-force ray-casting oracle that cross-checks it."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from froxelpvs.core import Camera, TriScene, Vec3, build_viewcell_frustum
from froxelpvs import oracle
from froxelpvs.froxel import (_MAX_PAIRS, FroxelGrid, RasterWork, froxel_id_map, froxelize,
                              screen_triangles)
from froxelpvs.oracle import OracleConfig, compute_gt_pvs, render_depth, sample_viewpoints
from froxelpvs.scenegen import SceneGenConfig, generate_scene

from conftest import default_cell, quad_at, raster_work_bytes
from reference import interp_affine, project_points, quantize


class TestSampleViewpoints:
    def test_single_viewpoint_is_center(self):
        cell = default_cell()
        cams = sample_viewpoints(cell, OracleConfig(viewpoints=1))
        assert len(cams) == 1
        assert cams[0].position == cell.center
        assert cams[0].forward == cell.forward

    # the id names the sampler, the golden-angle grid, and keeps the test id stable
    @pytest.mark.parametrize("sampler", ["uniform-grid"])
    def test_positions_within_radius(self, sampler):
        cell = default_cell()
        cams = sample_viewpoints(cell, OracleConfig(viewpoints=64))
        for cam in cams:
            assert (cam.position - cell.center).norm() <= cell.radius + 1e-12

    def test_yaw_within_margin(self):
        cell = default_cell()
        cams = sample_viewpoints(cell, OracleConfig(viewpoints=64))
        for cam in cams:
            cosang = cam.forward.dot(cell.forward)
            assert cosang >= np.cos(np.radians(cell.beta_deg)) - 1e-12


def _two_quads_scene():
    v1, t1 = quad_at(10.0, 30.0, 30.0)
    v2, t2 = quad_at(20.0, 60.0, 60.0)
    verts = np.vstack([v1, v2])
    tris = np.vstack([t1, t2 + 4])
    return TriScene(verts, tris, primitive_ids=[0, 0, 1, 1])


def _render_reference(scene, cam, w, h):
    """Depth and id buffers from every fragment at once: one lexsort by
    pixel, depth and id keeps each covered pixel's nearest, smallest id."""
    tris2d, invz, src = screen_triangles(scene, cam, w, h)
    chunks = [tuple(a.copy() for a in chunk)
              for chunk in RasterWork(1 << 40).chunks(tris2d, w, h)]
    tri, px, py, b1, b2 = chunks[0] if chunks else [np.zeros(0, int)] * 5
    depth = 1.0 / interp_affine(invz, tri, b1, b2)
    keep = depth <= cam.far
    flat, depth, pid = (py * w + px)[keep], depth[keep], scene.primitive_ids[src[tri[keep]]]
    order = np.lexsort((pid, depth, flat))
    first = order[np.flatnonzero(np.diff(flat[order], prepend=-1))]
    zbuf, ibuf = np.full(w * h, np.inf), np.full(w * h, -1)
    zbuf[flat[first]], ibuf[flat[first]] = depth[first], pid[first]
    return zbuf.reshape(h, w), ibuf.reshape(h, w)


class TestRenderDepth:
    def test_empty_scene_all_sentinel(self):
        cam = Camera.from_forward(Vec3(0, 0, 0), Vec3(0, 0, 1), 60.0, 0.3, 50.0)
        buf = render_depth(TriScene(np.zeros((0, 3)), np.zeros((0, 3), int)), cam, (32, 32))
        assert not np.isfinite(buf.depth).any()
        assert (buf.prim == -1).all()

    def test_near_quad_wins_z_test(self):
        cam = Camera.from_forward(Vec3(0, 0, 0), Vec3(0, 0, 1), 60.0, 0.3, 50.0)
        buf = render_depth(_two_quads_scene(), cam, (64, 64))
        assert np.allclose(buf.depth, 10.0)
        assert (buf.prim == 0).all()

    def test_checkerboard_id_histogram(self):
        """Interleaved stripes of two primitives match the area ratio within 1%."""
        cam = Camera.from_forward(Vec3(0, 0, 0), Vec3(0, 0, 1), 90.0, 0.3, 50.0)
        z = 10.0
        half = z * cam.half_extent
        verts = []
        tris = []
        ids = []
        n_stripes = 8
        width = 2.0 * half / n_stripes
        for i in range(n_stripes):
            x0 = -half + i * width
            base = 4 * i
            verts += [[x0, -half, z], [x0 + width, -half, z],
                      [x0 + width, half, z], [x0, half, z]]
            tris += [[base, base + 1, base + 2], [base, base + 2, base + 3]]
            ids += [i % 2, i % 2]
        scene = TriScene(np.array(verts, float), np.array(tris), primitive_ids=ids)
        buf = render_depth(scene, cam, (256, 256))
        covered = buf.prim >= 0
        frac = (buf.prim[covered] == 0).mean()
        assert frac == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize("ids", [(7, 3, 5), (-1, -3, -2), (-1, 0, 4)])
    def test_exact_depth_ties_take_smallest_id(self, ids):
        """Coplanar duplicates of a screen-filling quad tie exactly at every
        pixel, across raster chunks; the smallest id wins, -1 among them."""
        cam = Camera.from_forward(Vec3(0, 0, 0), Vec3(0, 0, 1), 90.0, 0.3, 50.0)
        v, t = quad_at(10.0, 20.0, 20.0)
        n = len(ids)
        scene = TriScene(np.tile(v, (n, 1)), np.vstack([t + 4 * i for i in range(n)]),
                         primitive_ids=np.repeat(ids, 2))
        buf = render_depth(scene, cam, (256, 256))
        assert len(list(RasterWork(_MAX_PAIRS).chunks(screen_triangles(scene, cam, 256, 256)[0],
                                                      256, 256))) > n
        assert np.isfinite(buf.depth).all()
        assert (buf.prim == min(ids)).all()

    def test_ids_equal_one_sort_reference(self):
        """Per-chunk id resolution equals one lexsort over every fragment, on
        a multi-chunk render with ids -1 - i."""
        scene, cell = generate_scene(SceneGenConfig(seed=4))
        scene = TriScene(scene.vertices, scene.triangles,
                         primitive_ids=-1 - np.arange(len(scene)))
        for cam in sample_viewpoints(cell, OracleConfig(viewpoints=3)):
            buf = render_depth(scene, cam, (320, 192))
            depth, prim = _render_reference(scene, cam, 320, 192)
            assert np.array_equal(buf.depth, depth) and np.array_equal(buf.prim, prim)
            assert np.isfinite(depth).any()
            assert len(list(RasterWork(_MAX_PAIRS).chunks(
                screen_triangles(scene, cam, 320, 192)[0], 320, 192))) > 1

    def test_far_plane_clips_fragments(self):
        """A quad tilted through the far plane covers only the pixels where
        it lies in front of it, in depth and in id."""
        cam = Camera.from_forward(Vec3(0, 0, 0), Vec3(0, 0, 1), 60.0, 0.3, 20.0)
        verts = np.array([[-30.0, -30.0, 10.0], [30.0, -30.0, 10.0],
                          [30.0, 30.0, 40.0], [-30.0, 30.0, 40.0]])
        scene = TriScene(verts, np.array([[0, 1, 2], [0, 2, 3]]), primitive_ids=[4, 4])
        buf = render_depth(scene, cam, (64, 64))
        covered = np.isfinite(buf.depth)
        assert covered[0].all() and not covered[-1].any()
        assert (buf.depth[covered] <= cam.far).all()
        assert np.array_equal(buf.prim, np.where(covered, 4, -1))

    def test_depth_values_in_range(self):
        scene, cell = generate_scene(SceneGenConfig(seed=2))
        cam = cell.camera_at(cell.center)
        buf = render_depth(scene, cam, (64, 64))
        covered = np.isfinite(buf.depth)
        assert covered.any()
        assert (buf.depth[covered] >= cam.near - 1e-9).all()
        assert (buf.depth[covered] <= cam.far + 1e-9).all()


class TestComputeGtPvs:
    def test_empty_scene_empty_pvs(self):
        cell = default_cell()
        gt = compute_gt_pvs(TriScene(np.zeros((0, 3)), np.zeros((0, 3), int)), cell,
                            (16, 16, 16), OracleConfig(viewpoints=8))
        assert gt.occupied_count() == 0

    def test_subset_of_geometry_by_construction(self):
        for seed in (0, 1):
            scene, cell = generate_scene(SceneGenConfig(seed=seed))
            frustum = build_viewcell_frustum(cell)
            gt = compute_gt_pvs(scene, cell, (16, 16, 16), OracleConfig(viewpoints=16))
            geo = froxelize(scene, frustum, (16, 16, 16)) | gt
            assert gt.subset_of(geo)
            assert gt.occupied_count() > 0

    def test_full_occluder_hides_everything_behind(self):
        """No gt froxel may sit strictly behind a full-cross-section occluder."""
        cell = default_cell()
        frustum = build_viewcell_frustum(cell)
        dims = (16, 16, 16)
        w_occ = 8.5 / 16.0   # center of layer 8
        z = frustum.near + w_occ * (frustum.far - frustum.near)
        half = 1.5 * z * frustum.half_extent
        ov, ot = quad_at(0.0, half, half)
        world = frustum.origin + np.column_stack(
            [ov[:, 0], ov[:, 1], np.full(4, z)]) @ frustum.basis
        bv, bt = quad_at(0.0, half, half)
        behindz = frustum.near + 0.9 * (frustum.far - frustum.near)
        behind = frustum.origin + np.column_stack(
            [bv[:, 0], bv[:, 1], np.full(4, behindz)]) @ frustum.basis
        scene = TriScene(np.vstack([world, behind]), np.vstack([ot, bt + 4]))
        gt = compute_gt_pvs(scene, cell, dims, OracleConfig(viewpoints=32))
        dense = gt.to_dense()
        assert dense[:, :, :9].sum() > 0
        assert dense[:, :, 9:].sum() == 0

    def test_viewpoint_monotonicity(self):
        """Nested viewpoint sets give nested PVS grids, bit-exact."""
        scene, cell = generate_scene(SceneGenConfig(seed=4, count_range=(3, 6)))
        cams = sample_viewpoints(cell, OracleConfig(viewpoints=24))
        ocfg = OracleConfig(viewpoints=24)
        small = compute_gt_pvs(scene, cell, (16, 16, 16), ocfg, cameras=cams[:8])
        big = compute_gt_pvs(scene, cell, (16, 16, 16), ocfg, cameras=cams)
        assert small.subset_of(big)

    def test_radius_monotonicity_nested_samples(self):
        """Growing the cell with nested sample sets can only grow the PVS."""
        scene, cell = generate_scene(SceneGenConfig(seed=6, count_range=(3, 6)))
        big_cell = default_cell()
        object.__setattr__(big_cell, "radius", cell.radius * 2)
        cams_small = sample_viewpoints(cell, OracleConfig(viewpoints=12))
        extra = sample_viewpoints(big_cell, OracleConfig(viewpoints=12))
        ocfg = OracleConfig(viewpoints=12)
        frustum_cell = big_cell
        small = compute_gt_pvs(scene, frustum_cell, (16, 16, 16), ocfg,
                               cameras=cams_small)
        grown = compute_gt_pvs(scene, frustum_cell, (16, 16, 16), ocfg,
                               cameras=cams_small + extra)
        assert small.subset_of(grown)

    def test_negative_primitive_ids(self):
        """Coverage comes from depth, so ids -1 - i, among them -1 (the
        background mark of ``prim``), give the ground truth of ids i."""
        scene, cell = generate_scene(SceneGenConfig(seed=4))
        ids = np.arange(len(scene))
        ocfg = OracleConfig(viewpoints=8)
        gt = compute_gt_pvs(TriScene(scene.vertices, scene.triangles, primitive_ids=ids),
                            cell, (16, 16, 16), ocfg)
        neg = compute_gt_pvs(TriScene(scene.vertices, scene.triangles, primitive_ids=-1 - ids),
                             cell, (16, 16, 16), ocfg)
        assert gt.occupied_count() > 0
        assert neg == gt

    @pytest.mark.parametrize("dims", [(12, 16, 16), (0, 16, 16), (8, 8, 0), (8, -8, 8)])
    def test_bad_dims_rejected_before_rendering(self, dims, monkeypatch):
        def fail(*args):
            raise AssertionError("rendered before the dims were checked")

        monkeypatch.setattr(oracle, "_depth_pass", fail)
        monkeypatch.setattr(oracle, "screen_triangles", fail)
        scene, cell = generate_scene(SceneGenConfig(seed=1))
        with pytest.raises(ValueError):
            compute_gt_pvs(scene, cell, dims, OracleConfig(viewpoints=4))

    def test_peak_memory_follows_depth_buffer_and_chunk_budget(self):
        """Two 512^2 views: the working set is the flat depth buffer, the
        grid and one RasterWork, not every covered pixel at once."""
        scene, cell = generate_scene(SceneGenConfig(seed=4))
        dims = (128, 128, 32)
        tracemalloc.start()
        try:
            gt = compute_gt_pvs(scene, cell, dims, OracleConfig(viewpoints=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gt.occupied_count() > 0
        w, h = 4 * dims[0], 4 * dims[1]
        grid = dims[0] * dims[1] * dims[2] * 9 // 8      # flat bool grid and its bits
        setup = 512 << 10    # per-triangle set-up of the scene's triangles
        assert peak < 8 * w * h + grid + raster_work_bytes() + setup

    def test_determinism(self):
        scene, cell = generate_scene(SceneGenConfig(seed=8, count_range=(3, 5)))
        ocfg = OracleConfig(viewpoints=16)
        a = compute_gt_pvs(scene, cell, (16, 16, 16), ocfg)
        b = compute_gt_pvs(scene, cell, (16, 16, 16), ocfg)
        assert a == b


def _ray_hits(origin, dirs, v0, e1, e2):
    """Moller-Trumbore over a batch of rays against one triangle.

    Directions are scaled to unit forward depth, so the returned t equals
    the fragment's forward depth.
    """
    h = np.cross(dirs, e2)
    a = h @ e1
    mask = np.abs(a) > 1e-12
    f = np.where(mask, 1.0 / np.where(mask, a, 1.0), 0.0)
    s = origin - v0
    u = f * (h @ s)
    q = np.cross(s, e1)
    v = f * (dirs @ q)
    t = f * (q @ e2)
    hit = mask & (u >= 0) & (v >= 0) & (u + v <= 1) & (t > 0)
    return hit, t


def ray_cast_pvs(scene, cell, dims, rays_per_froxel_face, ocfg, cameras=None):
    """Brute-force PVS: nearest ray-triangle hits over a deterministic pixel
    grid per sampled viewpoint, quantized into the viewcell frustum. It
    shares no rasterization code with :func:`compute_gt_pvs`."""
    frustum = build_viewcell_frustum(cell)
    grid = FroxelGrid(dims, role="gt_pvs")
    cams = cameras if cameras is not None else sample_viewpoints(cell, ocfg)
    nx, ny, _ = grid.dims
    rw, rh = rays_per_froxel_face * nx, rays_per_froxel_face * ny
    if len(scene) == 0:
        return grid

    tv = scene.vertices[scene.triangles]
    for cam in cams:
        he = cam.half_extent
        us = (np.arange(rw) + 0.5) / rw
        vs = (np.arange(rh) + 0.5) / rh
        gu, gv = np.meshgrid(us, vs, indexing="ij")
        r, u, f = cam.basis
        dirs = (f[None, :]
                + (2.0 * gu.ravel()[:, None] - 1.0) * he * r[None, :]
                + (2.0 * gv.ravel()[:, None] - 1.0) * he * u[None, :])
        origin = cam.origin
        best = np.full(len(dirs), np.inf)
        for tri in tv:
            hit, t = _ray_hits(origin, dirs, tri[0], tri[1] - tri[0], tri[2] - tri[0])
            ok = hit & (t >= cam.near) & (t <= cam.far) & (t < best)
            best[ok] = t[ok]
        found = np.isfinite(best)
        if not found.any():
            continue
        world = origin + best[found, None] * dirs[found]
        uvw, inside = project_points(frustum, world)
        if not inside.any():
            continue
        grid.set_many(quantize(uvw[inside], grid.dims))
    return grid


class TestRayCastOracle:
    def test_empty_scene(self):
        cell = default_cell()
        grid = ray_cast_pvs(TriScene(np.zeros((0, 3)), np.zeros((0, 3), int)), cell,
                            (16, 16, 16), 2, OracleConfig(viewpoints=4))
        assert grid.occupied_count() == 0

    def test_hits_lie_on_geometry(self):
        """Froxels marked by ray casting must belong to the single triangle."""
        cell = default_cell()
        frustum = build_viewcell_frustum(cell)
        verts = np.array([[-2.0, 0.0, 8.0], [2.0, 0.0, 8.0], [0.0, 3.0, 8.0]])
        scene = TriScene(verts, np.array([[0, 1, 2]]))
        grid = ray_cast_pvs(scene, cell, (16, 16, 16), 4, OracleConfig(viewpoints=8))
        geo = froxelize(scene, frustum, (16, 16, 16))
        assert grid.occupied_count() > 0
        assert grid.subset_of(geo)

    def test_agrees_with_depth_buffer_oracle(self):
        """Matched sampling makes both oracles nearly identical (Jaccard)."""
        cell = default_cell()
        scene, _ = generate_scene(SceneGenConfig(
            seed=12, count_range=(1, 1), floor=True, wall=False))
        cams = sample_viewpoints(cell, OracleConfig(viewpoints=8))
        ocfg = OracleConfig(viewpoints=8)
        a = compute_gt_pvs(scene, cell, (16, 16, 16), ocfg, cameras=cams)
        b = ray_cast_pvs(scene, cell, (16, 16, 16), 4, ocfg, cameras=cams)
        inter = (a & b).occupied_count()
        union = (a | b).occupied_count()
        assert union > 0
        assert inter / union >= 0.95


# sha256 digests of outputs that speed-ups must keep bit for bit.
# seed: (gt bits at 16^3 with 16 viewpoints, froxelize bits at 16^3)
GOLDEN_GT = {
    1: ("0875cc33dacd1a07bea742ba2b23dd980db10c3c756af3ce9ca6e7f30eab8ed3",
        "47be75f4ffd9d55288956550630d62a4bfb5f100fc7222240a6e1d45430d66e2"),
    2: ("08c74f79e26b722542936a4d6a32fbe94cf3e3c7d1b4254a3b8080cc9e4a164f",
        "a1c87d530e1a69d8a6cf70d9821abde2d7fe3671a9f05230ed2e338b00f1f1a7"),
    3: ("005a72f853e036e13ce8f9ede5bd3975dc433043fd9e2391388a0e5ca811fdea",
        "815df136f8705ad36dbb96115781954ca87a28513c231cfa176fd26e3967e5e8"),
}
# seed: gt bits at 64^3 with 3 viewpoints; 256^2 renders take several raster
# chunks and reprojection slices each
GOLDEN_GT_MULTICHUNK = {
    1: "c9d6ea32aba3e80740c774634fba3e3c3cd87c299f71e0861261dc03a9533e17",
    2: "4d7c990199381c10fa77af954e45939d0007ca81bd0d1c92ba1885072a0519ab",
    3: "5e8fb651ee462edab4a12f72d414867e7208c15b4697ceea607c2b4bb788786e",
}
# seed: (froxelize bits, id map items) at 32^3
GOLDEN_FROXELIZE = {
    1: ("4a22b5218fc41e0eb9862b02c805cfdb10f9844086de692361f1cbf17d3ac268",
        "cb05b003d32317fe552c6c774e79d9905bb366e623a76073138013a35be7505f"),
    2: ("f756f814cacf630fe88c2aeeac6be11d0748510450a9f14d8be568f0c7d9cda7",
        "4d20cd1c5f8e73a1250e1042939b0ca96f7d1bfd566339ab845eb96476c142f6"),
    3: ("92a06e8b36a389e8101e60ce4439934de58bd2c9dcfa5bd9bf541bdd86d4af6f",
        "d20f4e451e2b928abb0094ac95bf17e9424b963ff8af7ae1468e344f9b42887c"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _id_map_digest(id_map) -> str:
    items = [key + tuple(sorted(id_map[key])) for key in sorted(id_map)]
    return _sha(repr(items).encode())


class TestGoldenOutputs:
    @pytest.mark.parametrize("seed", sorted(GOLDEN_GT))
    def test_compute_gt_pvs_bits(self, seed):
        scene, cell = generate_scene(SceneGenConfig(seed=seed))
        geo = froxelize(scene, build_viewcell_frustum(cell), (16, 16, 16))
        gt = compute_gt_pvs(scene, cell, (16, 16, 16), OracleConfig(viewpoints=16))
        assert (_sha(gt.bits.tobytes()), _sha(geo.bits.tobytes())) == GOLDEN_GT[seed]

    @pytest.mark.parametrize("seed", sorted(GOLDEN_GT_MULTICHUNK))
    def test_compute_gt_pvs_multichunk_bits(self, seed):
        scene, cell = generate_scene(SceneGenConfig(seed=seed))
        gt = compute_gt_pvs(scene, cell, (64, 64, 64), OracleConfig(viewpoints=3))
        assert _sha(gt.bits.tobytes()) == GOLDEN_GT_MULTICHUNK[seed]

    @pytest.mark.parametrize("seed", sorted(GOLDEN_FROXELIZE))
    def test_froxelize_and_id_map(self, seed):
        scene, cell = generate_scene(SceneGenConfig(seed=seed))
        frustum = build_viewcell_frustum(cell)
        got = (_sha(froxelize(scene, frustum, (32, 32, 32)).bits.tobytes()),
               _id_map_digest(froxel_id_map(scene, frustum, (32, 32, 32))))
        assert got == GOLDEN_FROXELIZE[seed]
