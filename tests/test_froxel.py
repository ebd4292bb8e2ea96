"""Bit-packed grids, quantization, froxelization, and the id map."""

import numpy as np
import pytest

from froxelpvs.core import TriScene, Vec3, build_viewcell_frustum, unproject_ndc
from froxelpvs.froxel import (FroxelGrid, FroxelizeConfig, froxel_id_map, froxelize,
                              quantize)

from conftest import default_cell, quad_at


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


class TestFroxelGrid:
    def test_bit_packing_layout(self):
        grid = FroxelGrid((16, 4, 4))
        grid.set(0, 0, 0)
        grid.set(3, 0, 0)
        assert grid.bits[0] == 0b00001001

    def test_set_get(self):
        grid = FroxelGrid((16, 4, 4))
        grid.set(11, 2, 3)
        assert grid.get(11, 2, 3) == 1
        assert grid.get(11, 2, 2) == 0

    def test_set_idempotent(self):
        grid = FroxelGrid((16, 4, 4))
        grid.set(5, 1, 2)
        snapshot = grid.bits.copy()
        grid.set(5, 1, 2)
        assert np.array_equal(grid.bits, snapshot)

    def test_out_of_range_rejected(self):
        grid = FroxelGrid((16, 4, 4))
        with pytest.raises(IndexError):
            grid.set(16, 0, 0)
        with pytest.raises(IndexError):
            grid.get(0, -1, 0)
        with pytest.raises(IndexError):
            grid.set_many(np.array([[0, 0, 4]]))

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
            assert grid.get(xs[i], ys[i], zs[i]) == 1

    def test_set_many_matches_loop(self, rng):
        dims = (24, 6, 5)
        coords = np.column_stack([rng.integers(0, dims[0], 300),
                                  rng.integers(0, dims[1], 300),
                                  rng.integers(0, dims[2], 300)])
        a = FroxelGrid(dims)
        a.set_many(coords)
        b = FroxelGrid(dims)
        for x, y, z in coords:
            b.set(x, y, z)
        assert a == b

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
        grid = FroxelGrid.from_dense(dense, role="gt_pvs", supersample=4)
        path = tmp_path / "grid.fpvs"
        grid.save(path)
        raw = path.read_bytes()
        assert raw[:4] == b"FPVS"
        again = FroxelGrid.load(path)
        assert again == grid
        assert again.supersample == 4
        # bit-exact file round trip
        again.save(tmp_path / "copy.fpvs")
        assert (tmp_path / "copy.fpvs").read_bytes() == raw

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

    def test_get_many_matches_get(self, rng):
        grid = FroxelGrid.from_dense(rng.random((16, 8, 8)) < 0.3)
        coords = np.column_stack([rng.integers(0, n, 200) for n in grid.dims])
        assert grid.get_many(coords).tolist() == [bool(grid.get(*c)) for c in coords]
        with pytest.raises(IndexError):
            grid.get_many([[16, 0, 0]])


def _exact_frustum():
    """Frustum whose depth arithmetic is exact in binary floating point."""
    from froxelpvs.core import Frustum
    return Frustum(Vec3(0, 0, 0), Vec3(0, 0, 1), Vec3(0, 1, 0), Vec3(1, 0, 0),
                   90.0, 2.0, 18.0)


def _full_span_quad_scene(frustum, w: float):
    """Quad at fractional depth w covering the whole frustum cross-section."""
    z = frustum.near + w * (frustum.far - frustum.near)
    half = 1.2 * z * frustum.half_extent
    verts, tris = quad_at(z, half, half)
    world = frustum._o + verts @ frustum._basis
    return TriScene(world, tris)


class TestFroxelize:
    def test_empty_scene(self):
        cell = default_cell()
        frustum = build_viewcell_frustum(cell)
        scene = TriScene(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
        for mode in ("perspective", "ortho"):
            grid = froxelize(scene, frustum, (16, 16, 16), FroxelizeConfig(mode=mode))
            assert grid.occupied_count() == 0

    def test_rejects_bad_dims(self):
        cell = default_cell()
        frustum = build_viewcell_frustum(cell)
        scene = TriScene(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
        with pytest.raises(ValueError):
            froxelize(scene, frustum, (15, 16, 16))

    @pytest.mark.parametrize("mode", ["perspective", "ortho"])
    def test_full_span_quad_single_layer(self, mode):
        """A full-cross-section quad at w=0.5 fills exactly layer iz=8 of 16."""
        frustum = _exact_frustum()
        scene = _full_span_quad_scene(frustum, 0.5)
        grid = froxelize(scene, frustum, (16, 16, 16),
                         FroxelizeConfig(supersample=4, mode=mode))
        dense = grid.to_dense()
        assert dense[:, :, 8].all()
        dense[:, :, 8] = False
        assert not dense.any()

    def test_full_span_quad_brute_force_oracle(self):
        """Froxel centers on the quad plane verify layer membership."""
        frustum = _exact_frustum()
        scene = _full_span_quad_scene(frustum, 0.5)
        tv = scene.triangle_vertices()
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

    def test_monotone_coverage_in_supersampling(self):
        """Raising s never removes occupied froxels (20 random scenes).

        Center-sample grids nest only for odd resolution ratios, so the
        check compares s=1 against s=3 where every coarse sample position
        reappears in the fine grid.
        """
        from froxelpvs.scenegen import SceneGenConfig, generate_scene
        for seed in range(20):
            scene, cell = generate_scene(SceneGenConfig(
                seed=seed, count_range=(2, 5), floor=False, wall=False))
            frustum = build_viewcell_frustum(cell)
            lo = froxelize(scene, frustum, (16, 16, 16),
                           FroxelizeConfig(supersample=1, mode="perspective"))
            hi = froxelize(scene, frustum, (16, 16, 16),
                           FroxelizeConfig(supersample=3, mode="perspective"))
            assert lo.subset_of(hi), f"seed {seed}"

    def test_outside_triangles_contribute_nothing(self):
        cell = default_cell()
        frustum = build_viewcell_frustum(cell)
        verts, tris = quad_at(-5.0, 3.0, 3.0)   # behind the origin
        grid = froxelize(TriScene(verts, tris), frustum, (16, 16, 16))
        assert grid.occupied_count() == 0


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

    @pytest.mark.parametrize("mode", ["perspective", "ortho"])
    def test_key_set_matches_froxelize(self, mode):
        from froxelpvs.scenegen import SceneGenConfig, generate_scene
        scene, cell = generate_scene(SceneGenConfig(seed=5, count_range=(3, 6)))
        frustum = build_viewcell_frustum(cell)
        cfg = FroxelizeConfig(supersample=2, mode=mode)
        grid = froxelize(scene, frustum, (16, 16, 16), cfg)
        mapping = froxel_id_map(scene, frustum, (16, 16, 16), cfg)
        from_map = FroxelGrid((16, 16, 16))
        if mapping:
            from_map.set_many(np.array(sorted(mapping)))
        assert from_map == grid
