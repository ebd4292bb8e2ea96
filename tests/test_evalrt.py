"""The froxel id map, culling and froxel confusion counts, each against a
plain reference loop."""

import numpy as np
import pytest

from froxelpvs.core import TriScene, build_viewcell_frustum
from froxelpvs.evalrt import (MetricsRecord, cull, froxel_metrics, pixel_error_rate,
                              write_metrics_csv)
from froxelpvs.froxel import FroxelGrid, FroxelIdMap, froxel_id_map
from froxelpvs.oracle import OracleConfig, render_depth, sample_viewpoints
from froxelpvs.scenegen import SceneGenConfig, generate_scene

from conftest import PERSPECTIVE, default_cell, quad_at
from reference import fragment_sources, froxel_bit, read_metrics_csv, subset


def reference_id_map(scene, frustum, dims):
    nx, ny, _ = dims
    mapping = {}
    for flat, src in fragment_sources(scene, frustum, dims):
        for f, pid in zip(flat.tolist(), scene.primitive_ids[src].tolist()):
            mapping.setdefault((f % nx, f // nx % ny, f // (nx * ny)), set()).add(pid)
    return mapping


def reference_cull(pvs, id_map):
    kept = set()
    for coord, ids in id_map.items():
        if froxel_bit(pvs, *coord):
            kept.update(ids)
    return kept


def _scene(seed):
    scene, cell = generate_scene(SceneGenConfig(seed=seed))
    return scene, build_viewcell_frustum(cell)


class TestIdMapAndCull:
    @PERSPECTIVE
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_reference_loop(self, seed, projection, rng):
        scene, frustum = _scene(seed)
        mapping = froxel_id_map(scene, frustum, (32, 16, 24))
        ref = reference_id_map(scene, frustum, (32, 16, 24))
        assert mapping and mapping == ref
        assert list(mapping) == sorted(ref, key=lambda c: (c[2], c[1], c[0]))
        pvs = FroxelGrid.from_dense(rng.random((32, 16, 24)) < 0.4)
        kept = cull(scene, pvs, mapping)
        assert isinstance(kept, set)
        assert kept == reference_cull(pvs, ref)

    def test_negative_and_sparse_primitive_ids(self):
        scene, frustum = _scene(4)
        pids = np.where(np.arange(len(scene)) % 2, -1000, 7 * np.arange(len(scene)))
        scene = TriScene(scene.vertices, scene.triangles, primitive_ids=pids)
        mapping = froxel_id_map(scene, frustum, (16, 16, 16))
        assert mapping == reference_id_map(scene, frustum, (16, 16, 16))
        assert -1000 in set().union(*mapping.values())

    def test_empty_scene(self):
        frustum = build_viewcell_frustum(default_cell())
        scene = TriScene(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
        mapping = froxel_id_map(scene, frustum, (16, 16, 16))
        assert mapping == {} and {} == mapping
        assert len(mapping) == 0 and list(mapping) == [] and (0, 0, 0) not in mapping
        assert cull(scene, FroxelGrid((16, 16, 16)), mapping) == set()

    def test_cull_with_full_and_empty_pvs(self):
        scene, frustum = _scene(2)
        mapping = froxel_id_map(scene, frustum, (16, 16, 16))
        full = FroxelGrid.from_dense(np.ones((16, 16, 16), dtype=bool))
        assert cull(scene, full, mapping) == set().union(*mapping.values())
        assert cull(scene, FroxelGrid((16, 16, 16)), mapping) == set()

    def test_cull_rejects_map_outside_grid(self):
        scene, frustum = _scene(2)
        mapping = froxel_id_map(scene, frustum, (16, 16, 16))
        with pytest.raises(IndexError):
            cull(scene, FroxelGrid((8, 8, 8)), mapping)

    @pytest.mark.parametrize("dims", [(32, 16, 16), (16, 32, 16), (16, 16, 8)])
    def test_cull_rejects_other_dims(self, dims):
        scene, frustum = _scene(2)
        mapping = froxel_id_map(scene, frustum, (16, 16, 16))
        with pytest.raises(IndexError):
            cull(scene, FroxelGrid.from_dense(np.ones(dims, dtype=bool)), mapping)


class TestFroxelIdMap:
    DIMS = (32, 16, 24)

    def _maps(self):
        scene, frustum = _scene(1)
        return (froxel_id_map(scene, frustum, self.DIMS),
                reference_id_map(scene, frustum, self.DIMS))

    def test_is_a_mapping_of_int_sets(self):
        mapping, ref = self._maps()
        assert isinstance(mapping, FroxelIdMap) and len(mapping) == len(ref) > 0
        for key in ref:
            assert key in mapping
            ids = mapping[key]
            assert isinstance(ids, set) and ids == ref[key]
            assert all(type(i) is int for i in ids)
        assert list(mapping.values()) == [ref[k] for k in mapping]
        assert list(mapping.items()) == [(k, ref[k]) for k in mapping]

    def test_missing_keys(self):
        mapping, ref = self._maps()
        nx, ny, nz = self.DIMS
        empty = next((x, y, z) for z in range(nz) for y in range(ny) for x in range(nx)
                     if (x, y, z) not in ref)
        for key in (empty, (nx, 0, 0), (-1, 0, 0), (0, 0, nz), (0.0, 0, 0), (0, 0),
                    "xyz", None):
            assert key not in mapping
            with pytest.raises(KeyError):
                mapping[key]
        assert mapping.get(empty) is None

    def test_keys_iterate_by_z_then_y_then_x(self):
        mapping, ref = self._maps()
        keys = list(mapping)
        assert keys == sorted(ref, key=lambda c: (c[2], c[1], c[0]))
        assert all(type(c) is int for key in keys for c in key)

    def test_equals_reference_in_both_directions(self):
        mapping, ref = self._maps()
        assert mapping == ref and ref == mapping
        key = next(iter(ref))
        changed = ref | {key: ref[key] | {-7}}
        assert mapping != changed and changed != mapping
        del changed[key]
        assert mapping != changed and changed != mapping


@pytest.mark.parametrize("pids", [[0, 1], [-1, -1], [-1, -2]])
def test_pixel_error_rate_counts_culled_coverage(pids):
    """Culling a quad that fills the view changes every pixel, whatever its
    ids; -1 is a valid id as well as the background mark of ``prim``."""
    cell = default_cell()
    frustum = build_viewcell_frustum(cell)
    z = frustum.near + 0.5 * (frustum.far - frustum.near)
    half = 1.5 * z * frustum.half_extent
    verts, tris = quad_at(z, half, half)
    scene = TriScene(frustum.origin + verts @ frustum.basis, tris, primitive_ids=pids)
    dims = (16, 16, 16)
    mapping = froxel_id_map(scene, frustum, dims)
    camera = cell.camera_at(cell.center)
    everything = FroxelGrid.from_dense(np.ones(dims, dtype=bool))
    assert pixel_error_rate(scene, camera, FroxelGrid(dims), mapping, (32, 32)) == 1.0
    assert pixel_error_rate(scene, camera, everything, mapping, (32, 32)) == 0.0


def two_render_per(scene, camera, pvs, id_map, resolution):
    """PER by its definition: render with and without the culled
    primitives and count the pixels whose coverage or id differ."""
    kept = cull(scene, pvs, id_map)
    full = render_depth(scene, camera, resolution)
    culled = render_depth(subset(scene, kept), camera, resolution)
    coverage_differs = np.isfinite(full.depth) != np.isfinite(culled.depth)
    return float((coverage_differs | (full.prim != culled.prim)).mean())


@pytest.mark.parametrize("wall", [True, False])
@pytest.mark.parametrize("shared_ids", [False, True])
@pytest.mark.parametrize("seed", [1, 3, 4, 5])
def test_pixel_error_rate_equals_two_renders(seed, shared_ids, wall):
    """One render gives the two-render rate bit for bit, on generated
    scenes whose ids are per triangle or negative and shared by three
    triangles (-1 among them), for PVS fills from empty to full. Without
    the back wall, part of each view is background."""
    scene, cell = generate_scene(SceneGenConfig(seed=seed, wall=wall))
    if shared_ids:
        pids = -1 - np.arange(len(scene)) // 3
        scene = TriScene(scene.vertices, scene.triangles, primitive_ids=pids)
    dims = (16, 16, 16)
    id_map = froxel_id_map(scene, build_viewcell_frustum(cell), dims)
    fill = np.random.default_rng(seed).random(dims)
    rates = []
    for camera in sample_viewpoints(cell, OracleConfig(viewpoints=3)):
        covered = np.isfinite(render_depth(scene, camera, (64, 48)).depth)
        assert covered.all() == wall
        for frac in (0.0, 0.002, 0.01, 0.05, 1.0):
            pvs = FroxelGrid.from_dense(fill < frac)
            got = pixel_error_rate(scene, camera, pvs, id_map, (64, 48))
            assert got == two_render_per(scene, camera, pvs, id_map, (64, 48))
            rates.append(got)
    assert any(0.0 < r < 1.0 for r in rates)


def test_froxel_metrics_counts(rng):
    pred_d = rng.random((16, 8, 8)) < 0.3
    gt_d = rng.random((16, 8, 8)) < 0.2
    rec = froxel_metrics(FroxelGrid.from_dense(pred_d), FroxelGrid.from_dense(gt_d))
    assert (rec.tp, rec.fp, rec.fn, rec.gtp) == (
        int((pred_d & gt_d).sum()), int((pred_d & ~gt_d).sum()),
        int((~pred_d & gt_d).sum()), int(gt_d.sum()))
    assert rec.fnr == rec.fn / rec.gtp and rec.fpr == rec.fp / rec.gtp


def test_metrics_csv_round_trip(tmp_path):
    records = [MetricsRecord(0, 0.25, 0.125, 0.0625, 30, 5, 10, 40),
               MetricsRecord(1, 0.0, 0.0, 0.5, 0, 3, 0, 0)]
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, records)
    assert path.read_text() == ("frame,fnr,fpr,per,tp,fp,fn,gtp\n"
                                "0,0.25,0.125,0.0625,30,5,10,40\n1,0,0,0.5,0,3,0,0\n")
    assert read_metrics_csv(path) == records
    assert [r.gtp_zero for r in records] == [False, True]


def test_empty_ground_truth_reads_zero_rates():
    pred = FroxelGrid.from_dense(np.ones((8, 8, 8), dtype=bool))
    rec = froxel_metrics(pred, FroxelGrid((8, 8, 8)), per=0.5)
    assert (rec.frame, rec.fnr, rec.fpr, rec.per) == (0, 0.0, 0.0, 0.5)
    assert (rec.fp, rec.gtp) == (512, 0) and rec.gtp_zero


def test_metrics_csv_wrong_header_rejected(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text("frame,fnr,fpr\n0,0.5,0.25\n")
    with pytest.raises(ValueError):
        read_metrics_csv(path)


def test_froxel_metrics_rejects_other_dims():
    with pytest.raises(ValueError, match="dims mismatch"):
        froxel_metrics(FroxelGrid((16, 8, 8)), FroxelGrid((16, 8, 16)))
