"""The froxel id map, culling and froxel confusion counts, each against a
plain reference loop."""

import numpy as np
import pytest

from froxelpvs.core import TriScene, build_viewcell_frustum
from froxelpvs.evalrt import cull, froxel_metrics
from froxelpvs.froxel import FroxelGrid, FroxelizeConfig, _fragment_stream, froxel_id_map
from froxelpvs.scenegen import SceneGenConfig, generate_scene

from conftest import DEPTH_MODES, default_cell


def reference_id_map(scene, frustum, dims, cfg):
    mapping = {}
    for idx, src in _fragment_stream(scene, frustum, dims, cfg):
        for coord, pid in zip(map(tuple, idx.tolist()), scene.primitive_ids[src].tolist()):
            mapping.setdefault(coord, set()).add(pid)
    return mapping


def reference_cull(pvs, id_map):
    kept = set()
    for coord, ids in id_map.items():
        if pvs.get(*coord):
            kept.update(ids)
    return kept


def _scene(seed):
    scene, cell = generate_scene(SceneGenConfig(seed=seed))
    return scene, build_viewcell_frustum(cell)


class TestIdMapAndCull:
    @pytest.mark.parametrize("depth_mode", DEPTH_MODES)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_reference_loop(self, seed, depth_mode, rng):
        scene, frustum = _scene(seed)
        cfg = FroxelizeConfig(supersample=2, depth_mode=depth_mode)
        mapping = froxel_id_map(scene, frustum, (32, 16, 24), cfg)
        ref = reference_id_map(scene, frustum, (32, 16, 24), cfg)
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
        cfg = FroxelizeConfig()
        mapping = froxel_id_map(scene, frustum, (16, 16, 16), cfg)
        assert mapping == reference_id_map(scene, frustum, (16, 16, 16), cfg)
        assert -1000 in set().union(*mapping.values())

    def test_empty_scene(self):
        frustum = build_viewcell_frustum(default_cell())
        scene = TriScene(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
        mapping = froxel_id_map(scene, frustum, (16, 16, 16))
        assert mapping == {}
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


def test_froxel_metrics_counts(rng):
    pred_d = rng.random((16, 8, 8)) < 0.3
    gt_d = rng.random((16, 8, 8)) < 0.2
    rec = froxel_metrics(FroxelGrid.from_dense(pred_d), FroxelGrid.from_dense(gt_d))
    assert (rec.tp, rec.fp, rec.fn, rec.gtp) == (
        int((pred_d & gt_d).sum()), int((pred_d & ~gt_d).sum()),
        int((~pred_d & gt_d).sum()), int(gt_d.sum()))
    assert rec.fnr == rec.fn / rec.gtp and rec.fpr == rec.fp / rec.gtp
