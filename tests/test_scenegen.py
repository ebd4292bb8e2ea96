"""Dataset generation: the manifest round trip and where each pair's grids
come from."""

from dataclasses import replace

from froxelpvs.core import build_viewcell_frustum
from froxelpvs.froxel import FroxelGrid, froxelize
from froxelpvs.neural import load_pairs
from froxelpvs.oracle import OracleConfig, compute_gt_pvs
from froxelpvs.scenegen import SceneGenConfig, frame_seed, generate_dataset, \
    generate_scene, read_manifest


def test_geometry_is_runtime_froxelize_or_gt(tmp_path):
    """Training geometry is the grid ``froxelize`` gives at run time, with
    the frame's ground truth OR-ed in; the manifest names each frame's seed
    and files."""
    cfg = SceneGenConfig(seed=7)
    ocfg = OracleConfig(viewpoints=4)
    dims = (16, 16, 16)
    manifest = generate_dataset(cfg, 2, tmp_path / "data", dims=dims, ocfg=ocfg)
    records = read_manifest(manifest)
    assert [(r.index, r.seed) for r in records] == [(i, frame_seed(7, i)) for i in range(2)]
    for rec, (geometry, gt) in zip(records, load_pairs(manifest)):
        assert geometry == FroxelGrid.load(rec.geometry_path)
        assert gt == FroxelGrid.load(rec.gt_path) and gt.role == "gt_pvs"
        scene, cell = generate_scene(replace(cfg, seed=rec.seed))
        want_gt = compute_gt_pvs(scene, cell, dims, ocfg)
        assert gt == want_gt
        assert geometry == froxelize(scene, build_viewcell_frustum(cell), dims) | want_gt
