"""Dataset generation: the manifest round trip and where each pair's grids
come from."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from froxelpvs.core import build_viewcell_frustum
from froxelpvs.froxel import FroxelGrid, froxelize
from froxelpvs.neural import load_pairs
from froxelpvs.oracle import OracleConfig, compute_gt_pvs
from froxelpvs.scenegen import PRIMITIVE_KINDS, SceneGenConfig, frame_seed, \
    generate_dataset, generate_scene, primitive_mesh, read_manifest

# sha256 of a generated frame's vertices, triangles, primitive ids and the
# repr of its viewcell, pinned from a build of every primitive mesh per object
SCENE_DIGESTS = {
    0: "5b9b19557a3d83bd2809991cb7bd18483afb9ca376dfbd20944bbd3be8ca55d0",
    1: "581b4b0701defe8128d3515bce91018c332d5b0dcb2decdf10162ab17dadff12",
    7: "fae471825f8b8fc7d29d679a13e87211be57ab59e94e3b94d505348b28766490",
    frame_seed(0, 0): "67d87876ea86ec9cb8c97cf38f5ccccd20144a7f3e92bdc9bbd8217d37c52f40",
    frame_seed(1, 5): "61bc3de6084b88d8111e10666435a8ccef2a39e78cb37cdd6bc8e4e16683dd39",
}


@pytest.mark.parametrize("seed", sorted(SCENE_DIGESTS))
def test_generated_scene_is_pinned(seed):
    scene, cell = generate_scene(SceneGenConfig(seed=seed))
    h = hashlib.sha256()
    for arr in (scene.vertices, scene.triangles, scene.primitive_ids):
        h.update(arr.tobytes())
    h.update(repr(cell).encode())
    assert h.hexdigest() == SCENE_DIGESTS[seed]


@pytest.mark.parametrize("kind", PRIMITIVE_KINDS)
def test_primitive_mesh_is_shared_and_read_only(kind):
    """Every call returns the same arrays, so none of them may be written."""
    verts, tris = primitive_mesh(kind)
    assert primitive_mesh(kind)[0] is verts
    for arr in (verts, tris):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    assert verts.dtype == np.float64 and tris.dtype == np.int64


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
