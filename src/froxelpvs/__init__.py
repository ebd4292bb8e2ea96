"""From-region potentially visible sets on froxel grids."""

from .core import (Camera, SceneBuilder, TriScene, Vec3, ViewCell, build_viewcell_frustum,
                   depth_to_w, load_scene, reproject_fragments, save_scene)
from .froxel import FroxelGrid, FroxelIdMap, froxel_id_map, froxelize
from .interleave import ChannelTensor, deinterleave, interleave
from .oracle import DepthBuffer, OracleConfig, compute_gt_pvs, render_depth, sample_viewpoints
from .scenegen import SceneGenConfig, generate_dataset, generate_scene, read_manifest

__version__ = "0.1.0"
