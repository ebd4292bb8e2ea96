"""Randomized synthetic scene generation for PVS training data.

Scenes mix primitive and complex shapes with random pose, occasional
two-axis stretching that mimics walls and floors, and global base planes.
The viewcell sits at the scene center above the floor at a random height
with a random yaw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .core import SceneBuilder, TriScene, Vec3, ViewCell, build_viewcell_frustum
from .froxel import FroxelGrid, FroxelizeConfig, froxelize
from .oracle import OracleConfig, compute_gt_pvs

PRIMITIVE_KINDS = ("cube", "cone", "pyramid", "cylinder", "dodecahedron",
                   "icosahedron", "arch", "door-wall", "window-cube", "plane",
                   "blob")

_PHI = (1.0 + math.sqrt(5.0)) / 2.0


# ---------------------------------------------------------------------------
# Primitive meshes (unit-sized, centered at the origin)
# ---------------------------------------------------------------------------

def _cube():
    v = np.array([[x, y, z] for x in (-0.5, 0.5) for y in (-0.5, 0.5)
                  for z in (-0.5, 0.5)])
    f = np.array([
        [0, 1, 3], [0, 3, 2], [4, 6, 7], [4, 7, 5],
        [0, 4, 5], [0, 5, 1], [2, 3, 7], [2, 7, 6],
        [0, 2, 6], [0, 6, 4], [1, 5, 7], [1, 7, 3],
    ])
    return v, f


def _plane():
    v = np.array([[-0.5, -0.5, 0.0], [0.5, -0.5, 0.0], [0.5, 0.5, 0.0], [-0.5, 0.5, 0.0]])
    f = np.array([[0, 1, 2], [0, 2, 3]])
    return v, f


def _pyramid():
    v = np.array([[-0.5, -0.5, -0.5], [0.5, -0.5, -0.5], [0.5, -0.5, 0.5],
                  [-0.5, -0.5, 0.5], [0.0, 0.5, 0.0]])
    f = np.array([[0, 2, 1], [0, 3, 2],
                  [0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]])
    return v, f


def _circle(n, y, radius):
    ang = 2.0 * math.pi * np.arange(n) / n
    return np.column_stack([radius * np.cos(ang), np.full(n, y), radius * np.sin(ang)])


def _cone(n=12):
    ring = _circle(n, -0.5, 0.5)
    verts = np.vstack([ring, [[0.0, -0.5, 0.0]], [[0.0, 0.5, 0.0]]])
    base_c, apex = n, n + 1
    faces = []
    for i in range(n):
        j = (i + 1) % n
        faces.append([base_c, j, i])        # base fan, facing down
        faces.append([i, j, apex])          # side
    return verts, np.array(faces)


def _cylinder(n=12):
    bot = _circle(n, -0.5, 0.5)
    top = _circle(n, 0.5, 0.5)
    verts = np.vstack([bot, top, [[0.0, -0.5, 0.0]], [[0.0, 0.5, 0.0]]])
    cb, ct = 2 * n, 2 * n + 1
    faces = []
    for i in range(n):
        j = (i + 1) % n
        faces.append([i, j, n + j])
        faces.append([i, n + j, n + i])
        faces.append([cb, j, i])
        faces.append([ct, n + i, n + j])
    return verts, np.array(faces)


def _icosahedron():
    a, b = 1.0, _PHI
    v = np.array([
        [-a, b, 0], [a, b, 0], [-a, -b, 0], [a, -b, 0],
        [0, -a, b], [0, a, b], [0, -a, -b], [0, a, -b],
        [b, 0, -a], [b, 0, a], [-b, 0, -a], [-b, 0, a],
    ], dtype=np.float64)
    v *= 0.5 / np.linalg.norm(v[0])
    f = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ])
    return v, f


def _dodecahedron():
    """Dual of the icosahedron: one pentagon per icosahedron vertex."""
    iv, ifc = _icosahedron()
    centers = iv[ifc].mean(axis=1)
    centers *= 0.5 / np.abs(centers).max()
    verts = centers
    faces = []
    for vi in range(len(iv)):
        ring = np.nonzero((ifc == vi).any(axis=1))[0]
        axis = iv[vi] / np.linalg.norm(iv[vi])
        ref = verts[ring[0]] - axis * (verts[ring[0]] @ axis)
        ref /= np.linalg.norm(ref)
        ref2 = np.cross(axis, ref)
        ang = [math.atan2(verts[r] @ ref2, verts[r] @ ref) for r in ring]
        ring = ring[np.argsort(ang)]
        for k in range(1, 4):
            faces.append([ring[0], ring[k], ring[k + 1]])
    f = np.array(faces)
    # orient each triangle outward (away from the origin)
    p = verts[f]
    n = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    flip = (n * p.mean(axis=1)).sum(axis=1) < 0
    f[flip] = f[flip][:, [0, 2, 1]]
    return verts, f


def _arch(n=8):
    """Extruded half annulus: a round arch spanning x with feet at the bottom."""
    r_out, r_in, depth = 0.5, 0.28, 0.2
    ang = math.pi * np.arange(n + 1) / n
    xo, yo = r_out * np.cos(ang), r_out * np.sin(ang)
    xi, yi = r_in * np.cos(ang), r_in * np.sin(ang)
    y_shift = -0.25
    verts = []
    for z in (-depth, depth):
        for x, y in zip(xo, yo):
            verts.append([x, y + y_shift, z])
        for x, y in zip(xi, yi):
            verts.append([x, y + y_shift, z])
    verts = np.array(verts)
    m = n + 1
    fo, fi, bo, bi = 0, m, 2 * m, 3 * m   # front outer/inner, back outer/inner
    faces = []
    for i in range(n):
        faces += [[fo + i, fi + i, fi + i + 1], [fo + i, fi + i + 1, fo + i + 1]]
        faces += [[bo + i, bi + i + 1, bi + i], [bo + i, bo + i + 1, bi + i + 1]]
        faces += [[fo + i, fo + i + 1, bo + i + 1], [fo + i, bo + i + 1, bo + i]]
        faces += [[fi + i, bi + i + 1, fi + i + 1], [fi + i, bi + i, bi + i + 1]]
    for a, b in ((0, 0), (n, n)):          # flat feet at both ends
        faces += [[fo + a, bo + a, bi + b], [fo + a, bi + b, fi + a]]
    return verts, np.array(faces)


def _grid_slab(xs, ys, holes, depth):
    """Extruded slab over an xs * ys grid of cells with some cells cut out.

    Front and back faces cover all solid cells; a side quad is emitted for
    every grid edge bordering exactly one solid cell, which produces both the
    outer shell and the cutout lining without T-junctions.
    """
    nx, ny = len(xs), len(ys)
    half = depth / 2.0
    verts = [[xs[i], ys[j], z] for z in (half, -half) for j in range(ny) for i in range(nx)]

    def vid(i, j, back):
        return (nx * ny if back else 0) + j * nx + i

    def solid(i, j):
        return 0 <= i < nx - 1 and 0 <= j < ny - 1 and (i, j) not in holes

    quads = []
    for j in range(ny - 1):
        for i in range(nx - 1):
            if not solid(i, j):
                continue
            quads.append((vid(i, j, 0), vid(i + 1, j, 0),
                          vid(i + 1, j + 1, 0), vid(i, j + 1, 0)))
            quads.append((vid(i, j + 1, 1), vid(i + 1, j + 1, 1),
                          vid(i + 1, j, 1), vid(i, j, 1)))
    for j in range(ny):              # horizontal edges
        for i in range(nx - 1):
            if solid(i, j - 1) != solid(i, j):
                quads.append((vid(i, j, 0), vid(i + 1, j, 0),
                              vid(i + 1, j, 1), vid(i, j, 1)))
    for j in range(ny - 1):          # vertical edges
        for i in range(nx):
            if solid(i - 1, j) != solid(i, j):
                quads.append((vid(i, j, 0), vid(i, j + 1, 0),
                              vid(i, j + 1, 1), vid(i, j, 1)))
    tris = []
    for q in quads:
        tris.append([q[0], q[1], q[2]])
        tris.append([q[0], q[2], q[3]])
    return np.array(verts, dtype=np.float64), np.array(tris)


def _door_wall():
    """Thin wall with a door-shaped cutout reaching the bottom edge."""
    return _grid_slab([-0.5, -0.15, 0.15, 0.5], [-0.5, 0.1, 0.5], {(1, 0)}, 0.1)


def _window_cube():
    """Cube with a centered square through-hole (genus 1)."""
    return _grid_slab([-0.5, -0.2, 0.2, 0.5], [-0.5, -0.2, 0.2, 0.5], {(1, 1)}, 1.0)


def _blob(nu=18, nv=12):
    """Fixed lumpy torus standing in for a complex organic shape."""
    us = 2.0 * math.pi * np.arange(nu) / nu
    vs = 2.0 * math.pi * np.arange(nv) / nv
    gu, gv = np.meshgrid(us, vs, indexing="ij")
    r_major = 0.32
    r_minor = 0.11 * (1.0 + 0.35 * np.sin(3 * gu) * np.cos(2 * gv))
    x = (r_major + r_minor * np.cos(gv)) * np.cos(gu)
    z = (r_major + r_minor * np.cos(gv)) * np.sin(gu)
    y = r_minor * np.sin(gv)
    verts = np.column_stack([x.ravel(), y.ravel(), z.ravel()])
    faces = []
    for i in range(nu):
        for j in range(nv):
            a = i * nv + j
            b = ((i + 1) % nu) * nv + j
            c = ((i + 1) % nu) * nv + (j + 1) % nv
            d = i * nv + (j + 1) % nv
            faces += [[a, b, c], [a, c, d]]
    return verts, np.array(faces)


_FACTORIES = {
    "cube": _cube,
    "cone": _cone,
    "pyramid": _pyramid,
    "cylinder": _cylinder,
    "dodecahedron": _dodecahedron,
    "icosahedron": _icosahedron,
    "arch": _arch,
    "door-wall": _door_wall,
    "window-cube": _window_cube,
    "plane": _plane,
    "blob": _blob,
}


def make_primitive(kind: str) -> TriScene:
    """Unit-sized mesh for one shape class, centered at the origin."""
    if kind not in _FACTORIES:
        raise ValueError(f"unknown primitive kind {kind!r}; expected one of {PRIMITIVE_KINDS}")
    verts, tris = _FACTORIES[kind]()
    builder = SceneBuilder()
    builder.add(kind, verts, tris)
    return builder.build()


def primitive_mesh(kind: str):
    """Raw (vertices, triangles) arrays for one shape class."""
    if kind not in _FACTORIES:
        raise ValueError(f"unknown primitive kind {kind!r}; expected one of {PRIMITIVE_KINDS}")
    return _FACTORIES[kind]()


# ---------------------------------------------------------------------------
# Scene generation
# ---------------------------------------------------------------------------

@dataclass
class SceneGenConfig:
    """Distribution parameters for one synthetic frame."""

    seed: int = 0
    count_range: tuple = (6, 14)
    class_weights: dict | None = None       # defaults to uniform over all kinds
    scale_range: tuple = (0.5, 4.0)         # log-uniform, per axis
    stretch_prob: float = 0.15              # turn an object into a wall/floor slab
    stretch_range: tuple = (5.0, 20.0)      # log-uniform factor on two axes
    floor: bool = True
    wall: bool = True
    ceiling: bool = False
    ceiling_height: float = 6.0
    extent: float = 12.0                    # lateral placement half-extent (m)
    height_range: tuple = (0.8, 2.2)        # viewcell height above the floor
    radius: float = 0.3
    fov_deg: float = 60.0
    beta_deg: float = 15.0
    near: float = 0.3
    far: float = 20.0

    def __post_init__(self):
        lo, hi = self.count_range
        if lo > hi or hi < 0:
            raise ValueError("object count range is empty")
        if self.scale_range[0] <= 0 or self.stretch_range[0] <= 0:
            raise ValueError("scales must be positive")


def _rotation(rng) -> np.ndarray:
    """Uniform independent yaw/pitch/roll angles composed into one matrix."""
    yaw, pitch, roll = rng.uniform(0.0, 2.0 * math.pi, size=3)
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cr, sr = math.cos(roll), math.sin(roll)
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rx = np.array([[1, 0, 0], [0, cp, -sp], [0, sp, cp]])
    rz = np.array([[cr, -sr, 0], [sr, cr, 0], [0, 0, 1]])
    return ry @ rx @ rz


def generate_scene(cfg: SceneGenConfig):
    """Build one synthetic frame; returns ``(scene, viewcell)``.

    Identical configs (including the seed) produce identical output.
    """
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    builder = SceneBuilder()
    weights = cfg.class_weights or {k: 1.0 for k in PRIMITIVE_KINDS}
    kinds = sorted(weights)
    probs = np.array([weights[k] for k in kinds], dtype=np.float64)
    probs /= probs.sum()

    n_objects = int(rng.integers(cfg.count_range[0], cfg.count_range[1] + 1))
    lo_s, hi_s = np.log(cfg.scale_range[0]), np.log(cfg.scale_range[1])
    lo_t, hi_t = np.log(cfg.stretch_range[0]), np.log(cfg.stretch_range[1])
    for i in range(n_objects):
        kind = kinds[int(rng.choice(len(kinds), p=probs))]
        verts, tris = primitive_mesh(kind)
        scale = np.exp(rng.uniform(lo_s, hi_s, size=3))
        if rng.random() < cfg.stretch_prob:
            axes = rng.permutation(3)[:2]
            scale[axes] *= np.exp(rng.uniform(lo_t, hi_t, size=2))
        v = verts * scale
        v = v @ _rotation(rng).T
        pos = np.array([rng.uniform(-cfg.extent, cfg.extent),
                        rng.uniform(0.2, 4.0),
                        rng.uniform(-cfg.extent, cfg.extent)])
        builder.add(f"{kind}_{i}", v + pos, tris)

    height = rng.uniform(*cfg.height_range)
    yaw = rng.uniform(0.0, 2.0 * math.pi)
    forward = Vec3(math.sin(yaw), 0.0, math.cos(yaw))

    span = cfg.extent * 2.5
    if cfg.floor:
        v, f = _plane()
        flat = v[:, [0, 2, 1]] * np.array([2 * span, 0.0, 2 * span])   # rotate into XZ
        builder.add("floor", flat, f)
    if cfg.ceiling:
        v, f = _plane()
        flat = v[:, [0, 2, 1]] * np.array([2 * span, 0.0, 2 * span])
        flat[:, 1] = cfg.ceiling_height
        builder.add("ceiling", flat, f[:, [0, 2, 1]])
    if cfg.wall:
        v, f = _plane()
        fwd = forward.as_array()
        right = np.array([fwd[2], 0.0, -fwd[0]])
        wall = (v[:, 0:1] * right[None, :] * 2 * span
                + v[:, 1:2] * np.array([[0.0, 1.0, 0.0]]) * 2 * span)
        wall[:, 1] += span * 0.5
        builder.add("wall", wall + fwd * (cfg.extent * 1.2), f)

    scene = builder.build()
    cell = ViewCell.from_forward(Vec3(0.0, height, 0.0), cfg.radius, cfg.fov_deg,
                                 cfg.beta_deg, forward, cfg.near, cfg.far)
    return scene, cell


# ---------------------------------------------------------------------------
# Dataset generation
# ---------------------------------------------------------------------------

@dataclass
class FrameRecord:
    index: int
    seed: int
    geometry_path: str
    gt_path: str


class DatasetError(RuntimeError):
    def __init__(self, index: int, message: str):
        super().__init__(f"frame {index}: {message}")
        self.index = index


def frame_seed(master_seed: int, index: int) -> int:
    """Stable per-frame seed from a splittable seed sequence."""
    ss = np.random.SeedSequence([int(master_seed), int(index)])
    return int(ss.generate_state(1, np.uint64)[0])


def generate_dataset(cfg: SceneGenConfig, n_frames: int, out_dir,
                     dims=(32, 32, 32), ocfg: OracleConfig | None = None,
                     fcfg: FroxelizeConfig | None = None) -> Path:
    """Write ``n_frames`` (geometry, gt) grid pairs plus a manifest.

    The manifest is line-oriented: ``index seed geometry_path gt_path``.
    Each geometry grid is the run-time ``froxelize(scene, frustum, dims,
    fcfg)`` grid with the frame's ground truth OR-ed in. Every pair is
    validated for the PVS-subset-of-geometry property before
    it is written.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ocfg = ocfg or OracleConfig()
    fcfg = fcfg or FroxelizeConfig()
    lines = ["# froxelpvs dataset: index seed geometry gt"]
    records = []
    for i in range(n_frames):
        seed = frame_seed(cfg.seed, i)
        scene, cell = generate_scene(replace(cfg, seed=seed))
        frustum = build_viewcell_frustum(cell)
        geometry = froxelize(scene, frustum, dims, fcfg)
        gt = compute_gt_pvs(scene, cell, dims, ocfg, fcfg, geometry=geometry)
        if not gt.subset_of(geometry):
            raise DatasetError(i, "ground truth escapes the geometry grid")
        geo_name, gt_name = f"geometry_{i:05d}.fpvs", f"gt_{i:05d}.fpvs"
        try:
            geometry.save(out_dir / geo_name)
            gt.save(out_dir / gt_name)
        except OSError as exc:
            raise DatasetError(i, f"write failed: {exc}") from exc
        lines.append(f"{i} {seed} {geo_name} {gt_name}")
        records.append(FrameRecord(i, seed, geo_name, gt_name))
    manifest = out_dir / "manifest.txt"
    try:
        manifest.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise DatasetError(n_frames, f"manifest write failed: {exc}") from exc
    return manifest


def read_manifest(path) -> list:
    """Parse a dataset manifest into FrameRecords with resolved paths."""
    path = Path(path)
    records = []
    for line in path.read_text().splitlines():
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 4:
            raise ValueError(f"bad manifest record: {line!r}")
        records.append(FrameRecord(int(parts[0]), int(parts[1]),
                                   str(path.parent / parts[2]),
                                   str(path.parent / parts[3])))
    return records
