"""Quantitative evaluation and the PVS consumption side.

Covers froxel-space confusion metrics, the image-space pixel error rate,
primitive culling from a froxel PVS, the far-field union pass, and temporal
bounding volumes for dynamic occludees.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Camera, Frustum, TriScene, Vec3, ViewCell, build_viewcell_frustum, \
    unproject_ndc
from .froxel import FroxelGrid, froxel_id_map
from .oracle import render_depth


@dataclass
class MetricsRecord:
    """Per-frame froxel and image metrics; rates are normalized by GTP."""

    frame: int
    fnr: float
    fpr: float
    per: float
    tp: int
    fp: int
    fn: int
    gtp: int
    infer_ms: float = 0.0
    oracle_ms: float = 0.0
    gtp_zero: bool = False


def _popcount(bits: np.ndarray) -> int:
    return int(np.bitwise_count(bits).sum())


def froxel_metrics(pred: FroxelGrid, gt: FroxelGrid, frame: int = 0,
                   per: float = 0.0, infer_ms: float = 0.0,
                   oracle_ms: float = 0.0) -> MetricsRecord:
    """Exact popcount-based confusion counts and FNR/FPR rates.

    An empty ground truth reports zero rates with the ``gtp_zero`` flag set.
    """
    if pred.dims != gt.dims:
        raise ValueError(f"grid dims mismatch: {pred.dims} vs {gt.dims}")
    tp = _popcount(pred.bits & gt.bits)
    fp = _popcount(pred.bits & ~gt.bits)
    fn = _popcount(~pred.bits & gt.bits)
    gtp = _popcount(gt.bits)
    if gtp == 0:
        return MetricsRecord(frame, 0.0, 0.0, per, tp, fp, fn, gtp,
                             infer_ms, oracle_ms, gtp_zero=True)
    return MetricsRecord(frame, fn / gtp, fp / gtp, per, tp, fp, fn, gtp,
                         infer_ms, oracle_ms)


def cull(scene: TriScene, pvs: FroxelGrid, id_map: dict) -> set:
    """Primitive ids that appear in at least one PVS-marked froxel."""
    coords = np.fromiter(itertools.chain.from_iterable(id_map), dtype=np.int64,
                         count=3 * len(id_map)).reshape(-1, 3)
    marked = pvs.get_many(coords)
    return set().union(*itertools.compress(id_map.values(), marked))


def pixel_error_rate(scene: TriScene, camera: Camera, pvs: FroxelGrid,
                     id_map: dict, resolution=(256, 256)) -> float:
    """Fraction of pixels whose visible primitive changes after culling.

    Both renders use the same deterministic rasterizer; a pixel exposing
    background because its primitive was culled counts as an error.
    """
    kept = cull(scene, pvs, id_map)
    full = render_depth(scene, camera, resolution)
    culled = render_depth(scene.subset(kept), camera, resolution)
    return float((full.prim != culled.prim).mean())


def far_field_merge(scene: TriScene, cell: ViewCell, pvs: FroxelGrid,
                    id_map: dict, threshold_distance: float,
                    resolution=(256, 256)) -> set:
    """Near-field culled set unioned with ids seen beyond the threshold.

    Renders one depth+id pass over the enlarged frustum; primitives whose
    nearest visible fragment lies farther than ``threshold_distance`` from
    the cell center are always kept.
    """
    if not (cell.near < threshold_distance < cell.far):
        raise ValueError("threshold must lie within the cell's (near, far) range")
    frustum = build_viewcell_frustum(cell)
    eye = Camera(frustum.origin, frustum.forward, frustum.up, frustum.right,
                 frustum.fov_deg, frustum.near, frustum.far)
    buf = render_depth(scene, eye, resolution)
    # depth is measured from the displaced origin; shift to cell-center range
    far_mask = (buf.prim >= 0) & (buf.depth - cell.displacement > threshold_distance)
    far_ids = set(int(i) for i in np.unique(buf.prim[far_mask]))
    return cull(scene, pvs, id_map) | far_ids


# ---------------------------------------------------------------------------
# Temporal bounding volumes
# ---------------------------------------------------------------------------

@dataclass
class TBV:
    """World-space box enclosing a moving object over [t0, t1]."""

    object_id: int
    t0: float
    t1: float
    box_min: np.ndarray
    box_max: np.ndarray


def tbv_build(box_min, box_max, velocity, t0: float, t1: float,
              object_id: int = 0) -> TBV:
    """Sweep a constant-velocity AABB over a time span.

    The result is the union of the boxes at t0 and t1, which contains the
    box at every intermediate time for linear motion.
    """
    if t1 < t0:
        raise ValueError("need t1 >= t0")
    lo = np.asarray(box_min, dtype=np.float64)
    hi = np.asarray(box_max, dtype=np.float64)
    if (hi < lo).any():
        raise ValueError("box_max must dominate box_min")
    v = velocity.as_array() if isinstance(velocity, Vec3) else np.asarray(velocity, float)
    shift = v * (t1 - t0)
    return TBV(object_id, t0, t1, np.minimum(lo, lo + shift), np.maximum(hi, hi + shift))


def froxel_world_bounds(frustum: Frustum, dims):
    """Conservative world AABB per froxel, from its eight cell corners.

    Returns (mins, maxs) arrays of shape (N_x, N_y, N_z, 3).
    """
    nx, ny, nz = (int(d) for d in dims)
    us = np.arange(nx + 1) / nx
    vs = np.arange(ny + 1) / ny
    ws = np.arange(nz + 1) / nz
    gu, gv, gw = np.meshgrid(us, vs, ws, indexing="ij")
    corners = unproject_ndc(frustum, np.column_stack([gu.ravel(), gv.ravel(), gw.ravel()]))
    corners = corners.reshape(nx + 1, ny + 1, nz + 1, 3)
    mins = np.full((nx, ny, nz, 3), np.inf)
    maxs = np.full((nx, ny, nz, 3), -np.inf)
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                block = corners[a:a + nx, b:b + ny, c:c + nz]
                np.minimum(mins, block, out=mins)
                np.maximum(maxs, block, out=maxs)
    return mins, maxs


def tbv_test(tbv: TBV, frustum: Frustum, dims, pvs: FroxelGrid,
             bounds=None) -> bool:
    """True iff the TBV overlaps any PVS-marked froxel.

    Froxel coverage is conservative (cell-corner AABB overlap), so enlarging
    the box can only keep or grow the covered set. ``bounds`` accepts a
    precomputed :func:`froxel_world_bounds` result.
    """
    if pvs.dims != tuple(int(d) for d in dims):
        raise ValueError("pvs dims do not match")
    mins, maxs = bounds if bounds is not None else froxel_world_bounds(frustum, dims)
    overlap = ((mins <= tbv.box_max) & (maxs >= tbv.box_min)).all(axis=3)
    return bool((overlap & pvs.to_dense()).any())


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------

METRICS_HEADER = "frame,fnr,fpr,per,tp,fp,fn,gtp,infer_ms,oracle_ms"


def write_metrics_csv(path, records):
    lines = [METRICS_HEADER]
    for r in records:
        lines.append(f"{r.frame},{r.fnr:.9g},{r.fpr:.9g},{r.per:.9g},"
                     f"{r.tp},{r.fp},{r.fn},{r.gtp},{r.infer_ms:.6g},{r.oracle_ms:.6g}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_metrics_csv(path) -> list:
    rows = Path(path).read_text().splitlines()
    if not rows or rows[0] != METRICS_HEADER:
        raise ValueError(f"{path}: not a metrics CSV")
    records = []
    for row in rows[1:]:
        f = row.split(",")
        records.append(MetricsRecord(int(f[0]), float(f[1]), float(f[2]), float(f[3]),
                                     int(f[4]), int(f[5]), int(f[6]), int(f[7]),
                                     float(f[8]), float(f[9])))
    return records

