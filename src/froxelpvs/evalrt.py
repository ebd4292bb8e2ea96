"""Quantitative evaluation and the PVS consumption side.

Covers froxel-space confusion metrics, the image-space pixel error rate,
primitive culling from a froxel PVS and the
:class:`~froxelpvs.froxel.FroxelIdMap` that
:func:`~froxelpvs.froxel.froxel_id_map` builds, and the metrics CSV report.
Culling works on the map's arrays: one gather of PVS bits, one
``np.unique``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Camera, TriScene
from .froxel import FroxelGrid, FroxelIdMap
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
    gtp_zero: bool = False


def _popcount(bits: np.ndarray) -> int:
    return int(np.bitwise_count(bits).sum())


def froxel_metrics(pred: FroxelGrid, gt: FroxelGrid, frame: int = 0,
                   per: float = 0.0) -> MetricsRecord:
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
        return MetricsRecord(frame, 0.0, 0.0, per, tp, fp, fn, gtp, gtp_zero=True)
    return MetricsRecord(frame, fn / gtp, fp / gtp, per, tp, fp, fn, gtp)


def cull(scene: TriScene, pvs: FroxelGrid, id_map: FroxelIdMap) -> set:
    """Primitive ids that appear in at least one PVS-marked froxel.

    Reads the PVS bit of each map row at once: with N_x a multiple of 8, flat
    froxel index f sits in byte ``f >> 3``, bit ``f & 7``. The marked rows'
    ids are then deduplicated in one ``np.unique``. A map built for other
    dims than the PVS raises ``IndexError``.
    """
    if id_map.dims != pvs.dims:
        raise IndexError(f"id map dims {id_map.dims} do not match PVS dims {pvs.dims}")
    cells = id_map.cells
    marked = ((pvs.bits[cells >> 3] >> (cells & 7).astype(np.uint8)) & 1).astype(bool)
    return set(np.unique(id_map.ids[np.repeat(marked, np.diff(id_map.starts))]).tolist())


def pixel_error_rate(scene: TriScene, camera: Camera, pvs: FroxelGrid,
                     id_map: FroxelIdMap, resolution=(256, 256)) -> float:
    """Fraction of pixels whose visible primitive changes after culling.

    Both renders use the same deterministic rasterizer; a pixel exposing
    background because its primitive was culled counts as an error.
    Coverage is compared apart from the id, because ``prim`` marks the
    background with -1, which is also a valid primitive id.
    """
    kept = cull(scene, pvs, id_map)
    full = render_depth(scene, camera, resolution)
    culled = render_depth(scene.subset(kept), camera, resolution)
    coverage_differs = np.isfinite(full.depth) != np.isfinite(culled.depth)
    return float((coverage_differs | (full.prim != culled.prim)).mean())


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------

METRICS_HEADER = "frame,fnr,fpr,per,tp,fp,fn,gtp"


def write_metrics_csv(path, records):
    lines = [METRICS_HEADER]
    for r in records:
        lines.append(f"{r.frame},{r.fnr:.9g},{r.fpr:.9g},{r.per:.9g},"
                     f"{r.tp},{r.fp},{r.fn},{r.gtp}")
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
                                     gtp_zero=int(f[7]) == 0))
    return records

