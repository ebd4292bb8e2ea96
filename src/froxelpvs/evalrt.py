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

    @property
    def gtp_zero(self) -> bool:
        """Whether the ground truth is empty, so the rates read 0 by convention."""
        return self.gtp == 0


def froxel_metrics(pred: FroxelGrid, gt: FroxelGrid, per: float = 0.0) -> MetricsRecord:
    """Exact confusion counts and FNR/FPR rates, as a record of frame 0:
    tp = |pred & gt|, fp = |pred| - tp, fn = |gt| - tp. Grids of other dims
    raise ``ValueError``.

    An empty ground truth reports zero rates, and the record's ``gtp_zero``
    reads true.
    """
    tp = (pred & gt).occupied_count()
    fp = pred.occupied_count() - tp
    gtp = gt.occupied_count()
    fn = gtp - tp
    fnr, fpr = (0.0, 0.0) if gtp == 0 else (fn / gtp, fp / gtp)
    return MetricsRecord(0, fnr, fpr, per, tp, fp, fn, gtp)


def cull(scene: TriScene, pvs: FroxelGrid, id_map: FroxelIdMap) -> set:
    """Primitive ids that appear in at least one PVS-marked froxel.

    Reads the PVS bit of each map row at once, then deduplicates the marked
    rows' ids in one ``np.unique``. A map built for other dims than the PVS
    raises ``IndexError``.
    """
    if id_map.dims != pvs.dims:
        raise IndexError(f"id map dims {id_map.dims} do not match PVS dims {pvs.dims}")
    marked = pvs.at(id_map.cells)
    return set(np.unique(id_map.ids[np.repeat(marked, np.diff(id_map.starts))]).tolist())


def pixel_error_rate(scene: TriScene, camera: Camera, pvs: FroxelGrid,
                     id_map: FroxelIdMap, resolution=(256, 256)) -> float:
    """Fraction of pixels whose visible primitive changes after culling.

    One render gives the rate that comparing renders with and without the
    culled primitives gives. A triangle's fragments do not depend on the
    other triangles, so a kept winner still wins a pixel after culling, by
    depth and then by the smallest id; a culled winner leaves another id or
    background. So a pixel is an error exactly when it is covered and its
    winner is culled. Coverage is read from the depth, because ``prim``
    marks the background with -1, which is also a valid primitive id.
    """
    kept = np.fromiter(cull(scene, pvs, id_map), dtype=np.int64)
    full = render_depth(scene, camera, resolution)
    return float((np.isfinite(full.depth) & ~np.isin(full.prim, kept)).mean())


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
