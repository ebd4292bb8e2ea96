"""Plain forms of package rules that the package itself runs fused or in
place; the tests compare the package with them.

Each keeps the evaluation order that the bit-exact comparisons built on
it rely on.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from froxelpvs.core import Camera, TriScene, depth_to_w
from froxelpvs.evalrt import METRICS_HEADER, MetricsRecord
from froxelpvs.froxel import _MAX_PAIRS, RasterWork, _affine_table, _fragments, _interp_into
from froxelpvs.neural import PvsNet, _tensor_pairs


def quantize(uvw, dims):
    """Map NDC coordinates in [0,1]^3 to froxel indices: the rule of
    ``froxel._fragments``' x, y and z and of ``oracle._mark_covered``.

    Applies floor(u * N) per axis with the exact upper boundary (1.0)
    clamped back into range. Accepts a single triple or an (N, 3) array and
    returns int64 indices of the same leading shape. On finite input,
    clipping u * N to [0, N - 1] and truncating equals the floor, clipped.
    """
    arr = np.asarray(uvw, dtype=np.float64)
    scalar = arr.ndim == 1
    arr = np.atleast_2d(arr)
    idx = np.empty(arr.shape, dtype=np.int64)
    for a, n in enumerate(int(d) for d in dims):
        np.clip(arr[..., a] * float(n), 0, n - 1, out=idx[..., a], casting="unsafe")
    return idx[0] if scalar else idx


def interp_affine(attrs: np.ndarray, tri, b1, b2):
    """Interpolate per-vertex attributes (T, 3) over samples of triangles
    ``tri`` with the weights of vertices 1 and 2, through
    ``froxel._interp_into`` into fresh arrays; anchoring at vertex 0 keeps
    constant attributes bit-exact."""
    out, tmp = np.empty(len(tri)), np.empty(len(tri))
    _interp_into(out, tmp, _affine_table(attrs), tri, b1, b2)
    return out


def fragment_sources(scene: TriScene, frustum: Camera, dims):
    """``froxel._fragments``' chunks as copied (flat froxel index, scene
    triangle) pairs: the gather that ``froxel_id_map`` fuses with its
    primitive-id lookup."""
    for flat, src, tri, keep in _fragments(scene, frustum, dims, RasterWork(_MAX_PAIRS)):
        yield flat.copy(), src[tri[keep]]


def _froxel_byte(grid, x: int, y: int, z: int):
    """Byte and bit of in-range froxel (x, y, z) by the packing rule of the
    ``froxel`` module: byte (x >> 3) + (N_x / 8) * (y + N_y * z), bit x & 7."""
    nx, ny, _ = grid.dims
    return (x >> 3) + (nx // 8) * (y + ny * z), x & 7


def froxel_bit(grid, x: int, y: int, z: int) -> int:
    """The occupancy bit of froxel (x, y, z), read from ``grid.bits``."""
    byte, bit = _froxel_byte(grid, x, y, z)
    return int(grid.bits[byte] >> bit) & 1


def set_froxel(grid, x: int, y: int, z: int) -> None:
    """Set froxel (x, y, z) in ``grid.bits``."""
    byte, bit = _froxel_byte(grid, x, y, z)
    grid.bits[byte] |= np.uint8(1 << bit)


def project_points(camera: Camera, points):
    """Project world points into the camera's NDC cube: the rule that
    ``core.reproject_fragments`` fuses with unprojection.

    Returns ``(uvw, inside)`` where uvw has shape (N, 3) and inside is a
    boolean mask. Points behind the origin are flagged outside; their uvw
    values are unspecified.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    d = pts - camera.origin
    local = d @ camera.basis.T            # columns: x (right), y (up), z (forward)
    x, y, z = local[:, 0], local[:, 1], local[:, 2]
    ahead = z > 0
    zsafe = np.where(ahead, z, 1.0)
    h = camera.half_extent
    u = 0.5 + 0.5 * x / (zsafe * h)
    v = 0.5 + 0.5 * y / (zsafe * h)
    w = depth_to_w(camera, zsafe)
    uvw = np.column_stack([u, v, w])
    inside = ahead & (u >= 0) & (u <= 1) & (v >= 0) & (v <= 1) & (w >= 0) & (w <= 1)
    return uvw, inside


def unproject_ndc(camera: Camera, uvw) -> np.ndarray:
    """Inverse of :func:`project_points` for in-range coordinates."""
    uvw = np.asarray(uvw, dtype=np.float64).reshape(-1, 3)
    z = camera.near + uvw[:, 2] * (camera.far - camera.near)
    h = camera.half_extent
    x = (2.0 * uvw[:, 0] - 1.0) * h * z
    y = (2.0 * uvw[:, 1] - 1.0) * h * z
    return camera.origin + np.column_stack([x, y, z]) @ camera.basis


def subset(scene: TriScene, keep_ids) -> TriScene:
    """``scene`` restricted to triangles whose primitive id is in ``keep_ids``."""
    keep_ids = np.asarray(sorted(set(int(i) for i in keep_ids)), dtype=np.int64)
    mask = np.isin(scene.primitive_ids, keep_ids)
    return TriScene(scene.vertices, scene.triangles[mask], scene.primitive_ids[mask])


def read_metrics_csv(path) -> list:
    """The records of a metrics CSV that ``evalrt.write_metrics_csv`` wrote."""
    rows = Path(path).read_text().splitlines()
    if not rows or rows[0] != METRICS_HEADER:
        raise ValueError(f"{path}: not a metrics CSV")
    records = []
    for row in rows[1:]:
        f = row.split(",")
        records.append(MetricsRecord(int(f[0]), float(f[1]), float(f[2]), float(f[3]),
                                     int(f[4]), int(f[5]), int(f[6]), int(f[7])))
    return records


def confusion_counts(pred: np.ndarray, gt: np.ndarray):
    """TP, FP, FN and GTP of soft predictions, as ``neural.combined_loss``
    sums them."""
    tp = float((pred * gt).sum())
    fp = float((pred * (1.0 - gt)).sum())
    fn = float(((1.0 - pred) * gt).sum())
    return tp, fp, fn, float(gt.sum())


def dice_loss(pred: np.ndarray, gt: np.ndarray, alpha: float):
    """Weighted Dice loss 1 - 2TP / (2TP + alpha*FP + (1-alpha)*FN), with
    its gradient w.r.t. pred built elementwise: the form that
    ``neural.combined_loss`` evaluates as two scalars.

    Empty ground truth: 0 for an all-zero prediction, 1 otherwise.
    """
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError("prediction and ground truth shapes differ")
    tp, fp, fn, _ = confusion_counts(pred, gt)
    num = 2.0 * tp
    den = 2.0 * tp + alpha * fp + (1.0 - alpha) * fn
    if den == 0.0:
        return 0.0, np.zeros_like(pred)
    dnum = 2.0 * gt
    dden = 2.0 * gt + alpha * (1.0 - gt) - (1.0 - alpha) * gt
    grad = -(dnum * den - num * dden) / (den * den)
    # (den - num) / den == 1 - num/den but keeps simple anchors exact
    return (den - num) / den, grad


def rvl_loss(pred: np.ndarray, gt: np.ndarray):
    """Repulsive visibility loss (1 - TP/GTP) + FP/GTP, with its gradient
    built elementwise. Empty ground truth contributes 0 by convention."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError("prediction and ground truth shapes differ")
    tp, fp, _, gtp = confusion_counts(pred, gt)
    if gtp == 0.0:
        return 0.0, np.zeros_like(pred)
    loss = (1.0 - tp / gtp) + fp / gtp
    grad = (-gt + (1.0 - gt)) / gtp
    return loss, grad


def combined_loss(pred: np.ndarray, gt: np.ndarray, alpha: float, lam: float):
    """Convex combination lam * dice + (1 - lam) * rvl, elementwise."""
    dv, dg = dice_loss(pred, gt, alpha)
    rv, rg = rvl_loss(pred, gt)
    return lam * dv + (1.0 - lam) * rv, lam * dg + (1.0 - lam) * rg


def train_float64(pairs, mcfg, tcfg):
    """``neural.train``'s loop run in float64: the same net draw, batch
    order and update, with each bool batch cast to float64 so that every
    layer computes in float64, and the elementwise :func:`combined_loss`.
    Returns the net and the per-epoch mean losses."""
    x, y = _tensor_pairs(pairs, mcfg.d)
    rng = np.random.Generator(np.random.PCG64(tcfg.seed))
    net, losses = PvsNet(mcfg, rng), []
    for _ in range(tcfg.epochs):
        order, total = rng.permutation(len(x)), 0.0
        for start in range(0, len(x), tcfg.batch_size):
            batch = order[start:start + tcfg.batch_size]
            pred, caches = net.forward_cached(x[batch].astype(np.float64))
            parts = [combined_loss(p, g, tcfg.alpha, tcfg.lam) for p, g in zip(pred, y[batch])]
            grad = np.stack([g for _, g in parts]) / len(batch)
            net.sgd_step(net.backward(grad, caches), tcfg.lr)
            total += sum(loss for loss, _ in parts)
        losses.append(total / len(x))
    return net, losses
