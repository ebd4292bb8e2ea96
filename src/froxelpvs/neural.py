"""Volumetric convolutional PVS estimator with one table-driven kernel.

The network maps an interleaved geometry tensor to per-froxel visibility
probabilities. Layers are 3D cross-correlations with zero padding (spatial
dims preserved) and hand-derived backward passes. Every layer call, dense or
sparse, forward or backward, walks a neighbour table (:func:`conv_rules`):
per kernel offset, a row gather plus one GEMM, as in submanifold sparse
convolution (Graham & van der Maaten, arXiv:1706.01307; Choy et al., CVPR
2019). A dense grid is the table with every cell present. A layer call
computes in its input's precision: float64 rows in float64, any other rows
(bool, float32) in float32. Training feeds bool frames, so it runs dense in
float32 against float64 master weights (mixed precision, Micikevicius et
al., ICLR 2018); float64 input runs the same kernel in float64, where
gradients check out against central finite differences. Inference
(:func:`predict_pvs`) runs in float32 and computes only the cells that can
reach an occupied froxel; its output is masked by the geometry grid.

The loss (:func:`combined_loss`) follows the conventional confusion-count
reading: on soft predictions p and binary ground truth g, TP = sum(p*g),
FP = sum(p*(1-g)), FN = sum((1-p)*g), GTP = sum(g). Its Dice and RVL
terms depend on p only through these sums, and each sum's derivative
w.r.t. one p is 0 or +-1 by that froxel's g alone. So the gradient takes
one value on visible froxels and one everywhere else: it is computed as
two scalars and spread with ``np.where(g, at_1, at_0)``.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .froxel import FroxelGrid
from .interleave import ChannelTensor, deinterleave, interleave

FPVW_MAGIC = b"FPVW"
FPVW_VERSION = 1
ACTIVATIONS = ("relu", "sigmoid", "none")
IDENTITY_NOISE = 0.02   # identity init: weight noise, before fan-in scaling


class TrainingDiverged(RuntimeError):
    """Raised when a non-finite loss shows up; carries the batch index."""

    def __init__(self, batch_index: int, value: float):
        super().__init__(f"non-finite loss {value!r} at batch {batch_index}")
        self.batch_index = batch_index


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class ConvSpec:
    kernel: int
    in_channels: int
    out_channels: int
    activation: str = "relu"

    def __post_init__(self):
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ValueError("kernel size must be odd so spatial dims are preserved")
        if self.in_channels < 1 or self.out_channels < 1:
            raise ValueError("channel counts must be positive")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass
class ModelConfig:
    """Interleave factor plus the convolution stack.

    ``init`` picks the weight initialization: "he" is scaled random noise;
    "identity" seeds the stack to approximate the pass-through map (predict
    visible wherever occupied), a useful prior since the ground truth is a
    subset of the geometry. Identity seeding requires every hidden layer to
    carry at least d^3 channels.
    """

    d: int
    layers: list
    init: str = "he"

    def __post_init__(self):
        if not self.layers:
            raise ValueError("model needs at least one layer")
        if self.init not in ("he", "identity"):
            raise ValueError(f"unknown init {self.init!r}")
        want = self.d ** 3
        if self.layers[0].in_channels != want:
            raise ValueError(f"first layer must take d^3 = {want} channels")
        for prev, cur in zip(self.layers, self.layers[1:]):
            if cur.in_channels != prev.out_channels:
                raise ValueError("layer channel chain is inconsistent")
        last = self.layers[-1]
        if last.out_channels != want or last.activation != "sigmoid":
            raise ValueError(f"final layer must emit d^3 = {want} channels with sigmoid")
        if self.init == "identity":
            for spec in self.layers:
                if spec.out_channels < want and spec is not self.layers[-1]:
                    raise ValueError("identity init needs >= d^3 channels per hidden layer")

    @classmethod
    def default(cls, d: int, hidden: int = 32, init: str = "he") -> "ModelConfig":
        if d < 1:
            raise ValueError(f"interleave factor d must be >= 1, got {d}")
        c = d ** 3
        return cls(d, [ConvSpec(3, c, hidden, "relu"),
                       ConvSpec(3, hidden, hidden, "relu"),
                       ConvSpec(3, hidden, c, "sigmoid")], init)


@dataclass
class TrainConfig:
    """Loss weights, threshold, and optimizer settings."""

    alpha: float = 0.1        # Dice false-positive weight; misses get (1 - alpha)
    lam: float = 0.99         # combined-loss weight on the Dice term
    tau: float = 0.5          # decision threshold
    lr: float = 1e-3
    batch_size: int = 3
    epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        for name in ("alpha", "lam", "tau"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if not 0.0 < self.lr < np.inf:
            raise ValueError(f"learning rate must be positive and finite, got {self.lr}")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError(f"need batch >= 1, epochs >= 0; got {self.batch_size}, {self.epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


# ---------------------------------------------------------------------------
# Convolution layer
# ---------------------------------------------------------------------------

def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))      # never overflows
    out = np.where(z >= 0, 1, e)
    e += 1
    out /= e
    return out


class Conv3d:
    """3D cross-correlation, zero padded, plus bias and nonlinearity.

    Weights are kept as a (k^3 * C_in, C_out) matrix whose row index is
    (a*k + b)*k + c kernel offsets times C_in, i.e. the C-order flattening of
    a (k, k, k, C_in, C_out) tensor.
    """

    def __init__(self, spec: ConvSpec, rng: np.random.Generator | None = None):
        self.spec = spec
        k3c = spec.kernel ** 3 * spec.in_channels
        if rng is None:
            self.w = np.zeros((k3c, spec.out_channels))
        else:
            scale = np.sqrt((2.0 if spec.activation == "relu" else 1.0) / k3c)
            self.w = rng.normal(0.0, scale, size=(k3c, spec.out_channels))
        self.b = np.zeros(spec.out_channels)

    def seed_identity(self, rng: np.random.Generator, gain: float):
        """Center-tap identity on matching channels plus small noise."""
        k = self.spec.kernel
        cin, cout = self.spec.in_channels, self.spec.out_channels
        w = rng.normal(0.0, IDENTITY_NOISE / np.sqrt(k ** 3 * cin), size=(k ** 3, cin, cout))
        for j in range(min(cin, cout)):
            w[(k ** 3) // 2, j, j] += gain
        self.w = w.reshape(k ** 3 * cin, cout)

    def forward(self, x: np.ndarray, keep_cache: bool = False, rules=None):
        """Returns the activation output, plus a backward cache when asked.

        One kernel serves every caller: per kernel offset j, in weight-row
        order, the rows of a neighbour table (:func:`conv_rules`) that have
        an input neighbour add ``x[in_j] @ w_j`` to their bias. A missing
        neighbour adds zero, as zero padding does, so a row with none keeps
        its bias. With ``rules``, ``x`` holds one (C_in,) row per input cell
        and the result one (C_out,) row per output cell. Without, ``x`` is a
        dense (B, D, H, W, C_in) tensor, run through the full grid's table
        with its rows offset per batch item, and the result is 5D.
        The layer computes in its input's precision: float64 input in
        float64, any other (bool, float32) in float32, with the weights
        cast to match. ``keep_cache`` only decides whether it also returns
        what :meth:`backward` needs: the input rows in that precision, the
        table, the output ``y`` and the input's shape. The pre-activation
        is not kept: ReLU's mask ``y > 0`` equals ``z > 0``
        because ``y = max(z, 0)``, sigmoid's derivative reads ``y``, and
        with no activation ``y`` is ``z``.
        """
        k, cin, cout = self.spec.kernel, self.spec.in_channels, self.spec.out_channels
        if rules is None:
            if x.ndim != 5 or x.shape[4] != cin:
                raise ValueError(f"expected (B, D, H, W, {cin}) input, got {x.shape}")
            rules, rows = _dense_rules(x.shape, k), x.reshape(-1, cin)
        else:
            if x.ndim != 2 or x.shape[1] != cin:
                raise ValueError(f"expected (rows, {cin}) input, got {x.shape}")
            if rules.shape[0] != k ** 3:
                raise ValueError(f"expected {k ** 3} kernel offsets, got {rules.shape[0]}")
            rows = x
        dtype = np.float64 if rows.dtype == np.float64 else np.float32
        rows = rows.astype(dtype, copy=False)
        taps = self.w.astype(dtype, copy=False).reshape(k ** 3, cin, cout)
        z = np.empty((rules.shape[1], cout), dtype=dtype)
        z[:] = self.b
        for j, ins in enumerate(rules):
            outs = np.flatnonzero(ins >= 0)
            z[outs] += rows[ins[outs]] @ taps[j]
        y = self._activate(z)
        out = y.reshape(*x.shape[:-1], cout) if x.ndim == 5 else y
        if not keep_cache:
            return out
        return out, (rows, rules, y, x.shape)

    def _activate(self, z: np.ndarray) -> np.ndarray:
        act = self.spec.activation
        if act == "relu":
            return np.maximum(z, 0.0)
        if act == "sigmoid":
            return _sigmoid(z)
        return z

    def backward(self, dy: np.ndarray, cache, need_dx: bool = True):
        """Gradients of the scalar loss w.r.t. (input, weights, bias).

        Walks the forward's neighbour table: per offset j,
        ``dw[j] = x[in_j]^T dz[out_j]`` and ``dx[in_j] += dz[out_j] w_j^T``.
        It runs in the forward's precision: ``dy`` and the weights are cast
        to the cached rows' dtype, and so are the gradients. The input
        gradient comes back in the input's shape, or as None when
        ``need_dx`` is off.
        """
        if cache is None:
            raise ValueError("backward requires the forward cache")
        rows, rules, y, xshape = cache
        k, cin, cout = self.spec.kernel, self.spec.in_channels, self.spec.out_channels
        dy = dy.reshape(-1, cout).astype(rows.dtype, copy=False)
        act = self.spec.activation
        if act == "relu":
            dz = dy * (y > 0)
        elif act == "sigmoid":
            dz = dy * y * (1.0 - y)
        else:
            dz = dy
        taps = self.w.astype(rows.dtype, copy=False).reshape(k ** 3, cin, cout)
        dw = np.empty_like(taps)
        dx = np.zeros_like(rows) if need_dx else None
        for j, ins in enumerate(rules):
            outs = np.flatnonzero(ins >= 0)
            src, dz_j = ins[outs], dz[outs]
            dw[j] = rows[src].T @ dz_j
            if need_dx:
                dx[src] += dz_j @ taps[j].T
        if need_dx:
            dx = dx.reshape(xshape)
        return dx, dw.reshape(k ** 3 * cin, cout), dz.sum(axis=0)


class PvsNet:
    """Stack of Conv3d layers mapping channel tensors to probabilities."""

    OUTPUT_GAIN = 3.0   # identity init: logit scale of the pass-through output

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator | None = None):
        self.cfg = cfg
        # identity init draws its own weights below, so only "he" draws here
        self.layers = [Conv3d(spec, rng if cfg.init == "he" else None) for spec in cfg.layers]
        if cfg.init == "identity" and rng is not None:
            for layer in self.layers[:-1]:
                layer.seed_identity(rng, 1.0)
            self.layers[-1].seed_identity(rng, self.OUTPUT_GAIN)
            self.layers[-1].b[:] = -self.OUTPUT_GAIN / 2.0

    def forward_cached(self, x: np.ndarray):
        """Output on a dense (B, D, H, W, C) batch, plus the per-layer
        caches :meth:`backward` reads.

        A float64 batch runs every layer in float64; any other batch (the
        bool frames training feeds) is cast to float32 once, by the first
        layer, and the whole chain, caches included, stays float32. The
        batch's neighbour table is built once per kernel size and shared
        by every layer and cache; layers pass C-order rows, and the output
        takes its 5D shape at the end.
        """
        if x.ndim != 5:
            raise ValueError(f"expected a (B, D, H, W, C) batch, got {x.shape}")
        tables = {}
        rows, caches = x.reshape(-1, x.shape[4]), []
        for layer in self.layers:
            k = layer.spec.kernel
            if k not in tables:
                tables[k] = _dense_rules(x.shape, k)
            rows, cache = layer.forward(rows, keep_cache=True, rules=tables[k])
            caches.append(cache)
        return rows.reshape(*x.shape[:4], -1), caches

    def backward(self, dy: np.ndarray, caches):
        """Per-layer (dw, db) gradients. The network's input gradient is
        never formed: training has no use for it."""
        grads = [None] * len(self.layers)
        for i in reversed(range(len(self.layers))):
            dy, dw, db = self.layers[i].backward(dy, caches[i], need_dx=i > 0)
            grads[i] = (dw, db)
        return grads

    def sgd_step(self, grads, lr: float):
        for layer, (dw, db) in zip(self.layers, grads):
            layer.w -= lr * dw
            layer.b -= lr * db

    # -- checkpoint format -------------------------------------------------
    def save(self, path):
        lines = [f"d={self.cfg.d}"]
        for spec in self.cfg.layers:
            lines.append(f"layer={spec.kernel}:{spec.in_channels}:"
                         f"{spec.out_channels}:{spec.activation}")
        text = "\n".join(lines).encode()
        with open(path, "wb") as fh:
            fh.write(FPVW_MAGIC + struct.pack("<II", FPVW_VERSION, len(text)))
            fh.write(text)
            for layer in self.layers:
                k, cin, cout = (layer.spec.kernel, layer.spec.in_channels,
                                layer.spec.out_channels)
                fh.write(layer.w.reshape(k, k, k, cin, cout)
                         .astype("<f4").tobytes())
                fh.write(layer.b.astype("<f4").tobytes())

    @classmethod
    def load(cls, path) -> "PvsNet":
        with open(path, "rb") as fh:
            raw = fh.read()
        if raw[:4] != FPVW_MAGIC:
            raise ValueError(f"{path}: not an FPVW checkpoint")
        if len(raw) < 12:
            raise ValueError(f"{path}: truncated FPVW header")
        version, textlen = struct.unpack_from("<II", raw, 4)
        if version != FPVW_VERSION:
            raise ValueError(f"{path}: unsupported FPVW version {version}")
        if 12 + textlen > len(raw):
            raise ValueError(f"{path}: truncated FPVW header")
        try:
            text = raw[12:12 + textlen].decode()
        except UnicodeDecodeError:
            raise ValueError(f"{path}: checkpoint header is not UTF-8 text") from None
        d = None
        specs = []
        for lineno, line in enumerate(text.splitlines(), 1):
            try:
                key, val = line.split("=", 1)
                if key == "d":
                    d = int(val)
                elif key == "layer":
                    k, cin, cout, act = val.split(":")
                    specs.append(ConvSpec(int(k), int(cin), int(cout), act))
            except ValueError as exc:
                raise ValueError(f"{path}: checkpoint header line {lineno} {line!r}: "
                                 f"{exc}") from None
        if d is None:
            raise ValueError(f"{path}: checkpoint header has no d= line")
        try:
            cfg = ModelConfig(d, specs)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        off = 12 + textlen
        need = 4 * sum((s.kernel ** 3 * s.in_channels + 1) * s.out_channels for s in specs)
        if len(raw) - off != need:
            raise ValueError(f"{path}: weights hold {len(raw) - off} bytes, "
                             f"the layers need {need}")
        net = cls(cfg)
        for layer in net.layers:
            k, cin, cout = (layer.spec.kernel, layer.spec.in_channels,
                            layer.spec.out_channels)
            nw = k ** 3 * cin * cout
            layer.w = np.frombuffer(raw, "<f4", nw, off).astype(np.float64) \
                .reshape(k ** 3 * cin, cout).copy()
            off += 4 * nw
            layer.b = np.frombuffer(raw, "<f4", cout, off).astype(np.float64).copy()
            off += 4 * cout
        return net


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def combined_loss(pred: np.ndarray, gt: np.ndarray, cfg: TrainConfig):
    """``lam * dice + (1 - lam) * rvl`` and its gradient w.r.t. ``pred``.

    Dice is the weighted ``1 - 2TP / (2TP + alpha*FP + (1-alpha)*FN)``: with
    alpha < 0.5 misses count more than false alarms, and where the
    denominator is 0 (empty ground truth, all-zero prediction) it is 0.
    The repulsive visibility loss is ``(1 - TP/GTP) + FP/GTP``: its first
    term pulls predictions up on visible froxels, its second pushes them
    down everywhere else, and empty ground truth gives 0. The gradient is
    two-valued (see the module docstring): each term's derivative is
    evaluated once at g = 1 and once at g = 0.
    """
    pred, gt = np.asarray(pred, dtype=np.float64), np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValueError("prediction and ground truth shapes differ")
    tp = float((pred * gt).sum())
    fp = float((pred * (1.0 - gt)).sum())
    fn = float(((1.0 - pred) * gt).sum())
    gtp = float(gt.sum())
    alpha, lam = cfg.alpha, cfg.lam
    num = 2.0 * tp
    den = 2.0 * tp + alpha * fp + (1.0 - alpha) * fn

    def grad(g: float) -> float:
        """Both terms' derivative w.r.t. the p of a froxel with truth g."""
        dden = 2.0 * g + alpha * (1.0 - g) - (1.0 - alpha) * g
        dice = 0.0 if den == 0.0 else -(2.0 * g * den - num * dden) / (den * den)
        rvl = 0.0 if gtp == 0.0 else (-g + (1.0 - g)) / gtp
        return lam * dice + (1.0 - lam) * rvl

    # (den - num) / den == 1 - num/den but keeps simple anchors exact
    dice = 0.0 if den == 0.0 else (den - num) / den
    rvl = 0.0 if gtp == 0.0 else (1.0 - tp / gtp) + fp / gtp
    return lam * dice + (1.0 - lam) * rvl, np.where(gt, grad(1.0), grad(0.0))


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def load_pairs(manifest_path) -> list:
    """Load (geometry, gt) grid pairs referenced by a dataset manifest."""
    from .scenegen import read_manifest
    pairs = []
    for rec in read_manifest(manifest_path):
        pairs.append((FroxelGrid.load(rec.geometry_path), FroxelGrid.load(rec.gt_path)))
    return pairs


def _tensor_pairs(pairs, d: int):
    """Stacked interleaved (geometry, gt) tensors, kept as bool."""
    xs, ys = [], []
    for geo, gt in pairs:
        xs.append(interleave(geo, d).values)
        ys.append(interleave(gt, d).values)
    return np.stack(xs), np.stack(ys)


def _shipped(p: np.ndarray, x: np.ndarray, tau: float) -> np.ndarray:
    """The PVS that :func:`predict_pvs` ships for output ``p`` on geometry
    ``x``: ``p >= tau``, masked by geometry."""
    return (p >= tau) & (x > 0.5)


def _hard_counts(bits, y) -> np.ndarray:
    """FN, FP and GTP of the shipped PVS ``bits`` against the ground truth
    ``y``."""
    gt = y > 0.5
    return np.array([np.count_nonzero(gt & ~bits), np.count_nonzero(bits & ~gt),
                     np.count_nonzero(gt)])


def _rates(counts):
    """(FNR, FPR) = (FN, FP) / GTP; 0 for empty ground truth."""
    fn, fp, gtp = (int(c) for c in counts)
    return (0.0, 0.0) if gtp == 0 else (fn / gtp, fp / gtp)


def evaluate_pairs(net: PvsNet, x: np.ndarray, y: np.ndarray, tau: float):
    """Hard FNR/FPR over a stacked set of bool (geometry, gt) tensors, of
    the predictions that :func:`predict_pvs` ships: thresholded and masked
    by geometry."""
    return _rates(sum(_hard_counts(_shipped_cells(net, x[i], tau), y[i])
                      for i in range(len(x))))


def _train_step(net: PvsNet, bx: np.ndarray, by: np.ndarray, tcfg: TrainConfig,
                index: int):
    """Forward, loss, backward and update on one bool batch; returns the
    mean loss and the hard counts of the shipped PVS.

    The bool batch makes the step float32: activations, caches and layer
    gradients are float32, :func:`combined_loss` sums in float64, and the
    update applies the float32 gradients to the float64 weights. They are
    local, so they die when the step returns and the next step starts from
    the weights alone. Raises :class:`TrainingDiverged` with ``index``
    before updating on a non-finite loss.
    """
    pred, caches = net.forward_cached(bx)
    grad = np.empty_like(pred)
    loss = 0.0
    for b in range(len(bx)):
        lv, lg = combined_loss(pred[b], by[b], tcfg)
        loss += lv
        grad[b] = lg
    loss /= len(bx)
    grad /= len(bx)
    if not np.isfinite(loss):
        raise TrainingDiverged(index, loss)
    net.sgd_step(net.backward(grad, caches), tcfg.lr)
    return loss, _hard_counts(_shipped(pred, bx, tcfg.tau), by)


def train(pairs, mcfg: ModelConfig, tcfg: TrainConfig, eval_pairs=None,
          checkpoint_path=None, log_path=None, verbose: bool = False):
    """Mini-batch gradient descent at the fixed rate ``tcfg.lr`` over a
    list of (geometry, gt) FroxelGrid pairs (:func:`load_pairs` reads them
    from a dataset manifest).

    Returns ``(net, history)`` where history holds one dict per epoch with
    the mean combined loss and the hard FNR/FPR, at threshold tau, of the
    PVS that :func:`predict_pvs` ships: masked by geometry, as the held-out
    rates are when ``eval_pairs`` is given. Deterministic for a fixed seed.
    With ``verbose`` each epoch's dict goes to stdout as one JSON line.

    The frames stay bool between steps. Each batch runs in one
    :func:`_train_step` call, in float32 against the float64 weights; its
    activations, caches and gradients are freed before the next batch
    starts, so the peak holds one step's arrays, not two.
    """
    x, y = _tensor_pairs(pairs, mcfg.d)
    ev = _tensor_pairs(eval_pairs, mcfg.d) if eval_pairs else None
    rng = np.random.Generator(np.random.PCG64(tcfg.seed))
    net = PvsNet(mcfg, rng)
    n = len(x)
    history = []
    for epoch in range(tcfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        counts = np.zeros(3, dtype=np.int64)
        for start in range(0, n, tcfg.batch_size):
            batch = order[start:start + tcfg.batch_size]
            loss, batch_counts = _train_step(net, x[batch], y[batch], tcfg,
                                             start // tcfg.batch_size)
            epoch_loss += loss * len(batch)
            counts += batch_counts
        fnr, fpr = _rates(counts)
        entry = {"epoch": epoch, "loss": epoch_loss / max(n, 1), "fnr": fnr, "fpr": fpr}
        if ev is not None:
            entry["val_fnr"], entry["val_fpr"] = evaluate_pairs(net, ev[0], ev[1], tcfg.tau)
        history.append(entry)
        if verbose:
            print(json.dumps(entry), flush=True)
    if checkpoint_path is not None:
        net.save(checkpoint_path)
    if log_path is not None:
        cols = list(history[0].keys()) if history else ["epoch", "loss", "fnr", "fpr"]
        lines = [",".join(cols)]
        for entry in history:
            lines.append(",".join(f"{entry[c]:.9g}" if isinstance(entry[c], float)
                                  else str(entry[c]) for c in cols))
        Path(log_path).write_text("\n".join(lines) + "\n")
    return net, history


def dilate(cells: np.ndarray, r: int) -> np.ndarray:
    """Cells of a 3D mask within Chebyshev distance ``r`` of a set cell:
    per axis, the OR of the mask shifted by up to ``r`` cells each way."""
    for axis in range(3):
        src = np.moveaxis(cells, axis, 0)
        grown = src.copy()
        for s in range(1, r + 1):
            grown[s:] |= src[:-s]
            grown[:-s] |= src[s:]
        cells = np.moveaxis(grown, 0, axis)
    return cells


def conv_rules(out_cells: np.ndarray, in_cells: np.ndarray, k: int) -> np.ndarray:
    """Neighbour table of a sparse layer with kernel size ``k``.

    ``out_cells`` and ``in_cells`` are boolean masks over one cell grid, and
    rows number each mask's set cells in C order. Entry ``[j, r]`` is the
    input row that kernel offset j, in weight-row order (a*k + b)*k + c,
    reads for output row r: the cell at offset (a - k//2, b - k//2,
    c - k//2) from it, or -1 where that cell is unset or off the grid.
    """
    p = k // 2
    rows = np.full(tuple(n + 2 * p for n in in_cells.shape), -1, dtype=np.intp)
    rows[p:rows.shape[0] - p, p:rows.shape[1] - p, p:rows.shape[2] - p][in_cells] = \
        np.arange(np.count_nonzero(in_cells))
    _, s1, s2 = rows.shape
    x, y, z = np.nonzero(out_cells)
    offsets = np.array([(a * s1 + b) * s2 + c for a, b, c in np.ndindex(k, k, k)])
    return rows.reshape(-1)[offsets[:, None] + ((x * s1 + y) * s2 + z)]


def _dense_rules(shape, k: int) -> np.ndarray:
    """:func:`conv_rules` of a full (B, D, H, W, C) tensor's C-order rows:
    the full grid's table, its rows offset by each batch item's start."""
    bsz, d, h, w, _ = shape
    full = np.ones((d, h, w), dtype=bool)
    rules = conv_rules(full, full, k)
    start = rules.shape[1] * np.arange(bsz)[:, None]
    return np.where(rules[:, None] >= 0, rules[:, None] + start, -1).reshape(k ** 3, -1)


def _shipped_cells(net: PvsNet, x: np.ndarray, tau: float) -> np.ndarray:
    """The PVS that :func:`predict_pvs` ships, as a bool (D, H, W, C) cell
    tensor, on one interleaved bool geometry tensor ``x``.

    The network's float32 output is needed only at the cells holding a set
    froxel, so the last layer runs only there, and each earlier layer only
    at the cells its successor's kernel reaches from there. Only those
    cells' rows are cast to float; the thresholded, geometry-masked rows
    are written straight into the bool result.
    """
    occupied = x.any(axis=3)
    computed = [occupied]
    for spec in reversed(net.cfg.layers[1:]):
        computed.insert(0, dilate(computed[0], spec.kernel // 2))
    geo = x[occupied]
    feats, read = geo.astype(np.float32), occupied
    for layer, cells in zip(net.layers, computed):
        feats = layer.forward(feats, rules=conv_rules(cells, read, layer.spec.kernel))
        read = cells
    bits = np.zeros(x.shape, dtype=bool)
    bits[occupied] = _shipped(feats, geo, tau)
    return bits


def predict_pvs(grid: FroxelGrid, net: PvsNet, tau: float = TrainConfig.tau) -> FroxelGrid:
    """Interleave, run the network sparsely with threshold tau, mask by the
    geometry grid and deinterleave.

    ``net`` is a loaded network (:meth:`PvsNet.load` reads a checkpoint).
    tau defaults to the training threshold and, as there, must lie in
    [0, 1]. The result is the dense network's ``p >= tau`` AND ``grid``, so the
    predicted PVS is a subset of the geometry. That costs the runtime
    nothing: ``cull`` reads PVS bits only at the froxel id map's keys, which
    are the geometry grid's set froxels. So only the cells that can reach a
    set froxel need computing.

    The working set is bool apart from the computed cells: the dense grid,
    its interleaved cells and the shipped cells are one byte per froxel,
    and only the rows of computed cells, with their neighbour tables, are
    float32 or integer arrays.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    d = net.cfg.d
    x = interleave(grid, d).values
    if x.shape[3] != net.cfg.layers[0].in_channels:
        raise ValueError("grid/channel mismatch against the checkpoint")
    bits = _shipped_cells(net, x, tau)
    return FroxelGrid.from_dense(deinterleave(ChannelTensor(bits, d)), role="predicted_pvs")
