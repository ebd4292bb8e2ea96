"""Dense volumetric convolutional PVS estimator trained with plain gradient
descent.

The network maps an interleaved geometry tensor to per-froxel visibility
probabilities. Layers are 3D cross-correlations with zero padding (spatial
dims preserved) and hand-derived backward passes. One kernel serves both
uses: k^3 shifted GEMMs into one accumulator, without an im2col buffer.
Training runs it in float64, so gradients check out against central finite
differences; inference runs it in float32.

Losses follow the conventional confusion-count reading: on soft predictions
p and binary ground truth g, TP = sum(p*g), FP = sum(p*(1-g)),
FN = sum((1-p)*g), GTP = sum(g).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .froxel import FroxelGrid
from .interleave import ChannelTensor, deinterleave, interleave

FPVW_MAGIC = b"FPVW"
FPVW_VERSION = 1
ACTIVATIONS = ("relu", "sigmoid", "none")


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
        if self.d < 1:
            raise ValueError("interleave factor must be >= 1")
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
    def default(cls, d: int = 4, hidden: int = 32, init: str = "he") -> "ModelConfig":
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
    decay: float = 1e-10      # multiplicative per-step learning-rate decay
    batch_size: int = 3
    epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        for name in ("alpha", "lam", "tau"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
        if not 0.0 <= self.decay < 1.0:
            raise ValueError("decay must lie in [0, 1)")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch size must be >= 1 and epochs >= 0")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass
class ConfusionCounts:
    """TP/FP/FN/GTP; real-valued when computed on soft predictions."""

    tp: float
    fp: float
    fn: float
    gtp: float

    @staticmethod
    def from_soft(pred: np.ndarray, gt: np.ndarray) -> "ConfusionCounts":
        tp = float((pred * gt).sum())
        fp = float((pred * (1.0 - gt)).sum())
        fn = float(((1.0 - pred) * gt).sum())
        return ConfusionCounts(tp, fp, fn, float(gt.sum()))


# ---------------------------------------------------------------------------
# Convolution layer
# ---------------------------------------------------------------------------

def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
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

    def seed_identity(self, rng: np.random.Generator, gain: float, noise: float = 0.02):
        """Center-tap identity on matching channels plus small noise."""
        k = self.spec.kernel
        cin, cout = self.spec.in_channels, self.spec.out_channels
        w = rng.normal(0.0, noise / np.sqrt(k ** 3 * cin), size=(k ** 3, cin, cout))
        for j in range(min(cin, cout)):
            w[(k ** 3) // 2, j, j] += gain
        self.w = w.reshape(k ** 3 * cin, cout)

    def _windows(self, shape):
        """Per kernel offset, in weight-row order, the index of its input
        window within the padded input."""
        k = self.spec.kernel
        _, d, h, w, _ = shape
        for a, b, c in np.ndindex(k, k, k):
            yield np.s_[:, a:a + d, b:b + h, c:c + w, :]

    def forward(self, x: np.ndarray, keep_cache: bool = False):
        """Returns the activation output, plus a backward cache when asked.

        The pre-activation is k^3 shifted GEMMs into one accumulator
        (kn2row; Vasudevan, Anderson & Gregg, ASAP 2017): each kernel offset
        multiplies its window of the once-padded input by its (C_in, C_out)
        weight slice, so no k^3 * C_in column buffer is built. Without a
        cache the layer runs in float32; with one it runs in float64 and
        keeps the padded input for :meth:`backward`.
        """
        if x.ndim != 5 or x.shape[4] != self.spec.in_channels:
            raise ValueError(
                f"expected (B, D, H, W, {self.spec.in_channels}) input, got {x.shape}")
        dtype = np.float64 if keep_cache else np.float32
        k = self.spec.kernel
        p = k // 2
        bsz, d, h, w, cin = x.shape
        cout = self.spec.out_channels
        xpad = np.pad(x.astype(dtype, copy=False), ((0, 0), (p, p), (p, p), (p, p), (0, 0)))
        taps = self.w.astype(dtype, copy=False).reshape(k ** 3, cin, cout)
        shifted = np.empty(x.shape, dtype=dtype)
        z = np.empty((bsz * d * h * w, cout), dtype=dtype)
        prod = np.empty_like(z)
        z[:] = self.b
        for j, win in enumerate(self._windows(x.shape)):
            np.copyto(shifted, xpad[win])
            np.matmul(shifted.reshape(-1, cin), taps[j], out=prod)
            z += prod
        z = z.reshape(bsz, d, h, w, cout)
        act = self.spec.activation
        if act == "relu":
            y = np.maximum(z, 0.0)
        elif act == "sigmoid":
            y = _sigmoid(z)
        else:
            y = z
        if not keep_cache:
            return y
        return y, (xpad, z, y, x.shape)

    def backward(self, dy: np.ndarray, cache):
        """Gradients of the scalar loss w.r.t. (input, weights, bias).

        Walks the same k^3 windows as :meth:`forward`: per offset j,
        ``dw[j] = window_j^T dz`` and ``dxpad[window_j] += dz w_j^T``.
        """
        if cache is None:
            raise ValueError("backward requires the forward cache")
        xpad, z, y, xshape = cache
        act = self.spec.activation
        if act == "relu":
            dz = dy * (z > 0)
        elif act == "sigmoid":
            dz = dy * y * (1.0 - y)
        else:
            dz = dy
        k = self.spec.kernel
        p = k // 2
        _, d, h, w, cin = xshape
        cout = self.spec.out_channels
        flat_dz = dz.reshape(-1, cout)
        taps = self.w.reshape(k ** 3, cin, cout)
        dw = np.empty_like(taps)
        dxpad = np.zeros_like(xpad)
        shifted = np.empty(xshape)
        for j, win in enumerate(self._windows(xshape)):
            np.copyto(shifted, xpad[win])
            dw[j] = shifted.reshape(-1, cin).T @ flat_dz
            dxpad[win] += (flat_dz @ taps[j].T).reshape(xshape)
        dx = dxpad[:, p:p + d, p:p + h, p:p + w, :]
        return dx, dw.reshape(k ** 3 * cin, cout), flat_dz.sum(axis=0)


class PvsNet:
    """Stack of Conv3d layers mapping channel tensors to probabilities."""

    OUTPUT_GAIN = 3.0   # identity init: logit scale of the pass-through output

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator | None = None):
        self.cfg = cfg
        self.layers = [Conv3d(spec, rng) for spec in cfg.layers]
        if cfg.init == "identity" and rng is not None:
            for layer in self.layers[:-1]:
                layer.seed_identity(rng, 1.0)
            self.layers[-1].seed_identity(rng, self.OUTPUT_GAIN)
            self.layers[-1].b[:] = -self.OUTPUT_GAIN / 2.0

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Float32 inference pass; see :meth:`Conv3d.forward`."""
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def forward_cached(self, x: np.ndarray):
        caches = []
        for layer in self.layers:
            x, cache = layer.forward(x, keep_cache=True)
            caches.append(cache)
        return x, caches

    def backward(self, dy: np.ndarray, caches):
        """Per-layer (dw, db) gradients plus the input gradient."""
        grads = [None] * len(self.layers)
        for i in reversed(range(len(self.layers))):
            dy, dw, db = self.layers[i].backward(dy, caches[i])
            grads[i] = (dw, db)
        return grads, dy

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
        text = raw[12:12 + textlen].decode()
        d = None
        specs = []
        for line in text.splitlines():
            key, val = line.split("=", 1)
            if key == "d":
                d = int(val)
            elif key == "layer":
                k, cin, cout, act = val.split(":")
                specs.append(ConvSpec(int(k), int(cin), int(cout), act))
        if d is None:
            raise ValueError(f"{path}: checkpoint header has no d= line")
        cfg = ModelConfig(d, specs)
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
# Losses
# ---------------------------------------------------------------------------

def dice_loss(pred: np.ndarray, gt: np.ndarray, alpha: float):
    """Weighted Dice loss 1 - 2TP / (2TP + alpha*FP + (1-alpha)*FN).

    With alpha < 0.5 misses count more than false alarms. Empty ground
    truth: 0 for an all-zero prediction, 1 otherwise (the formula's limit).
    Returns (value, gradient w.r.t. pred).
    """
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError("prediction and ground truth shapes differ")
    c = ConfusionCounts.from_soft(pred, gt)
    num = 2.0 * c.tp
    den = 2.0 * c.tp + alpha * c.fp + (1.0 - alpha) * c.fn
    if den == 0.0:
        return 0.0, np.zeros_like(pred)
    dnum = 2.0 * gt
    dden = 2.0 * gt + alpha * (1.0 - gt) - (1.0 - alpha) * gt
    grad = -(dnum * den - num * dden) / (den * den)
    # (den - num) / den == 1 - num/den but keeps simple anchors exact
    return (den - num) / den, grad


def rvl_loss(pred: np.ndarray, gt: np.ndarray):
    """Repulsive visibility loss: (1 - TP/GTP) + FP/GTP.

    The first term pulls predictions up on visible froxels, the second
    pushes them down everywhere else, both normalized by the ground-truth
    positive count. Empty ground truth contributes 0 by convention.
    """
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError("prediction and ground truth shapes differ")
    c = ConfusionCounts.from_soft(pred, gt)
    if c.gtp == 0.0:
        return 0.0, np.zeros_like(pred)
    loss = (1.0 - c.tp / c.gtp) + c.fp / c.gtp
    grad = (-gt + (1.0 - gt)) / c.gtp
    return loss, grad


def combined_loss(pred: np.ndarray, gt: np.ndarray, cfg: TrainConfig):
    """Convex combination lam * dice + (1 - lam) * rvl."""
    dv, dg = dice_loss(pred, gt, cfg.alpha)
    rv, rg = rvl_loss(pred, gt)
    return cfg.lam * dv + (1.0 - cfg.lam) * rv, cfg.lam * dg + (1.0 - cfg.lam) * rg


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
    xs, ys = [], []
    for geo, gt in pairs:
        xs.append(interleave(geo.to_dense().astype(np.float64), d).values)
        ys.append(interleave(gt.to_dense().astype(np.float64), d).values)
    return np.stack(xs), np.stack(ys)


def _epoch_rates(tp, fp, fn, gtp):
    if gtp == 0:
        return 0.0, 0.0
    return fn / gtp, fp / gtp


def evaluate_pairs(net: PvsNet, x: np.ndarray, y: np.ndarray, tau: float):
    """Hard FNR/FPR of thresholded predictions over a stacked pair set."""
    tp = fp = fn = gtp = 0
    for i in range(len(x)):
        pred = net.forward(x[i:i + 1])[0] >= tau
        gt = y[i] > 0.5
        tp += int((pred & gt).sum())
        fp += int((pred & ~gt).sum())
        fn += int((~pred & gt).sum())
        gtp += int(gt.sum())
    return _epoch_rates(tp, fp, fn, gtp)


def train(pairs, mcfg: ModelConfig, tcfg: TrainConfig, eval_pairs=None,
          target_fnr: float | None = None, target_fpr: float | None = None,
          checkpoint_path=None, log_path=None, verbose: bool = False):
    """Mini-batch gradient descent over dataset pairs.

    ``pairs`` is a manifest path or a list of (geometry, gt) FroxelGrids.
    Returns ``(net, history)`` where history holds one dict per epoch with
    the mean combined loss and hard FNR/FPR at threshold tau (plus held-out
    rates when ``eval_pairs`` is given). Training stops early once both
    held-out targets are met. Deterministic for a fixed seed. With
    ``verbose`` each epoch's dict goes to stdout as one JSON line.
    """
    if isinstance(pairs, (str, Path)):
        pairs = load_pairs(pairs)
    x, y = _tensor_pairs(pairs, mcfg.d)
    ev = _tensor_pairs(eval_pairs, mcfg.d) if eval_pairs else None
    rng = np.random.Generator(np.random.PCG64(tcfg.seed))
    net = PvsNet(mcfg, rng)
    n = len(x)
    history = []
    step = 0
    for epoch in range(tcfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        tp = fp = fn = gtp = 0
        for start in range(0, n, tcfg.batch_size):
            batch = order[start:start + tcfg.batch_size]
            bx, by = x[batch], y[batch]
            pred, caches = net.forward_cached(bx)
            grad = np.empty_like(pred)
            loss = 0.0
            for b in range(len(batch)):
                lv, lg = combined_loss(pred[b], by[b], tcfg)
                loss += lv
                grad[b] = lg
            loss /= len(batch)
            grad /= len(batch)
            if not np.isfinite(loss):
                raise TrainingDiverged(start // tcfg.batch_size, loss)
            grads, _ = net.backward(grad, caches)
            net.sgd_step(grads, tcfg.lr * (1.0 - tcfg.decay) ** step)
            step += 1
            epoch_loss += loss * len(batch)
            hard = pred >= tcfg.tau
            hgt = by > 0.5
            tp += int((hard & hgt).sum())
            fp += int((hard & ~hgt).sum())
            fn += int((~hard & hgt).sum())
            gtp += int(hgt.sum())
        fnr, fpr = _epoch_rates(tp, fp, fn, gtp)
        entry = {"epoch": epoch, "loss": epoch_loss / max(n, 1), "fnr": fnr, "fpr": fpr}
        if ev is not None:
            entry["val_fnr"], entry["val_fpr"] = evaluate_pairs(net, ev[0], ev[1], tcfg.tau)
        history.append(entry)
        if verbose:
            print(json.dumps(entry), flush=True)
        if (ev is not None and target_fnr is not None and target_fpr is not None
                and entry["val_fnr"] <= target_fnr and entry["val_fpr"] <= target_fpr):
            break
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


def predict_pvs(grid: FroxelGrid, net, tau: float = 0.5) -> FroxelGrid:
    """Interleave, run the network, deinterleave with threshold tau."""
    if isinstance(net, (str, Path)):
        net = PvsNet.load(net)
    d = net.cfg.d
    if any(dim % d for dim in grid.dims):
        raise ValueError(f"grid dims {grid.dims} not divisible by interleave factor {d}")
    x = interleave(grid.to_dense().astype(np.float32), d).values[None]
    if x.shape[4] != net.cfg.layers[0].in_channels:
        raise ValueError("grid/channel mismatch against the checkpoint")
    y = net.forward(x)[0]
    out = deinterleave(ChannelTensor(y, d), d, threshold=tau)
    out.supersample = grid.supersample
    return out
