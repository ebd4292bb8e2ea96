"""Command-line pipeline: dataset generation, ground truth, training,
inference, evaluation, and stage benchmarks.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 validation failure.
Options may come from a plain ``key=value`` config file (``--config``);
explicit flags win over file entries.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .core import TriScene, Vec3, ViewCell, build_viewcell_frustum, load_scene
from .froxel import FroxelGrid, FroxelizeConfig, froxel_id_map, froxelize
from .interleave import ChannelTensor, deinterleave, interleave
from .neural import ModelConfig, PvsNet, TrainConfig, TrainingDiverged, load_pairs, \
    predict_pvs, train
from .oracle import OracleConfig, compute_gt_pvs
from .scenegen import DatasetError, SceneGenConfig, generate_dataset, generate_scene
from .evalrt import MetricsRecord, froxel_metrics, pixel_error_rate, write_metrics_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VALIDATION = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


@dataclass
class RunConfig:
    """All knobs for one CLI invocation, validated before dispatch."""

    command: str = ""
    dims: tuple = (32, 32, 32)
    radius: float = 0.3
    fov: float = 60.0
    beta: float = 15.0
    near: float = 0.3
    far: float = 20.0
    d: int = 4
    supersample: int = 4
    viewpoints: int = 128
    seed: int = 0
    frames: int = 200
    epochs: int = 50
    batch: int = 3
    holdout: int = 0
    lr: float = 1e-3
    decay: float = 1e-10
    alpha: float = 0.1
    lam: float = 0.99
    tau: float = 0.5
    cell_center: tuple = (0.0, 1.5, 0.0)
    cell_yaw: float = 0.0
    out: str = ""
    scene: str = ""
    motion: str = ""
    manifest: str = ""
    checkpoint: str = ""
    geometry: str = ""
    geometry_out: str = ""
    gt: str = ""
    pred: str = ""
    log: str = ""

    def viewcell(self) -> ViewCell:
        c = Vec3(*self.cell_center)
        yaw = np.radians(self.cell_yaw)
        forward = Vec3(float(np.sin(yaw)), 0.0, float(np.cos(yaw)))
        return ViewCell.from_forward(c, self.radius, self.fov, self.beta,
                                     forward, self.near, self.far)

    def train_config(self) -> TrainConfig:
        return TrainConfig(alpha=self.alpha, lam=self.lam, tau=self.tau, lr=self.lr,
                           decay=self.decay, batch_size=self.batch,
                           epochs=self.epochs, seed=self.seed)

    def scene_config(self) -> SceneGenConfig:
        return SceneGenConfig(seed=self.seed, radius=self.radius, fov_deg=self.fov,
                              beta_deg=self.beta, near=self.near, far=self.far)


def _parse_triple(text: str, cast):
    parts = text.split(",")
    if len(parts) == 1:
        return (cast(parts[0]),) * 3
    if len(parts) != 3:
        raise UsageError(f"expected one or three comma-separated values, got {text!r}")
    return tuple(cast(p) for p in parts)


_CASTS = {
    "dims": lambda s: _parse_triple(s, int),
    "cell_center": lambda s: _parse_triple(s, float),
    "radius": float, "fov": float, "beta": float, "near": float, "far": float,
    "d": int, "supersample": int, "viewpoints": int, "seed": int, "frames": int,
    "epochs": int, "batch": int, "holdout": int,
    "lr": float, "decay": float, "alpha": float, "lam": float, "tau": float,
    "cell_yaw": float,
}


def _cast(key: str, text: str):
    try:
        return _CASTS.get(key, str)(text)
    except ValueError as exc:
        raise UsageError(f"bad value for {key}: {text!r}") from exc


def _load_config_file(path) -> dict:
    values = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"bad config line (want key=value): {line!r}")
        key, val = (t.strip() for t in line.split("=", 1))
        key = key.replace("-", "_")
        if key == "lambda":
            key = "lam"
        if key not in {f.name for f in fields(RunConfig)}:
            raise UsageError(f"unknown config key {key!r}")
        values[key] = _cast(key, val)
    return values


def _build_parser() -> _Parser:
    parser = _Parser(prog="froxelpvs", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="command")

    def common(p, *, paths=()):
        p.add_argument("--config", help="key=value config file; flags override")
        p.add_argument("--dims", help="grid size, e.g. 32 or 32,32,32")
        p.add_argument("--radius", help="viewcell radius (m)")
        p.add_argument("--fov", help="camera field of view (deg)")
        p.add_argument("--beta", help="rotation margin to either side (deg)")
        p.add_argument("--near", help="near plane (m)")
        p.add_argument("--far", help="far plane (m)")
        p.add_argument("--d", help="interleave factor")
        p.add_argument("--supersample", help="rasterization supersampling factor")
        p.add_argument("--viewpoints", help="viewpoints per cell for ground truth")
        p.add_argument("--seed", help="RNG seed")
        p.add_argument("--tau", help="decision threshold")
        p.add_argument("--out", help="output path")
        for name in paths:
            p.add_argument(f"--{name.replace('_', '-')}")

    p = sub.add_parser("gen-dataset", help="write synthetic (geometry, gt) pairs")
    common(p)
    p.add_argument("--frames", help="number of frames")

    p = sub.add_parser("gt", help="ground-truth PVS for a scene file")
    common(p, paths=("scene", "motion", "geometry_out"))
    p.add_argument("--cell-center", help="viewcell center x,y,z")
    p.add_argument("--cell-yaw", help="viewcell yaw (deg)")

    p = sub.add_parser("train", help="train the estimator on a dataset manifest")
    common(p, paths=("manifest", "log"))
    p.add_argument("--epochs")
    p.add_argument("--batch")
    p.add_argument("--holdout", help="trailing frames held out for validation")
    p.add_argument("--lr")
    p.add_argument("--decay")
    p.add_argument("--alpha")
    p.add_argument("--lambda", dest="lam")

    p = sub.add_parser("infer", help="predict a PVS grid from a geometry grid")
    common(p, paths=("geometry", "checkpoint"))

    p = sub.add_parser("eval", help="compare predicted vs ground-truth grids")
    common(p, paths=("pred", "gt", "scene"))
    p.add_argument("--cell-center")
    p.add_argument("--cell-yaw")

    p = sub.add_parser("bench", help="stage timing breakdown on a synthetic scene")
    common(p, paths=("checkpoint",))
    return parser


def parse_run_config(argv) -> RunConfig:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if not ns.command:
        raise UsageError(parser.format_usage() + "froxelpvs: error: missing command")
    cfg = RunConfig(command=ns.command)
    overrides = {}
    if getattr(ns, "config", None):
        try:
            overrides.update(_load_config_file(ns.config))
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
    for key, val in vars(ns).items():
        if key in ("command", "config") or val is None:
            continue
        overrides[key] = _cast(key, val) if isinstance(val, str) else val
    for key, val in overrides.items():
        setattr(cfg, key, val)
    return cfg


def _require(cfg: RunConfig, *names):
    for name in names:
        if not getattr(cfg, name):
            raise UsageError(f"froxelpvs {cfg.command}: --{name.replace('_', '-')} is required")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen_dataset(cfg: RunConfig) -> int:
    _require(cfg, "out")
    if cfg.frames < 1:
        raise UsageError(f"froxelpvs gen-dataset: --frames must be at least 1, got {cfg.frames}")
    manifest = generate_dataset(
        cfg.scene_config(), cfg.frames, cfg.out, dims=cfg.dims,
        ocfg=OracleConfig(viewpoints=cfg.viewpoints, seed=cfg.seed),
        fcfg=FroxelizeConfig(supersample=cfg.supersample))
    print(f"wrote {cfg.frames} frame pairs, manifest {manifest}")
    return EXIT_OK


def cmd_gt(cfg: RunConfig) -> int:
    _require(cfg, "scene", "out")
    scene = load_scene(cfg.scene, cfg.motion or None)
    cell = cfg.viewcell()
    frustum = build_viewcell_frustum(cell)
    fcfg = FroxelizeConfig(supersample=cfg.supersample)
    geometry = froxelize(scene, frustum, cfg.dims, fcfg)
    gt = compute_gt_pvs(scene, cell, cfg.dims,
                        OracleConfig(viewpoints=cfg.viewpoints, seed=cfg.seed),
                        fcfg, geometry=geometry)
    if not gt.subset_of(geometry):
        print("validation failed: ground truth escapes the geometry grid", file=sys.stderr)
        return EXIT_VALIDATION
    gt.save(cfg.out)
    if cfg.geometry_out:
        geometry.save(cfg.geometry_out)
    print(f"gt occupancy {gt.occupancy():.4f} ({gt.occupied_count()} froxels) -> {cfg.out}")
    return EXIT_OK


def cmd_train(cfg: RunConfig) -> int:
    _require(cfg, "manifest", "out")
    pairs = load_pairs(cfg.manifest)
    if cfg.holdout >= len(pairs):
        raise UsageError("holdout must leave at least one training pair")
    eval_pairs = pairs[len(pairs) - cfg.holdout:] if cfg.holdout else None
    train_pairs = pairs[:len(pairs) - cfg.holdout] if cfg.holdout else pairs
    if any(dim % cfg.d for dim in train_pairs[0][0].dims):
        print(f"validation failed: dims {train_pairs[0][0].dims} not divisible "
              f"by d={cfg.d}", file=sys.stderr)
        return EXIT_VALIDATION
    log_path = cfg.log or (cfg.out + ".epochs.csv")
    net, history = train(train_pairs, ModelConfig.default(cfg.d), cfg.train_config(),
                         eval_pairs=eval_pairs, checkpoint_path=cfg.out,
                         log_path=log_path, verbose=True)
    print(json.dumps({"checkpoint": cfg.out, "epochs": len(history),
                      "loss": history[-1]["loss"] if history else None}))
    return EXIT_OK


def cmd_infer(cfg: RunConfig) -> int:
    _require(cfg, "geometry", "checkpoint", "out")
    grid = FroxelGrid.load(cfg.geometry)
    pred = predict_pvs(grid, cfg.checkpoint, cfg.tau)
    pred.save(cfg.out)
    print(f"predicted occupancy {pred.occupancy():.4f} -> {cfg.out}")
    return EXIT_OK


def cmd_eval(cfg: RunConfig) -> int:
    _require(cfg, "pred", "gt", "out")
    pred = FroxelGrid.load(cfg.pred)
    gt = FroxelGrid.load(cfg.gt)
    if pred.dims != gt.dims:
        print(f"validation failed: grid dims mismatch {pred.dims} vs {gt.dims}",
              file=sys.stderr)
        return EXIT_VALIDATION
    per = 0.0
    if cfg.scene:
        scene = load_scene(cfg.scene, cfg.motion or None)
        cell = cfg.viewcell()
        frustum = build_viewcell_frustum(cell)
        id_map = froxel_id_map(scene, frustum, pred.dims,
                               FroxelizeConfig(supersample=cfg.supersample))
        per = pixel_error_rate(scene, cell.camera_at(cell.center), pred, id_map)
    record = froxel_metrics(pred, gt, per=per)
    write_metrics_csv(cfg.out, [record])
    print(f"fnr {record.fnr:.5g}  fpr {record.fpr:.5g}  per {record.per:.5g} -> {cfg.out}")
    return EXIT_OK


def cmd_bench(cfg: RunConfig) -> int:
    _require(cfg, "out")
    scene, cell = generate_scene(cfg.scene_config())
    frustum = build_viewcell_frustum(cell)
    fcfg = FroxelizeConfig(supersample=cfg.supersample)
    if cfg.checkpoint:
        net = PvsNet.load(cfg.checkpoint)
    else:
        net = PvsNet(ModelConfig.default(cfg.d),
                     np.random.Generator(np.random.PCG64(cfg.seed)))

    t0 = time.perf_counter()
    grid = froxelize(scene, frustum, cfg.dims, fcfg)
    t1 = time.perf_counter()
    tensor = interleave(grid.to_dense().astype(np.float64), net.cfg.d)
    t2 = time.perf_counter()
    probs = net.forward(tensor.values[None])[0]
    t3 = time.perf_counter()
    deinterleave(ChannelTensor(probs, net.cfg.d), net.cfg.d, threshold=cfg.tau)
    t4 = time.perf_counter()

    stages = [("froxelize", (t1 - t0) * 1e3), ("interleave", (t2 - t1) * 1e3),
              ("forward", (t3 - t2) * 1e3), ("deinterleave", (t4 - t3) * 1e3),
              ("total", (t4 - t0) * 1e3)]
    lines = ["stage,ms"] + [f"{name},{ms:.6g}" for name, ms in stages]
    Path(cfg.out).write_text("\n".join(lines) + "\n")
    print("  ".join(f"{name} {ms:.2f}ms" for name, ms in stages))
    return EXIT_OK


_COMMANDS = {
    "gen-dataset": cmd_gen_dataset,
    "gt": cmd_gt,
    "train": cmd_train,
    "infer": cmd_infer,
    "eval": cmd_eval,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        cfg = parse_run_config(argv)
        return _COMMANDS[cfg.command](cfg)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, DatasetError, TrainingDiverged) as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
