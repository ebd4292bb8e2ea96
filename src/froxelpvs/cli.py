"""Command-line pipeline: dataset generation, ground truth, training,
inference, and evaluation.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 validation failure.
Each command accepts only the flags it reads; any other flag is a usage
error. Options may also come from a plain ``key=value`` config file
(``--config``), whose keys are shared by every command; explicit flags win
over file entries.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .core import Vec3, ViewCell, build_viewcell_frustum, load_scene
from .froxel import FroxelGrid, froxel_id_map
from .neural import ModelConfig, PvsNet, TrainConfig, TrainingDiverged, load_pairs, \
    predict_pvs, train
from .oracle import OracleConfig
from .scenegen import SceneGenConfig, frame_grids, generate_dataset
from .evalrt import froxel_metrics, pixel_error_rate, write_metrics_csv

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
    """All knobs for one CLI invocation, validated before dispatch. A knob
    that a library config also holds takes its default from there."""

    command: str = ""
    dims: tuple = (32, 32, 32)
    radius: float = SceneGenConfig.radius
    fov: float = SceneGenConfig.fov_deg
    beta: float = SceneGenConfig.beta_deg
    near: float = SceneGenConfig.near
    far: float = SceneGenConfig.far
    d: int = 4
    viewpoints: int = OracleConfig.viewpoints
    seed: int = SceneGenConfig.seed         # also the training seed
    frames: int = 200
    epochs: int = TrainConfig.epochs
    batch: int = TrainConfig.batch_size
    holdout: int = 0
    lr: float = TrainConfig.lr
    alpha: float = TrainConfig.alpha
    lam: float = TrainConfig.lam
    tau: float = TrainConfig.tau
    cell_center: tuple = (0.0, 1.5, 0.0)
    cell_yaw: float = 0.0
    out: str = ""
    scene: str = ""
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
                           batch_size=self.batch, epochs=self.epochs, seed=self.seed)

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


def _cast(key: str, text: str):
    """``text`` as the type of field ``key``'s default; a tuple default
    takes one or three values of its element type."""
    default = getattr(RunConfig, key)
    try:
        if isinstance(default, tuple):
            return _parse_triple(text, type(default[0]))
        return type(default)(text)
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


_HELP = {
    "dims": "grid size, e.g. 32 or 32,32,32",
    "radius": "viewcell radius (m)",
    "fov": "camera field of view (deg)",
    "beta": "rotation margin to either side (deg)",
    "near": "near plane (m)",
    "far": "far plane (m)",
    "viewpoints": "viewpoints per cell for ground truth",
    "seed": "RNG seed",
    "frames": "number of frames",
    "cell_center": "viewcell center x,y,z",
    "cell_yaw": "viewcell yaw (deg)",
    "scene": "scene file",
    "geometry_out": "also write the geometry grid here",
    "d": "interleave factor",
    "tau": "decision threshold",
    "epochs": "training epochs",
    "batch": "pairs per gradient step",
    "lr": "learning rate",
    "alpha": "Dice false-positive weight",
    "lam": "weight of the Dice term against the RVL term",
    "manifest": "dataset manifest",
    "log": "per-epoch CSV log (default: <out>.epochs.csv)",
    "holdout": "trailing frames held out for validation",
    "geometry": "geometry grid (.fpvs) to predict from",
    "checkpoint": "trained network (.fpvw)",
    "pred": "predicted PVS grid (.fpvs)",
    "gt": "ground-truth PVS grid (.fpvs)",
    "out": "output path",
}

_SCENE = ("radius", "fov", "beta", "near", "far")
_CELL = _SCENE + ("cell_center", "cell_yaw")

# command -> (help, the RunConfig fields it reads); a flag for any other
# field is a usage error
_OPTIONS = {
    "gen-dataset": ("write synthetic (geometry, gt) pairs",
                    ("dims", "viewpoints", "seed", *_SCENE, "frames", "out")),
    "gt": ("ground-truth PVS for a scene file",
           ("dims", "viewpoints", *_CELL, "scene", "out", "geometry_out")),
    "train": ("train the estimator on a dataset manifest",
              ("d", "seed", "tau", "epochs", "batch", "lr", "alpha", "lam",
               "manifest", "log", "out", "holdout")),
    "infer": ("predict a PVS grid from a geometry grid; the prediction is a "
              "subset of the geometry", ("tau", "geometry", "checkpoint", "out")),
    "eval": ("compare predicted vs ground-truth grids",
             (*_CELL, "pred", "gt", "scene", "out")),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="froxelpvs", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="command")
    for command, (text, names) in _OPTIONS.items():
        p = sub.add_parser(command, help=text, description=text)
        p.add_argument("--config", help="key=value config file; flags override")
        for name in names:
            flag = "--lambda" if name == "lam" else "--" + name.replace("_", "-")
            p.add_argument(flag, dest=name, help=_HELP[name])
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
        ocfg=OracleConfig(viewpoints=cfg.viewpoints))
    print(f"wrote {cfg.frames} frame pairs, manifest {manifest}")
    return EXIT_OK


def cmd_gt(cfg: RunConfig) -> int:
    _require(cfg, "scene", "out")
    geometry, gt = frame_grids(load_scene(cfg.scene), cfg.viewcell(), cfg.dims,
                               OracleConfig(viewpoints=cfg.viewpoints))
    gt.save(cfg.out)
    if cfg.geometry_out:
        geometry.save(cfg.geometry_out)
    print(f"gt occupancy {gt.occupancy():.4f} ({gt.occupied_count()} froxels) -> {cfg.out}")
    return EXIT_OK


def cmd_train(cfg: RunConfig) -> int:
    _require(cfg, "manifest", "out")
    if cfg.holdout < 0:
        raise UsageError(f"froxelpvs train: --holdout must be at least 0, got {cfg.holdout}")
    mcfg, tcfg = ModelConfig.default(cfg.d), cfg.train_config()
    pairs = load_pairs(cfg.manifest)
    if cfg.holdout >= len(pairs):
        raise UsageError("holdout must leave at least one training pair")
    eval_pairs = pairs[len(pairs) - cfg.holdout:] if cfg.holdout else None
    train_pairs = pairs[:len(pairs) - cfg.holdout] if cfg.holdout else pairs
    log_path = cfg.log or (cfg.out + ".epochs.csv")
    net, history = train(train_pairs, mcfg, tcfg,
                         eval_pairs=eval_pairs, checkpoint_path=cfg.out,
                         log_path=log_path, verbose=True)
    print(json.dumps({"checkpoint": cfg.out, "epochs": len(history),
                      "loss": history[-1]["loss"] if history else None}))
    return EXIT_OK


def cmd_infer(cfg: RunConfig) -> int:
    _require(cfg, "geometry", "checkpoint", "out")
    grid = FroxelGrid.load(cfg.geometry)
    pred = predict_pvs(grid, PvsNet.load(cfg.checkpoint), cfg.tau)
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
        scene = load_scene(cfg.scene)
        cell = cfg.viewcell()
        id_map = froxel_id_map(scene, build_viewcell_frustum(cell), pred.dims)
        per = pixel_error_rate(scene, cell.camera_at(cell.center), pred, id_map)
    record = froxel_metrics(pred, gt, per=per)
    write_metrics_csv(cfg.out, [record])
    print(f"fnr {record.fnr:.5g}  fpr {record.fpr:.5g}  per {record.per:.5g} -> {cfg.out}")
    return EXIT_OK


_COMMANDS = {
    "gen-dataset": cmd_gen_dataset,
    "gt": cmd_gt,
    "train": cmd_train,
    "infer": cmd_infer,
    "eval": cmd_eval,
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
    except (ValueError, TrainingDiverged) as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
