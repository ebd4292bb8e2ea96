"""froxelpvs benchmark: viewcell latency, ground-truth and training throughput.

Usage (from the repository root)::

    python3 perfbench/run.py --workload viewcell-64 --seed 1 --seconds 30 --trace 0

Workloads:

* ``viewcell-64`` -- the runtime path, one viewcell per operation:
  ``froxelize -> predict_pvs -> froxel_id_map -> cull`` at 64^3 with d=4 and
  the pass-through network ``ModelConfig.default(4, hidden=64,
  init="identity")``, over a fixed pool of 12 generated scenes.
* ``datagen-32`` -- in-process ``froxelpvs gen-dataset`` at 32^3 with the
  default 128 viewpoints, one frame per operation, over a fixed pool of 4
  frames.
* ``train-32`` -- in-process ``froxelpvs train`` with the default model and
  batch on a fixed dataset built during set-up.

Pools are fixed because the cost of a viewcell or a frame varies up to
fourfold between scenes, and a run holds too few of them to average that
out. The seed sets the order of the pool, and for ``train-32`` the training
seed. Pools are small so that a run passes over each item several times.

The load is a closed loop with one caller in one process. Each run measures
whole passes over its workload's pool until ``--seconds`` have elapsed; an
item seen in several passes counts once, with its median time. BLAS runs
one thread: on a small shared host a second BLAS thread makes each matrix
product wait for the more contended core. Beside one busy core, viewcells
took 20-35% longer with two threads and no longer with one.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a traced pass, whose
spans come from ``spans.py``. Every run checks its outputs and exits 1 if a
check fails; the full record (named metrics, environment, digests, span
summary) goes to
``.perfbench-out/<workload>-s<seed>-t<trace>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import importlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
import traceback
from pathlib import Path

# before numpy loads its BLAS; see the module docstring
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
MODULES = ("core", "froxel", "oracle", "interleave", "neural", "evalrt", "scenegen", "cli")

NET_SEED = 0
POOL_SEED = 0       # master seed of the viewcell-64 scene pool
SETUP_REPEATS = 11
N_PER = 8           # viewcells whose pixel error rate is rendered, outside timing
N_GT_PER = 3        # datagen frames whose ground truth is culled and rendered
GT_PER_CAMERAS = 2  # of the cameras that built that ground truth


class CheckFailed(Exception):
    pass


def import_package():
    """Import froxelpvs from this checkout's ``src``; None if it is missing."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        pkg = importlib.import_module("froxelpvs")
    except ImportError:
        return None
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        return None
    return {name: importlib.import_module(f"froxelpvs.{name}") for name in MODULES}


def _check(ok, message):
    if not ok:
        raise CheckFailed(message)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
    return h.hexdigest()


def _grid_digest(grid) -> str:
    return _digest(grid.dims, grid.bits.tobytes())


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _order(seed, n) -> list:
    return [int(i) for i in np.random.Generator(np.random.PCG64(seed)).permutation(n)]


def _quiet_cli(fp, argv) -> int:
    """Run ``froxelpvs.cli.main`` in-process with its stdout swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fp["cli"].main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# Workloads. setup() builds the pool and its order; op(item) is the timed
# operation; check(item, output) verifies it untimed and returns its digest.
# ---------------------------------------------------------------------------

class Viewcell:
    name = "viewcell-64"
    unit = "viewcell"
    latency_names = {"viewcell_ms_p50": 50, "viewcell_ms_p90": 90}
    throughput_name = "viewcells_per_s"
    overhead_pairs = 10

    def __init__(self, fp, seed, tiny, workdir):
        self.fp, self.seed = fp, seed
        self.dims = (16,) * 3 if tiny else (64,) * 3
        self.pool_size = 3 if tiny else 12
        self.n_per = 2 if tiny else N_PER
        self.kept, self.per = {}, {}

    def setup(self):
        sg, nn = self.fp["scenegen"], self.fp["neural"]
        self.pool = [sg.generate_scene(sg.SceneGenConfig(seed=sg.frame_seed(POOL_SEED, i)))
                     for i in range(self.pool_size)]
        self.net = nn.PvsNet(nn.ModelConfig.default(4, hidden=64, init="identity"),
                             np.random.Generator(np.random.PCG64(NET_SEED)))
        self.order = _order(self.seed, self.pool_size)

    def triangle_counts(self):
        return [len(scene) for scene, _ in self.pool]

    def units(self, item):
        return 1

    def op(self, item):
        fp = self.fp
        scene, cell = self.pool[item]
        frustum = fp["core"].build_viewcell_frustum(cell)
        geometry = fp["froxel"].froxelize(scene, frustum, self.dims)
        pvs = fp["neural"].predict_pvs(geometry, self.net)
        id_map = fp["froxel"].froxel_id_map(scene, frustum, self.dims)
        kept = fp["evalrt"].cull(scene, pvs, id_map)
        return geometry, pvs, id_map, kept

    def check(self, item, out):
        fp = self.fp
        geometry, pvs, id_map, kept = out
        scene, cell = self.pool[item]
        keys = fp["froxel"].FroxelGrid(self.dims)
        keys.set_many(np.array(sorted(id_map), dtype=np.int64).reshape(-1, 3))
        _check(keys.bits.tobytes() == geometry.bits.tobytes(),
               f"viewcell {item}: id map froxels differ from the geometry grid")
        prims = set(int(p) for p in np.unique(scene.primitive_ids))
        _check(set(kept) <= prims, f"viewcell {item}: cull kept unknown primitive ids")
        self.kept[item] = len(kept) / len(prims)
        if item < self.n_per and item not in self.per:
            camera = cell.camera_at(cell.center)
            self.per[item] = fp["evalrt"].pixel_error_rate(scene, camera, pvs, id_map)
        if item == self.order[0]:
            self._check_steps(item, geometry, pvs)
        kept_ids = np.array(sorted(kept), dtype=np.int64)
        return _digest(_grid_digest(geometry), _grid_digest(pvs), kept_ids.tobytes())

    def _check_steps(self, item, geometry, pvs):
        """interleave -> each layer -> deinterleave equals predict_pvs."""
        nn = self.fp["neural"]
        d = self.net.cfg.d
        x = nn.interleave(geometry, d).values[None]
        for layer in self.net.layers:
            x = layer.forward(x)
        steps = nn.deinterleave(nn.ChannelTensor(x[0], d), d, threshold=0.5)
        _check(steps.bits.tobytes() == pvs.bits.tobytes(),
               f"viewcell {item}: step-by-step network differs from predict_pvs")

    def quality(self):
        return {"per": _mean(self.per.values()), "kept_frac": _mean(self.kept.values())}


class Datagen:
    name = "datagen-32"
    unit = "frame"
    latency_names = {"gt_frame_ms_p50": 50}
    throughput_name = "gt_frames_per_s"
    overhead_pairs = 3
    POOL = tuple(range(1, 5))    # gen-dataset master seeds, one frame each

    def __init__(self, fp, seed, tiny, workdir):
        self.fp, self.seed, self.workdir = fp, seed, workdir
        self.dims = 16 if tiny else 32
        self.pool_seeds = self.POOL[:2] if tiny else self.POOL
        self.ocfg = {"viewpoints": 4} if tiny else {}   # else the CLI default
        self.n_gt_per = 1 if tiny else N_GT_PER
        self.gt_per = {}

    def setup(self):
        sg = self.fp["scenegen"]
        self.order = _order(self.seed, len(self.pool_seeds))
        self.pool = [sg.generate_scene(sg.SceneGenConfig(seed=sg.frame_seed(m, 0)))
                     for m in self.pool_seeds]

    def triangle_counts(self):
        return [len(scene) for scene, _ in self.pool]

    def units(self, item):
        return 1

    def _out(self, item):
        return self.workdir / f"frame_{item}"

    def op(self, item):
        argv = ["gen-dataset", "--dims", self.dims, "--frames", 1,
                "--seed", self.pool_seeds[item], "--out", self._out(item)]
        for key, value in self.ocfg.items():
            argv += [f"--{key}", value]
        rc = _quiet_cli(self.fp, argv)
        if rc != 0:
            raise RuntimeError(f"gen-dataset exited with {rc}")

    def check(self, item, out):
        fp = self.fp
        path = self._out(item)
        try:
            records = fp["scenegen"].read_manifest(path / "manifest.txt")
            _check(len(records) == 1, f"frame {item}: {len(records)} manifest records, want 1")
            geometry = fp["froxel"].FroxelGrid.load(records[0].geometry_path)
            gt = fp["froxel"].FroxelGrid.load(records[0].gt_path)
        finally:
            shutil.rmtree(path, ignore_errors=True)
        _check(gt.subset_of(geometry), f"frame {item}: ground truth escapes geometry")
        if item < self.n_gt_per and item not in self.gt_per:
            self.gt_per[item] = self._gt_per(item, gt)
        return _digest(_grid_digest(geometry), _grid_digest(gt))

    def _gt_per(self, item, gt):
        """Pixel error of culling with the ground truth on its own cameras."""
        fp = self.fp
        scene, cell = self.pool[item]
        frustum = fp["core"].build_viewcell_frustum(cell)
        id_map = fp["froxel"].froxel_id_map(scene, frustum, gt.dims)
        cams = fp["oracle"].sample_viewpoints(cell, fp["oracle"].OracleConfig(**self.ocfg))
        picks = cams[::max(1, len(cams) // GT_PER_CAMERAS)][:GT_PER_CAMERAS]
        return statistics.fmean(fp["evalrt"].pixel_error_rate(scene, cam, gt, id_map)
                                for cam in picks)

    def quality(self):
        return {"gt_per": _mean(self.gt_per.values())}


class Train:
    name = "train-32"
    unit = "training call"
    latency_names = {"train_call_ms_p50": 50, "train_call_ms_p90": 90}
    throughput_name = "train_pairs_per_s"
    overhead_pairs = 10
    DATA_SEED = 1       # fixed: set-up cost follows the scenes, the dense step does not

    def __init__(self, fp, seed, tiny, workdir):
        self.fp, self.seed, self.workdir = fp, seed, workdir
        self.dims = 16 if tiny else 32
        self.frames = 3 if tiny else 6
        self.viewpoints = 2 if tiny else 4   # the dense step's cost ignores gt content
        self.epochs = 1 if tiny else 2
        self.setups = 0
        self.losses = []

    def setup(self):
        self.setups += 1
        data = self.workdir / f"dataset_{self.setups}"
        rc = _quiet_cli(self.fp, ["gen-dataset", "--dims", self.dims, "--frames", self.frames,
                                  "--viewpoints", self.viewpoints, "--seed", self.DATA_SEED,
                                  "--out", data])
        if rc != 0:
            raise RuntimeError(f"gen-dataset exited with {rc}")
        self.manifest = data / "manifest.txt"
        self.order = [0]

    def triangle_counts(self):
        sg = self.fp["scenegen"]
        return [len(sg.generate_scene(sg.SceneGenConfig(seed=sg.frame_seed(self.DATA_SEED, i)))[0])
                for i in range(self.frames)]

    def units(self, item):
        return self.frames * self.epochs

    def op(self, item):
        rc = _quiet_cli(self.fp, ["train", "--manifest", self.manifest, "--epochs", self.epochs,
                                  "--seed", self.seed, "--out", self.workdir / "net.fpvw",
                                  "--log", self.workdir / "epochs.csv"])
        if rc != 0:
            raise RuntimeError(f"train exited with {rc}")

    def check(self, item, out):
        fp = self.fp
        rows = (self.workdir / "epochs.csv").read_text().split()
        loss = float(rows[-1].split(",")[rows[0].split(",").index("loss")])
        _check(math.isfinite(loss), f"non-finite final loss {loss}")
        self.losses.append(loss)
        ckpt = self.workdir / "net.fpvw"
        net = fp["neural"].PvsNet.load(ckpt)
        geometry = fp["neural"].load_pairs(self.manifest)[0][0]
        pred = fp["neural"].predict_pvs(geometry, net)
        _check(pred.dims == geometry.dims, "reloaded checkpoint predicts the wrong dims")
        return _digest(ckpt.read_bytes(), _grid_digest(pred))

    def quality(self):
        return {"train_loss": self.losses[-1] if self.losses else 0.0}


WORKLOADS = {w.name: w for w in (Viewcell, Datagen, Train)}

# per-layer metric -> (unit, span name, count key or None, summed per batch)
PER_LAYER = {
    "scenegen.generate_scene_ms": ("ms", "scenegen.generate_scene", None, False),
    "froxel.froxelize_ms": ("ms", "froxel.froxelize", None, False),
    "froxel.occupied": ("count", "froxel.froxelize", "occupied", False),
    "froxel.id_map_ms": ("ms", "froxel.id_map", None, False),
    "froxel.id_map_pairs": ("count", "froxel.id_map", "pairs", False),
    "froxel.save_ms": ("ms", "froxel.save", None, False),
    "froxel.bytes_written": ("bytes", "froxel.save", "bytes", False),
    "interleave.interleave_ms": ("ms", "interleave.interleave", None, False),
    "interleave.deinterleave_ms": ("ms", "interleave.deinterleave", None, False),
    "neural.predict_ms": ("ms", "neural.predict", None, False),
    "neural.conv0_ms": ("ms", "neural.conv0", None, False),
    "neural.conv1_ms": ("ms", "neural.conv1", None, False),
    "neural.conv2_ms": ("ms", "neural.conv2", None, False),
    "neural.forward_cached_ms": ("ms", "neural.forward_cached", None, True),
    "neural.loss_ms": ("ms", "neural.loss", None, True),
    "neural.backward_ms": ("ms", "neural.backward", None, True),
    "neural.sgd_ms": ("ms", "neural.sgd", None, True),
    "oracle.compute_gt_pvs_ms": ("ms", "oracle.compute_gt_pvs", None, False),
    "oracle.render_depth_ms": ("ms", "oracle.render_depth", None, False),
    "oracle.covered_px": ("count", "oracle.render_depth", "covered_px", False),
    "oracle.gt_froxels": ("count", "oracle.compute_gt_pvs", "gt_froxels", False),
    "core.reproject_fragments_ms": ("ms", "core.reproject_fragments", None, False),
    "evalrt.cull_ms": ("ms", "evalrt.cull", None, False),
    "evalrt.kept": ("count", "evalrt.cull", "kept", False),
}

# per-layer metrics that also count set-up calls; the rest count only
# calls made by the timed operations
SETUP_LAYER = {"scenegen.generate_scene_ms"}

# output quality, the same traced or not; 0.0 on workloads that do not make it
QUALITY = {"evalrt.per": ("per", "fraction"), "evalrt.kept_frac": ("kept_frac", "fraction"),
           "evalrt.gt_per": ("gt_per", "fraction"), "neural.train_loss": ("train_loss", "loss")}


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas():
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unknown")
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = fn()
                break
    return f"{info.get('name')} {info.get('version')}", threads


def environment(workload, seed):
    blas, threads = _blas()
    return {"git_rev": _git_rev(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": threads,
            "nproc": len(os.sched_getaffinity(0)), "seed": seed,
            "triangles": workload.triangle_counts()}


# ---------------------------------------------------------------------------
# The measured loop
# ---------------------------------------------------------------------------

class Run:
    """Attempts, failures, per-operation times and per-item digests."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.times = []
        self.items = []
        self.units = 0
        self.digests = {}
        self.errors = []

    def one(self, workload, item, tracer=None):
        """Time one operation, traced if a tracer is given, then check it
        untimed and untraced; a failure is counted and its time stays in the
        sample."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = workload.op(item) if tracer is None \
                else tracer.run(workload.unit, workload.op, item)
        except Exception:
            self.times.append(time.perf_counter() - t0)
            self.items.append(item)
            self._fail(item, traceback.format_exc())
            return None
        dt = time.perf_counter() - t0
        self.times.append(dt)
        self.items.append(item)
        self.units += workload.units(item)
        try:
            digest = workload.check(item, out)
        except Exception:
            self._fail(item, traceback.format_exc())
            return dt
        if self.digests.setdefault(item, digest) != digest:
            self._fail(item, f"item {item}: output changed between repeats")
        return dt

    def _fail(self, item, message):
        self.failed += 1
        self.errors.append(message)
        print(f"perfbench: {message}", file=sys.stderr)


def measure(workload, seconds, run, tracer=None):
    """Whole passes over the workload's pool until ``seconds`` have elapsed.

    With a tracer, the first ``overhead_pairs`` operations also run
    untraced, before or after their traced run by turns so that drift
    cancels; returns the median traced minus untraced time in ms.
    """
    pairs = []
    t_start = time.perf_counter()
    n = 0
    while True:
        for item in workload.order:
            if tracer is None:
                run.one(workload, item)
            elif n < workload.overhead_pairs:
                sides = (None, tracer) if n % 2 == 0 else (tracer, None)
                a, b = (run.one(workload, item, side) for side in sides)
                if a is not None and b is not None:
                    pairs.append(b - a if n % 2 == 0 else a - b)
            else:
                run.one(workload, item, tracer)
            n += 1
        if time.perf_counter() - t_start >= seconds:
            break
    return 1e3 * statistics.median(pairs) if pairs else 0.0


def _peak_mem_mb(workload) -> float:
    """tracemalloc peak of one operation on the pool's first item."""
    tracemalloc.start()
    try:
        workload.op(0)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def _traced(fp, workload, seconds, run):
    """One traced pass; returns the per-layer metrics and the span record."""
    import spans
    tracer = spans.Tracer()
    tracer.install(fp)
    try:
        tracer.run("setup", workload.setup)
        overhead_ms = measure(workload, seconds, run, tracer)
    finally:
        tracer.uninstall()
    metrics = {}
    for name, (unit, span, key, per_batch) in PER_LAYER.items():
        found = tracer.named(span, with_setup=name in SETUP_LAYER)
        metrics[name] = (spans.median_count(found, key) if key
                         else spans.median_ms(found, per_batch), unit)
    macs_span = "neural.predict" if tracer.named("neural.predict") else "neural.forward_cached"
    macs = spans.median_count(tracer.named(macs_span), "macs")
    macs_ms = spans.median_ms(tracer.named(macs_span))
    metrics["neural.macs"] = (macs, "MAC_computed")
    metrics["neural.gmacs_per_s"] = (macs / macs_ms / 1e6 if macs_ms else 0.0, "GMAC/s")
    metrics["trace.overhead_ms"] = (overhead_ms, "ms")
    quality = workload.quality()
    for name, (key, unit) in QUALITY.items():
        metrics[name] = (quality.get(key, 0.0), unit)
    return metrics, {"span_summary": tracer.summary(),
                     "spans": [s.as_dict() for s in tracer.spans]}


def _untraced(workload, seconds, run):
    """Set-up repeats, a memory pass, then the timed passes; returns the
    end-to-end metrics and their workload-specific names."""
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
    peak = _peak_mem_mb(workload)
    measure(workload, seconds, run)
    per_item: dict = {}
    for item, t in zip(run.items, run.times):
        per_item.setdefault(item, []).append(t)
    # throughput and the p50 count each item once, at its median over the
    # passes; higher percentiles take every sample, for enough beyond them.
    # Throughput rests on every sample, the p50 of a small pool on the two
    # middle items only, so only throughput is an end-to-end metric.
    item_s = [statistics.median(ts) for ts in per_item.values()]
    units = sum(workload.units(item) for item in per_item)
    metrics = {"throughput_per_s": (units / sum(item_s), "1/s"),
               "peak_mem_mb": (peak, "MB"),
               "setup_s": (statistics.median(setups), "s")}
    named = {alias: (1e3 * (statistics.median(item_s) if q == 50
                            else float(np.percentile(run.times, q))), "ms")
             for alias, q in workload.latency_names.items()}
    named[workload.throughput_name] = metrics["throughput_per_s"]
    named.update((k, metrics[k]) for k in ("peak_mem_mb", "setup_s"))
    named["samples"] = (len(run.times), "count")
    return metrics, named


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny sizes, for the benchmark's self-test")
    args = ap.parse_args(argv)

    fp = import_package()
    if fp is None:
        print(f"perfbench: froxelpvs not found under {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace}
    run = Run()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload = WORKLOADS[args.workload](fp, args.seed, args.tiny, Path(tmp))
        if args.trace:
            metrics, trace_record = _traced(fp, workload, args.seconds, run)
            named = {}
        else:
            metrics, named = _untraced(workload, args.seconds, run)
            trace_record = {}
        units = {key: unit for key, unit in QUALITY.values()}
        named.update((k, (v, units[k])) for k, v in workload.quality().items())
        named["failed_frac"] = (run.failed / run.attempted, "fraction")
        env = environment(workload, args.seed)

    correct = run.failed == 0
    items = {str(k): v for k, v in sorted(run.digests.items())}
    record.update({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                   "op_ms": [[i, 1e3 * t] for i, t in zip(run.items, run.times)], "env": env,
                   "digest": _digest(*(f"{k}:{v}" for k, v in items.items())),
                   "item_digests": items, "errors": run.errors,
                   "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   **trace_record})
    path = OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    for k, (v, u) in named.items():
        print(f"{k} {v:.6g} {u}")
    print(f"env {json.dumps(env)}")
    print(f"digest {record['digest']}  record {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
